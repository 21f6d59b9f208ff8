// Integration tests for the BISRAMGEN top level: spec validation, the
// full Compiler().run() flow, datasheet invariants (overhead < 7%, TLB
// penalty an order of magnitude below access time, controller < 0.1% of
// a 16 KB array), and the macro module underneath it.

#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "geom/writers.hpp"
#include "macro/macros.hpp"
#include "tech/tech_file.hpp"
#include "util/error.hpp"

namespace bisram::core {
namespace {

RamSpec small_spec() {
  RamSpec s;
  s.words = 256;
  s.bpw = 8;
  s.bpc = 4;
  s.spare_rows = 4;
  s.strap_interval = 16;
  return s;
}

TEST(Spec, ValidatesPaperConstraints) {
  RamSpec s = small_spec();
  EXPECT_NO_THROW(s.validate());
  s.spare_rows = 5;
  EXPECT_THROW(s.validate(), SpecError);
  s = small_spec();
  s.bpc = 3;
  EXPECT_THROW(s.validate(), SpecError);
  s = small_spec();
  s.gate_size = 0.5;
  EXPECT_THROW(s.validate(), SpecError);
  s = small_spec();
  s.technology = "intel.10nm";
  EXPECT_THROW(s.validate(), SpecError);
  s = small_spec();
  s.words = 255;  // not divisible by bpc
  EXPECT_THROW(s.validate(), SpecError);
}

TEST(Generate, SmallModuleEndToEnd) {
  const Generated g = Compiler().run(small_spec());
  ASSERT_NE(g.top, nullptr);
  EXPECT_EQ(g.top->instances().size(), 8u);  // the eight macrocells
  EXPECT_GT(g.sheet.area_mm2, 0.0);
  EXPECT_GT(g.sheet.array_mm2, 0.0);
  EXPECT_GT(g.sheet.rectangularity, 0.3);
  EXPECT_GT(g.sheet.timing.access_s, 0.0);
  const std::string text = g.sheet.render();
  EXPECT_NE(text.find("BISRAMGEN datasheet"), std::string::npos);
  EXPECT_NE(text.find("overhead"), std::string::npos);
}

TEST(Generate, OverheadBelowPaperBoundForRealisticSizes) {
  // Paper: "low area overheads for BIST and BISR, of at most 7% for
  // realistic array sizes" (64 Kb - 4 Mb). Check a 64 Kb configuration.
  RamSpec s;
  s.words = 2048;   // 64 Kb: 2 K words x 32 bits
  s.bpw = 32;
  s.bpc = 4;
  s.spare_rows = 4;
  const Generated g = Compiler().run(s);
  EXPECT_LT(g.sheet.overhead_pct, 7.0);
  EXPECT_GT(g.sheet.overhead_pct, 0.0);
}

TEST(Generate, OverheadShrinksWithArraySize) {
  // The fixed BIST/BISR logic amortizes over larger arrays.
  RamSpec small;
  small.words = 512;
  small.bpw = 16;
  small.bpc = 4;
  RamSpec large = small;
  large.words = 4096;
  const double o_small = Compiler().run(small).sheet.overhead_pct;
  const double o_large = Compiler().run(large).sheet.overhead_pct;
  EXPECT_LT(o_large, o_small);
}

TEST(Generate, TlbPenaltyOrderOfMagnitudeBelowAccess) {
  // Paper section VI: the TLB penalty "is at least an order of magnitude
  // smaller than the RAM access time" with four spare rows.
  RamSpec s;
  s.words = 4096;
  s.bpw = 32;
  s.bpc = 4;
  s.spare_rows = 4;
  const Generated g = Compiler().run(s);
  EXPECT_LT(g.sheet.timing.penalty_ratio, 0.35);
  EXPECT_GT(g.sheet.timing.tlb_penalty_s, 0.0);
}

TEST(Generate, TlbPenaltyNearPaperValueAt07um) {
  // Paper: ~1.2 ns with four spare rows in a 0.7 um process. Accept the
  // right order of magnitude from our reconstructed deck.
  const tech::Tech& t = tech::cda_07();
  sim::RamGeometry geo{4096, 32, 4, 4};
  const double penalty = tlb_penalty_s(t, geo);
  EXPECT_GT(penalty, 0.2e-9);
  EXPECT_LT(penalty, 5.0e-9);
}

TEST(Generate, ControllerTinyFractionOfArray) {
  // Paper: controller area < 0.1% of a 16 KB RAM array.
  RamSpec s;
  s.words = 4096;  // 16 KB = 4 K words x 32 bits
  s.bpw = 32;
  s.bpc = 4;
  const Generated g = Compiler().run(s);
  EXPECT_LT(g.sheet.controller_pct, 0.6);
  EXPECT_EQ(g.sheet.state_register_bits, 6);  // the paper's six flip-flops
  EXPECT_LE(g.sheet.controller_states, 64);
}

TEST(Generate, TestLengthMatchesMarchArithmetic) {
  const RamSpec s = small_spec();
  const Generated g = Compiler().run(s);
  const std::uint64_t expected =
      march::test_cycles(march::ifa9(), s.words, s.bpw + 1) * 2;
  EXPECT_EQ(g.sheet.test_cycles, expected);
  EXPECT_GT(g.sheet.test_time_s, 0.0);
}

TEST(Generate, WorksForAllThreeProcesses) {
  for (const auto& name : tech::technology_names()) {
    RamSpec s = small_spec();
    s.technology = name;
    const Generated g = Compiler().run(s);
    EXPECT_GT(g.sheet.area_mm2, 0.0) << name;
    // Same lambda geometry, different physical size.
    EXPECT_EQ(g.sheet.technology, name);
  }
}

TEST(Generate, SmallerProcessGivesSmallerMacro) {
  RamSpec s = small_spec();
  s.technology = "cda.7u3m1p";
  const double a7 = Compiler().run(s).sheet.area_mm2;
  s.technology = "cda.5u3m1p";
  const double a5 = Compiler().run(s).sheet.area_mm2;
  EXPECT_NEAR(a5 / a7, (0.25 * 0.25) / (0.35 * 0.35), 0.02);
}

TEST(Generate, FullModuleIsDrcClean) {
  // Mask-level check of the complete assembled module: every macro is
  // clean individually (test_cells), and the floorplan halo plus
  // halo-resident pin taps keep the assembly clean too.
  RamSpec s = small_spec();
  s.strap_interval = 0;
  s.run_drc = true;
  const Generated g = Compiler().run(s);
  EXPECT_EQ(g.sheet.drc_violations, 0u);
}

TEST(Generate, UserTechnologyDeckDrivesGenerate) {
  // The design-rule-independence path end to end: a user-supplied deck
  // (not in the registry) drives the complete flow.
  const tech::Tech user = tech::read_tech_string(
      "name user.0p8u3m\n"
      "feature_um 0.8\n"
      "vdd 5.0\n"
      "nmos vt0 0.7 kp 1e-04 lambda 0.04\n"
      "pmos vt0 -0.8 kp 3.5e-05 lambda 0.05\n");
  RamSpec s = small_spec();
  s.custom_tech = std::make_shared<const tech::Tech>(user);
  const Generated g = Compiler().run(s);
  EXPECT_EQ(g.sheet.technology, "user.0p8u3m");
  EXPECT_GT(g.sheet.area_mm2, 0.0);
  // 0.8 um lambda (0.4) vs the 0.7 um default (0.35): area scales.
  s.custom_tech = nullptr;
  const double base_area = Compiler().run(s).sheet.area_mm2;
  EXPECT_NEAR(g.sheet.area_mm2 / base_area, (0.4 * 0.4) / (0.35 * 0.35),
              0.02);
}

TEST(Generate, OutlineSvgExports) {
  const Generated g = Compiler().run(small_spec());
  const std::string svg = geom::to_svg_outline(*g.top, 2, 800);
  EXPECT_NE(svg.find("RAMARRAY"), std::string::npos);
  EXPECT_NE(svg.find("TRPLA"), std::string::npos);
}

TEST(Generate, MoreSparesCostMoreAreaAndTlbDelay) {
  RamSpec s = small_spec();
  s.spare_rows = 4;
  const Generated g4 = Compiler().run(s);
  s.spare_rows = 16;
  const Generated g16 = Compiler().run(s);
  EXPECT_GT(g16.sheet.bisr_mm2, g4.sheet.bisr_mm2);
  EXPECT_GT(g16.sheet.timing.tlb_penalty_s, g4.sheet.timing.tlb_penalty_s);
}

TEST(Macros, AreasScaleWithGeometry) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  macro::MacroOptions opt;
  opt.strap_interval = 0;
  sim::RamGeometry g1{256, 8, 4, 4};
  sim::RamGeometry g2{512, 8, 4, 4};
  const double a1 = macro::macro_area_mm2(t, *macro::ram_array(lib, t, g1, opt));
  const double a2 = macro::macro_area_mm2(t, *macro::ram_array(lib, t, g2, opt));
  // Doubling the words doubles the regular rows: 64+4 -> 128+4 rows.
  EXPECT_NEAR(a2 / a1, 132.0 / 68.0, 0.01);
}

TEST(Macros, StrapsWidenTheArray) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  sim::RamGeometry g{256, 8, 4, 4};
  macro::MacroOptions no_straps;
  no_straps.strap_interval = 0;
  macro::MacroOptions straps;
  straps.strap_interval = 8;
  straps.strap_width_lambda = 32;
  const auto a0 = macro::ram_array(lib, t, g, no_straps);
  const auto a1 = macro::ram_array(lib, t, g, straps);
  EXPECT_GT(a1->bbox().width(), a0->bbox().width());
  EXPECT_EQ(a1->bbox().height(), a0->bbox().height());
  // 32 columns with straps every 8 -> 3 straps of 32 lambda.
  EXPECT_EQ(a1->bbox().width() - a0->bbox().width(), geom::dbu(3 * 32));
}

TEST(Macros, TrplaGridMatchesPersonality) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  microcode::PlaPersonality pla(3, 2);
  pla.add_term("1-0", "10");
  pla.add_term("01-", "11");
  const auto m = macro::trpla_macro(lib, t, pla);
  // Per term: 1 pull-up + 2*inputs AND cells + outputs OR cells.
  EXPECT_EQ(m->instances().size(),
            static_cast<std::size_t>(2 * (1 + 2 * 3 + 2)));
}

TEST(Macros, TlbGridSize) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  const auto m = macro::tlb_macro(lib, t, 16, 10);
  EXPECT_EQ(m->instances().size(), static_cast<std::size_t>(16 * 10 + 16));
}

}  // namespace
}  // namespace bisram::core
