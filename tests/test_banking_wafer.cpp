// Tests for the banking analysis and the wafer-map Monte-Carlo.

#include <gtest/gtest.h>

#include "core/banking.hpp"
#include "core/compiler.hpp"
#include "models/wafermap.hpp"
#include "models/yield.hpp"
#include "util/error.hpp"

namespace bisram {
namespace {

core::RamSpec bank_spec() {
  core::RamSpec s;
  s.words = 4096;
  s.bpw = 32;
  s.bpc = 4;
  s.spare_rows = 4;
  s.strap_interval = 0;
  return s;
}

TEST(Banking, ValidatesInput) {
  EXPECT_THROW(core::evaluate_banking(bank_spec(), 3), Error);
  EXPECT_THROW(core::evaluate_banking(bank_spec(), 0), Error);
}

TEST(Banking, MoreBanksFasterButBigger) {
  const auto p1 = core::evaluate_banking(bank_spec(), 1);
  const auto p4 = core::evaluate_banking(bank_spec(), 4);
  const auto p8 = core::evaluate_banking(bank_spec(), 8);
  EXPECT_LT(p4.access_ns, p1.access_ns);
  EXPECT_LT(p8.access_ns, p4.access_ns);
  EXPECT_GT(p4.area_mm2, p1.area_mm2 * 0.99);
  EXPECT_GT(p8.overhead_pct, p1.overhead_pct);
}

TEST(Banking, SingleBankMatchesFlatGenerate) {
  const auto p1 = core::evaluate_banking(bank_spec(), 1);
  const auto flat = core::Compiler().run(bank_spec()).sheet;
  // Same module plus the (zero-doubling) routing term: identical.
  EXPECT_NEAR(p1.access_ns, flat.timing.access_s * 1e9, 1e-6);
  const double flat_area = flat.array_mm2 + flat.spare_mm2 +
                           flat.decoder_mm2 + flat.periphery_mm2 +
                           flat.bist_mm2 + flat.bisr_mm2;
  EXPECT_NEAR(p1.area_mm2, flat_area, 1e-9);
}

models::WaferSpec wafer_spec() {
  models::WaferSpec w;
  w.wafer_mm = 150;
  w.die_w_mm = 10;
  w.die_h_mm = 10;
  w.defects_per_cm2 = 1.0;
  w.cluster_alpha = 2.0;
  w.ram_fraction = 0.3;
  w.ram_geo = sim::RamGeometry{4096, 4, 4, 4};
  return w;
}

TEST(WaferMap, DieAccountingConsistent) {
  const auto r = models::simulate_wafer(wafer_spec(), 7);
  EXPECT_GT(r.dies_total, 50);
  EXPECT_EQ(r.good + r.repaired + r.bad, r.dies_total);
  EXPECT_GE(r.yield_with_bisr(), r.yield_without_bisr());
}

TEST(WaferMap, BisrRescuesDies) {
  // With a RAM occupying 30% of a defective die, a visible fraction of
  // dies should be repaired-only.
  const auto r = models::simulate_wafer(wafer_spec(), 11);
  EXPECT_GT(r.repaired, 0);
}

TEST(WaferMap, NoDefectsMeansPerfectWafer) {
  auto spec = wafer_spec();
  spec.defects_per_cm2 = 0.0;
  const auto r = models::simulate_wafer(spec, 3);
  EXPECT_EQ(r.bad, 0);
  EXPECT_EQ(r.repaired, 0);
  EXPECT_DOUBLE_EQ(r.yield_without_bisr(), 1.0);
}

TEST(WaferMap, YieldTracksStapperWithoutBisr) {
  // Averaged over wafers, the no-BISR yield should approximate the
  // Stapper formula for the die's defect mean.
  auto spec = wafer_spec();
  double sum = 0.0;
  const int wafers = 30;
  for (int i = 0; i < wafers; ++i)
    sum += models::simulate_wafer(spec, 100 + static_cast<unsigned>(i))
               .yield_without_bisr();
  const double mean_defects = spec.defects_per_cm2 * 1.0;  // 10x10 mm
  const double expected = models::stapper_yield(mean_defects, spec.cluster_alpha);
  EXPECT_NEAR(sum / wafers, expected, 0.05);
}

TEST(WaferMap, RenderShapesMatch) {
  const auto r = models::simulate_wafer(wafer_spec(), 5);
  const std::string art = models::render_wafer(r);
  // One line per die row plus newlines; contains all state glyphs.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'),
            static_cast<long>(r.map.size()));
  EXPECT_NE(art.find('O'), std::string::npos);
  EXPECT_NE(art.find('X'), std::string::npos);
}

TEST(WaferMap, RejectsBadSpec) {
  auto spec = wafer_spec();
  spec.ram_fraction = 1.5;
  EXPECT_THROW(models::simulate_wafer(spec, 1), Error);
}

}  // namespace
}  // namespace bisram
