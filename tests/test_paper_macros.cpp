// Full compiles of the paper's own macros: Fig. 6 (64 KB, 4096 x 128,
// bpc 8) and Fig. 7 (128 KB, 4096 x 256, bpc 16). The over-the-cell
// route check works on per-block metal3 abstracts, so each compile takes
// milliseconds and a few MB instead of a whole-chip flatten.

#include <gtest/gtest.h>

#include <cmath>

#include "core/compiler.hpp"
#include "march/march.hpp"

namespace bisram::core {
namespace {

RamSpec paper_spec(int bpw, int bpc) {
  RamSpec s;
  s.words = 4096;
  s.bpw = bpw;
  s.bpc = bpc;
  s.spare_rows = 4;
  s.technology = "cda.7u3m1p";
  s.test = &march::ifa9();
  return s;
}

TEST(CompilerApi, Fig6MacroRoutesCleanAndKeepsItsGeometry) {
  const Generated g = Compiler().run(paper_spec(128, 8));
  EXPECT_EQ(g.route.routed_spans, 10);
  EXPECT_EQ(g.route.via_stacks, 20);
  EXPECT_EQ(g.route.m3_wires, 19);
  EXPECT_DOUBLE_EQ(g.route.m3_length_dbu, 4942210.0);
  EXPECT_EQ(g.route.m3_conflicts, 0);
  EXPECT_TRUE(g.route.conflict_paths.empty());
  EXPECT_EQ(g.top->bbox(), geom::Rect::ltrb(-8780, -86, 600930, 604836));
}

TEST(CompilerApi, Fig7MacroRoutesCleanWithAFiniteDatasheet) {
  const Generated g = Compiler().run(paper_spec(256, 16));
  EXPECT_EQ(g.route.m3_conflicts, 0);
  const Datasheet& ds = g.sheet;
  for (const double v : {ds.width_um, ds.height_um, ds.area_mm2,
                         ds.array_mm2, ds.overhead_pct, ds.rectangularity,
                         ds.timing.access_s, ds.timing.write_s,
                         ds.test_time_s}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

}  // namespace
}  // namespace bisram::core
