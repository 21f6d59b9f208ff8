// Property-style sweeps (parameterized gtest) over the library's core
// invariants:
//  * the eight layout orientations form a closed group with inverses;
//  * march notation round-trips through parse/print for random tests;
//  * the TLB matches a reference map model under random op sequences;
//  * the behavioural and microcoded BIST engines agree for every march
//    test in the library;
//  * the analytic repairability model tracks Monte-Carlo across
//    geometries.

#include <cctype>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "geom/geometry.hpp"
#include "march/march.hpp"
#include "models/yield.hpp"
#include "sim/bist.hpp"
#include "sim/controller.hpp"
#include "sim/tlb.hpp"
#include "util/rng.hpp"

namespace bisram {
namespace {

// --- transform group --------------------------------------------------------

TEST(TransformGroup, EveryOrientationHasAnInverse) {
  using geom::Orient;
  using geom::Transform;
  for (int i = 0; i < 8; ++i) {
    const Transform t(static_cast<Orient>(i), {17, -9});
    bool found_inverse = false;
    for (int j = 0; j < 8; ++j) {
      // Try composing with every orientation and solving the offset.
      const Transform u(static_cast<Orient>(j), {0, 0});
      const Transform c = u.compose(t);
      if (c.orient() != Orient::R0) continue;
      const Transform inv(static_cast<Orient>(j),
                          {-c.offset().x, -c.offset().y});
      const Transform id = inv.compose(t);
      if (id.orient() == Orient::R0 && id.offset() == geom::Point{0, 0}) {
        found_inverse = true;
        break;
      }
    }
    EXPECT_TRUE(found_inverse) << geom::orient_name(static_cast<Orient>(i));
  }
}

TEST(TransformGroup, CompositionIsAssociative) {
  using geom::Orient;
  using geom::Transform;
  Rng rng(77);
  for (int trial = 0; trial < 64; ++trial) {
    const Transform a(static_cast<Orient>(rng.below(8)),
                      {static_cast<geom::Coord>(rng.below(40)) - 20,
                       static_cast<geom::Coord>(rng.below(40)) - 20});
    const Transform b(static_cast<Orient>(rng.below(8)),
                      {static_cast<geom::Coord>(rng.below(40)) - 20, 3});
    const Transform c(static_cast<Orient>(rng.below(8)),
                      {5, static_cast<geom::Coord>(rng.below(40)) - 20});
    const geom::Point p{static_cast<geom::Coord>(rng.below(20)) - 10,
                        static_cast<geom::Coord>(rng.below(20)) - 10};
    const auto left = a.compose(b).compose(c).apply(p);
    const auto right = a.compose(b.compose(c)).apply(p);
    EXPECT_EQ(left, right);
  }
}

// --- march notation fuzz -----------------------------------------------------

march::MarchTest random_march(Rng& rng) {
  std::vector<march::Element> elements;
  const int n = 1 + static_cast<int>(rng.below(6));
  for (int e = 0; e < n; ++e) {
    march::Element el;
    el.order = static_cast<march::Order>(rng.below(3));
    const int ops = 1 + static_cast<int>(rng.below(3));
    for (int o = 0; o < ops; ++o)
      el.ops.push_back(static_cast<march::Op>(rng.below(4)));
    elements.push_back(std::move(el));
  }
  return march::MarchTest("fuzz", std::move(elements));
}

TEST(MarchFuzz, PrintParseRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const march::MarchTest t = random_march(rng);
    const march::MarchTest back = march::MarchTest::parse("fuzz", t.to_string());
    EXPECT_EQ(back.to_string(), t.to_string());
    EXPECT_EQ(back.ops_per_address(), t.ops_per_address());
  }
}

// --- TLB vs reference model ---------------------------------------------------

TEST(TlbFuzz, MatchesReferenceMapUnderRandomOps) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.below(20));
    sim::Tlb tlb(capacity);
    // Reference: latest mapping per address, allocation counter.
    std::vector<std::pair<std::uint32_t, int>> entries;
    for (int op = 0; op < 200; ++op) {
      const std::uint32_t addr = static_cast<std::uint32_t>(rng.below(16));
      if (rng.chance(0.6)) {
        const bool force = rng.chance(0.3);
        const auto got = tlb.record(addr, force);
        // Reference semantics.
        int expect = -1;
        if (!force) {
          for (auto it = entries.rbegin(); it != entries.rend(); ++it)
            if (it->first == addr) {
              expect = it->second;
              break;
            }
        }
        if (expect < 0) {
          if (static_cast<int>(entries.size()) < capacity) {
            expect = static_cast<int>(entries.size());
            entries.push_back({addr, expect});
          }
        }
        if (expect < 0) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, expect);
        }
      } else {
        const auto got = tlb.lookup(addr);
        int expect = -1;
        for (auto it = entries.rbegin(); it != entries.rend(); ++it)
          if (it->first == addr) {
            expect = it->second;
            break;
          }
        if (expect < 0) EXPECT_FALSE(got.has_value());
        else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, expect);
        }
      }
    }
  }
}

// --- BIST engine equivalence across the march library -------------------------

// The parameter wraps the march test so gtest prints its name rather than
// a pointer: the printed value is part of the discovered ctest name, and an
// address would change that name on every build.
struct MarchCase {
  const march::MarchTest* test;
};

std::string case_id(const MarchCase& c) {
  std::string id = c.test->name();
  for (char& ch : id)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return id;
}

void PrintTo(const MarchCase& c, std::ostream* os) { *os << case_id(c); }

class BistEquivalence : public ::testing::TestWithParam<MarchCase> {};

TEST_P(BistEquivalence, BehaviouralEqualsMicrocoded) {
  const march::MarchTest& test = *GetParam().test;
  sim::RamGeometry g;
  g.words = 32;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    sim::RamModel a(g), b(g);
    const int faults = static_cast<int>(rng.below(5));
    for (int i = 0; i < faults; ++i) {
      const auto addr = static_cast<std::uint32_t>(rng.below(g.words));
      const int bit = static_cast<int>(rng.below(4));
      const auto f = sim::stuck_bit_fault(g, addr, bit, rng.chance(0.5));
      a.array().inject(f);
      b.array().inject(f);
    }
    sim::BistConfig cfg;
    cfg.test = &test;
    const auto ra = sim::BistEngine(a, cfg).run();
    const auto rb = sim::run_microcoded_bist(b, cfg);
    EXPECT_EQ(ra.repair_successful, rb.repair_successful) << test.name();
    EXPECT_EQ(ra.spares_used, rb.spares_used) << test.name();
    EXPECT_EQ(ra.cycles, rb.cycles) << test.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    MarchLibrary, BistEquivalence,
    ::testing::Values(MarchCase{&march::ifa9()}, MarchCase{&march::ifa13()},
                      MarchCase{&march::mats_plus()},
                      MarchCase{&march::march_c_minus()},
                      MarchCase{&march::march_x()},
                      MarchCase{&march::march_y()}),
    [](const ::testing::TestParamInfo<MarchCase>& info) {
      return case_id(info.param);
    });

// --- yield model: analytic vs Monte-Carlo across geometries -------------------

struct GeoCase {
  std::uint32_t words;
  int bpw;
  int bpc;
  int spares;
};

class YieldAgreement : public ::testing::TestWithParam<GeoCase> {};

TEST_P(YieldAgreement, AnalyticTracksMonteCarlo) {
  const GeoCase& c = GetParam();
  sim::RamGeometry g{c.words, c.bpw, c.bpc, c.spares};
  g.validate();
  for (std::int64_t defects : {2, 8, 20}) {
    const double analytic = models::repair_probability(g, defects);
    const double mc =
        models::repair_probability_mc(
            g, defects, sim::CampaignSpec{.trials = 3000, .seed = 4242})
            .value;
    EXPECT_NEAR(analytic, mc, 0.035)
        << c.words << "x" << c.bpw << " s" << c.spares << " d" << defects;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, YieldAgreement,
                         ::testing::Values(GeoCase{1024, 8, 4, 4},
                                           GeoCase{4096, 4, 4, 4},
                                           GeoCase{4096, 4, 4, 8},
                                           GeoCase{2048, 16, 8, 4},
                                           GeoCase{512, 32, 4, 16}));

}  // namespace
}  // namespace bisram
