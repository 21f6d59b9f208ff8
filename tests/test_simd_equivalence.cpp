// Bit-identity contract of the runtime-dispatched SIMD layer
// (util/simd.hpp): the AVX2 lanes and the scalar fallback must agree bit
// for bit, both on the raw primitives and through the packed bit-plane
// yield campaign (sim/packed_ram.hpp) that uses them. The SIMD
// primitives are pure integer transforms, so any divergence is a bug —
// there is no tolerance anywhere in this file.

#include <gtest/gtest.h>

#include <vector>

#include "models/yield.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bisram {
namespace {

using sim::RamGeometry;

/// RAII override of the dispatch level, restoring the environment rule
/// on scope exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_level(level); }
  ~ScopedSimdLevel() { clear_simd_level(); }
};

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (auto& w : v) w = rng.next();
  return v;
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd_level_name(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx2), "avx2");
}

TEST(SimdDispatch, ScalarOverrideAlwaysLegal) {
  ScopedSimdLevel forced(SimdLevel::Scalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::Scalar);
}

TEST(SimdDispatch, ForcingAvx2OnUnsupportedHostThrows) {
  if (detected_simd_level() == SimdLevel::Avx2)
    GTEST_SKIP() << "host supports AVX2; the guard cannot fire here";
  EXPECT_THROW(set_simd_level(SimdLevel::Avx2), SpecError);
}

TEST(SimdPrimitives, Avx2MatchesScalarBitForBit) {
  if (detected_simd_level() != SimdLevel::Avx2)
    GTEST_SKIP() << "host has no AVX2; nothing to cross-check";
  Rng rng(0x51D0123ULL);
  // Sizes straddling the 4-word lane width: empty, sub-lane, exact
  // multiples, and ragged remainders.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{8},
                        std::size_t{31}, std::size_t{64}, std::size_t{100}}) {
    const auto pattern = random_words(rng, n);
    const auto mask = random_words(rng, n);
    const auto base = random_words(rng, n);

    std::vector<std::uint64_t> got = base, want = base;
    {
      ScopedSimdLevel forced(SimdLevel::Avx2);
      simd::masked_assign(got.data(), pattern.data(), mask.data(), n);
    }
    std::uint64_t got_diff, want_diff;
    {
      ScopedSimdLevel forced(SimdLevel::Avx2);
      got_diff = simd::masked_diff(base.data(), pattern.data(), mask.data(), n);
    }
    {
      ScopedSimdLevel forced(SimdLevel::Scalar);
      simd::masked_assign(want.data(), pattern.data(), mask.data(), n);
      want_diff =
          simd::masked_diff(base.data(), pattern.data(), mask.data(), n);
    }
    EXPECT_EQ(got, want) << "masked_assign, n = " << n;
    EXPECT_EQ(got_diff, want_diff) << "masked_diff, n = " << n;
    // And the written buffer must now compare clean against its pattern.
    ASSERT_EQ(simd::masked_diff(got.data(), pattern.data(), mask.data(), n),
              0u)
        << n;
  }
}

TEST(CampaignEquivalence, ForcedScalarSimdIdenticalCampaign) {
  const RamGeometry geo{64, 4, 4, 4};
  sim::CampaignSpec spec;
  spec.trials = 200;
  spec.seed = 555;
  const auto native = models::bisr_yield_mc_with_bist(geo, 0.8, 2.0, 1.0,
                                                      spec);
  ScopedSimdLevel forced(SimdLevel::Scalar);
  const auto fallback = models::bisr_yield_mc_with_bist(geo, 0.8, 2.0, 1.0,
                                                        spec);
  EXPECT_EQ(native.value.bist_repaired, fallback.value.bist_repaired);
  EXPECT_EQ(native.value.strict_good, fallback.value.strict_good);
}

}  // namespace
}  // namespace bisram
