#pragma once
// Deterministic pseudo-random generator (xoshiro256**) used by the
// Monte-Carlo yield model and the fault simulator. Deterministic seeding
// keeps every test and benchmark reproducible across platforms, unlike
// std::default_random_engine whose distributions vary by vendor.

#include <cstdint>

namespace bisram {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [0, n) for n >= 1 (unbiased via rejection).
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t s_[4]{};
};

/// Stateless splitmix64 finalizer: one increment-and-mix step of the
/// splitmix64 sequence, usable as a strong 64-bit bijective hash. Inline:
/// LayoutDB::content_hash chains it over every shape field.
inline std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-based seed-stream splitter for parallel campaigns. Trial i of
/// a campaign seeded with `campaign_seed` always draws from
/// Rng(stream_seed(campaign_seed, i)), no matter which thread executes
/// it — the basis of the engine's bit-identical-for-any-thread-count
/// guarantee (see util/parallel.hpp). For a fixed campaign seed the map
/// stream -> seed is a bijection, so sub-streams never collide.
std::uint64_t stream_seed(std::uint64_t campaign_seed, std::uint64_t stream);

/// Standard normal variate (Box-Muller).
double normal_sample(Rng& rng);

/// Poisson variate with the given mean (Knuth for small means, normal
/// approximation above 1e3 where the error is negligible for our use).
std::int64_t poisson_sample(Rng& rng, double mean);

/// Gamma(shape, scale) variate (Marsaglia-Tsang). Used to mix Poisson
/// defect counts into Stapper's negative-binomial clustering model.
double gamma_sample(Rng& rng, double shape, double scale);

}  // namespace bisram
