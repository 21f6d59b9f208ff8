#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bisram {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  return splitmix64_mix(x - 0x9e3779b97f4a7c15ULL);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t stream_seed(std::uint64_t campaign_seed, std::uint64_t stream) {
  // Spread the counter across all 64 bits (odd multiplier = bijection)
  // before the xor so nearby trial indices land in unrelated seeds, then
  // finalize with the splitmix64 mixer.
  return splitmix64_mix(campaign_seed ^ (stream * 0x9e3779b97f4a7c15ULL));
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  ensure(n >= 1, "Rng::below: n must be >= 1");
  const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double normal_sample(Rng& rng) {
  // Box-Muller; discard the second variate for simplicity.
  double u1 = rng.uniform();
  while (u1 <= 0.0) u1 = rng.uniform();
  const double u2 = rng.uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::int64_t poisson_sample(Rng& rng, double mean) {
  ensure(mean >= 0.0, "poisson_sample: negative mean");
  if (mean == 0.0) return 0;
  if (mean > 1e3) {
    const double v = mean + std::sqrt(mean) * normal_sample(rng);
    return v < 0 ? 0 : static_cast<std::int64_t>(v + 0.5);
  }
  // Knuth's product-of-uniforms method.
  const double limit = std::exp(-mean);
  std::int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

double gamma_sample(Rng& rng, double shape, double scale) {
  ensure(shape > 0.0 && scale > 0.0, "gamma_sample: non-positive parameter");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang augmentation).
    const double u = std::max(rng.uniform(), 1e-300);
    return gamma_sample(rng, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal_sample(rng);
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

}  // namespace bisram
