#pragma once
// Stratified importance sampling over the per-die defect count.
//
// Every Monte-Carlo yield estimator in the repo shares one structure: a
// die draws its defect count K from the Gamma-Poisson mixture (so K is
// negative-binomial with Stapper clustering alpha), places the K defects
// uniformly, and simulates the outcome. At realistic defect densities
// the expensive part — the BIST/BISR simulation — is almost always spent
// on the *boring* stratum: P(K = 0) is 0.9+ and a zero-defect die's
// outcome is known analytically. Plain MC burns a full die simulation on
// every one of those trials and its estimator variance is dominated by
// the Bernoulli noise of rare faulty dies.
//
// The stratified estimator decomposes the expectation exactly:
//
//   E[f(die)] = P(K=0) * f0  +  sum_k P(K=k) * E[f | K=k]  +  tail
//
//   * the k = 0 stratum is resolved in closed form (f0 is known: a
//     defect-free die is good), costing zero simulations;
//   * each k >= 1 stratum is simulated *conditionally* — K is pinned to
//     k, and because the conditional placement of k defects is uniform
//     iid regardless of the mixed Gamma rate, the conditional trial
//     needs no rate draw at all — then reweighted with the exact
//     negative-binomial pmf (util/math.hpp);
//   * the residual tail beyond the last retained stratum (mass below
//     SamplingSpec::tail_mass, default 1e-12) is counted
//     *pessimistically* (as the worst outcome), so the estimator's
//     deterministic bias is bounded by that mass — far below the
//     resolution of any statistical test at feasible trial counts.
//
// Both estimators are unbiased for the same quantity up to that bound;
// tests/test_yield_statistics.cpp proves the agreement statistically
// (z-tests against the analytic Stapper/occupancy closed forms) and
// pins the variance reduction and the >= 10x die-simulation saving.
//
// Determinism: stratum s draws from seed sub-streams offset by
// stratum_stream_offset(s), so strata never share a trial stream with
// each other or with a plain campaign, and the combined estimate is
// bit-identical for any thread count (inherited from run_campaign).

#include <cstdint>
#include <vector>

#include "sim/campaign.hpp"

namespace bisram::sim {

/// One retained defect-count stratum.
struct Stratum {
  std::int64_t defects = 0;  ///< the pinned count k (>= 1)
  double probability = 0.0;  ///< exact P(K = k)
  int trials = 0;            ///< conditional trials allocated to it
};

/// The complete sampling plan for one campaign.
struct StrataPlan {
  double zero_probability = 0.0;  ///< P(K = 0), resolved analytically
  double tail_probability = 0.0;  ///< truncated mass, counted pessimistically
  std::vector<Stratum> strata;    ///< k >= 1 strata in ascending k
  /// Total conditional die simulations the plan will spend.
  std::int64_t total_trials() const {
    std::int64_t n = 0;
    for (const Stratum& s : strata) n += s.trials;
    return n;
  }
};

/// Builds the plan for K ~ NegBin(mean, alpha): walks k upward until the
/// residual tail drops below sampling.tail_mass, then gives stratum k
/// the trials plain MC would spend there in expectation (budget * P(K =
/// k), floored at sampling.min_stratum_trials so rare strata still
/// carry a variance estimate). The plan therefore simulates only
/// ~ budget * (1 - P(K=0)) dies while its SE is never worse than plain
/// MC's at the full budget (law of total variance: the between-strata
/// term drops out). mean == 0 degenerates to the pure zero stratum.
/// Throws SpecError on a non-positive budget or invalid sampling
/// parameters.
StrataPlan plan_strata(double mean, double alpha, int budget,
                       const SamplingSpec& sampling);

/// Seed-stream offset for stratum index s. Strata use disjoint 2^32-wide
/// stream windows (offset (s + 1) << 32), far above any realistic trial
/// count, so no stratum shares a sub-stream with another stratum or with
/// a plain campaign at offset 0.
std::uint64_t stratum_stream_offset(std::size_t s);

/// Bernoulli tally of one stratum's conditional trials. Integer counts —
/// not running floating-point means — so the fold is exactly associative
/// and the combined estimate is bit-identical for any thread count.
struct StratumCount {
  std::int64_t successes = 0;
  std::int64_t trials = 0;
};

/// A stratified estimate with its standard error.
struct WeightedEstimate {
  double value = 0.0;
  double std_error = 0.0;
};

/// Combines per-stratum Bernoulli counts into the stratified estimator:
///   value = P0 * zero_value + sum_k Pk * p_hat_k + tail * tail_value
///   SE^2  = sum_k Pk^2 * s_k^2 / n_k   (s_k^2 the unbiased Bernoulli
///                                       sample variance)
/// `zero_value` is the analytic outcome of a defect-free die and
/// `tail_value` the pessimistic outcome assigned to the truncated tail.
/// `counts` must be parallel to plan.strata. A stratum with zero trials
/// (a cancelled campaign never reached it) contributes tail_value — the
/// same pessimistic treatment as the truncated tail — so a partial
/// stratified estimate is a valid conservative bound, not an error.
WeightedEstimate combine_strata_bernoulli(const StrataPlan& plan,
                                          const std::vector<StratumCount>& counts,
                                          double zero_value, double tail_value);

/// Same combination for a non-Bernoulli per-trial statistic summarised
/// per stratum as (mean, std_error, count) — e.g. a Welford accumulator
/// per stratum: value = P0 * zero_value + sum Pk * mean_k + tail *
/// tail_value, SE^2 = sum Pk^2 * se_k^2.
struct StratumMoments {
  double mean = 0.0;
  double std_error = 0.0;
  std::int64_t trials = 0;
};
WeightedEstimate combine_strata(const StrataPlan& plan,
                                const std::vector<StratumMoments>& moments,
                                double zero_value, double tail_value);

}  // namespace bisram::sim
