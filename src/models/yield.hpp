#pragma once
// Yield model (paper Section VII, Fig. 4).
//
// Defect statistics follow Stapper: the number of defects K falling on an
// area with mean defect count m = D*A is negative-binomial with
// clustering parameter alpha, so that P(K = 0) = (1 + m/alpha)^-alpha is
// exactly Stapper's yield formula. Given K = k defects placed uniformly
// over the cell array, a BISR'ed RAM is "good" (the paper's strict
// manufacturing definition) iff
//   (a) the number of faulty regular words is at most the number of
//       spare words (s * bpc), and
//   (b) every spare word is fault-free.
// The yield with BISR is E_K[ P(pattern of K defects is repairable) ],
// where the defect mean is grown by the BISR area growth factor.

#include <cstdint>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/ram_model.hpp"

namespace bisram::models {

/// Poisson single-cell yield e^-lambda (lambda = mean faults per cell).
double poisson_cell_yield(double lambda);

/// Stapper's clustered yield (1 + m/alpha)^-alpha for defect mean m.
double stapper_yield(double defect_mean, double alpha);

/// Negative-binomial pmf P(K = k) with mean m and clustering alpha.
double negbin_pmf(std::int64_t k, double mean, double alpha);

/// P(a pattern of exactly `defects` uniformly placed cell defects is
/// repairable) under the strict goodness criterion, using the
/// independent-words approximation:
///   q = 1 - (1 - bpw/Ncells)^defects,
///   P = BinCdf(NW, spare_words, q) * (1 - spare_cells/Ncells)^defects.
double repair_probability(const sim::RamGeometry& geo, std::int64_t defects);

/// Monte-Carlo estimate of the same probability (exact pattern
/// semantics, no independence approximation), run under the unified
/// campaign API (sim/campaign.hpp). The trial body is pure set
/// arithmetic — no RAM simulation — so the spec's kernel choice is
/// recorded in the provenance but does not affect the result, and the
/// per-kernel trial counters stay zero.
sim::CampaignResult<double> repair_probability_mc(
    const sim::RamGeometry& geo, std::int64_t defects,
    const sim::CampaignSpec& spec);

/// Yield of a RAM *without* spares at defect mean m: Stapper.
/// Yield *with* spares and BISR at the same nonredundant defect mean m:
/// E_K[repair_probability(K)] with K ~ NegBin(mean = m * growth, alpha).
/// `growth` is the BISR'ed-over-plain area ratio (>= 1).
double bisr_yield(const sim::RamGeometry& geo, double defect_mean,
                  double alpha, double growth);

/// Spare-allocation helper: the smallest paper-supported spare-row count
/// (4, 8, 16) whose BISR yield meets `target_yield` at the given defect
/// mean, or -1 when even 16 rows fall short. Growth factors are supplied
/// per spare count (index by 4/8/16 via the map argument order 4,8,16).
int min_spare_rows_for_yield(sim::RamGeometry geo, double defect_mean,
                             double alpha, double target_yield,
                             double growth4 = 1.05, double growth8 = 1.06,
                             double growth16 = 1.08);

/// One Fig. 4 curve: yield vs defect mean for the given spare-row count.
struct YieldPoint {
  double defects;  ///< nonredundant defect mean (the paper's x axis)
  double yield;
};
std::vector<YieldPoint> yield_curve(sim::RamGeometry geo, int spare_rows,
                                    double alpha, double growth,
                                    double max_defects, int points);

/// End-to-end Monte-Carlo check: samples K ~ NegBin, injects K random
/// stuck-at cell faults into a real RamModel and runs the actual
/// BIST/BISR engine. `bist_repaired` is the fraction the two-pass flow
/// repaired; `strict_good` additionally demands every spare cell be
/// fault-free — the paper's manufacturing criterion and the quantity the
/// analytic bisr_yield() models (BIST alone is more permissive: a faulty
/// spare that is never used does not fail the module).
struct BisrYieldMc {
  double bist_repaired = 0;
  double strict_good = 0;
  double bist_repaired_se = 0;  ///< standard error of bist_repaired
  double strict_good_se = 0;    ///< standard error of strict_good
  /// BIST/BISR die simulations actually executed. Plain sampling spends
  /// one per trial; stratified sampling spends none on the zero-defect
  /// stratum, which at production defect densities is a >= 10x saving
  /// for the same trial budget (tests/test_yield_statistics.cpp).
  std::int64_t die_sims = 0;
};

/// Unified-campaign form: trials, seed, threads, simulation kernel and
/// defect-count sampling mode all come from `spec`. Every sampled fault
/// is a stuck-at cell fault, so under SimKernel::Auto all trials run on
/// the bit-plane packed kernel (sim/packed_ram.hpp); results are
/// bit-identical to the scalar path for every kernel and thread count.
///
/// Sampling modes (sim/importance.hpp): Plain draws K ~ NegBin per trial
/// and simulates every die; Stratified resolves the K = 0 stratum
/// analytically, simulates each K = k stratum conditionally and
/// reweights with the exact pmf — an unbiased estimator of the same
/// yields with far fewer die simulations and lower variance.
sim::CampaignResult<BisrYieldMc> bisr_yield_mc_with_bist(
    const sim::RamGeometry& geo, double defect_mean, double alpha,
    double growth, const sim::CampaignSpec& spec);

// --- repair-logic defects (sim/infra_faults.hpp) ----------------------------
//
// The analytic bisr_yield() and the MC above treat the repair machinery
// as defect-free, but the TLB/ADDGEN/DATAGEN/TRPLA occupy the BISR area
// overhead (growth - 1, plus a share of the periphery) and collect
// defects at the same density as the array.

/// Probability the repair logic itself is defect-free: Stapper yield of
/// the repair-logic area. `logic_area_fraction` is the repair logic's
/// share of the grown die area (so its defect mean is
/// defect_mean * growth * logic_area_fraction). Multiply bisr_yield() by
/// this for a first-order "working die AND working BISR" estimate that
/// counts every repair-logic defect as fatal — pessimistic, since the MC
/// below shows a large share of such defects are benign or safe-fail.
double repair_logic_yield(double defect_mean, double alpha, double growth,
                          double logic_area_fraction);

/// Monte-Carlo yield with defects in *both* the array and the repair
/// machinery. Each trial draws one clustered defect rate (Gamma-Poisson,
/// shared by both regions — defects cluster across the die, not per
/// block), injects K array faults and L ~ Poisson(rate * fraction) infra
/// faults, runs the microprogrammed BIST/BISR flow under a watchdog and
/// classifies the outcome with the golden normal-mode readback.
struct BisrYieldMcInfra {
  double bist_reported_good = 0;  ///< DONE_OK fraction (what the tester sees)
  double effective_good = 0;      ///< DONE_OK and the readback is clean
  double escape = 0;              ///< DONE_OK but the RAM is bad — shipped defect
  double safe_fail = 0;           ///< DONE_FAIL fraction
  double hung = 0;                ///< watchdog-tripped fraction
  double bist_reported_good_se = 0;  ///< standard error of bist_reported_good
  double effective_good_se = 0;      ///< standard error of effective_good
  std::int64_t die_sims = 0;  ///< microprogrammed die simulations executed
};

/// Unified-campaign form. The total defect count (array + infra) is
/// NegBin(mean = m * growth * (1 + fraction), alpha); conditioned on the
/// total, each defect lands in the repair logic with probability
/// fraction / (1 + fraction) independently of the mixed rate, which is
/// what makes the stratified estimator exact here too. The zero stratum
/// is a defect-free die (DONE_OK, clean readback) and the truncated tail
/// is counted as safe_fail. Forced SimKernel::Packed is rejected — the
/// microprogrammed machine has no packed path.
sim::CampaignResult<BisrYieldMcInfra> bisr_yield_mc_with_infra(
    const sim::RamGeometry& geo, double defect_mean, double alpha,
    double growth, double logic_area_fraction, const sim::CampaignSpec& spec);

}  // namespace bisram::models
