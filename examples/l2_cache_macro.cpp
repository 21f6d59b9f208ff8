// Scenario: an embedded L2 cache for a high-performance microprocessor.
//
// The paper motivates BISRAMGEN with the embedded caches of its era —
// "the embedded Level Two (L2) cache used inside a recent Pentium III
// Xeon processor... is 256 kbyte (2 Mb)". This example generates a 2 Mb
// BISR cache macro, then quantifies what the self-repair buys the host
// chip: RAM yield, whole-die yield, die cost and total manufacturing
// cost, using the same models behind Tables II/III.

#include <cstdio>

#include "core/compiler.hpp"
#include "models/cost.hpp"
#include "models/reliability.hpp"
#include "models/yield.hpp"
#include "util/strings.hpp"

using namespace bisram;

int main() {
  // --- the 2 Mb cache macro -------------------------------------------------
  core::RamSpec spec;
  spec.words = 16384;  // 16 K words x 128 bits = 2 Mb (256 KB)
  spec.bpw = 128;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.gate_size = 2.0;
  spec.strap_interval = 32;

  std::printf("generating the 2 Mb (256 KB) L2 cache macro...\n");
  const core::Generated cache = core::Compiler().run(spec);
  std::printf("%s\n", cache.sheet.render().c_str());

  // --- what BISR does for the host chip --------------------------------------
  // Host die modelled on a Pentium-class processor whose L2 occupies a
  // fifth of the die.
  models::CpuSpec host = *models::find_cpu("Pentium-P54C");
  host.name = "host-with-L2";
  host.cache_fraction = 0.20;
  host.cache_geo = spec.geometry();

  models::CostModelParams params;
  params.bisr_area_overhead = cache.sheet.overhead_pct / 100.0;
  const models::CostResult r = models::analyze_cpu(host, params);

  std::printf("host chip economics (die %.0f mm^2, L2 = %.0f%% of die):\n",
              host.die_area_mm2, host.cache_fraction * 100.0);
  std::printf("  cache yield       %.3f -> %.3f with BISR\n", r.ram_yield,
              r.ram_yield_bisr);
  std::printf("  die yield         %.3f -> %.3f\n", r.die_yield,
              r.die_yield_bisr);
  std::printf("  cost per good die $%.2f -> $%.2f (%.2fx)\n", r.die_cost,
              r.die_cost_bisr, r.die_cost_improvement());
  std::printf("  packaged chip     $%.2f -> $%.2f (-%.1f%%)\n", r.total_cost,
              r.total_cost_bisr, r.total_cost_reduction_pct());

  // --- field reliability ------------------------------------------------------
  const double lam = 1e-9;  // 1e-6 per kilo-hour per cell
  const double mttf0 = models::mttf_hours(
      sim::RamGeometry{spec.words, spec.bpw, spec.bpc, 0}, lam);
  const double mttf4 = models::mttf_hours(spec.geometry(), lam);
  std::printf("  cache MTTF        %.2g h -> %.2g h with 4 spare rows "
              "(%.1fx)\n",
              mttf0, mttf4, mttf4 / mttf0);

  // --- engineering decisions -----------------------------------------------
  const double m_cache =
      host.defects_per_cm2 * host.die_area_mm2 / 100.0 * host.cache_fraction;
  const int spares_needed = models::min_spare_rows_for_yield(
      sim::RamGeometry{spec.words, spec.bpw, spec.bpc, 0}, m_cache, 2.0,
      0.95, 1.0 + params.bisr_area_overhead);
  std::printf("  spare rows for 95%% cache yield at this defect pressure: %d\n",
              spares_needed);
  const double breakeven = models::breakeven_defect_density(host, params);
  std::printf("  BISR pays off above %.2f defects/cm^2 (process runs at "
              "%.2f)\n",
              breakeven, host.defects_per_cm2);
  return 0;
}
