#include "core/banking.hpp"

#include <cmath>

#include "core/compiler.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace bisram::core {

BankingPoint evaluate_banking(const RamSpec& base, int banks) {
  require(banks >= 1 && is_pow2(static_cast<std::uint64_t>(banks)),
          "evaluate_banking: banks must be a power of two");
  require(base.words % static_cast<std::uint32_t>(banks) == 0,
          "evaluate_banking: banks must divide the word count");

  // Per-bank module: same word width and multiplexing, fewer words.
  RamSpec bank = base;
  bank.words = base.words / static_cast<std::uint32_t>(banks);
  // Spare rows guard each bank (they cannot be shared across banks
  // without inter-bank word routing).
  bank.validate();

  const Generated g = Compiler().run(bank);
  const Datasheet& ds = g.sheet;
  const tech::Tech& t = base.resolved_technology();

  BankingPoint p;
  p.banks = banks;

  // Areas: per-bank base replicates; BIST and TLB are shared once.
  const double bank_base =
      ds.array_mm2 + ds.spare_mm2 + ds.decoder_mm2 + ds.periphery_mm2;
  // Inter-bank routing/global-decode overhead: ~2% of the banked base per
  // doubling (the wiring channel between banks).
  const double doublings = log2_ceil(static_cast<std::uint64_t>(banks));
  const double routing = bank_base * banks * 0.02 * doublings;
  p.area_mm2 = bank_base * banks + ds.bist_mm2 + ds.bisr_mm2 + routing;
  p.overhead_pct =
      100.0 * (ds.bist_mm2 + ds.bisr_mm2 + routing) / (bank_base * banks);

  // Access: the bank's own access plus the global bank decoder (one
  // stage per two bank-address bits) plus the global wire to the
  // farthest bank (metal3 RC over half the module's span).
  const double tau = stage_delay_s(t);
  const double global_decode = (doublings / 2.0) * tau;
  const double module_span_um =
      std::sqrt(p.area_mm2) * 1000.0;  // assume near-square module
  const auto& m3 = t.elec.wire[static_cast<std::size_t>(geom::Layer::Metal3)];
  const double w3_um = t.um(t.rule(geom::Layer::Metal3).min_width);
  const double r_wire = m3.sheet_ohm * (module_span_um / 2.0) / w3_um;
  const double c_wire = (module_span_um / 2.0) *
                        (w3_um * m3.cap_area_f_um2 + 2.0 * m3.cap_fringe_f_um);
  // A single "bank" is the flat module: no global decode or wire.
  const double global_wire =
      banks == 1 ? 0.0 : 0.4 * r_wire * c_wire;  // distributed RC
  p.access_ns = (ds.timing.access_s + global_decode + global_wire) * 1e9;
  p.tlb_penalty_ns = ds.timing.tlb_penalty_s * 1e9;

  // Energy: only the selected bank's bit lines swing; the global wire
  // adds its own swing.
  const PowerReport pw = estimate_power(t, bank.geometry(), ds.timing.access_s);
  p.energy_per_read_pj =
      (pw.read_energy_j +
       (banks == 1 ? 0.0 : c_wire * t.elec.vdd * t.elec.vdd)) *
      1e12;
  return p;
}

std::vector<BankingPoint> banking_sweep(const RamSpec& base,
                                        const std::vector<int>& bank_counts) {
  std::vector<BankingPoint> out;
  out.reserve(bank_counts.size());
  for (int b : bank_counts) out.push_back(evaluate_banking(base, b));
  return out;
}

}  // namespace bisram::core
