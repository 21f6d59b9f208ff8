#include "sta/leaf.hpp"

#include <atomic>
#include <map>
#include <mutex>

#include "cells/leaf_cells.hpp"
#include "extract/extract.hpp"
#include "spice/sizing.hpp"
#include "sta/netlist.hpp"
#include "util/strings.hpp"

namespace bisram::sta {

namespace {
/// Executions of the uncached characterization entry points; the warm-
/// cache acceptance tests assert this does not move on a cache hit.
std::atomic<std::uint64_t> g_characterizations{0};
}  // namespace

std::uint64_t characterization_count() {
  return g_characterizations.load(std::memory_order_relaxed);
}

double stage_delay_uncached(const tech::Tech& t) {
  g_characterizations.fetch_add(1, std::memory_order_relaxed);
  // A 2 um NMOS inverter driving four copies of itself (~FO4): gate cap
  // of the fan-out plus local wire.
  const double wn = 2.0;
  const double cg =
      (t.elec.nmos.cox_f_um2 + t.elec.pmos.cox_f_um2) * wn * t.feature_um;
  const double load = 4.0 * cg + 5e-15;
  const spice::SizingResult r = spice::balance_inverter(t, wn, load, 0.05);
  return 0.5 * (r.tplh_s + r.tphl_s);
}

double stage_delay_s(const tech::Tech& t) {
  static std::map<std::uint64_t, double> cache;
  static std::mutex mutex;
  const std::uint64_t key = tech::fingerprint(t);
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  const double tau = stage_delay_uncached(t);
  std::lock_guard<std::mutex> lock(mutex);
  cache.emplace(key, tau);
  return tau;
}

double wordline_cap_per_cell_f(const tech::Tech& t) {
  const double lam = t.lambda_um;
  const auto& poly = t.elec.wire[static_cast<std::size_t>(geom::Layer::Poly)];
  const double strip_area = (cells::kCellPitchLambda * lam) * (2.0 * lam);
  const double gate_area = 2.0 * (6.0 * lam) * t.feature_um;
  return strip_area * poly.cap_area_f_um2 +
         2.0 * (cells::kCellPitchLambda * lam) * poly.cap_fringe_f_um +
         gate_area * t.elec.nmos.cox_f_um2;
}

double bitline_cap_per_cell_f(const tech::Tech& t) {
  const double lam = t.lambda_um;
  const auto& m2 = t.elec.wire[static_cast<std::size_t>(geom::Layer::Metal2)];
  const double strip_area = (cells::kCellPitchLambda * lam) * (3.0 * lam);
  const double junction = (6.0 * lam) * (5.0 * lam) * t.elec.nmos.cj_f_um2;
  return strip_area * m2.cap_area_f_um2 +
         2.0 * (cells::kCellPitchLambda * lam) * m2.cap_fringe_f_um + junction;
}

namespace {

/// Generates `cell`, extracts it, builds the netlist timing graph and
/// returns the worst endpoint arrival — the cell's stage delay.
double cell_sta_delay(const geom::Cell& cell, const tech::Tech& t,
                      const std::vector<std::string>& inputs,
                      const std::vector<std::string>& outputs) {
  const extract::Extracted ex = extract::extract(cell, t);
  NetlistGraph built = from_extracted(ex, t, inputs, outputs);
  AnalyzeOptions opt;
  opt.k_paths = 1;
  return built.graph.analyze(opt).max_arrival_s;
}

}  // namespace

LeafTiming characterize(const tech::Tech& t, double gate_size, int row_bits) {
  static std::map<std::string, LeafTiming> cache;
  static std::mutex mutex;
  const std::string key =
      strfmt("%016llx/%.6g/%d",
             static_cast<unsigned long long>(tech::fingerprint(t)), gate_size,
             row_bits);
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }

  const LeafTiming lt = characterize_uncached(t, gate_size, row_bits);
  std::lock_guard<std::mutex> lock(mutex);
  cache.emplace(key, lt);
  return lt;
}

LeafTiming characterize_uncached(const tech::Tech& t, double gate_size,
                                 int row_bits) {
  g_characterizations.fetch_add(1, std::memory_order_relaxed);
  LeafTiming lt;
  lt.tau_s = stage_delay_s(t);

  geom::Library lib;
  lt.decoder_s =
      cell_sta_delay(*cells::row_decoder_cell(lib, t, row_bits, gate_size), t,
                     [&] {
                       std::vector<std::string> a;
                       for (int i = 0; i < row_bits; ++i)
                         a.push_back(strfmt("a%d", i));
                       return a;
                     }(),
                     {"wl"});
  lt.senseamp_s =
      cell_sta_delay(*cells::sense_amp_cell(lib, t, gate_size), t,
                     {"in", "inb", "sab"}, {"out"});
  lt.precharge_s = cell_sta_delay(*cells::precharge_cell(lib, t, gate_size),
                                  t, {"pcb"}, {"bl", "blb"});
  lt.write_driver_s =
      cell_sta_delay(*cells::write_driver_cell(lib, t, gate_size), t,
                     {"din", "dinb"}, {"bus", "busb"});

  const double lam = t.lambda_um;
  lt.wl_driver_r_ohm = spice::device_on_resistance(
      t, spice::MosType::Pmos, 8.0 * gate_size * lam);
  lt.cell_r_ohm =
      2.0 * spice::device_on_resistance(t, spice::MosType::Nmos, 6.0 * lam);
  lt.mux_r_ohm = spice::device_on_resistance(t, spice::MosType::Nmos,
                                             6.0 * gate_size * lam);
  lt.write_r_ohm = spice::device_on_resistance(t, spice::MosType::Nmos,
                                               6.0 * gate_size * lam);
  return lt;
}

}  // namespace bisram::sta
