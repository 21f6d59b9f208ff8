#pragma once
// Test-only oracle for core::estimate_timing: the closed-form lumped-RC
// access-time model the datasheet used before it came from the STA
// graph. Same physics with every path collapsed to one term, so the two
// must agree to first order (tests/test_sta.cpp pins the ratio). It
// calls only public spice / sta / core functions.

#include <cstdint>

#include "core/timing.hpp"
#include "sim/ram_model.hpp"
#include "spice/sizing.hpp"
#include "sta/leaf.hpp"
#include "tech/tech.hpp"
#include "util/math.hpp"

namespace bisram::test_support {

inline core::TimingReport estimate_timing_reference(
    const tech::Tech& t, const sim::RamGeometry& geo, double gate_size) {
  core::TimingReport r;
  r.tau_s = core::stage_delay_s(t);

  // Decoder: a NAND of log2(rows) inputs realized as a two-level tree,
  // roughly (2 + log4(rows)) logic stages, plus the word-line driver.
  const int row_bits = log2_ceil(static_cast<std::uint64_t>(geo.rows()));
  r.decoder_s = (2.0 + row_bits / 2.0) * r.tau_s;

  // Word line: driver resistance against the distributed line cap
  // (lumped RC with the 0.7 Elmore factor for a distributed load).
  const double r_driver = spice::device_on_resistance(
      t, spice::MosType::Pmos, 8.0 * gate_size * t.lambda_um);
  const double c_wl = geo.cols() * sta::wordline_cap_per_cell_f(t);
  r.wordline_s = 0.7 * r_driver * c_wl;

  // Bit line: cell pull-down discharging the line through the pass
  // device; current-mode sensing needs only a small swing (~10%), which
  // is where the technique's speed comes from.
  const double r_cell =
      spice::device_on_resistance(t, spice::MosType::Nmos, 6.0 * t.lambda_um) *
      2.0;  // pull-down in series with the pass device
  const double c_bl = geo.total_rows() * sta::bitline_cap_per_cell_f(t);
  r.bitline_s = 0.1 * r_cell * c_bl;

  // Column mux (one pass stage) + current-mode sense amplifier.
  r.senseamp_s = 3.0 * r.tau_s;

  r.access_s = r.decoder_s + r.wordline_s + r.bitline_s + r.senseamp_s;

  // Write: the driver forces a full swing through the pass device, but
  // the sense amp is bypassed ("in write mode, the sense amplifier is
  // bypassed and the bit-lines are directly accessed").
  const double r_drv = spice::device_on_resistance(
      t, spice::MosType::Nmos, 6.0 * gate_size * t.lambda_um);
  const double c_bl_w = geo.total_rows() * sta::bitline_cap_per_cell_f(t);
  r.write_s = r.decoder_s + r.wordline_s + 0.7 * r_drv * c_bl_w;

  r.tlb_penalty_s = core::tlb_penalty_s(t, geo);
  r.setup_s = r.tlb_penalty_s;
  r.hold_s = r.tau_s;
  r.penalty_ratio = r.tlb_penalty_s / r.access_s;
  return r;
}

}  // namespace bisram::test_support
