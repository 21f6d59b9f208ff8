#pragma once
// BISRAMGEN: the top-level physical design tool. From a RamSpec and a
// process it builds the leaf-cell library, assembles the macrocells
// (RAMARRAY, row decoders, column periphery, ADDGEN, DATAGEN, STREG,
// TLB, TRPLA), places and routes them, and produces the datasheet —
// geometry, area breakdown, BIST/BISR overhead, access time, TLB
// penalty, and test length (the quantities of Table I, Figs. 6-7 and
// the prose claims of Sections VI and IX).
//
// This header holds the flow's outputs; the flow itself is the staged
// compile API of core/compiler.hpp — `core::Compiler().run(spec)` for a
// one-shot compile.

#include <memory>
#include <string>

#include "core/spec.hpp"
#include "core/timing.hpp"
#include "drc/drc.hpp"
#include "microcode/controller.hpp"
#include "pnr/floorplan.hpp"

namespace bisram::core {

/// The generated module's datasheet.
struct Datasheet {
  sim::RamGeometry geo;
  std::string technology;

  double width_um = 0;
  double height_um = 0;
  double area_mm2 = 0;

  // Area breakdown (mm^2).
  double array_mm2 = 0;      ///< regular rows only
  double spare_mm2 = 0;      ///< the spare rows (not counted as overhead)
  double decoder_mm2 = 0;
  double periphery_mm2 = 0;
  double bist_mm2 = 0;       ///< ADDGEN + DATAGEN + STREG + TRPLA
  double bisr_mm2 = 0;       ///< TLB
  /// The paper's Table-I metric: (BIST + BISR) / base RAM area, spare
  /// rows excluded from the overhead ("redundant rows are not considered
  /// as overhead since redundancy is used in a vast majority of large
  /// RAMs even if there is no self-repair").
  double overhead_pct = 0;
  /// Controller share of the array area (paper: < 0.1% for a 16 KB RAM).
  double controller_pct = 0;

  TimingReport timing;
  PowerReport power;

  std::uint64_t test_cycles = 0;
  double test_time_s = 0;      ///< cycles at the access period + waits
  int controller_states = 0;
  int controller_terms = 0;
  int state_register_bits = 0;

  double rectangularity = 0;   ///< floorplan fill ratio
  std::size_t drc_violations = 0;

  /// Renders the datasheet as text (in the spirit of the RAMGEN
  /// datasheets the original 1986 compiler produced).
  std::string render() const;
};

/// Everything the tool generates for one spec: what
/// core::Compiler::run() (core/compiler.hpp) returns.
struct Generated {
  std::unique_ptr<geom::Library> library;
  geom::CellPtr top;
  Datasheet sheet;
  microcode::AssembledController trpla;
  pnr::FloorplanResult plan;
  /// Over-the-cell routing tallies from build_top, validated against the
  /// placed-blocks LayoutDB (m3_conflicts == 0 on a clean build).
  pnr::RouteStats route;
};

}  // namespace bisram::core
