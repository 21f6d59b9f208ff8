// Layout export: mask-level CIF and SVG of a generated module plus the
// individual leaf cells — the artifacts a layout designer would inspect
// (the paper's Figs. 6/7 are exactly such plots).
//
// Writes into the current directory:
//   bisram_small.cif        CIF 2.0 of the full module hierarchy
//   bisram_small.svg        flattened mask view
//   bisram_floorplan.svg    macro-level floorplan view
//   cell_<name>.svg         each leaf cell

#include <cstdio>
#include <fstream>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "geom/writers.hpp"

using namespace bisram;

int main() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 0;
  spec.run_drc = true;  // full mask-level check on this small module

  const core::Generated g = core::Compiler().run(spec);
  const tech::Tech& t = spec.resolved_technology();

  // One flatten into the shared layout database serves the mask view,
  // the shape/transistor tallies, and (inside the compile) the DRC.
  const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
  {
    std::ofstream cif("bisram_small.cif");
    geom::write_cif(cif, *g.top, t.lambda_um * 1000.0);
  }
  {
    std::ofstream svg("bisram_small.svg");
    geom::write_svg(svg, db, 2400);
  }
  {
    std::ofstream svg("bisram_floorplan.svg");
    geom::write_svg_outline(svg, *g.top, 2, 1200);
  }
  std::printf("module: %.0f x %.0f um, %zu flat shapes, %zu transistors, "
              "%zu DRC violations\n",
              g.sheet.width_um, g.sheet.height_um, db.shape_count(),
              db.transistor_census(), g.sheet.drc_violations);
  if (g.sheet.drc_violations != 0) {
    // Every macro is individually DRC-clean (enforced by the test
    // suite); residual top-level violations come from the demonstration
    // router's pin-tap pads landing near block-internal wires — the
    // paper itself notes that assembling custom blocks "may require
    // varying degrees of manual intervention by the layout designer".
    std::printf("(all residual violations are at auto-routed pin taps; "
                "see DESIGN.md)\n");
  }

  geom::Library cell_lib;
  const std::vector<geom::CellPtr> cells = {
      cells::sram_cell_6t(cell_lib, t),
      cells::precharge_cell(cell_lib, t, 2),
      cells::sense_amp_cell(cell_lib, t, 2),
      cells::column_mux_cell(cell_lib, t, 2),
      cells::row_decoder_cell(cell_lib, t, 5, 2),
      cells::cam_cell(cell_lib, t),
      cells::pla_cell(cell_lib, t, true),
  };
  for (const auto& cell : cells) {
    const std::string path = "cell_" + cell->name() + ".svg";
    std::ofstream svg(path);
    geom::write_svg(svg, *cell, 600);
    std::printf("wrote %s (%zu shapes, %zu transistors)\n", path.c_str(),
                cell->shapes().size(), cell->transistor_census());
  }
  return g.sheet.drc_violations == 0 ? 0 : 1;
}
