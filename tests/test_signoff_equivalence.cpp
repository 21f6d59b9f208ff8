// The refactor contract of the shared LayoutDB (geom/layout_db.hpp):
// signoff results — DRC violations, extracted netlists, LVS verdicts,
// written SVG/CIF bytes — are bit-identical whichever path produces
// them, for any worker-thread count and any tile size. The tiled
// parallel DRC is cross-checked against the retained seed checker
// (drc::check_reference) as a set, since the seed scan may report the
// same spacing pair more than once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "extract/lvs.hpp"
#include "geom/layout_db.hpp"
#include "geom/writers.hpp"

namespace bisram {
namespace {

using geom::Coord;

/// The README quickstart macro (16 Kb), kept small enough for tier-1
/// and the TSan leg.
core::RamSpec quickstart_spec() {
  core::RamSpec spec;
  spec.words = 1024;
  spec.bpw = 16;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.gate_size = 2.0;
  spec.strap_interval = 32;
  return spec;
}

/// The layout_export example module (4 Kb) — small enough to run the
/// quadratic reference checker against.
core::RamSpec small_spec() {
  core::RamSpec spec = quickstart_spec();
  spec.words = 64;
  spec.bpw = 8;
  spec.strap_interval = 16;
  return spec;
}

const core::Generated& small_macro() {
  static const core::Generated g = core::Compiler().run(small_spec());
  return g;
}

const core::Generated& quickstart_macro() {
  static const core::Generated g = core::Compiler().run(quickstart_spec());
  return g;
}

/// Geometry-only identity of a violation — the note and provenance are
/// formatting; the seed checker never filled paths.
using VioKey = std::tuple<int, int, Coord, Coord, Coord, Coord, Coord,
                          Coord, Coord, Coord>;

VioKey key_of(const drc::Violation& v) {
  return {static_cast<int>(v.kind), static_cast<int>(v.layer),
          v.a.lo.x,  v.a.lo.y,      v.a.hi.x,  v.a.hi.y,
          v.b.lo.x,  v.b.lo.y,      v.b.hi.x,  v.b.hi.y};
}

std::vector<VioKey> sorted_key_set(const std::vector<drc::Violation>& vios) {
  std::vector<VioKey> keys;
  for (const auto& v : vios) keys.push_back(key_of(v));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void expect_identical(const std::vector<drc::Violation>& a,
                      const std::vector<drc::Violation>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key_of(a[i]), key_of(b[i])) << what << " #" << i;
    EXPECT_EQ(a[i].note, b[i].note) << what << " #" << i;
    EXPECT_EQ(a[i].path_a, b[i].path_a) << what << " #" << i;
    EXPECT_EQ(a[i].path_b, b[i].path_b) << what << " #" << i;
  }
}

TEST(SignoffEquivalence, TiledDrcMatchesSeedCheckerOnSmallMacro) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const auto reference = drc::check_reference(*g.top, t);
  const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
  const auto tiled = drc::check(db, t);
  // As sets: the seed scan can emit a MinSpace pair once per shared
  // hash bucket; the tiled checker reports each pair exactly once.
  EXPECT_EQ(sorted_key_set(tiled), sorted_key_set(reference));
}

TEST(SignoffEquivalence, DrcIsThreadCountInvariant) {
  const auto& g = quickstart_macro();
  const tech::Tech& t = quickstart_spec().resolved_technology();
  const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
  drc::DrcOptions opt;
  opt.threads = 1;
  const auto ref = drc::check(db, t, opt);
  for (int threads : {2, 8}) {
    opt.threads = threads;
    expect_identical(drc::check(db, t, opt), ref,
                     "threads=" + std::to_string(threads));
  }
  // The BISRAM_THREADS env route (threads = 0) resolves through the
  // same deterministic engine.
  ASSERT_EQ(setenv("BISRAM_THREADS", "2", 1), 0);
  opt.threads = 0;
  expect_identical(drc::check(db, t, opt), ref, "BISRAM_THREADS=2");
  ASSERT_EQ(unsetenv("BISRAM_THREADS"), 0);
}

TEST(SignoffEquivalence, DrcIsTileSizeInvariant) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const geom::LayoutDB fine(*g.top, drc::tile_size_for(t) / 4);
  const geom::LayoutDB coarse(*g.top, drc::tile_size_for(t) * 4);
  expect_identical(drc::check(fine, t), drc::check(coarse, t),
                   "fine vs coarse tiles");
}

TEST(SignoffEquivalence, ExtractedNetlistIdenticalAcrossPathsAndTiles) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const extract::Extracted via_cell = extract::extract(*g.top, t);
  const geom::LayoutDB coarse(*g.top, geom::LayoutDB::kDefaultTile * 8);
  const extract::Extracted via_db = extract::extract(coarse, t);
  ASSERT_EQ(via_cell.devices.size(), via_db.devices.size());
  for (std::size_t i = 0; i < via_cell.devices.size(); ++i) {
    const auto& a = via_cell.devices[i];
    const auto& b = via_db.devices[i];
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.gate, b.gate) << i;
    EXPECT_EQ(a.source, b.source) << i;
    EXPECT_EQ(a.drain, b.drain) << i;
    EXPECT_EQ(a.w_um, b.w_um) << i;  // bitwise
    EXPECT_EQ(a.l_um, b.l_um) << i;
    EXPECT_EQ(a.path, b.path) << i;
  }
  EXPECT_EQ(via_cell.net_count, via_db.net_count);
  EXPECT_EQ(via_cell.port_net, via_db.port_net);
  EXPECT_EQ(via_cell.net_cap_f, via_db.net_cap_f);  // bitwise
}

TEST(SignoffEquivalence, LvsVerdictsStableAcrossTileSizes) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  const struct {
    geom::CellPtr cell;
    extract::Schematic golden;
  } entries[] = {
      {cells::sram_cell_6t(lib, t), extract::sram6t_schematic()},
      {cells::precharge_cell(lib, t, 2), extract::precharge_schematic()},
      {cells::column_mux_cell(lib, t, 2), extract::column_mux_schematic()},
  };
  for (const auto& e : entries) {
    for (Coord tile : {Coord{8}, geom::LayoutDB::kDefaultTile,
                       Coord{100000}}) {
      const geom::LayoutDB db(*e.cell, tile);
      const extract::LvsResult r =
          extract::compare(extract::extract(db, t), e.golden);
      EXPECT_TRUE(r.match)
          << e.cell->name() << " tile " << tile << ": " << r.detail;
    }
  }
}

TEST(SignoffEquivalence, SvgBytesIdenticalAcrossOverloads) {
  const auto& g = small_macro();
  std::ostringstream via_cell, via_db_fine, via_db_coarse;
  geom::write_svg(via_cell, *g.top, 1200);
  const geom::LayoutDB fine(*g.top, 64);
  const geom::LayoutDB coarse(*g.top, 1 << 20);
  geom::write_svg(via_db_fine, fine, 1200);
  geom::write_svg(via_db_coarse, coarse, 1200);
  EXPECT_EQ(via_cell.str(), via_db_fine.str());
  EXPECT_EQ(via_cell.str(), via_db_coarse.str());
}

TEST(SignoffEquivalence, CifBytesDeterministic) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  std::ostringstream first, again;
  geom::write_cif(first, *g.top, t.lambda_um * 1000.0);
  geom::write_cif(again, *g.top, t.lambda_um * 1000.0);
  EXPECT_EQ(first.str(), again.str());
  EXPECT_FALSE(first.str().empty());
}

}  // namespace
}  // namespace bisram
