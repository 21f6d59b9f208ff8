// The refactor contract of the shared LayoutDB (geom/layout_db.hpp):
// signoff results — DRC violations, extracted netlists, LVS verdicts,
// written SVG/CIF bytes — are bit-identical whichever path produces
// them, for any worker-thread count and any tile size. DRC is
// cross-checked against the seed checker kept as a test oracle
// (support/drc_reference.hpp) as a set, since the seed scan may report
// the same spacing pair more than once; extraction is cross-checked
// against the monolithic extractor kept as a test oracle
// (support/extract_reference.hpp).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "extract/lvs.hpp"
#include "geom/layout_db.hpp"
#include "geom/writers.hpp"
#include "support/drc_reference.hpp"
#include "support/extract_reference.hpp"
#include "support/scoped_threads.hpp"
#include "util/parallel.hpp"

namespace bisram {
namespace {

using geom::Coord;
using test_support::drc_key;
using test_support::drc_key_set;

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

void expect_identical(const std::vector<drc::Violation>& a,
                      const std::vector<drc::Violation>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(drc_key(a[i]), drc_key(b[i])) << what << " #" << i;
    EXPECT_EQ(a[i].note, b[i].note) << what << " #" << i;
    EXPECT_EQ(a[i].path_a, b[i].path_a) << what << " #" << i;
    EXPECT_EQ(a[i].path_b, b[i].path_b) << what << " #" << i;
  }
}

TEST(SignoffEquivalence, TiledDrcMatchesSeedCheckerOnSmallMacro) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const auto reference = test_support::check_reference(*g.top, t);
  const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
  const auto tiled = drc::check(db, t);
  // As sets: the seed scan can emit a MinSpace pair once per shared
  // hash bucket; drc::check reports each pair exactly once.
  EXPECT_EQ(drc_key_set(tiled), drc_key_set(reference));
}

TEST(SignoffEquivalence, DrcIsThreadCountInvariant) {
  const auto& g = quickstart_macro();
  const tech::Tech& t = quickstart_spec().resolved_technology();
  const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
  // The pool width comes from set_campaign_threads unless the
  // environment pins it; under a pinned BISRAM_THREADS (the CI pool
  // loop) the sweep re-checks that width.
  const int saved = set_campaign_threads(1);
  const auto ref = drc::check(db, t);
  for (int threads : {2, 8}) {
    set_campaign_threads(threads);
    expect_identical(drc::check(db, t), ref,
                     "set_campaign_threads(" + std::to_string(threads) + ")");
  }
  set_campaign_threads(saved);
  // The BISRAM_THREADS env route wins over the override.
  const test_support::ScopedThreads pin(2);
  expect_identical(drc::check(db, t), ref, "BISRAM_THREADS=2");
}

TEST(SignoffEquivalence, DrcIsTileSizeInvariant) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const geom::LayoutDB fine(*g.top, drc::tile_size_for(t) / 4);
  const geom::LayoutDB coarse(*g.top, drc::tile_size_for(t) * 4);
  expect_identical(drc::check(fine, t), drc::check(coarse, t),
                   "fine vs coarse tiles");
}

// Both public paths (flatten-and-extract from the cell, and a prebuilt
// database at a non-default tile size) equal the reference extractor.
TEST(SignoffEquivalence, ExtractedNetlistIdenticalAcrossPathsAndTiles) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const geom::LayoutDB coarse(*g.top, geom::LayoutDB::kDefaultTile * 8);
  const extract::Extracted reference =
      test_support::extract_reference(coarse, t);
  test_support::expect_same_extraction(extract::extract(*g.top, t), reference,
                                       "via cell");
  test_support::expect_same_extraction(extract::extract(coarse, t), reference,
                                       "via db");
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
