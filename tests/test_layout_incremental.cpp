// Incremental LayoutDB maintenance and incremental signoff, proven
// against full-rebuild oracles: after every edit kind (Move, Remove,
// Replace, Add) and across tile sizes,
//
//   * LayoutDB::apply is bit-identical (shapes, ids, provenance,
//     content hash) to flattening geom::edited_cell from scratch;
//   * drc::IncrementalDrc::report equals drc::check on the fresh
//     flatten;
//   * extract::IncrementalExtract::result equals extract::extract.
//
// The CI sanitizer legs run this suite at BISRAM_THREADS 1/2/8: the
// incremental engines are single-threaded by contract, but the full
// drc::check they are compared against runs its tiled passes on the
// campaign pool, so the equality also pins thread-invariance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"

namespace bisram {
namespace {

using geom::CellEdit;
using geom::LayoutDB;

core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 16;
  return spec;
}

struct Macro {
  geom::CellPtr top;
  tech::Tech tech;
};

const Macro& small_macro() {
  static const Macro* m = [] {
    const core::RamSpec spec = small_spec();
    const core::Generated g = core::Compiler().run(spec);
    return new Macro{g.top, spec.resolved_technology()};
  }();
  return *m;
}

void expect_same_db(const LayoutDB& got, const LayoutDB& want,
                    const std::string& tag) {
  ASSERT_EQ(got.shape_count(), want.shape_count()) << tag;
  ASSERT_EQ(got.path_count(), want.path_count()) << tag;
  for (geom::Layer l : geom::all_layers()) {
    const auto& a = got.shapes(l);
    const auto& b = want.shapes(l);
    ASSERT_EQ(a.size(), b.size()) << tag << " layer " << static_cast<int>(l);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].rect == b[i].rect)
          << tag << " layer " << static_cast<int>(l) << " shape " << i;
      ASSERT_EQ(a[i].path, b[i].path)
          << tag << " layer " << static_cast<int>(l) << " shape " << i;
    }
  }
  for (std::uint32_t n = 0; n < want.path_count(); ++n)
    ASSERT_EQ(got.path_name(n), want.path_name(n)) << tag << " node " << n;
  EXPECT_EQ(got.content_hash(), want.content_hash()) << tag;
}

void expect_same_violations(const std::vector<drc::Violation>& got,
                            const std::vector<drc::Violation>& want,
                            const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const drc::Violation& a = got[i];
    const drc::Violation& b = want[i];
    ASSERT_TRUE(a.kind == b.kind && a.layer == b.layer && a.a == b.a &&
                a.b == b.b && a.note == b.note && a.path_a == b.path_a &&
                a.path_b == b.path_b)
        << tag << " violation " << i << ": " << drc::describe(a) << " vs "
        << drc::describe(b);
  }
}

void expect_same_extraction(const extract::Extracted& got,
                            const extract::Extracted& want,
                            const std::string& tag) {
  EXPECT_EQ(got.net_count, want.net_count) << tag;
  EXPECT_TRUE(got.port_net == want.port_net) << tag;
  EXPECT_TRUE(got.net_cap_f == want.net_cap_f) << tag;
  ASSERT_EQ(got.devices.size(), want.devices.size()) << tag;
  for (std::size_t i = 0; i < got.devices.size(); ++i) {
    const extract::Device& a = got.devices[i];
    const extract::Device& b = want.devices[i];
    ASSERT_TRUE(a.type == b.type && a.gate == b.gate && a.source == b.source &&
                a.drain == b.drain && a.w_um == b.w_um && a.l_um == b.l_um &&
                a.path == b.path)
        << tag << " device " << i;
  }
}

/// The canonical four-kind edit sequence the suite replays. Each edit
/// targets a different subtree so the sequence exercises splices in the
/// middle, at the front, and past the end of the per-layer shape ranges.
std::vector<CellEdit> edit_sequence(const tech::Tech& t, geom::Library& lib) {
  std::vector<CellEdit> edits;
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    e.path = "RAMARRAY/row3";
    e.transform = geom::Transform::translate(40, -20);
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Remove;
    e.path = "ROWDEC/dec5";
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Replace;
    e.path = "RAMARRAY/row2";
    e.cell = cells::sram_cell_6t(lib, t);
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Add;
    e.path = "";  // top cell
    e.name = "spareCell";
    e.cell = cells::precharge_cell(lib, t, 2.0);
    e.transform = geom::Transform::translate(-400, -400);
    edits.push_back(e);
  }
  return edits;
}

const char* kEditTags[] = {"move", "remove", "replace", "add"};

bool contains_rect(const geom::Rect& outer, const geom::Rect& inner) {
  return outer.lo.x <= inner.lo.x && outer.lo.y <= inner.lo.y &&
         outer.hi.x >= inner.hi.x && outer.hi.y >= inner.hi.y;
}

/// Replays the edit sequence on a database tiled at `tile`, checking
/// apply() against the edited_cell + fresh-flatten oracle and the
/// incremental DRC/extract engines against the full scans after every
/// step.
void replay_at_tile(geom::Coord tile) {
  const Macro& m = small_macro();
  const tech::Tech& t = m.tech;
  const std::string tile_tag = "tile=" + std::to_string(tile);

  LayoutDB db(*m.top, tile);
  drc::IncrementalDrc inc_drc(db, t);
  extract::IncrementalExtract inc_ext(db, t);
  expect_same_violations(inc_drc.report(), drc::check(db, t),
                         tile_tag + " init");
  expect_same_extraction(inc_ext.result(), extract::extract(db, t),
                         tile_tag + " init");

  geom::Library lib;
  geom::CellPtr cur = m.top;
  std::size_t step = 0;
  for (const CellEdit& e : edit_sequence(t, lib)) {
    const std::string tag = tile_tag + " " + kEditTags[step++];
    const geom::EditResult res = db.apply(e);
    cur = geom::edited_cell(*cur, e);
    const LayoutDB fresh(*cur, tile);
    expect_same_db(db, fresh, tag);
    inc_drc.update(res);
    inc_ext.update(res);
    expect_same_violations(inc_drc.report(), drc::check(fresh, t), tag);
    expect_same_extraction(inc_ext.result(), extract::extract(fresh, t), tag);
  }
}

TEST(LayoutIncremental, EditSequenceMatchesOraclesAtSignoffTile) {
  replay_at_tile(drc::tile_size_for(small_macro().tech));
}

TEST(LayoutIncremental, EditSequenceMatchesOraclesAtDefaultTile) {
  replay_at_tile(LayoutDB::kDefaultTile);
}

TEST(LayoutIncremental, EditSequenceMatchesOraclesAtCoarseTile) {
  replay_at_tile(4 * drc::tile_size_for(small_macro().tech));
}

TEST(LayoutIncremental, ApplyRejectsBadEdits) {
  const Macro& m = small_macro();
  LayoutDB db(*m.top);
  CellEdit e;
  e.kind = CellEdit::Kind::Move;
  e.path = "RAMARRAY/no_such_instance";
  e.transform = geom::Transform::translate(1, 1);
  EXPECT_THROW(db.apply(e), Error);

  CellEdit add;
  add.kind = CellEdit::Kind::Add;
  add.path = "";
  add.name = "orphan";  // no cell attached
  EXPECT_THROW(db.apply(add), Error);
}

TEST(ShapeSpliceTest, RemapIsMonotoneAndMarksRemovals) {
  geom::ShapeSplice s;
  s.begin = 10;
  s.old_end = 20;
  s.new_end = 14;
  EXPECT_EQ(s.delta(), -6);
  EXPECT_EQ(s.remap(9), 9u);  // before the splice: unchanged
  for (std::uint32_t id = 10; id < 20; ++id)
    EXPECT_EQ(s.remap(id), geom::ShapeSplice::kRemoved);
  EXPECT_EQ(s.remap(20), 14u);  // after: shifted by delta
  EXPECT_EQ(s.remap(100), 94u);

  // Survivors never land inside the inserted range [begin, new_end).
  EXPECT_GE(s.remap(20), s.new_end);
}

TEST(EditResultTest, DirtyRectsCoverRemovedAndInsertedGeometry) {
  const Macro& m = small_macro();
  LayoutDB db(*m.top, drc::tile_size_for(m.tech));
  CellEdit e;
  e.kind = CellEdit::Kind::Move;
  e.path = "RAMARRAY/row3";
  e.transform = geom::Transform::translate(40, -20);
  const geom::EditResult res = db.apply(e);

  bool any_layer = false;
  for (geom::Layer l : geom::all_layers()) {
    if (!res.touches(l)) continue;
    any_layer = true;
    const auto dirty = res.dirty_rects(l);
    ASSERT_FALSE(dirty.empty()) << static_cast<int>(l);
    // Every inserted shape of the splice lies inside some dirty rect.
    const geom::ShapeSplice& sp = res.splice_of(l);
    for (std::uint32_t id = sp.begin; id < sp.new_end; ++id) {
      bool covered = false;
      for (const geom::Rect& d : dirty)
        covered = covered || contains_rect(d, db.shapes(l)[id].rect);
      EXPECT_TRUE(covered) << "layer " << static_cast<int>(l) << " id " << id;
    }
  }
  EXPECT_TRUE(any_layer);
  EXPECT_FALSE(res.dirty_bbox().empty());
}

}  // namespace
}  // namespace bisram
