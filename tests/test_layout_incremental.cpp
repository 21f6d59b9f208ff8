// Incremental LayoutDB maintenance and incremental signoff, proven
// against full-rebuild oracles: after every edit kind (Move, Remove,
// Replace, Add) and across tile sizes,
//
//   * LayoutDB::apply is bit-identical (shapes, ids, provenance,
//     content hash, rects and tile buckets) to flattening
//     geom::edited_cell from scratch;
//   * drc::IncrementalDrc::report equals drc::check on the fresh
//     flatten bit for bit and, as a key set, the seed checker kept as
//     a test oracle (support/drc_reference.hpp) — drc::check is the
//     engine's own cold build, so only the oracle is independent code;
//   * extract::IncrementalExtract::result equals the monolithic
//     extractor kept as a test oracle (support/extract_reference.hpp);
//     extract::extract is the engine's own cold build, so comparing
//     against it would compare the engine with itself.
//
// The CI sanitizer legs run this suite at BISRAM_THREADS 1/2/8: both
// engines' cold builds (drc::check included) and parts of both
// engines' updates (DRC relabelling, the extraction edge remap)
// run on the campaign pool, so the equality also pins
// thread-invariance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "support/drc_reference.hpp"
#include "support/extract_reference.hpp"

namespace bisram {
namespace {

using geom::CellEdit;
using geom::LayoutDB;
using test_support::drc_key_set;
using test_support::expect_same_extraction;
using test_support::extract_reference;

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
  // The derived state too: apply() splices rects and tile buckets in
  // place, and they must equal what a fresh flatten indexes.
  EXPECT_TRUE(got.bbox() == want.bbox()) << tag;
  for (geom::Layer l : geom::all_layers()) {
    const std::string lt = tag + " layer " + std::to_string(static_cast<int>(l));
    ASSERT_TRUE(got.rects(l) == want.rects(l)) << lt;
    const geom::TileIndex& a = got.index(l);
    const geom::TileIndex& b = want.index(l);
    ASSERT_EQ(a.size(), b.size()) << lt;
    ASSERT_TRUE(a.bounds() == b.bounds()) << lt;
    ASSERT_EQ(a.tile_cols(), b.tile_cols()) << lt;
    ASSERT_EQ(a.tile_rows(), b.tile_rows()) << lt;
    for (int ty = 0; ty < b.tile_rows(); ++ty)
      for (int tx = 0; tx < b.tile_cols(); ++tx)
        ASSERT_EQ(a.bucket(tx, ty), b.bucket(tx, ty))
            << lt << " tile " << tx << "," << ty;
  }
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
/// apply() against the edited_cell + fresh-flatten oracle, the
/// incremental DRC against the cold build and the reference checker,
/// and the incremental extraction against the reference extractor after
/// every step.
void replay_at_tile(geom::Coord tile) {
  const Macro& m = small_macro();
  const tech::Tech& t = m.tech;
  const std::string tile_tag = "tile=" + std::to_string(tile);

  LayoutDB db(*m.top, tile);
  drc::IncrementalDrc inc_drc(db, t);
  extract::IncrementalExtract inc_ext(db, t);
  expect_same_violations(inc_drc.report(), drc::check(db, t),
                         tile_tag + " init");
  EXPECT_EQ(drc_key_set(inc_drc.report()),
            drc_key_set(test_support::check_reference(*m.top, t)))
      << tile_tag << " init";
  expect_same_extraction(inc_ext.result(), extract_reference(db, t),
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
    const std::vector<drc::Violation> report = inc_drc.report();
    expect_same_violations(report, drc::check(fresh, t), tag);
    EXPECT_EQ(drc_key_set(report),
              drc_key_set(test_support::check_reference(*cur, t)))
        << tag;
    expect_same_extraction(inc_ext.result(), extract_reference(fresh, t), tag);
  }
}

// apply() keeps a layer's tile grid and edits its buckets in place
// only while the layer's bounds cannot move; edits at the bounds must
// re-grid exactly as a fresh flatten does.
TEST(LayoutIncremental, EditsAtTheLayerBoundsIndexLikeAFreshFlatten) {
  auto leaf = std::make_shared<geom::Cell>("leaf");
  leaf->add_shape(geom::Layer::Metal1, geom::Rect::xywh(0, 0, 10, 10));
  auto top = std::make_shared<geom::Cell>("top");
  for (int i = 0; i < 5; ++i)
    top->add_instance("u" + std::to_string(i), leaf,
                      geom::Transform::translate(100 * i, 0));
  const geom::Coord tile = 16;
  LayoutDB db(*top, tile);
  geom::CellPtr cur = top;

  auto move = [](const std::string& path, geom::Coord x, geom::Coord y) {
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    e.path = path;
    e.transform = geom::Transform::translate(x, y);
    return e;
  };
  CellEdit remove;
  remove.kind = CellEdit::Kind::Remove;
  remove.path = "u0";
  const std::vector<std::pair<std::string, CellEdit>> edits = {
      {"shrink the high bound", move("u4", 250, 0)},
      {"interior move", move("u2", 230, 5)},
      {"remove at the low bound", remove},
      {"grow past the low bound", move("u1", -50, 0)},
  };
  for (const auto& [tag, e] : edits) {
    db.apply(e);
    cur = geom::edited_cell(*cur, e);
    expect_same_db(db, LayoutDB(*cur, tile), tag);
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
