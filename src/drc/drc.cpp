#include "drc/drc.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <unordered_map>

#include "util/parallel.hpp"
#include "util/union_find.hpp"
#include "util/strings.hpp"

namespace bisram::drc {

using geom::Coord;
using geom::Layer;
using geom::LayoutDB;
using geom::Rect;
using geom::ShapeSplice;
using geom::TileIndex;

namespace {

// Fixed fold granularity for the per-tile passes. parallel_reduce's
// result is a pure function of (trials, chunk), so keeping the chunk
// constant makes the violation list bit-identical for any thread count.
constexpr std::int64_t kTileChunk = 8;

using VioList = std::vector<Violation>;

VioList append(VioList acc, VioList part) {
  acc.insert(acc.end(), std::make_move_iterator(part.begin()),
             std::make_move_iterator(part.end()));
  return acc;
}

/// Runs per_tile(tx, ty, out) over every tile of `idx` on the
/// deterministic engine, folding per-tile violation lists in strict
/// row-major tile order.
template <typename PerTile>
VioList tiled(const TileIndex& idx, int threads, PerTile&& per_tile) {
  const auto cols = static_cast<std::int64_t>(idx.tile_cols());
  const auto ntiles = cols * static_cast<std::int64_t>(idx.tile_rows());
  return parallel_reduce<VioList>(
      ntiles, kTileChunk, {},
      [&](std::int64_t t) {
        VioList part;
        per_tile(static_cast<int>(t % cols), static_cast<int>(t / cols), part);
        return part;
      },
      append, threads);
}

int kind_rank(RuleKind k) {
  switch (k) {
    case RuleKind::MinWidth: return 0;
    case RuleKind::MinSpace: return 1;
    case RuleKind::ViaEnclosure: return 2;
    case RuleKind::WellCoverage: return 3;
  }
  return 4;
}

/// Canonical report order: rule phase, then layer, then coordinates.
/// A stable sort on this key makes the final list independent of the
/// database's tile geometry as well (equal-key entries keep the
/// deterministic tile-order sequence, e.g. a via's lower-enclosure
/// violation before its upper one).
bool canon_less(const Violation& x, const Violation& y) {
  const auto key = [](const Violation& v) {
    return std::make_tuple(kind_rank(v.kind), static_cast<int>(v.layer),
                           v.a.lo.y, v.a.lo.x, v.a.hi.y, v.a.hi.x, v.b.lo.y,
                           v.b.lo.x, v.b.hi.y, v.b.hi.x);
  };
  return key(x) < key(y);
}

bool enclosed_by_any(const Rect& need, const std::vector<Rect>& candidates) {
  for (const Rect& c : candidates) {
    if (c.lo.x <= need.lo.x && c.lo.y <= need.lo.y && c.hi.x >= need.hi.x &&
        c.hi.y >= need.hi.y)
      return true;
  }
  return false;
}

/// Indexed variant: true when some rect of `idx` encloses `need`. An
/// enclosing rect necessarily intersects `need`, so querying the window
/// `need` sees every candidate.
bool enclosed_by_any(const Rect& need, const TileIndex& idx,
                     const std::vector<Rect>& rects) {
  bool found = false;
  idx.for_each_in(need, [&](std::uint32_t id) {
    const Rect& c = rects[id];
    if (c.lo.x <= need.lo.x && c.lo.y <= need.lo.y && c.hi.x >= need.hi.x &&
        c.hi.y >= need.hi.y)
      found = true;
  });
  return found;
}

std::string space_note(Coord gap, Coord min_space) {
  return strfmt("gap %.1f < %.1f lambda", geom::to_lambda(gap),
                geom::to_lambda(min_space));
}

struct ViaRule {
  Layer via;
  std::vector<Layer> lower;  // any of these may provide the landing
  Layer upper;
  Coord encl_lower;
  Coord encl_upper;
};

std::vector<ViaRule> via_rules_for(const tech::Tech& tech) {
  return {
      {Layer::Contact,
       {Layer::NDiff, Layer::PDiff, Layer::Poly},
       Layer::Metal1,
       std::min(tech.contact_encl_diff, tech.contact_encl_poly),
       tech.contact_encl_m1},
      {Layer::Via1, {Layer::Metal1}, Layer::Metal2, tech.via1_encl,
       tech.via1_encl},
      {Layer::Via2, {Layer::Metal2}, Layer::Metal3, tech.via2_encl,
       tech.via2_encl},
  };
}

}  // namespace

geom::Coord max_interaction_distance(const tech::Tech& tech) {
  Coord d = 1;
  for (Layer layer : geom::all_layers())
    d = std::max(d, tech.rule(layer).min_space);
  for (Coord e : {tech.contact_encl_diff, tech.contact_encl_poly,
                  tech.contact_encl_m1, tech.via1_encl, tech.via2_encl,
                  tech.well_encl_diff, tech.well_space})
    d = std::max(d, e);
  return d;
}

geom::Coord tile_size_for(const tech::Tech& tech) {
  // 8x the reach keeps bucket fan-out low (the seed hash used the same
  // multiple) while every rule still only consults adjacent tiles.
  return max_interaction_distance(tech) * 8;
}

std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options) {
  std::vector<Violation> out;
  const int threads = options.threads;

  // --- width and spacing per layer ------------------------------------------
  for (Layer layer : geom::all_layers()) {
    const auto& rule = tech.rule(layer);
    const auto& shapes = db.shapes(layer);
    const auto& rects = db.rects(layer);
    const auto& idx = db.index(layer);
    if (rects.empty()) continue;

    if (rule.min_width > 0) {
      out = append(std::move(out),
                   tiled(idx, threads, [&](int tx, int ty, VioList& part) {
                     for (std::uint32_t i : idx.homed_in(tx, ty)) {
                       const Rect& r = rects[i];
                       if (std::min(r.width(), r.height()) < rule.min_width)
                         part.push_back({RuleKind::MinWidth, layer, r, {}, "",
                                         db.path_name(shapes[i].path)});
                     }
                   }));
    }

    if (rule.min_space > 0) {
      // Merge touching rects into components first: two rectangles of the
      // same merged polygon may legitimately sit close (e.g. a contact
      // pad bridged to a gate by a stub). Note this also skips true
      // same-polygon notches — an accepted approximation documented in
      // drc.hpp. The union-find runs serially; the parallel phase below
      // only reads the fully-collapsed root table.
      std::vector<std::uint32_t> comp(rects.size());
      for (std::uint32_t i = 0; i < comp.size(); ++i) comp[i] = i;
      std::function<std::uint32_t(std::uint32_t)> find =
          [&](std::uint32_t x) -> std::uint32_t {
        while (comp[x] != x) {
          comp[x] = comp[comp[x]];
          x = comp[x];
        }
        return x;
      };
      for (std::uint32_t i = 0; i < rects.size(); ++i) {
        idx.for_each_in(rects[i], [&](std::uint32_t j) {
          if (j > i && rects[i].intersects(rects[j])) comp[find(i)] = find(j);
        });
      }
      std::vector<std::uint32_t> root(rects.size());
      for (std::uint32_t i = 0; i < root.size(); ++i) root[i] = find(i);

      out = append(
          std::move(out),
          tiled(idx, threads, [&](int tx, int ty, VioList& part) {
            for (std::uint32_t i : idx.homed_in(tx, ty)) {
              const Rect& a = rects[i];
              idx.for_each_in(a.expanded(rule.min_space),
                              [&](std::uint32_t j) {
                                if (j <= i) return;
                                if (root[i] == root[j]) return;
                                const Rect& b = rects[j];
                                const Coord gap = geom::rect_gap(a, b);
                                if (gap < rule.min_space)
                                  part.push_back(
                                      {RuleKind::MinSpace, layer, a, b,
                                       space_note(gap, rule.min_space),
                                       db.path_name(shapes[i].path),
                                       db.path_name(shapes[j].path)});
                              });
            }
          }));
    }
  }

  // --- via enclosures -------------------------------------------------------
  for (const auto& vr : via_rules_for(tech)) {
    const auto& vias = db.rects(vr.via);
    const auto& via_shapes = db.shapes(vr.via);
    const auto& via_idx = db.index(vr.via);
    if (vias.empty()) continue;
    out = append(
        std::move(out),
        tiled(via_idx, threads, [&](int tx, int ty, VioList& part) {
          for (std::uint32_t i : via_idx.homed_in(tx, ty)) {
            const Rect& via = vias[i];
            bool landed = false;
            for (Layer lower : vr.lower)
              if (enclosed_by_any(via.expanded(vr.encl_lower), db.index(lower),
                                  db.rects(lower)))
                landed = true;
            if (!landed)
              part.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                              "missing lower-layer enclosure",
                              db.path_name(via_shapes[i].path)});
            if (!enclosed_by_any(via.expanded(vr.encl_upper),
                                 db.index(vr.upper), db.rects(vr.upper)))
              part.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                              "missing upper-layer enclosure",
                              db.path_name(via_shapes[i].path)});
          }
        }));
  }

  // --- wells must enclose p-diffusion ---------------------------------------
  {
    const auto& pdiffs = db.rects(Layer::PDiff);
    const auto& pdiff_shapes = db.shapes(Layer::PDiff);
    const auto& pdiff_idx = db.index(Layer::PDiff);
    if (!pdiffs.empty()) {
      out = append(
          std::move(out),
          tiled(pdiff_idx, threads, [&](int tx, int ty, VioList& part) {
            for (std::uint32_t i : pdiff_idx.homed_in(tx, ty)) {
              const Rect& pd = pdiffs[i];
              if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                                   db.index(Layer::NWell),
                                   db.rects(Layer::NWell)))
                part.push_back({RuleKind::WellCoverage, Layer::PDiff, pd, {},
                                "pdiff not enclosed by nwell",
                                db.path_name(pdiff_shapes[i].path)});
            }
          }));
    }
  }

  std::stable_sort(out.begin(), out.end(), canon_less);
  if (out.size() > options.max_violations) out.resize(options.max_violations);
  return out;
}

std::vector<Violation> check(const geom::Cell& top, const tech::Tech& tech,
                             const DrcOptions& options) {
  return check(geom::LayoutDB(top, tile_size_for(tech)), tech, options);
}

// --- incremental checker -----------------------------------------------------
//
// Strategy: keep every violation check() would have found (untruncated)
// tagged with (phase, emitter, seq), where
//
//   * phase is the scan that produced it — width of layer l is 2l,
//     spacing of layer l is 2l+1, via rule vi is 2*kLayerCount+vi, well
//     coverage comes last. This is exactly the order check()
//     concatenates its per-rule lists in.
//   * emitter is the shape id the homed per-tile pass emitted it from,
//     and seq orders a single emitter's reports (the spacing partner
//     id; 0 = lower / 1 = upper for via enclosure).
//
// check()'s final stable_sort only has to break ties between
// violations with EQUAL canonical keys. An equal key pins the rule
// phase (kind + layer, and for the three via phases the layer is the
// via layer) and rect a's lo corner — i.e. the emitter's home tile. So
// within an equal-key group check()'s pre-sort sequence is just the
// per-tile emission order: ascending emitter, then seq. Sorting the
// records by (phase, emitter, seq) before the same stable canonical
// sort therefore reproduces check()'s output bit-for-bit, without ever
// replaying the full tile sweep.
//
// An edit then only has to (a) drop/renumber records through the
// shape-id splice and (b) re-emit records for shapes whose predicate
// could have changed; everything else provably still holds (surviving
// shapes keep their rects, and their instance paths are unaffected by
// an edit in a disjoint subtree).

struct IncrementalDrc::Impl {
  struct Rec {
    int phase;
    std::uint32_t emitter;
    std::uint32_t seq;
    Violation v;
  };
  /// Spacing state for one layer: the touching pairs (i < j, packed
  /// i<<32|j) the component merge is built from, and each shape's
  /// canonical component label — the smallest member id of its
  /// component. Labels are unique per component (a label is a member),
  /// so a shape pair's same-component predicate can only flip if one
  /// endpoint's label changes; and a splice remaps labels of untouched
  /// components monotonically, so "label != remapped old label" is an
  /// exact change detector.
  struct SpaceCache {
    std::vector<std::uint64_t> edges;
    std::vector<std::uint32_t> label;
  };

  const LayoutDB* db;
  tech::Tech tech;
  DrcOptions opt;
  std::vector<ViaRule> via_rules;
  std::vector<Rec> recs;
  std::array<SpaceCache, geom::kLayerCount> space;

  static std::uint64_t pack(std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  int width_phase(Layer l) const { return 2 * static_cast<int>(l); }
  int space_phase(Layer l) const { return 2 * static_cast<int>(l) + 1; }
  int via_phase(std::size_t vi) const {
    return 2 * geom::kLayerCount + static_cast<int>(vi);
  }
  int well_phase() const {
    return 2 * geom::kLayerCount + static_cast<int>(via_rules.size());
  }

  void emit_width(Layer layer, std::uint32_t i) {
    const auto& r = db->rects(layer)[i];
    recs.push_back({width_phase(layer), i, 0,
                    {RuleKind::MinWidth, layer, r, {}, "",
                     db->path_name(db->shapes(layer)[i].path)}});
  }

  void emit_space(Layer layer, std::uint32_t i, std::uint32_t j, Coord gap,
                  Coord min_space) {
    const auto& shapes = db->shapes(layer);
    const auto& rects = db->rects(layer);
    recs.push_back({space_phase(layer), i, j,
                    {RuleKind::MinSpace, layer, rects[i], rects[j],
                     space_note(gap, min_space), db->path_name(shapes[i].path),
                     db->path_name(shapes[j].path)}});
  }

  void scan_via(std::size_t vi, std::uint32_t i) {
    const ViaRule& vr = via_rules[vi];
    const Rect& via = db->rects(vr.via)[i];
    bool landed = false;
    for (Layer lower : vr.lower)
      if (enclosed_by_any(via.expanded(vr.encl_lower), db->index(lower),
                          db->rects(lower)))
        landed = true;
    if (!landed)
      recs.push_back({via_phase(vi), i, 0,
                      {RuleKind::ViaEnclosure, vr.via, via, {},
                       "missing lower-layer enclosure",
                       db->path_name(db->shapes(vr.via)[i].path)}});
    if (!enclosed_by_any(via.expanded(vr.encl_upper), db->index(vr.upper),
                         db->rects(vr.upper)))
      recs.push_back({via_phase(vi), i, 1,
                      {RuleKind::ViaEnclosure, vr.via, via, {},
                       "missing upper-layer enclosure",
                       db->path_name(db->shapes(vr.via)[i].path)}});
  }

  void scan_well(std::uint32_t i) {
    const Rect& pd = db->rects(Layer::PDiff)[i];
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         db->index(Layer::NWell), db->rects(Layer::NWell)))
      recs.push_back({well_phase(), i, 0,
                      {RuleKind::WellCoverage, Layer::PDiff, pd, {},
                       "pdiff not enclosed by nwell",
                       db->path_name(db->shapes(Layer::PDiff)[i].path)}});
  }

  void full_scan() {
    for (Layer layer : geom::all_layers()) {
      const auto& rule = tech.rule(layer);
      const auto& rects = db->rects(layer);
      const auto& idx = db->index(layer);
      if (rects.empty()) continue;

      if (rule.min_width > 0) {
        for (std::uint32_t i = 0; i < rects.size(); ++i)
          if (std::min(rects[i].width(), rects[i].height()) < rule.min_width)
            emit_width(layer, i);
      }
      if (rule.min_space > 0) {
        auto& sc = space[static_cast<std::size_t>(layer)];
        sc.edges.clear();
        for (std::uint32_t i = 0; i < rects.size(); ++i)
          idx.for_each_in(rects[i], [&](std::uint32_t j) {
            if (j > i) sc.edges.push_back(pack(i, j));
          });
        sc.label = component_labels(rects.size(), sc.edges);
        const auto& label = sc.label;
        for (std::uint32_t i = 0; i < rects.size(); ++i)
          idx.for_each_in(rects[i].expanded(rule.min_space),
                          [&](std::uint32_t j) {
                            if (j <= i || label[i] == label[j]) return;
                            const Coord gap = geom::rect_gap(rects[i], rects[j]);
                            if (gap < rule.min_space)
                              emit_space(layer, i, j, gap, rule.min_space);
                          });
      }
    }
    for (std::size_t vi = 0; vi < via_rules.size(); ++vi)
      for (std::uint32_t i = 0; i < db->rects(via_rules[vi].via).size(); ++i)
        scan_via(vi, i);
    for (std::uint32_t i = 0; i < db->rects(Layer::PDiff).size(); ++i)
      scan_well(i);
  }

  /// Drops phase-`phase` records whose emitter (and, when
  /// `remap_seq`, partner) was removed or is in `affected`, renumbering
  /// the survivors through the splice.
  void filter_phase(int phase, const ShapeSplice& sp,
                    const std::vector<char>& affected, bool remap_seq) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < recs.size(); ++r) {
      Rec rec = std::move(recs[r]);
      if (rec.phase == phase) {
        const std::uint32_t e = sp.remap(rec.emitter);
        if (e == ShapeSplice::kRemoved || affected[e]) continue;
        rec.emitter = e;
        if (remap_seq) {
          const std::uint32_t s = sp.remap(rec.seq);
          if (s == ShapeSplice::kRemoved || affected[s]) continue;
          rec.seq = s;
        }
      }
      recs[w++] = std::move(rec);
    }
    recs.resize(w);
  }

  /// Steps 1-3 of one layer's spacing update: the carried and
  /// discovered touching pairs, the new labels, and the shapes whose
  /// same-component predicate can have flipped. Reads only the layer's
  /// own state, so the touched layers run side by side on the pool.
  struct Relabel {
    std::vector<std::uint64_t> edges;
    std::vector<std::uint32_t> label;
    std::vector<char> affected;
  };
  Relabel relabel(Layer layer, const ShapeSplice& sp) const {
    const auto& rects = db->rects(layer);
    const auto& idx = db->index(layer);
    const SpaceCache& sc = space[static_cast<std::size_t>(layer)];
    Relabel out;

    // 1. Carry surviving edges across the splice (a monotone remap, so
    //    the i<j packing is preserved).
    out.edges.reserve(sc.edges.size());
    for (std::uint64_t e : sc.edges) {
      const std::uint32_t a = sp.remap(static_cast<std::uint32_t>(e >> 32));
      const std::uint32_t b = sp.remap(static_cast<std::uint32_t>(e));
      if (a == ShapeSplice::kRemoved || b == ShapeSplice::kRemoved) continue;
      out.edges.push_back(pack(a, b));
    }
    // 2. Discover the inserted shapes' edges. A pair of two inserted
    //    shapes is found from both ends; keep the lower end's visit.
    auto is_new = [&](std::uint32_t id) {
      return id >= sp.begin && id < sp.new_end;
    };
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
      idx.for_each_in(rects[k], [&](std::uint32_t j) {
        if (j == k || (is_new(j) && j < k)) return;
        out.edges.push_back(pack(std::min(j, k), std::max(j, k)));
      });

    // 3. Relabel; a shape is affected when it is new or its component
    //    label changed (exactly the shapes whose same-component
    //    predicate can have flipped).
    out.label = component_labels(rects.size(), out.edges);
    out.affected.assign(rects.size() + 1, 0);
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) out.affected[k] = 1;
    for (std::uint32_t o = 0; o < sc.label.size(); ++o) {
      const std::uint32_t n = sp.remap(o);
      if (n == ShapeSplice::kRemoved) continue;
      if (sp.remap(sc.label[o]) != out.label[n]) out.affected[n] = 1;
    }
    return out;
  }

  void update_layer(Layer layer, const geom::EditResult& edit,
                    Relabel* rl) {
    const auto& rule = tech.rule(layer);
    const ShapeSplice& sp = edit.splice_of(layer);
    const auto& rects = db->rects(layer);
    const auto& idx = db->index(layer);
    const std::vector<char> none(rects.size() + 1, 0);

    if (rule.min_width > 0) {
      filter_phase(width_phase(layer), sp, none, false);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        if (std::min(rects[k].width(), rects[k].height()) < rule.min_width)
          emit_width(layer, k);
    }
    if (rule.min_space == 0) return;

    auto& sc = space[static_cast<std::size_t>(layer)];
    sc.edges = std::move(rl->edges);
    sc.label = std::move(rl->label);
    const auto& label = sc.label;
    const auto& affected = rl->affected;

    // 4. Splice the surviving spacing records and rescan the affected
    //    shapes. Scanning ascending, a pair of two affected shapes is
    //    emitted from its lower member's visit.
    filter_phase(space_phase(layer), sp, affected, true);
    for (std::uint32_t k = 0; k < rects.size(); ++k) {
      if (!affected[k]) continue;
      idx.for_each_in(rects[k].expanded(rule.min_space), [&](std::uint32_t j) {
        if (j == k || label[j] == label[k]) return;
        if (affected[j] && j < k) return;
        const Coord gap = geom::rect_gap(rects[k], rects[j]);
        if (gap < rule.min_space)
          emit_space(layer, std::min(j, k), std::max(j, k), gap,
                     rule.min_space);
      });
    }
  }

  /// Ids of `idx` whose rect intersects any dirty rect expanded by
  /// `reach` (Minkowski: r.expanded(reach) hits the dirty region iff r
  /// hits the region expanded by reach), OR'd into `affected`.
  static void mark_dirty(const TileIndex& idx, const std::vector<Rect>& dirty,
                         Coord reach, std::vector<char>& affected) {
    for (const Rect& d : dirty)
      idx.for_each_in(d.expanded(reach),
                      [&](std::uint32_t id) { affected[id] = 1; });
  }

  void update(const geom::EditResult& edit) {
    std::vector<Layer> touched;
    for (Layer layer : geom::all_layers())
      if (edit.touches(layer)) touched.push_back(layer);
    std::vector<Relabel> relabels(touched.size());
    parallel_for(static_cast<std::int64_t>(touched.size()), 1,
                 [&](std::int64_t i) {
                   const Layer l = touched[static_cast<std::size_t>(i)];
                   if (tech.rule(l).min_space > 0)
                     relabels[static_cast<std::size_t>(i)] =
                         relabel(l, edit.splice_of(l));
                 });
    for (std::size_t i = 0; i < touched.size(); ++i)
      update_layer(touched[i], edit, &relabels[i]);

    for (std::size_t vi = 0; vi < via_rules.size(); ++vi) {
      const ViaRule& vr = via_rules[vi];
      const ShapeSplice& sp = edit.splice_of(vr.via);
      std::vector<Rect> lower_dirty, upper_dirty;
      for (Layer lower : vr.lower)
        for (const Rect& d : edit.dirty_rects(lower)) lower_dirty.push_back(d);
      for (const Rect& d : edit.dirty_rects(vr.upper)) upper_dirty.push_back(d);
      if (sp.empty() && lower_dirty.empty() && upper_dirty.empty()) continue;

      const auto& via_idx = db->index(vr.via);
      std::vector<char> affected(db->rects(vr.via).size() + 1, 0);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) affected[k] = 1;
      mark_dirty(via_idx, lower_dirty, vr.encl_lower, affected);
      mark_dirty(via_idx, upper_dirty, vr.encl_upper, affected);

      filter_phase(via_phase(vi), sp, affected, false);
      for (std::uint32_t i = 0; i < db->rects(vr.via).size(); ++i)
        if (affected[i]) scan_via(vi, i);
    }

    {
      const ShapeSplice& sp = edit.splice_of(Layer::PDiff);
      const auto nwell_dirty = edit.dirty_rects(Layer::NWell);
      if (!sp.empty() || !nwell_dirty.empty()) {
        const auto& pdiff_idx = db->index(Layer::PDiff);
        std::vector<char> affected(db->rects(Layer::PDiff).size() + 1, 0);
        for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) affected[k] = 1;
        mark_dirty(pdiff_idx, nwell_dirty, tech.well_encl_diff, affected);
        filter_phase(well_phase(), sp, affected, false);
        for (std::uint32_t i = 0; i < db->rects(Layer::PDiff).size(); ++i)
          if (affected[i]) scan_well(i);
      }
    }
  }

  std::vector<Violation> report() const {
    std::vector<const Rec*> order;
    order.reserve(recs.size());
    for (const Rec& r : recs) order.push_back(&r);
    std::sort(order.begin(), order.end(), [](const Rec* x, const Rec* y) {
      return std::make_tuple(x->phase, x->emitter, x->seq) <
             std::make_tuple(y->phase, y->emitter, y->seq);
    });
    std::vector<Violation> out;
    out.reserve(order.size());
    for (const Rec* r : order) out.push_back(r->v);
    std::stable_sort(out.begin(), out.end(), canon_less);
    if (out.size() > opt.max_violations) out.resize(opt.max_violations);
    return out;
  }
};

IncrementalDrc::IncrementalDrc(const geom::LayoutDB& db, const tech::Tech& tech,
                               const DrcOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->db = &db;
  impl_->tech = tech;
  impl_->opt = options;
  impl_->via_rules = via_rules_for(tech);
  impl_->full_scan();
}

IncrementalDrc::~IncrementalDrc() = default;

void IncrementalDrc::update(const geom::EditResult& edit) {
  impl_->update(edit);
}

std::vector<Violation> IncrementalDrc::report() const { return impl_->report(); }

// --- reference checker (pre-LayoutDB seed implementation) --------------------

namespace {

// Spatial hash over rect lists so spacing checks stay near-linear.
class Buckets {
 public:
  Buckets(const std::vector<Rect>& rects, Coord cell_size)
      : rects_(rects), size_(std::max<Coord>(cell_size, 1)) {
    for (std::size_t i = 0; i < rects.size(); ++i) insert(i);
  }

  template <typename Fn>
  void neighbors(std::size_t i, Coord margin, Fn&& fn) const {
    const Rect r = rects_[i].expanded(margin);
    for (Coord gx = floor_div(r.lo.x); gx <= floor_div(r.hi.x); ++gx) {
      for (Coord gy = floor_div(r.lo.y); gy <= floor_div(r.hi.y); ++gy) {
        auto it = grid_.find(key(gx, gy));
        if (it == grid_.end()) continue;
        for (std::size_t j : it->second)
          if (j > i) fn(j);
      }
    }
  }

 private:
  Coord floor_div(Coord v) const {
    return v >= 0 ? v / size_ : -((-v + size_ - 1) / size_);
  }
  static std::uint64_t key(Coord x, Coord y) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
           static_cast<std::uint32_t>(y);
  }
  void insert(std::size_t i) {
    const Rect& r = rects_[i];
    for (Coord gx = floor_div(r.lo.x); gx <= floor_div(r.hi.x); ++gx)
      for (Coord gy = floor_div(r.lo.y); gy <= floor_div(r.hi.y); ++gy)
        grid_[key(gx, gy)].push_back(i);
  }

  const std::vector<Rect>& rects_;
  Coord size_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> grid_;
};

}  // namespace

std::vector<Violation> check_reference(const geom::Cell& top,
                                       const tech::Tech& tech,
                                       const DrcOptions& options) {
  std::vector<Violation> out;
  const auto by_layer = top.flatten_by_layer();
  auto layer_rects = [&](Layer l) -> const std::vector<Rect>& {
    return by_layer[static_cast<std::size_t>(l)];
  };
  auto full = [&] { return out.size() >= options.max_violations; };

  // --- width and spacing per layer ----------------------------------------
  for (Layer layer : geom::all_layers()) {
    const auto& rule = tech.rule(layer);
    const auto& rects = layer_rects(layer);
    if (rects.empty()) continue;

    if (rule.min_width > 0) {
      for (const Rect& r : rects) {
        if (std::min(r.width(), r.height()) < rule.min_width) {
          out.push_back({RuleKind::MinWidth, layer, r, {}, ""});
          if (full()) return out;
        }
      }
    }

    if (rule.min_space > 0) {
      Buckets buckets(rects, rule.min_space * 8);
      std::vector<std::size_t> comp(rects.size());
      for (std::size_t i = 0; i < comp.size(); ++i) comp[i] = i;
      std::function<std::size_t(std::size_t)> find =
          [&](std::size_t x) -> std::size_t {
        while (comp[x] != x) {
          comp[x] = comp[comp[x]];
          x = comp[x];
        }
        return x;
      };
      for (std::size_t i = 0; i < rects.size(); ++i) {
        buckets.neighbors(i, 0, [&](std::size_t j) {
          if (rects[i].intersects(rects[j])) comp[find(i)] = find(j);
        });
      }
      for (std::size_t i = 0; i < rects.size(); ++i) {
        buckets.neighbors(i, rule.min_space, [&](std::size_t j) {
          if (full()) return;
          if (find(i) == find(j)) return;  // same merged polygon
          const Rect& a = rects[i];
          const Rect& b = rects[j];
          const Coord gap = geom::rect_gap(a, b);
          if (gap < rule.min_space)
            out.push_back({RuleKind::MinSpace, layer, a, b,
                           space_note(gap, rule.min_space)});
        });
        if (full()) return out;
      }
    }
  }

  // --- via enclosures -------------------------------------------------------
  for (const auto& vr : via_rules_for(tech)) {
    for (const Rect& via : layer_rects(vr.via)) {
      if (full()) return out;
      bool landed = false;
      for (Layer lower : vr.lower)
        if (enclosed_by_any(via.expanded(vr.encl_lower), layer_rects(lower)))
          landed = true;
      if (!landed)
        out.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                       "missing lower-layer enclosure"});
      if (!enclosed_by_any(via.expanded(vr.encl_upper), layer_rects(vr.upper)))
        out.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                       "missing upper-layer enclosure"});
    }
  }

  // --- wells must enclose p-diffusion ---------------------------------------
  for (const Rect& pd : layer_rects(Layer::PDiff)) {
    if (full()) return out;
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         layer_rects(Layer::NWell)))
      out.push_back({RuleKind::WellCoverage, Layer::PDiff, pd, {},
                     "pdiff not enclosed by nwell"});
  }

  return out;
}

std::string describe(const Violation& v) {
  const char* kind = "?";
  switch (v.kind) {
    case RuleKind::MinWidth: kind = "min-width"; break;
    case RuleKind::MinSpace: kind = "min-space"; break;
    case RuleKind::ViaEnclosure: kind = "via-enclosure"; break;
    case RuleKind::WellCoverage: kind = "well-coverage"; break;
  }
  std::string line =
      strfmt("%s on %s at (%.1f,%.1f)-(%.1f,%.1f) %s", kind,
             std::string(geom::layer_name(v.layer)).c_str(),
             geom::to_lambda(v.a.lo.x), geom::to_lambda(v.a.lo.y),
             geom::to_lambda(v.a.hi.x), geom::to_lambda(v.a.hi.y),
             v.note.c_str());
  if (!v.path_a.empty()) line += strfmt(" [in %s]", v.path_a.c_str());
  return line;
}

}  // namespace bisram::drc
