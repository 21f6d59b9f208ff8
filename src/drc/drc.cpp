#include "drc/drc.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <tuple>

#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/union_find.hpp"

namespace bisram::drc {

using geom::Coord;
using geom::Layer;
using geom::LayoutDB;
using geom::Rect;
using geom::ShapeSplice;
using geom::TileIndex;

namespace {

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
/// The report is stable-sorted on this key from the records' (phase,
/// emitter, seq) order, so equal-key entries (a via's lower- and
/// upper-enclosure findings, or coincident shapes from different
/// instances) keep that order: lower emitter id first.
bool canon_less(const Violation& x, const Violation& y) {
  const auto key = [](const Violation& v) {
    return std::make_tuple(kind_rank(v.kind), static_cast<int>(v.layer),
                           v.a.lo.y, v.a.lo.x, v.a.hi.y, v.a.hi.x, v.b.lo.y,
                           v.b.lo.x, v.b.hi.y, v.b.hi.x);
  };
  return key(x) < key(y);
}

/// True when some rect of `idx` encloses `need`. An enclosing rect
/// necessarily intersects `need`, so querying the window `need` sees
/// every candidate.
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

// --- the checker -------------------------------------------------------------
//
// The engine keeps every violation (untruncated) as a record tagged
// with (phase, emitter, seq), and keeps the records sorted on that key:
//
//   * phase is the scan that produced it — width of layer l is 2l,
//     spacing of layer l is 2l+1, via rule vi is 2*kLayerCount+vi, well
//     coverage comes last;
//   * emitter is the shape id the record was found from (the lower id
//     of a spacing pair), and seq orders a single emitter's reports
//     (the spacing partner id; 0 = lower / 1 = upper for via
//     enclosure).
//
// The key is unique per record. The report is a stable sort of the
// records on the canonical key, so equal-key violations keep key order
// and the report depends only on the records, never on the thread
// count.
//
// The cold build runs every per-id pass on the campaign pool in fixed
// kBuildChunk chunks; a pass scans ids in ascending order and the chunk
// lists are joined in chunk order, so the records come out sorted.
// Spacing first discovers the layer's touching pairs the same way, then
// labels components serially, and only then scans for close pairs.
//
// An edit then only has to (a) drop/renumber records through the
// shape-id splice and (b) re-emit records for shapes whose predicate
// could have changed, merging them in; everything else provably still
// holds (surviving shapes keep their rects, and their instance paths are
// unaffected by an edit in a disjoint subtree).

struct IncrementalDrc::Impl {
  struct Rec {
    int phase;
    std::uint32_t emitter;
    std::uint32_t seq;
    Violation v;
  };
  using Recs = std::vector<Rec>;
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
  Recs recs;
  std::array<SpaceCache, geom::kLayerCount> space;

  static std::uint64_t pack(std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }
  static bool rec_less(const Rec& x, const Rec& y) {
    return std::make_tuple(x.phase, x.emitter, x.seq) <
           std::make_tuple(y.phase, y.emitter, y.seq);
  }

  int width_phase(Layer l) const { return 2 * static_cast<int>(l); }
  int space_phase(Layer l) const { return 2 * static_cast<int>(l) + 1; }
  int via_phase(std::size_t vi) const {
    return 2 * geom::kLayerCount + static_cast<int>(vi);
  }
  int well_phase() const {
    return 2 * geom::kLayerCount + static_cast<int>(via_rules.size());
  }

  void scan_width(Layer layer, std::uint32_t i, Recs& out) const {
    const Rect& r = db->rects(layer)[i];
    if (std::min(r.width(), r.height()) < tech.rule(layer).min_width)
      out.push_back({width_phase(layer), i, 0,
                     {RuleKind::MinWidth, layer, r, {}, "",
                      db->path_name(db->shapes(layer)[i].path), {}}});
  }

  /// Appends shape i's touching pairs with the shapes `i` finds them
  /// from: every partner j > i, and every j < i that is not
  /// `rescanned(j)` (a rescanned j finds the pair from its own visit).
  template <typename Rescanned>
  void discover(Layer layer, std::uint32_t i, Rescanned&& rescanned,
                std::vector<std::uint64_t>& out) const {
    db->index(layer).for_each_in(db->rects(layer)[i], [&](std::uint32_t j) {
      if (j == i || (j < i && rescanned(j))) return;
      out.push_back(pack(std::min(i, j), std::max(i, j)));
    });
  }

  /// Spacing records of shape k against the other components of its
  /// layer, under the same pair ownership as discover(): a pair with a
  /// lower, also-rescanned partner is emitted from that partner's visit.
  template <typename Rescanned>
  void scan_space(Layer layer, std::uint32_t k, Rescanned&& rescanned,
                  Recs& out) const {
    const Coord min_space = tech.rule(layer).min_space;
    const auto& rects = db->rects(layer);
    const auto& shapes = db->shapes(layer);
    const auto& label = space[static_cast<std::size_t>(layer)].label;
    db->index(layer).for_each_in(
        rects[k].expanded(min_space), [&](std::uint32_t j) {
          if (j == k || label[j] == label[k]) return;
          if (j < k && rescanned(j)) return;
          const Coord gap = geom::rect_gap(rects[k], rects[j]);
          if (gap >= min_space) return;
          const std::uint32_t lo = std::min(j, k), hi = std::max(j, k);
          out.push_back({space_phase(layer), lo, hi,
                         {RuleKind::MinSpace, layer, rects[lo], rects[hi],
                          space_note(gap, min_space),
                          db->path_name(shapes[lo].path),
                          db->path_name(shapes[hi].path)}});
        });
  }

  void scan_via(std::size_t vi, std::uint32_t i, Recs& out) const {
    const ViaRule& vr = via_rules[vi];
    const Rect& via = db->rects(vr.via)[i];
    bool landed = false;
    for (Layer lower : vr.lower)
      if (enclosed_by_any(via.expanded(vr.encl_lower), db->index(lower),
                          db->rects(lower)))
        landed = true;
    if (!landed)
      out.push_back({via_phase(vi), i, 0,
                     {RuleKind::ViaEnclosure, vr.via, via, {},
                      "missing lower-layer enclosure",
                      db->path_name(db->shapes(vr.via)[i].path), {}}});
    if (!enclosed_by_any(via.expanded(vr.encl_upper), db->index(vr.upper),
                         db->rects(vr.upper)))
      out.push_back({via_phase(vi), i, 1,
                     {RuleKind::ViaEnclosure, vr.via, via, {},
                      "missing upper-layer enclosure",
                      db->path_name(db->shapes(vr.via)[i].path), {}}});
  }

  void scan_well(std::uint32_t i, Recs& out) const {
    const Rect& pd = db->rects(Layer::PDiff)[i];
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         db->index(Layer::NWell), db->rects(Layer::NWell)))
      out.push_back({well_phase(), i, 0,
                     {RuleKind::WellCoverage, Layer::PDiff, pd, {},
                      "pdiff not enclosed by nwell",
                      db->path_name(db->shapes(Layer::PDiff)[i].path), {}}});
  }

  /// Runs scan(id, out) for every id of a `count`-shape layer on the
  /// pool, appending to `out` in id order.
  template <typename T, typename Scan>
  static void each_id(std::size_t count, std::vector<T>& out, Scan&& scan) {
    parallel_append(
        static_cast<std::int64_t>(count), kBuildChunk, out,
        [&](std::int64_t lo, std::int64_t hi, std::vector<T>& part) {
          for (auto i = static_cast<std::uint32_t>(lo); i < hi; ++i)
            scan(i, part);
        });
  }

  /// The cold build: every pass over every id, in phase order.
  void init() {
    const auto all = [](std::uint32_t) { return true; };
    for (Layer layer : geom::all_layers()) {
      const auto& rule = tech.rule(layer);
      const std::size_t n = db->rects(layer).size();
      if (rule.min_width > 0)
        each_id(n, recs, [&](std::uint32_t i, Recs& part) {
          scan_width(layer, i, part);
        });
      if (rule.min_space > 0) {
        auto& sc = space[static_cast<std::size_t>(layer)];
        each_id(n, sc.edges,
                [&](std::uint32_t i, std::vector<std::uint64_t>& part) {
                  discover(layer, i, all, part);
                });
        sc.label = component_labels(n, sc.edges);
        each_id(n, recs, [&](std::uint32_t i, Recs& part) {
          scan_space(layer, i, all, part);
        });
      }
    }
    for (std::size_t vi = 0; vi < via_rules.size(); ++vi)
      each_id(db->rects(via_rules[vi].via).size(), recs,
              [&](std::uint32_t i, Recs& part) { scan_via(vi, i, part); });
    each_id(db->rects(Layer::PDiff).size(), recs,
            [&](std::uint32_t i, Recs& part) { scan_well(i, part); });
  }

  /// Drops phase-`phase` records whose emitter (and, when
  /// `remap_seq`, partner) was removed or is in `affected`, renumbering
  /// the survivors through the splice. The remap is monotone, so the
  /// records stay sorted.
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
    const std::size_t n = db->rects(layer).size();
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
    const auto is_new = [&](std::uint32_t id) {
      return id >= sp.begin && id < sp.new_end;
    };
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
      discover(layer, k, is_new, out.edges);

    // 3. Relabel; a shape is affected when it is new or its component
    //    label changed (exactly the shapes whose same-component
    //    predicate can have flipped).
    out.label = component_labels(n, out.edges);
    out.affected.assign(n + 1, 0);
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) out.affected[k] = 1;
    for (std::uint32_t o = 0; o < sc.label.size(); ++o) {
      const std::uint32_t nid = sp.remap(o);
      if (nid == ShapeSplice::kRemoved) continue;
      if (sp.remap(sc.label[o]) != out.label[nid]) out.affected[nid] = 1;
    }
    return out;
  }

  void update_layer(Layer layer, const geom::EditResult& edit, Relabel* rl,
                    Recs& fresh) {
    const auto& rule = tech.rule(layer);
    const ShapeSplice& sp = edit.splice_of(layer);
    const std::size_t n = db->rects(layer).size();

    if (rule.min_width > 0) {
      filter_phase(width_phase(layer), sp, std::vector<char>(n + 1, 0), false);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        scan_width(layer, k, fresh);
    }
    if (rule.min_space == 0) return;

    auto& sc = space[static_cast<std::size_t>(layer)];
    sc.edges = std::move(rl->edges);
    sc.label = std::move(rl->label);
    const auto& affected = rl->affected;

    // 4. Splice the surviving spacing records and rescan the affected
    //    shapes. A pair of two affected shapes is emitted from its lower
    //    member's visit.
    filter_phase(space_phase(layer), sp, affected, true);
    const auto rescanned = [&](std::uint32_t j) { return affected[j] != 0; };
    for (std::uint32_t k = 0; k < n; ++k)
      if (affected[k]) scan_space(layer, k, rescanned, fresh);
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
    Recs fresh;
    for (std::size_t i = 0; i < touched.size(); ++i)
      update_layer(touched[i], edit, &relabels[i], fresh);

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
        if (affected[i]) scan_via(vi, i, fresh);
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
          if (affected[i]) scan_well(i, fresh);
      }
    }

    // Merge the re-emitted records into the sorted survivors.
    std::sort(fresh.begin(), fresh.end(), rec_less);
    const auto mid = static_cast<std::ptrdiff_t>(recs.size());
    recs.insert(recs.end(), std::make_move_iterator(fresh.begin()),
                std::make_move_iterator(fresh.end()));
    std::inplace_merge(recs.begin(), recs.begin() + mid, recs.end(), rec_less);
  }

  /// The records' violations in canonical order, truncated. `take` moves
  /// them out of the records instead of copying (drc::check's path,
  /// which drops the engine afterwards).
  std::vector<Violation> report(bool take) {
    std::vector<Violation> out;
    out.reserve(recs.size());
    for (Rec& r : recs) {
      if (take)
        out.push_back(std::move(r.v));
      else
        out.push_back(r.v);
    }
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
  impl_->init();
}

IncrementalDrc::~IncrementalDrc() = default;

void IncrementalDrc::update(const geom::EditResult& edit) {
  impl_->update(edit);
}

std::vector<Violation> IncrementalDrc::report() const {
  return impl_->report(false);
}

std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options) {
  IncrementalDrc engine(db, tech, options);
  return engine.impl_->report(true);
}

std::vector<Violation> check(const geom::Cell& top, const tech::Tech& tech,
                             const DrcOptions& options) {
  return check(geom::LayoutDB(top, tile_size_for(tech)), tech, options);
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
