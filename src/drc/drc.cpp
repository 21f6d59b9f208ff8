#include "drc/drc.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/union_find.hpp"

namespace bisram::drc {

using geom::Coord;
using geom::Layer;
using geom::LayoutDB;
using geom::Rect;
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

/// Canonical report order: rule, then layer, then coordinates. The
/// report is stable-sorted on this key from the passes' (pass, shape
/// id) emission order, so equal-key entries (a via's lower- and
/// upper-enclosure findings, or coincident shapes from different
/// instances) keep that order: lower shape id first.
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
// check() runs one pass per rule, in a fixed order: width then spacing
// of each layer in layer order, then each via rule, then well coverage.
// Every pass scans shape ids in ascending order on the campaign pool in
// fixed kBuildChunk chunks and joins the chunk lists in chunk order, so
// the findings come out in (pass, shape id) order at any thread count;
// the report is a stable sort of that list on the canonical key.
// Spacing first labels the layer's components from its touching pairs,
// which util/union_find.hpp finds on the pool a batch of chunks at a
// time and merges before finding the next, and only then scans for
// close pairs. The labels are dropped as soon as the layer's scan is
// done.

namespace {

/// Runs scan(id, part) for every id of a `count`-shape layer on the
/// pool, appending to `out` in id order.
template <typename T, typename Scan>
void each_id(std::size_t count, std::vector<T>& out, Scan&& scan) {
  parallel_append(
      static_cast<std::int64_t>(count), kBuildChunk, out,
      [&](std::int64_t lo, std::int64_t hi, std::vector<T>& part) {
        for (auto i = static_cast<std::uint32_t>(lo); i < hi; ++i)
          scan(i, part);
      });
}

/// The per-shape rule scans over one database.
struct Scans {
  const LayoutDB& db;
  const tech::Tech& tech;
  std::vector<ViaRule> via_rules;

  void width(Layer layer, std::uint32_t i, std::vector<Violation>& out) const {
    const Rect& r = db.rects(layer)[i];
    if (std::min(r.width(), r.height()) < tech.rule(layer).min_width)
      out.push_back({RuleKind::MinWidth, layer, r, {}, "",
                     db.path_name(db.paths(layer)[i]), {}});
  }

  /// Appends shape i's touching pairs with higher ids, packed i<<32|j.
  void touching(Layer layer, std::uint32_t i,
                std::vector<std::uint64_t>& out) const {
    db.index(layer).for_each_in(db.rects(layer)[i], [&](std::uint32_t j) {
      if (j > i) out.push_back((static_cast<std::uint64_t>(i) << 32) | j);
    });
  }

  /// Shape k's close pairs with higher-id shapes of other components;
  /// `label` is the layer's component labelling.
  void space(Layer layer, const std::vector<std::uint32_t>& label,
             std::uint32_t k, std::vector<Violation>& out) const {
    const Coord min_space = tech.rule(layer).min_space;
    const auto& rects = db.rects(layer);
    const auto& paths = db.paths(layer);
    db.index(layer).for_each_in(
        rects[k].expanded(min_space), [&](std::uint32_t j) {
          if (j <= k || label[j] == label[k]) return;
          const Coord gap = geom::rect_gap(rects[k], rects[j]);
          if (gap >= min_space) return;
          out.push_back({RuleKind::MinSpace, layer, rects[k], rects[j],
                         space_note(gap, min_space),
                         db.path_name(paths[k]), db.path_name(paths[j])});
        });
  }

  void via(const ViaRule& vr, std::uint32_t i,
           std::vector<Violation>& out) const {
    const Rect& via = db.rects(vr.via)[i];
    bool landed = false;
    for (Layer lower : vr.lower)
      if (enclosed_by_any(via.expanded(vr.encl_lower), db.index(lower),
                          db.rects(lower)))
        landed = true;
    if (!landed)
      out.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                     "missing lower-layer enclosure",
                     db.path_name(db.paths(vr.via)[i]), {}});
    if (!enclosed_by_any(via.expanded(vr.encl_upper), db.index(vr.upper),
                         db.rects(vr.upper)))
      out.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                     "missing upper-layer enclosure",
                     db.path_name(db.paths(vr.via)[i]), {}});
  }

  void well(std::uint32_t i, std::vector<Violation>& out) const {
    const Rect& pd = db.rects(Layer::PDiff)[i];
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         db.index(Layer::NWell), db.rects(Layer::NWell)))
      out.push_back({RuleKind::WellCoverage, Layer::PDiff, pd, {},
                     "pdiff not enclosed by nwell",
                     db.path_name(db.paths(Layer::PDiff)[i]), {}});
  }
};

}  // namespace

std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options) {
  const Scans scans{db, tech, via_rules_for(tech)};
  std::vector<Violation> out;
  for (Layer layer : geom::all_layers()) {
    const auto& rule = tech.rule(layer);
    const std::size_t n = db.rects(layer).size();
    if (rule.min_width > 0)
      each_id(n, out, [&](std::uint32_t i, std::vector<Violation>& part) {
        scans.width(layer, i, part);
      });
    if (rule.min_space > 0) {
      const std::vector<std::uint32_t> label = component_labels(
          n, kBuildChunk,
          [&](std::int64_t lo, std::int64_t hi,
              std::vector<std::uint64_t>& part) {
            for (auto i = static_cast<std::uint32_t>(lo); i < hi; ++i)
              scans.touching(layer, i, part);
          });
      each_id(n, out, [&](std::uint32_t i, std::vector<Violation>& part) {
        scans.space(layer, label, i, part);
      });
    }
  }
  for (const ViaRule& vr : scans.via_rules)
    each_id(db.rects(vr.via).size(), out,
            [&](std::uint32_t i, std::vector<Violation>& part) {
              scans.via(vr, i, part);
            });
  each_id(db.rects(Layer::PDiff).size(), out,
          [&](std::uint32_t i, std::vector<Violation>& part) {
            scans.well(i, part);
          });
  std::stable_sort(out.begin(), out.end(), canon_less);
  if (out.size() > options.max_violations) out.resize(options.max_violations);
  return out;
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
