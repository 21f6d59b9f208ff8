#pragma once
// Test-only oracle for drc::check: the serial checker the library
// shipped before the LayoutDB existed. It shares no code with src/drc —
// its own flatten (Cell::flatten_by_layer), a private spatial hash, its
// own union-find for the touching-rect merge and linear enclosure
// scans — so comparing the engine with it is an independent check of
// every rule. It reports in first-found order with no instance paths,
// and may report one spacing pair once per shared hash bucket, so
// compare it with the engine as a key set.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "drc/drc.hpp"
#include "geom/cell.hpp"
#include "tech/tech.hpp"
#include "util/strings.hpp"

namespace bisram::test_support {

namespace drc_reference_detail {

using geom::Coord;
using geom::Rect;

/// Spatial hash over a rect list so spacing checks stay near-linear.
class Buckets {
 public:
  Buckets(const std::vector<Rect>& rects, Coord cell_size)
      : rects_(rects), size_(std::max<Coord>(cell_size, 1)) {
    for (std::size_t i = 0; i < rects.size(); ++i) insert(i);
  }

  /// Calls fn(j) for every j > i sharing a bucket with rects[i]
  /// expanded by `margin` (once per shared bucket).
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

inline bool enclosed_by_any(const Rect& need,
                            const std::vector<Rect>& candidates) {
  for (const Rect& c : candidates) {
    if (c.lo.x <= need.lo.x && c.lo.y <= need.lo.y && c.hi.x >= need.hi.x &&
        c.hi.y >= need.hi.y)
      return true;
  }
  return false;
}

inline std::string space_note(Coord gap, Coord min_space) {
  return strfmt("gap %.1f < %.1f lambda", geom::to_lambda(gap),
                geom::to_lambda(min_space));
}

}  // namespace drc_reference_detail

/// Checks `top` against `tech`'s rules the way the seed checker did.
inline std::vector<drc::Violation> check_reference(
    const geom::Cell& top, const tech::Tech& tech,
    const drc::DrcOptions& options = {}) {
  using drc::RuleKind;
  using geom::Coord;
  using geom::Layer;
  using geom::Rect;
  namespace d = drc_reference_detail;

  std::vector<drc::Violation> out;
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
          out.push_back({RuleKind::MinWidth, layer, r, {}, "", {}, {}});
          if (full()) return out;
        }
      }
    }

    if (rule.min_space > 0) {
      // Touching rects form one merged polygon, exempt from spacing.
      const d::Buckets buckets(rects, rule.min_space * 8);
      std::vector<std::size_t> comp(rects.size());
      std::iota(comp.begin(), comp.end(), std::size_t{0});
      auto find = [&](std::size_t x) {
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
                           d::space_note(gap, rule.min_space), {}, {}});
        });
        if (full()) return out;
      }
    }
  }

  // --- via enclosures -------------------------------------------------------
  struct ViaRule {
    Layer via;
    std::vector<Layer> lower;  // any of these may provide the landing
    Layer upper;
    Coord encl_lower;
    Coord encl_upper;
  };
  const ViaRule via_rules[] = {
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
  for (const auto& vr : via_rules) {
    for (const Rect& via : layer_rects(vr.via)) {
      if (full()) return out;
      bool landed = false;
      for (Layer lower : vr.lower)
        if (d::enclosed_by_any(via.expanded(vr.encl_lower), layer_rects(lower)))
          landed = true;
      if (!landed)
        out.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                       "missing lower-layer enclosure", {}, {}});
      if (!d::enclosed_by_any(via.expanded(vr.encl_upper),
                              layer_rects(vr.upper)))
        out.push_back({RuleKind::ViaEnclosure, vr.via, via, {},
                       "missing upper-layer enclosure", {}, {}});
    }
  }

  // --- wells must enclose p-diffusion ---------------------------------------
  for (const Rect& pd : layer_rects(Layer::PDiff)) {
    if (full()) return out;
    if (!d::enclosed_by_any(pd.expanded(tech.well_encl_diff),
                            layer_rects(Layer::NWell)))
      out.push_back({RuleKind::WellCoverage, Layer::PDiff, pd, {},
                     "pdiff not enclosed by nwell", {}, {}});
  }

  return out;
}

/// Geometry-only identity of a violation — kind, layer and both rects.
/// The note and provenance are formatting, and the reference fills no
/// paths.
using DrcKey = std::tuple<int, int, geom::Coord, geom::Coord, geom::Coord,
                          geom::Coord, geom::Coord, geom::Coord, geom::Coord,
                          geom::Coord>;

inline DrcKey drc_key(const drc::Violation& v) {
  return {static_cast<int>(v.kind), static_cast<int>(v.layer),
          v.a.lo.x,  v.a.lo.y,      v.a.hi.x,  v.a.hi.y,
          v.b.lo.x,  v.b.lo.y,      v.b.hi.x,  v.b.hi.y};
}

/// The sorted, deduplicated keys of a report: how the engine and the
/// reference are compared.
inline std::vector<DrcKey> drc_key_set(
    const std::vector<drc::Violation>& vios) {
  std::vector<DrcKey> keys;
  keys.reserve(vios.size());
  for (const auto& v : vios) keys.push_back(drc_key(v));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace bisram::test_support
