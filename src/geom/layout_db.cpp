#include "geom/layout_db.hpp"

#include <algorithm>
#include <limits>

#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace bisram::geom {

// --- TileIndex ---------------------------------------------------------------

TileIndex::TileIndex(const std::vector<Rect>& rects, Coord tile)
    : rects_(&rects), count_(rects.size()), tile_(std::max<Coord>(tile, 1)) {
  if (count_ == 0) return;
  // Fold bounds by hand rather than with Rect::united, which ignores
  // degenerate rects — extraction indexes zero-width diffusion split
  // pieces, and every rect must land in an in-bounds tile.
  bounds_ = rects[0];
  for (const Rect& r : rects) {
    bounds_.lo.x = std::min(bounds_.lo.x, r.lo.x);
    bounds_.lo.y = std::min(bounds_.lo.y, r.lo.y);
    bounds_.hi.x = std::max(bounds_.hi.x, r.hi.x);
    bounds_.hi.y = std::max(bounds_.hi.y, r.hi.y);
  }
  cols_ = static_cast<int>((bounds_.width()) / tile_ + 1);
  rows_ = static_cast<int>((bounds_.height()) / tile_ + 1);
  const auto cols = static_cast<std::size_t>(cols_);
  start_.assign(cols * static_cast<std::size_t>(rows_) + 1, 0);
  // Calls visit(t) for every tile t rect i touches.
  const auto for_tiles = [&](std::uint32_t i, auto&& visit) {
    const Rect& r = rects[i];
    const int x0 = tx_of(r.lo.x), x1 = tx_of(r.hi.x);
    const int y0 = ty_of(r.lo.y), y1 = ty_of(r.hi.y);
    for (int ty = y0; ty <= y1; ++ty) {
      const std::size_t row = static_cast<std::size_t>(ty) * cols;
      for (int tx = x0; tx <= x1; ++tx)
        visit(row + static_cast<std::size_t>(tx));
    }
  };
  // Count into start_[t + 1], prefix-sum so start_[t] is tile t's first
  // slot, fill in id order advancing start_[t] to tile t's end (= tile
  // t + 1's first slot), then shift back by one tile.
  for (std::uint32_t i = 0; i < count_; ++i)
    for_tiles(i, [&](std::size_t t) { ++start_[t + 1]; });
  std::uint64_t total = 0;
  for (std::uint32_t& s : start_) {
    total += s;
    ensure(total <= std::numeric_limits<std::uint32_t>::max(),
           "TileIndex: more than 2^32 bucket entries");
    s = static_cast<std::uint32_t>(total);
  }
  ids_.resize(static_cast<std::size_t>(total));
  for (std::uint32_t i = 0; i < count_; ++i)
    for_tiles(i, [&](std::size_t t) { ids_[start_[t]++] = i; });
  std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
  start_[0] = 0;
}

int TileIndex::tx_of(Coord x) const {
  const Coord c = std::clamp(x, bounds_.lo.x, bounds_.hi.x);
  return static_cast<int>((c - bounds_.lo.x) / tile_);
}

int TileIndex::ty_of(Coord y) const {
  const Coord c = std::clamp(y, bounds_.lo.y, bounds_.hi.y);
  return static_cast<int>((c - bounds_.lo.y) / tile_);
}

std::span<const std::uint32_t> TileIndex::bucket(int tx, int ty) const {
  if (count_ == 0 || tx < 0 || ty < 0 || tx >= cols_ || ty >= rows_)
    return {};
  const std::size_t t = static_cast<std::size_t>(ty) *
                            static_cast<std::size_t>(cols_) +
                        static_cast<std::size_t>(tx);
  return {ids_.data() + start_[t], ids_.data() + start_[t + 1]};
}

void TileIndex::for_each_in(
    const Rect& window, const std::function<void(std::uint32_t)>& fn) const {
  if (count_ == 0 || !window.intersects(bounds_)) return;
  const int x0 = tx_of(window.lo.x), x1 = tx_of(window.hi.x);
  const int y0 = ty_of(window.lo.y), y1 = ty_of(window.hi.y);
  if (x0 == x1 && y0 == y1) {
    // Single-tile fast path: the bucket is already in id order.
    for (std::uint32_t id : bucket(x0, y0))
      if ((*rects_)[id].intersects(window)) fn(id);
    return;
  }
  // Merge the candidate buckets, deduplicate, and report in id order so
  // callers see a deterministic sequence whatever the tile geometry.
  std::vector<std::uint32_t> ids;
  for (int ty = y0; ty <= y1; ++ty)
    for (int tx = x0; tx <= x1; ++tx)
      for (std::uint32_t id : bucket(tx, ty))
        if ((*rects_)[id].intersects(window)) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (std::uint32_t id : ids) fn(id);
}

std::vector<std::uint32_t> TileIndex::ids_in(const Rect& window) const {
  std::vector<std::uint32_t> out;
  for_each_in(window, [&](std::uint32_t id) { out.push_back(id); });
  return out;
}

// --- LayoutDB ----------------------------------------------------------------

namespace {

/// Flattened size of one definition: shapes per layer and instances
/// below it.
struct FlatCounts {
  std::array<std::size_t, kLayerCount> shapes{};
  std::size_t instances = 0;
};

std::size_t add_sat(std::size_t a, std::size_t b) {
  return a > std::numeric_limits<std::size_t>::max() - b
             ? std::numeric_limits<std::size_t>::max()
             : a + b;
}

/// Counts `top`'s flattened shapes and instances, refusing too-deep
/// hierarchies (the fold's own guard) and, as soon as any definition
/// reaches the instance cap, too-large ones.
FlatCounts count_flat(const Cell& top) {
  return DefinitionFold<FlatCounts>(
      [](const Cell& c, const std::vector<const FlatCounts*>& sub) {
        FlatCounts n;
        for (const Shape& s : c.shapes())
          ++n.shapes[static_cast<std::size_t>(s.layer)];
        for (const FlatCounts* k : sub) {
          n.instances = add_sat(n.instances, add_sat(k->instances, 1));
          for (std::size_t l = 0; l < n.shapes.size(); ++l)
            n.shapes[l] = add_sat(n.shapes[l], k->shapes[l]);
        }
        if (n.instances >= kMaxFlattenInstances)
          detail::refuse_too_many_instances(c);
        return n;
      })(top);
}

}  // namespace

LayoutDB::LayoutDB(const Cell& top, Coord tile_size)
    : top_name_(top.name()),
      ports_(top.ports()),
      tile_(std::max<Coord>(tile_size, 1)) {
  const FlatCounts n = count_flat(top);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    rects_[l].reserve(n.shapes[l]);
    paths_[l].reserve(n.shapes[l]);
  }
  path_parent_.reserve(n.instances + 1);
  path_name_.reserve(n.instances + 1);
  path_local_.reserve(n.instances + 1);
  path_parent_.push_back(0);
  path_name_.emplace_back();  // node 0: the top cell, empty path
  path_local_.emplace_back();
  flatten_cell(top, Transform{}, 0);
  const std::int64_t chunk = shape_count() < kInlineShapes ? kLayerCount : 1;
  parallel_for(kLayerCount, chunk, [&](std::int64_t l) {
    reindex_layer(static_cast<std::size_t>(l));
  });
  rebuild_bbox();
}

void LayoutDB::flatten_cell(const Cell& cell, const Transform& t,
                            std::uint32_t path) {
  // Same visit order as Cell::flatten(): own shapes first, then each
  // instance depth-first — the order every consumer's output depends on.
  // count_flat already refused the hierarchies this could not finish.
  for (const auto& s : cell.shapes()) {
    const auto l = static_cast<std::size_t>(s.layer);
    rects_[l].push_back(t.apply(s.rect));
    paths_[l].push_back(path);
  }
  for (const auto& inst : cell.instances()) {
    const auto node = static_cast<std::uint32_t>(path_parent_.size());
    path_parent_.push_back(path);
    path_name_.push_back(inst.name);
    path_local_.push_back(inst.transform);
    flatten_cell(*inst.cell, t.compose(inst.transform), node);
  }
}

void LayoutDB::reindex_layer(std::size_t l) {
  index_[l] = TileIndex(rects_[l], tile_);
}

void LayoutDB::rebuild_bbox() {
  bbox_ = Rect{};
  for (int l = 0; l < kLayerCount; ++l) {
    const TileIndex& ix = index_[static_cast<std::size_t>(l)];
    if (!ix.empty()) bbox_ = bbox_.united(ix.bounds());
  }
}

std::size_t LayoutDB::shape_count() const {
  std::size_t n = 0;
  for (const auto& v : rects_) n += v.size();
  return n;
}

void LayoutDB::for_each_in(
    Layer layer, const Rect& window,
    const std::function<void(std::uint32_t)>& fn) const {
  index(layer).for_each_in(window, fn);
}

void LayoutDB::neighbors_within(
    Layer layer, const Rect& rect, Coord d,
    const std::function<void(std::uint32_t)>& fn) const {
  const auto& rv = rects(layer);
  index(layer).for_each_in(rect.expanded(d), [&](std::uint32_t id) {
    if (rect_gap(rect, rv[id]) <= d) fn(id);
  });
}

double LayoutDB::layer_area(Layer layer) const {
  double area = 0.0;
  for (const Rect& r : rects(layer)) area += r.area();
  return area;
}

double LayoutDB::layer_union_area(Layer layer) const {
  return union_area(rects(layer));
}

std::size_t LayoutDB::transistor_census() const {
  const auto& poly_index = index(Layer::Poly);
  const auto& polys = rects(Layer::Poly);
  std::size_t count = 0;
  for (Layer diff : {Layer::NDiff, Layer::PDiff}) {
    for (const Rect& d : rects(diff)) {
      poly_index.for_each_in(d, [&](std::uint32_t pid) {
        const Rect& p = polys[pid];
        const Rect x = p.intersection(d);
        if (!x.empty() && ((p.lo.y <= d.lo.y && p.hi.y >= d.hi.y) ||
                           (p.lo.x <= d.lo.x && p.hi.x >= d.hi.x)))
          ++count;
      });
    }
  }
  return count;
}

std::string LayoutDB::path_name(std::uint32_t id) const {
  ensure(id < path_parent_.size(), "LayoutDB::path_name: bad path id");
  std::vector<const std::string*> segs;
  for (std::uint32_t n = id; n != 0; n = path_parent_[n])
    segs.push_back(&path_name_[n]);
  std::string out;
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += **it;
  }
  return out;
}

std::uint64_t LayoutDB::content_hash() const {
  Fingerprint fp;
  fp.mix_str("bisram-layoutdb-v1");
  fp.mix_str(top_name_);
  fp.mix_i64(tile_);
  fp.mix(ports_.size());
  for (const Port& p : ports_) {
    fp.mix_str(p.name);
    fp.mix(static_cast<std::uint64_t>(p.layer));
    fp.mix_i64(p.rect.lo.x).mix_i64(p.rect.lo.y);
    fp.mix_i64(p.rect.hi.x).mix_i64(p.rect.hi.y);
  }
  fp.mix(path_parent_.size());
  for (std::size_t i = 0; i < path_parent_.size(); ++i) {
    fp.mix(path_parent_[i]);
    fp.mix_str(path_name_[i]);
    fp.mix(static_cast<std::uint64_t>(path_local_[i].orient()));
    fp.mix_i64(path_local_[i].offset().x).mix_i64(path_local_[i].offset().y);
  }
  for (int l = 0; l < kLayerCount; ++l) {
    const auto& rv = rects_[static_cast<std::size_t>(l)];
    const auto& pv = paths_[static_cast<std::size_t>(l)];
    fp.mix(rv.size());
    for (std::size_t i = 0; i < rv.size(); ++i) {
      fp.mix_i64(rv[i].lo.x).mix_i64(rv[i].lo.y);
      fp.mix_i64(rv[i].hi.x).mix_i64(rv[i].hi.y);
      fp.mix(pv[i]);
    }
  }
  return fp.value();
}

}  // namespace bisram::geom
