#include "geom/layout_db.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

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
  buckets_.resize(static_cast<std::size_t>(cols_) *
                  static_cast<std::size_t>(rows_));
  for (std::uint32_t i = 0; i < count_; ++i) {
    const Rect& r = rects[i];
    const int x0 = tx_of(r.lo.x), x1 = tx_of(r.hi.x);
    const int y0 = ty_of(r.lo.y), y1 = ty_of(r.hi.y);
    for (int ty = y0; ty <= y1; ++ty)
      for (int tx = x0; tx <= x1; ++tx)
        buckets_[static_cast<std::size_t>(ty) *
                     static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(tx)]
            .push_back(i);
  }
}

int TileIndex::tx_of(Coord x) const {
  const Coord c = std::clamp(x, bounds_.lo.x, bounds_.hi.x);
  return static_cast<int>((c - bounds_.lo.x) / tile_);
}

int TileIndex::ty_of(Coord y) const {
  const Coord c = std::clamp(y, bounds_.lo.y, bounds_.hi.y);
  return static_cast<int>((c - bounds_.lo.y) / tile_);
}

const std::vector<std::uint32_t>& TileIndex::bucket(int tx, int ty) const {
  static const std::vector<std::uint32_t> kEmpty;
  if (count_ == 0 || tx < 0 || ty < 0 || tx >= cols_ || ty >= rows_)
    return kEmpty;
  return buckets_[static_cast<std::size_t>(ty) *
                      static_cast<std::size_t>(cols_) +
                  static_cast<std::size_t>(tx)];
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

[[noreturn]] void flatten_fail(const std::string& where, std::string code,
                               std::string message) {
  throw DiagError({{Severity::Error, std::move(code), std::move(message),
                    where, 0, 0}});
}

}  // namespace

LayoutDB::LayoutDB(const Cell& top, Coord tile_size)
    : top_name_(top.name()),
      ports_(top.ports()),
      tile_(std::max<Coord>(tile_size, 1)) {
  path_parent_.push_back(0);
  path_name_.emplace_back();  // node 0: the top cell, empty path
  path_local_.emplace_back();
  flatten_cell(top, Transform{}, 0, 0);
  for (int l = 0; l < kLayerCount; ++l) reindex_layer(static_cast<std::size_t>(l));
  rebuild_bbox();
}

void LayoutDB::flatten_cell(const Cell& cell, const Transform& t,
                            std::uint32_t path, int depth) {
  if (depth > kMaxFlattenDepth)
    flatten_fail(top_name_, "layout-flatten-too-deep",
                 "hierarchy nested deeper than " +
                     std::to_string(kMaxFlattenDepth) +
                     " levels (instance cycle?) at cell '" + cell.name() +
                     "'");
  // Same visit order as Cell::flatten(): own shapes first, then each
  // instance depth-first — the order every consumer's output depends on.
  for (const auto& s : cell.shapes())
    shapes_[static_cast<std::size_t>(s.layer)].push_back(
        {t.apply(s.rect), path});
  for (const auto& inst : cell.instances()) {
    if (path_parent_.size() >= kMaxFlattenInstances)
      flatten_fail(top_name_, "layout-flatten-too-many-instances",
                   "flatten exceeds " + std::to_string(kMaxFlattenInstances) +
                       " instances at cell '" + cell.name() + "'");
    const auto node = static_cast<std::uint32_t>(path_parent_.size());
    path_parent_.push_back(path);
    path_name_.push_back(inst.name);
    path_local_.push_back(inst.transform);
    flatten_cell(*inst.cell, t.compose(inst.transform), node, depth + 1);
  }
}

void LayoutDB::reindex_layer(std::size_t l) {
  auto& rv = rects_[l];
  rv.clear();
  rv.reserve(shapes_[l].size());
  for (const DbShape& s : shapes_[l]) rv.push_back(s.rect);
  index_[l] = TileIndex(rv, tile_);
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
  for (const auto& v : shapes_) n += v.size();
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
    const auto& sv = shapes_[static_cast<std::size_t>(l)];
    fp.mix(sv.size());
    for (const DbShape& s : sv) {
      fp.mix_i64(s.rect.lo.x).mix_i64(s.rect.lo.y);
      fp.mix_i64(s.rect.hi.x).mix_i64(s.rect.hi.y);
      fp.mix(s.path);
    }
  }
  return fp.value();
}

}  // namespace bisram::geom
