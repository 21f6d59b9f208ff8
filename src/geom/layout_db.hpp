#pragma once
// The shared, spatially-indexed flat layout database.
//
// Before this existed, every geometry consumer — DRC, extraction, the
// SVG writer, the area reports — independently called
// Cell::flatten_by_layer() and rebuilt its own ad-hoc per-layer rect
// vectors (DRC even kept a private spatial hash), so a full-macro
// signoff flattened the hierarchy three-plus times and ran its scans
// effectively pairwise. LayoutDB flattens the hierarchy exactly once
// into a per-layer, tile-bucketed spatial index and becomes the one
// artifact the whole signoff flow shares:
//
//     cells --(flatten once)--> LayoutDB --> { DRC, extract, LVS,
//                                              writers }
//
// The database is not a per-run throwaway either:
// save_snapshot()/load_snapshot() persist the flattened database as a
// compact, versioned, CRC-protected binary file (format in
// layout_snapshot.cpp), so a warm run loads the flatten instead of
// recomputing it. geom::SnapshotCache (layout_snapshot.hpp) keys
// snapshot files by content-hash fingerprints for the compiler, the DSE
// engine and bisram_lint. A changed hierarchy is flattened afresh: the
// generator rebuilds a macro from its spec, never edits one in place.
//
// Storage. Each layer is a structure of arrays: one vector of absolute
// rects and a parallel vector of path-node ids, each shape stored once.
// A memoized DefinitionFold counts every layer's shapes and the
// instances before the flatten, so the depth-first walk writes straight
// into vectors reserved to their final size. Each layer's TileIndex is
// a CSR table (a count pass, a prefix sum, then a fill in id order into
// one id array), built for all layers side by side on the campaign
// pool. A database below kInlineShapes builds its indexes inline on the
// calling thread: leaf-cell extraction runs thousands of these tiny
// builds, and a pool hand-off would cost more than the work.
//
// Contracts:
//   * Shape order. Per layer, shapes are stored in the exact order the
//     depth-first Cell::flatten() visit produces them — the same order
//     flatten_by_layer() historically returned. Extraction's net
//     numbering and the SVG writer's paint order are functions of that
//     order, so their outputs are bit-identical to the pre-LayoutDB
//     code by construction.
//   * Tiling. Each layer with shapes gets a uniform tile grid over the
//     layer's bounding box. The tile edge is the caller's choice — DRC
//     sizes it from the technology's maximum interaction distance (the
//     largest spacing/enclosure rule, see drc::tile_size_for), so any
//     rule check on a shape only ever needs the shape's own tile and
//     its eight neighbors. A shape straddling tiles is registered in
//     every tile it touches; queries deduplicate by shape id.
//   * Determinism. Queries report shape ids in strictly increasing id
//     order, independent of tile geometry, so everything built on top
//     (DRC and extraction included) is reproducible bit-for-bit.
//   * Provenance. Every shape carries the instance path that produced
//     it ("ROWDEC/dec3/inv" style, segments joined with '/'; shapes
//     owned by the top cell itself have an empty path). Paths are kept
//     as a compact parent-pointer tree — one node per flattened
//     instance, not per shape — and materialized only on demand, so a
//     DRC/ERC violation or an extracted device can name the instance
//     that produced it without the database paying a per-shape string.
//   * Bounded flatten. The counting fold refuses self-referential or
//     pathologically deep hierarchies (kMaxFlattenDepth) and runaway
//     instance counts (kMaxFlattenInstances) with stable DiagError
//     codes before anything is allocated, so a runaway hierarchy is
//     never a stack overflow or an out-of-memory reserve (same
//     bounded-recursion policy as the JSON parser's depth cap).
//   * Thread invariance. The stored shapes, the buckets and
//     content_hash() are the same at any pool width.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "geom/geometry.hpp"
#include "geom/layer.hpp"

namespace bisram {
class DiagEngine;
}

namespace bisram::geom {

/// Tile-bucketed index over a rectangle set, stored as CSR: the ids of
/// tile t are ids_[start_[t], start_[t + 1]). LayoutDB holds one per
/// layer.
class TileIndex {
 public:
  TileIndex() = default;

  /// Indexes `rects` with uniform square tiles of edge `tile` (DBU,
  /// clamped to >= 1) over the set's bounding box. The rect vector must
  /// outlive the index (ids refer into it).
  TileIndex(const std::vector<Rect>& rects, Coord tile);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Coord tile() const { return tile_; }
  const Rect& bounds() const { return bounds_; }
  int tile_cols() const { return cols_; }
  int tile_rows() const { return rows_; }

  /// Shape ids bucketed into tile (tx, ty), in increasing id order,
  /// each id possibly present in several tiles. Empty outside the grid.
  std::span<const std::uint32_t> bucket(int tx, int ty) const;

  /// Calls fn(id) for every rect intersecting `window` (edge-touching
  /// counts, as Rect::intersects), in strictly increasing id order,
  /// each id exactly once.
  void for_each_in(const Rect& window,
                   const std::function<void(std::uint32_t)>& fn) const;

  /// Collects the ids for_each_in would visit.
  std::vector<std::uint32_t> ids_in(const Rect& window) const;

 private:
  int tx_of(Coord x) const;
  int ty_of(Coord y) const;

  const std::vector<Rect>* rects_ = nullptr;
  std::size_t count_ = 0;
  Coord tile_ = 1;
  Rect bounds_{};
  int cols_ = 0;
  int rows_ = 0;
  // Row-major tiles t = ty * cols + tx; start_ has one entry per tile
  // plus the end.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> ids_;
};

class LayoutDB {
 public:
  /// Flattens `top` once and indexes every layer with tile edge
  /// `tile_size` (DBU; values < 1 are clamped to 1). Pick the tile from
  /// the largest interaction distance of the checks you plan to run —
  /// drc::tile_size_for(tech) for signoff — or kDefaultTile for
  /// geometry-only queries.
  explicit LayoutDB(const Cell& top, Coord tile_size = kDefaultTile);

  /// Databases with fewer shapes than this index their layers inline on
  /// the calling thread instead of on the campaign pool.
  static constexpr std::size_t kInlineShapes = std::size_t{1} << 16;

  // The per-layer TileIndex holds a pointer into this object's rect
  // vectors, so a copied or moved database would index its donor's
  // memory. The database is shared by reference (or unique_ptr, as
  // load_snapshot returns).
  LayoutDB(const LayoutDB&) = delete;
  LayoutDB& operator=(const LayoutDB&) = delete;

  /// 16 lambda: comfortably above every rule in the scalable decks, so
  /// geometry-only users need not consult a Tech.
  static constexpr Coord kDefaultTile = 160;

  /// Flatten guards shared with Cell::flatten (see cell.hpp): deeper
  /// hierarchies, and ones with kMaxFlattenInstances instances or more,
  /// abort with "layout-flatten-too-deep" /
  /// "layout-flatten-too-many-instances" DiagErrors before anything is
  /// allocated.
  static constexpr int kMaxFlattenDepth = geom::kMaxFlattenDepth;
  static constexpr std::size_t kMaxFlattenInstances =
      geom::kMaxFlattenInstances;

  const std::string& top_name() const { return top_name_; }
  Coord tile_size() const { return tile_; }
  /// The top cell's ports (copied; already in top coordinates). Lets
  /// extraction and pin-aware checks run entirely off the database.
  const std::vector<Port>& ports() const { return ports_; }

  // --- shapes ---------------------------------------------------------------
  /// Absolute rects of `layer` in depth-first flatten order; this is the
  /// exact vector Cell::flatten_by_layer() produces.
  const std::vector<Rect>& rects(Layer layer) const {
    return rects_[static_cast<std::size_t>(layer)];
  }
  /// Path-node id of each shape of `layer` (parallel to rects(layer);
  /// 0 = the top cell).
  const std::vector<std::uint32_t>& paths(Layer layer) const {
    return paths_[static_cast<std::size_t>(layer)];
  }
  const TileIndex& index(Layer layer) const {
    return index_[static_cast<std::size_t>(layer)];
  }

  /// Total flattened shape count over all layers.
  std::size_t shape_count() const;

  // --- queries --------------------------------------------------------------
  /// fn(id) for every shape of `layer` intersecting `window`, in
  /// strictly increasing id order, each exactly once.
  void for_each_in(Layer layer, const Rect& window,
                   const std::function<void(std::uint32_t)>& fn) const;

  /// fn(id) for every shape of `layer` within Manhattan distance `d` of
  /// `rect` (rect_gap <= d), excluding `rect` itself only if the caller
  /// filters — all candidates produced by the expanded-window query are
  /// gap-checked before fn is called.
  void neighbors_within(Layer layer, const Rect& rect, Coord d,
                        const std::function<void(std::uint32_t)>& fn) const;

  /// Bounding box over every layer (empty Rect when no shapes).
  Rect bbox() const { return bbox_; }
  /// Bounding box of one layer.
  Rect layer_bbox(Layer layer) const {
    return index(layer).bounds();
  }

  /// Sum of shape areas on `layer` (overlaps counted multiply).
  double layer_area(Layer layer) const;
  /// Exact merged area of `layer` (overlaps counted once).
  double layer_union_area(Layer layer) const;

  /// Poly-over-diffusion crossing count (the structural transistor
  /// census Cell::transistor_census() reports), answered with indexed
  /// overlap queries instead of the historical all-pairs scan.
  std::size_t transistor_census() const;

  // --- provenance -----------------------------------------------------------
  /// Materializes the instance path of path-node `id`: '/'-joined
  /// instance names from the top cell down ("" for the top itself).
  std::string path_name(std::uint32_t id) const;
  /// Convenience: the path of shape `shape_id` on `layer`.
  std::string shape_path(Layer layer, std::uint32_t shape_id) const {
    return path_name(paths(layer)[shape_id]);
  }
  /// Number of path nodes (top + every flattened instance).
  std::size_t path_count() const { return path_parent_.size(); }

  /// Content fingerprint over everything the database stores (shapes,
  /// provenance tree, ports, tile size). Equal databases hash equal;
  /// SnapshotCache and the save/load round-trip tests key on this.
  std::uint64_t content_hash() const;

  // --- snapshots (format + cache in layout_snapshot.{hpp,cpp}) --------------
  /// Writes the versioned, CRC-protected binary snapshot atomically
  /// (tmp + fsync + rename, the util/checkpoint discipline). Throws
  /// bisram::Error on I/O failure.
  void save_snapshot(const std::string& path) const;

  /// Loads a snapshot without re-flattening any hierarchy. Follows the
  /// repo's parser convention (util/diag.hpp): with a DiagEngine it
  /// never throws — corrupt, truncated or version-skewed files yield
  /// stable "snapshot-*" diagnostics and a null result; without one it
  /// throws bisram::DiagError carrying the same diagnostics.
  static std::unique_ptr<LayoutDB> load_snapshot(const std::string& path,
                                                 DiagEngine* diag = nullptr);

 private:
  LayoutDB() = default;  // snapshot loader fills the fields directly
  friend class SnapshotCodec;

  void flatten_cell(const Cell& cell, const Transform& t, std::uint32_t path);
  /// Rebuilds index_[l] from rects_[l].
  void reindex_layer(std::size_t l);
  void rebuild_bbox();

  std::string top_name_;
  std::vector<Port> ports_;
  Coord tile_ = kDefaultTile;
  Rect bbox_{};
  std::array<std::vector<Rect>, kLayerCount> rects_;
  std::array<std::vector<std::uint32_t>, kLayerCount> paths_;
  std::array<TileIndex, kLayerCount> index_;
  // Parent-pointer path tree in preorder; node 0 is the top cell. Names
  // and local placements are stored by value (one node per flattened
  // instance, not per shape).
  std::vector<std::uint32_t> path_parent_;
  std::vector<std::string> path_name_;
  std::vector<Transform> path_local_;
};

}  // namespace bisram::geom
