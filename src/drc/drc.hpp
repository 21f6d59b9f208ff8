#pragma once
// Design-rule checker over the shared flat layout database: per-layer
// minimum width and spacing, via enclosure, and well coverage of
// diffusion. BISRAMGEN runs this after every cell/macro generation —
// design-rule independence is only credible if the generated geometry
// actually satisfies the deck it was generated from.
//
// The checker runs on geom::LayoutDB (one flatten, per-layer tile
// index) and is one engine, IncrementalDrc: drc::check is its cold
// build with the report moved out. The cold build runs each rule's
// per-shape pass on util/parallel's campaign pool in fixed shape-id
// chunks whose findings are joined in chunk order, then puts the list
// into canonical (rule phase, layer, coordinates) order. The result is
// bit-identical for any BISRAM_THREADS / set_campaign_threads value,
// and independent of the database's tile size.
//
// Known approximation (inherited from the seed checker): same-layer
// spacing merges touching rectangles into connected components first,
// so two rects of one merged polygon may legitimately sit close
// (contact pad bridged to a gate by a stub). This also skips true
// same-polygon notches — an accepted approximation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "tech/tech.hpp"

namespace bisram::drc {

enum class RuleKind {
  MinWidth,       ///< rectangle thinner than the layer's minimum width
  MinSpace,       ///< two disjoint rectangles closer than minimum spacing
  ViaEnclosure,   ///< via/contact not enclosed by its adjacent layers
  WellCoverage,   ///< pdiff outside nwell (or insufficient enclosure)
};

struct Violation {
  RuleKind kind;
  geom::Layer layer;
  geom::Rect a;
  geom::Rect b;  ///< second rect for spacing violations
  std::string note;
  /// Instance provenance from the LayoutDB: the hierarchical path of
  /// the cell instance that produced rect a (and b, for pair rules).
  /// Empty for shapes owned by the top cell.
  std::string path_a;
  std::string path_b;
};

/// Shape ids per work unit of the cold build's parallel passes. Each
/// chunk fills its own record (or edge) list and the lists are joined
/// in chunk order. A layer with fewer shapes is checked inline, without
/// touching the campaign pool.
inline constexpr std::int64_t kBuildChunk = 1 << 14;

struct DrcOptions {
  /// Stop after this many violations (keeps pathological runs bounded).
  std::size_t max_violations = 1000;
};

/// The technology's maximum interaction distance: the largest spacing /
/// enclosure reach any rule can look across. A LayoutDB tiled at (a
/// multiple of) this distance answers every rule query from a shape's
/// own tile and its ring of neighbors.
geom::Coord max_interaction_distance(const tech::Tech& tech);

/// The tile edge drc-grade LayoutDBs are built with: a small multiple
/// of max_interaction_distance, balancing bucket fan-out against tile
/// count.
geom::Coord tile_size_for(const tech::Tech& tech);

/// Checks a prebuilt layout database against `tech`'s rules: the cold
/// build of IncrementalDrc. This is the signoff entry point: build the
/// LayoutDB once and share it with extraction and the writers. The
/// report is in canonical (rule, layer, coordinates) order; findings
/// with equal keys come in shape-id order.
std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options = {});

/// Convenience: flattens `top` into a LayoutDB (tiled with
/// tile_size_for) and checks it.
std::vector<Violation> check(const geom::Cell& top, const tech::Tech& tech,
                             const DrcOptions& options = {});

/// The DRC engine. Construct it from a LayoutDB (the cold build, run
/// on the campaign pool), then after every LayoutDB::apply feed the
/// returned EditResult to update(); report() is bit-identical to
/// running drc::check(db, tech, options) from scratch on the database's
/// current contents, but update() only re-verifies shapes the edit
/// could have affected:
///
///   * min-width: only the inserted shapes (a surviving rect's width
///     cannot change).
///   * min-space: the checker keeps the per-layer connectivity edges
///     (touching pairs) and a canonical component label per shape; an
///     edit re-verifies the inserted shapes plus every shape whose
///     component label changed — exactly the shapes whose "same merged
///     polygon" predicate can have flipped — and splices the surviving
///     violations across the shape-id renumbering.
///   * via enclosure / well coverage: vias (pdiffs) inside the edit's
///     dirty region expanded by the rule's reach, found by an indexed
///     window query.
///
/// The database must outlive the checker, and every apply() on it must
/// be fed to update() before the next report(). Only the cold build and
/// update()'s per-layer relabelling use the pool, and neither depends
/// on the thread count, so the report is bit-identical for any
/// BISRAM_THREADS value.
class IncrementalDrc {
 public:
  IncrementalDrc(const geom::LayoutDB& db, const tech::Tech& tech,
                 const DrcOptions& options = {});
  ~IncrementalDrc();
  IncrementalDrc(const IncrementalDrc&) = delete;
  IncrementalDrc& operator=(const IncrementalDrc&) = delete;

  /// Consumes the EditResult of one LayoutDB::apply on the tracked
  /// database (call once per apply, in order).
  void update(const geom::EditResult& edit);

  /// The full violation list for the database's current contents, in
  /// canonical order, truncated to DrcOptions::max_violations —
  /// bit-identical to drc::check.
  std::vector<Violation> report() const;

 private:
  friend std::vector<Violation> check(const geom::LayoutDB& db,
                                      const tech::Tech& tech,
                                      const DrcOptions& options);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Human-readable one-line description of a violation (includes the
/// instance path when provenance is available).
std::string describe(const Violation& v);

}  // namespace bisram::drc
