#pragma once
// Design-rule checker over the shared flat layout database: per-layer
// minimum width and spacing, via enclosure, and well coverage of
// diffusion. BISRAMGEN runs this after every cell/macro generation —
// design-rule independence is only credible if the generated geometry
// actually satisfies the deck it was generated from.
//
// The checker runs on geom::LayoutDB (one flatten, per-layer tile
// index). drc::check runs each rule's per-shape pass on util/parallel's
// campaign pool in fixed shape-id chunks whose findings are joined in
// chunk order, then puts the list into canonical (rule, layer,
// coordinates) order. The result is bit-identical for any
// BISRAM_THREADS / set_campaign_threads value, and independent of the
// database's tile size.
//
// Known approximation (inherited from the seed checker): same-layer
// spacing merges touching rectangles into connected components first,
// so two rects of one merged polygon may legitimately sit close
// (contact pad bridged to a gate by a stub). This also skips true
// same-polygon notches — an accepted approximation.

#include <cstdint>
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

/// Shape ids per work unit of drc::check's parallel passes. Each chunk
/// fills its own finding (or touching-pair) list and the lists are
/// joined in chunk order. A layer with fewer shapes is checked inline,
/// without touching the campaign pool.
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

/// Checks a prebuilt layout database against `tech`'s rules. This is
/// the signoff entry point: build the LayoutDB once and share it with
/// extraction and the writers. The report is in canonical (rule, layer,
/// coordinates) order; findings with equal keys come in shape-id order.
std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options = {});

/// Convenience: flattens `top` into a LayoutDB (tiled with
/// tile_size_for) and checks it.
std::vector<Violation> check(const geom::Cell& top, const tech::Tech& tech,
                             const DrcOptions& options = {});

/// Human-readable one-line description of a violation (includes the
/// instance path when provenance is available).
std::string describe(const Violation& v);

}  // namespace bisram::drc
