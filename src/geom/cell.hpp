#pragma once
// Hierarchical layout database: cells contain shapes, labelled ports and
// transformed instances of other cells. BISRAMGEN builds leaf cells from
// design rules, then composes them bottom-up by abutment exactly as the
// paper describes ("no routing is necessary and the signals in adjacent
// modules are perfectly aligned and connected by abutments").

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/geometry.hpp"
#include "geom/layer.hpp"

namespace bisram::geom {

/// Flatten-recursion depth cap shared by Cell::flatten, LayoutDB and
/// DefinitionFold: a hierarchy nested deeper than this (or one with an
/// instance cycle, which recurses forever) aborts with a
/// "layout-flatten-too-deep" DiagError instead of overflowing the
/// stack — the same bounded-recursion policy as the JSON parser's
/// depth cap. Generated macros are ~6 levels deep; 64 is headroom,
/// not a real design bound.
inline constexpr int kMaxFlattenDepth = 64;

/// Total-instance cap for one flatten
/// ("layout-flatten-too-many-instances"): bounds time and memory on
/// combinatorially exploding hierarchies. 1 << 26 instances is ~50x
/// the Fig. 7 128 KB macro.
inline constexpr std::size_t kMaxFlattenInstances = std::size_t{1} << 26;

/// One rectangle on one layer.
struct Shape {
  Layer layer = Layer::Metal1;
  Rect rect;
};

/// A named connection point on a cell boundary (or interior).
struct Port {
  std::string name;
  Layer layer = Layer::Metal1;
  Rect rect;
};

class Cell;
using CellPtr = std::shared_ptr<const Cell>;

/// A placed, oriented reference to another cell.
struct Instance {
  std::string name;
  CellPtr cell;
  Transform transform;
};

/// A layout cell. Cells are immutable once published into a Library;
/// builders mutate them through the non-const API before publishing.
class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- building -----------------------------------------------------------
  void add_shape(Layer layer, const Rect& rect);
  void add_port(std::string name, Layer layer, const Rect& rect);
  void add_instance(std::string name, CellPtr cell, const Transform& t);

  // --- queries ------------------------------------------------------------
  const std::vector<Shape>& shapes() const { return shapes_; }
  const std::vector<Port>& ports() const { return ports_; }
  const std::vector<Instance>& instances() const { return instances_; }

  /// Port by name; throws bisram::Error when absent.
  const Port& port(std::string_view name) const;
  /// Port by name; nullopt when absent.
  std::optional<Port> find_port(std::string_view name) const;

  /// Bounding box over own shapes and all instances (recursive). Costs
  /// one visit per distinct cell definition and instance edge, not per
  /// flattened instance (see DefinitionFold, which also gives the
  /// "layout-flatten-too-deep" refusal).
  Rect bbox() const;

  /// Total shape count in the fully flattened cell, computed like bbox().
  std::size_t flat_shape_count() const;

  /// Visits every shape of the flattened hierarchy with its absolute
  /// rect. Refuses hierarchies deeper than kMaxFlattenDepth or larger
  /// than kMaxFlattenInstances with a DiagError ("layout-flatten-*"
  /// codes) instead of overflowing the stack.
  void flatten(const std::function<void(Layer, const Rect&)>& visit) const;

  /// Flattened shapes collected per layer (convenience over flatten()).
  std::vector<std::vector<Rect>> flatten_by_layer() const;

  /// Sum of flattened shape areas on `layer`, in DBU^2 (overlapping
  /// rectangles counted multiply — cheap; see layer_union_area).
  double layer_area(Layer layer) const;

  /// Exact merged area of `layer` in DBU^2 (overlaps counted once).
  double layer_union_area(Layer layer) const;

  /// Number of transistors implied by poly-over-diffusion crossings in the
  /// flattened layout (cheap structural census; full recognition lives in
  /// src/extract).
  std::size_t transistor_census() const;

 private:
  void flatten_into(const Transform& t,
                    const std::function<void(Layer, const Rect&)>& visit,
                    int depth, std::size_t& instances) const;

  std::string name_;
  std::vector<Shape> shapes_;
  std::vector<Port> ports_;
  std::vector<Instance> instances_;
};

namespace detail {
/// Throw the "layout-flatten-too-deep" / "-too-many-instances"
/// DiagErrors naming `cell`.
[[noreturn]] void refuse_too_deep(const Cell& cell);
[[noreturn]] void refuse_too_many_instances(const Cell& cell);
}  // namespace detail

/// Memoized bottom-up fold over the distinct cell definitions of a
/// hierarchy. `fn(cell, sub)` computes one definition's value, where
/// `sub[i]` is the value of `cell.instances()[i].cell`; each definition
/// is computed once per DefinitionFold, so a query costs O(definitions
/// + instance edges) however many instances the flatten would have.
/// Like Cell::flatten it refuses hierarchies nested deeper than
/// kMaxFlattenDepth below the queried cell, instance cycles included,
/// with "layout-flatten-too-deep". The memo lives in the fold object,
/// not in the cells, so published cells stay immutable.
template <typename T>
class DefinitionFold {
 public:
  using Fn = std::function<T(const Cell&, const std::vector<const T*>&)>;

  explicit DefinitionFold(Fn fn) : fn_(std::move(fn)) {}

  /// The value of `cell`'s definition.
  const T& operator()(const Cell& cell) { return visit(cell, 0).value; }

 private:
  struct Entry {
    T value;
    int height = 0;  ///< instance levels below the definition
  };

  const Entry& visit(const Cell& cell, int depth) {
    if (auto it = memo_.find(&cell); it != memo_.end()) {
      if (depth + it->second.height > kMaxFlattenDepth)
        detail::refuse_too_deep(cell);
      return it->second;
    }
    if (depth > kMaxFlattenDepth) detail::refuse_too_deep(cell);
    std::vector<const T*> sub;
    sub.reserve(cell.instances().size());
    int height = 0;
    for (const auto& inst : cell.instances()) {
      const Entry& e = visit(*inst.cell, depth + 1);
      height = std::max(height, e.height + 1);
      sub.push_back(&e.value);
    }
    // Entries are never erased and unordered_map nodes do not move, so
    // the value pointers handed to fn_ stay valid.
    return memo_.emplace(&cell, Entry{fn_(cell, sub), height}).first->second;
  }

  Fn fn_;
  std::unordered_map<const Cell*, Entry> memo_;
};

/// Owning registry of cells; names are unique.
class Library {
 public:
  /// Creates a new mutable cell; throws if the name already exists.
  std::shared_ptr<Cell> create(const std::string& name);

  /// Publishes an externally built cell into the library.
  void add(std::shared_ptr<Cell> cell);

  /// Lookup; throws bisram::Error when absent.
  CellPtr get(const std::string& name) const;

  bool contains(const std::string& name) const {
    return cells_.count(name) != 0;
  }
  std::size_t size() const { return cells_.size(); }

  /// All cells in name order.
  std::vector<CellPtr> cells() const;

 private:
  std::map<std::string, std::shared_ptr<Cell>> cells_;
};

}  // namespace bisram::geom
