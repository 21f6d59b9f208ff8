#pragma once
// Test-only fixtures: real leaf-cell hierarchies with instance-level
// edits applied. edited_cell() rebuilds a hierarchy with one instance
// moved, removed, replaced or added, by cloning the ancestor chain from
// the top down to the edited instance; untouched subtrees are shared
// with the original. edited_fixtures() chains four such edits on a
// generated macro, giving hierarchies whose DRC reports carry many
// findings (a moved bit-cell row, a missing decoder, a swapped cell, a
// stray precharge cell) for the signoff engines to be checked against
// their oracles on.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "geom/cell.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"

namespace bisram::test_support {

/// One edit to a hierarchy, addressed by instance path.
struct InstanceEdit {
  enum class Kind {
    Replace,  ///< swap the instance's cell (placement unchanged)
    Move,     ///< re-place the instance (cell unchanged)
    Add,      ///< append a new instance as the last child of `path`
    Remove,   ///< delete the instance and its whole subtree
  };
  Kind kind = Kind::Replace;
  /// Instance path of the edited instance ("ARRAY/row3/c17"); for Add,
  /// the path of the *parent* instance ("" = the top cell itself).
  std::string path;
  std::string name;           ///< Add only: the new instance's name
  geom::CellPtr cell;         ///< Replace/Add: the subtree's cell
  geom::Transform transform;  ///< Move/Add: the local placement
};

/// Rebuilds `top` with `e` applied. Throws bisram::Error when the path
/// names no instance or addresses the top cell itself.
inline std::shared_ptr<geom::Cell> edited_cell(const geom::Cell& top,
                                               const InstanceEdit& e) {
  std::vector<std::string> segs;
  if (!e.path.empty()) {
    std::size_t pos = 0;
    for (;;) {
      const std::size_t slash = e.path.find('/', pos);
      const std::size_t end =
          slash == std::string::npos ? e.path.size() : slash;
      segs.emplace_back(e.path, pos, end - pos);
      if (slash == std::string::npos) break;
      pos = slash + 1;
    }
  }
  const bool add = e.kind == InstanceEdit::Kind::Add;
  require(add || !segs.empty(),
          "edited_cell: cannot edit the top cell itself");
  // Depth of the cell that owns the edited Instance entry.
  const std::size_t limit = add ? segs.size() : segs.size() - 1;

  const std::function<std::shared_ptr<geom::Cell>(const geom::Cell&,
                                                  std::size_t)>
      clone = [&](const geom::Cell& cell,
                  std::size_t d) -> std::shared_ptr<geom::Cell> {
    auto out = std::make_shared<geom::Cell>(cell.name());
    for (const auto& s : cell.shapes()) out->add_shape(s.layer, s.rect);
    for (const auto& p : cell.ports()) out->add_port(p.name, p.layer, p.rect);
    bool hit = false;
    for (const auto& inst : cell.instances()) {
      if (!hit && d < limit && inst.name == segs[d]) {
        hit = true;
        out->add_instance(inst.name, clone(*inst.cell, d + 1), inst.transform);
      } else if (!hit && d == limit && !add && inst.name == segs[d]) {
        hit = true;
        if (e.kind == InstanceEdit::Kind::Replace)
          out->add_instance(inst.name, e.cell, inst.transform);
        else if (e.kind == InstanceEdit::Kind::Move)
          out->add_instance(inst.name, inst.cell, e.transform);
        // Remove: drop the instance.
      } else {
        out->add_instance(inst.name, inst.cell, inst.transform);
      }
    }
    if (d == limit && add)
      out->add_instance(e.name, e.cell, e.transform);
    else
      require(hit, "edited_cell: no instance '" + segs[d] + "' on path '" +
                       e.path + "'");
    return out;
  };
  return clone(top, 0);
}

/// The four hierarchies of a chained edit sequence on `top` (a
/// generated macro with RAMARRAY and ROWDEC blocks), each edit applied
/// on top of the previous ones: move RAMARRAY/row3, remove ROWDEC/dec5,
/// replace RAMARRAY/row2 with a single bit cell, add a precharge cell
/// to the top cell. Each edit targets a different subtree. Returns
/// (tag, hierarchy) pairs in order.
inline std::vector<std::pair<std::string, geom::CellPtr>> edited_fixtures(
    const geom::CellPtr& top, const tech::Tech& t) {
  using Kind = InstanceEdit::Kind;
  geom::Library lib;
  std::vector<std::pair<std::string, InstanceEdit>> edits;
  {
    InstanceEdit e;
    e.kind = Kind::Move;
    e.path = "RAMARRAY/row3";
    e.transform = geom::Transform::translate(40, -20);
    edits.emplace_back("move", e);
  }
  {
    InstanceEdit e;
    e.kind = Kind::Remove;
    e.path = "ROWDEC/dec5";
    edits.emplace_back("remove", e);
  }
  {
    InstanceEdit e;
    e.kind = Kind::Replace;
    e.path = "RAMARRAY/row2";
    e.cell = cells::sram_cell_6t(lib, t);
    edits.emplace_back("replace", e);
  }
  {
    InstanceEdit e;
    e.kind = Kind::Add;
    e.path = "";  // top cell
    e.name = "spareCell";
    e.cell = cells::precharge_cell(lib, t, 2.0);
    e.transform = geom::Transform::translate(-400, -400);
    edits.emplace_back("add", e);
  }
  std::vector<std::pair<std::string, geom::CellPtr>> out;
  geom::CellPtr cur = top;
  for (const auto& [tag, e] : edits) {
    cur = edited_cell(*cur, e);
    out.emplace_back(tag, cur);
  }
  return out;
}

}  // namespace bisram::test_support
