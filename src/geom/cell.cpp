#include "geom/cell.hpp"

#include "geom/layout_db.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace bisram::geom {

namespace {
[[noreturn]] void flatten_fail(const std::string& cell, std::string code,
                               std::string message) {
  throw DiagError({{Severity::Error, std::move(code), std::move(message),
                    cell, 0, 0}});
}
}  // namespace

void detail::refuse_too_deep(const Cell& cell) {
  flatten_fail(cell.name(), "layout-flatten-too-deep",
               "hierarchy nested deeper than " +
                   std::to_string(kMaxFlattenDepth) +
                   " levels (instance cycle?) at cell '" + cell.name() + "'");
}

void detail::refuse_too_many_instances(const Cell& cell) {
  flatten_fail(cell.name(), "layout-flatten-too-many-instances",
               "flatten exceeds " + std::to_string(kMaxFlattenInstances) +
                   " instances at cell '" + cell.name() + "'");
}

void Cell::add_shape(Layer layer, const Rect& rect) {
  ensure(!rect.empty(), "Cell::add_shape: empty rect in cell " + name_);
  shapes_.push_back({layer, rect});
}

void Cell::add_port(std::string name, Layer layer, const Rect& rect) {
  ensure(!rect.empty(), "Cell::add_port: empty rect for port " + name);
  ports_.push_back({std::move(name), layer, rect});
}

void Cell::add_instance(std::string name, CellPtr cell, const Transform& t) {
  ensure(cell != nullptr, "Cell::add_instance: null cell");
  instances_.push_back({std::move(name), std::move(cell), t});
}

const Port& Cell::port(std::string_view name) const {
  for (const auto& p : ports_)
    if (p.name == name) return p;
  throw Error("Cell '" + name_ + "' has no port '" + std::string(name) + "'");
}

std::optional<Port> Cell::find_port(std::string_view name) const {
  for (const auto& p : ports_)
    if (p.name == name) return p;
  return std::nullopt;
}

Rect Cell::bbox() const {
  return DefinitionFold<Rect>([](const Cell& c,
                                 const std::vector<const Rect*>& sub) {
    Rect box{};  // empty
    for (const auto& s : c.shapes_) box = box.united(s.rect);
    for (std::size_t i = 0; i < sub.size(); ++i)
      box = box.united(c.instances_[i].transform.apply(*sub[i]));
    return box;
  })(*this);
}

std::size_t Cell::flat_shape_count() const {
  return DefinitionFold<std::size_t>(
      [](const Cell& c, const std::vector<const std::size_t*>& sub) {
        std::size_t n = c.shapes_.size();
        for (const std::size_t* k : sub) n += *k;
        return n;
      })(*this);
}

void Cell::flatten_into(
    const Transform& t,
    const std::function<void(Layer, const Rect&)>& visit, int depth,
    std::size_t& instances) const {
  if (depth > kMaxFlattenDepth) detail::refuse_too_deep(*this);
  for (const auto& s : shapes_) visit(s.layer, t.apply(s.rect));
  for (const auto& inst : instances_) {
    if (++instances > kMaxFlattenInstances)
      detail::refuse_too_many_instances(*this);
    inst.cell->flatten_into(t.compose(inst.transform), visit, depth + 1,
                            instances);
  }
}

void Cell::flatten(const std::function<void(Layer, const Rect&)>& visit) const {
  std::size_t instances = 0;
  flatten_into(Transform{}, visit, 0, instances);
}

std::vector<std::vector<Rect>> Cell::flatten_by_layer() const {
  std::vector<std::vector<Rect>> out(kLayerCount);
  flatten([&](Layer layer, const Rect& r) {
    out[static_cast<std::size_t>(layer)].push_back(r);
  });
  return out;
}

double Cell::layer_area(Layer layer) const {
  double area = 0.0;
  flatten([&](Layer l, const Rect& r) {
    if (l == layer) area += r.area();
  });
  return area;
}

double Cell::layer_union_area(Layer layer) const {
  std::vector<Rect> rects;
  flatten([&](Layer l, const Rect& r) {
    if (l == layer) rects.push_back(r);
  });
  return union_area(rects);
}

std::size_t Cell::transistor_census() const {
  // One flatten into a tile index; the poly-over-diffusion crossing test
  // then only examines polys near each diffusion strip instead of the
  // historical all-pairs product.
  return LayoutDB(*this).transistor_census();
}

std::shared_ptr<Cell> Library::create(const std::string& name) {
  require(!contains(name), "Library: duplicate cell name '" + name + "'");
  auto cell = std::make_shared<Cell>(name);
  cells_[name] = cell;
  return cell;
}

void Library::add(std::shared_ptr<Cell> cell) {
  ensure(cell != nullptr, "Library::add: null cell");
  require(!contains(cell->name()),
          "Library: duplicate cell name '" + cell->name() + "'");
  cells_[cell->name()] = std::move(cell);
}

CellPtr Library::get(const std::string& name) const {
  auto it = cells_.find(name);
  if (it == cells_.end()) throw Error("Library: no cell named '" + name + "'");
  return it->second;
}

std::vector<CellPtr> Library::cells() const {
  std::vector<CellPtr> out;
  out.reserve(cells_.size());
  for (const auto& [_, cell] : cells_) out.push_back(cell);
  return out;
}

}  // namespace bisram::geom
