// Unit tests for the layout geometry kernel.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "geom/geometry.hpp"
#include "geom/writers.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace bisram::geom {
namespace {

TEST(Rect, Constructors) {
  const Rect r = Rect::ltrb(10, 20, 0, 5);
  EXPECT_EQ(r.lo.x, 0);
  EXPECT_EQ(r.lo.y, 5);
  EXPECT_EQ(r.hi.x, 10);
  EXPECT_EQ(r.hi.y, 20);
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 15);
  EXPECT_DOUBLE_EQ(r.area(), 150.0);
  const Rect q = Rect::xywh(1, 2, 3, 4);
  EXPECT_EQ(q.hi.x, 4);
  EXPECT_EQ(q.hi.y, 6);
}

TEST(Rect, IntersectionAndUnion) {
  const Rect a = Rect::ltrb(0, 0, 10, 10);
  const Rect b = Rect::ltrb(5, 5, 15, 15);
  EXPECT_TRUE(a.overlaps(b));
  const Rect x = a.intersection(b);
  EXPECT_EQ(x, Rect::ltrb(5, 5, 10, 10));
  const Rect u = a.united(b);
  EXPECT_EQ(u, Rect::ltrb(0, 0, 15, 15));
  const Rect far = Rect::ltrb(20, 20, 30, 30);
  EXPECT_TRUE(a.intersection(far).empty());
  EXPECT_FALSE(a.overlaps(far));
}

TEST(Rect, TouchingIsNotOverlap) {
  const Rect a = Rect::ltrb(0, 0, 10, 10);
  const Rect b = Rect::ltrb(10, 0, 20, 10);
  EXPECT_TRUE(a.intersects(b));   // edges touch
  EXPECT_FALSE(a.overlaps(b));    // no interior overlap
}

TEST(Rect, Gap) {
  const Rect a = Rect::ltrb(0, 0, 10, 10);
  EXPECT_EQ(rect_gap(a, Rect::ltrb(13, 0, 20, 10)), 3);
  EXPECT_EQ(rect_gap(a, Rect::ltrb(0, 14, 10, 20)), 4);
  // Diagonal separation: governed by the larger axis gap.
  EXPECT_EQ(rect_gap(a, Rect::ltrb(12, 15, 20, 20)), 5);
  EXPECT_EQ(rect_gap(a, Rect::ltrb(5, 5, 8, 8)), 0);
}

TEST(Transform, AllOrientationsPreserveArea) {
  const Rect r = Rect::ltrb(1, 2, 5, 9);
  for (int i = 0; i < 8; ++i) {
    const Transform t(static_cast<Orient>(i), {100, 200});
    const Rect m = t.apply(r);
    EXPECT_DOUBLE_EQ(m.area(), r.area()) << orient_name(static_cast<Orient>(i));
  }
}

TEST(Transform, R90RotatesCCW) {
  const Transform t(Orient::R90, {0, 0});
  const Point p = t.apply(Point{1, 0});
  EXPECT_EQ(p.x, 0);
  EXPECT_EQ(p.y, 1);
}

TEST(Transform, MirrorX) {
  const Transform t(Orient::MX, {0, 0});
  const Point p = t.apply(Point{3, 4});
  EXPECT_EQ(p.x, 3);
  EXPECT_EQ(p.y, -4);
}

TEST(Transform, ComposeMatchesSequentialApplication) {
  const Transform outer(Orient::R90, {10, 0});
  const Transform inner(Orient::MX, {3, 4});
  const Transform both = outer.compose(inner);
  for (Coord x = -2; x <= 2; ++x) {
    for (Coord y = -2; y <= 2; ++y) {
      const Point p{x, y};
      const Point seq = outer.apply(inner.apply(p));
      const Point comp = both.apply(p);
      EXPECT_EQ(seq, comp);
    }
  }
}

TEST(Transform, ComposeIsClosedOverAllPairs) {
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const Transform a(static_cast<Orient>(i), {1, 2});
      const Transform b(static_cast<Orient>(j), {3, 4});
      EXPECT_NO_THROW(a.compose(b));
    }
  }
}

TEST(Cell, BboxAndPorts) {
  Cell c("leaf");
  c.add_shape(Layer::Metal1, Rect::ltrb(0, 0, 10, 4));
  c.add_shape(Layer::Poly, Rect::ltrb(2, -3, 4, 8));
  c.add_port("a", Layer::Metal1, Rect::ltrb(0, 0, 2, 4));
  EXPECT_EQ(c.bbox(), Rect::ltrb(0, -3, 10, 8));
  EXPECT_EQ(c.port("a").layer, Layer::Metal1);
  EXPECT_FALSE(c.find_port("zz").has_value());
  EXPECT_THROW(c.port("zz"), Error);
}

TEST(Cell, HierarchicalFlatten) {
  auto leaf = std::make_shared<Cell>("leaf");
  leaf->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 4, 2));

  Cell top("top");
  top.add_instance("i0", leaf, Transform::translate(0, 0));
  top.add_instance("i1", leaf, Transform::translate(10, 0));
  top.add_instance("i2", leaf, Transform(Orient::R90, {30, 0}));

  EXPECT_EQ(top.flat_shape_count(), 3u);
  int count = 0;
  Rect box{};
  top.flatten([&](Layer l, const Rect& r) {
    EXPECT_EQ(l, Layer::Metal1);
    box = box.united(r);
    ++count;
  });
  EXPECT_EQ(count, 3);
  // i2 rotated: rect (0,0,4,2) under R90 -> (-2,0,0,4) then +30 x.
  EXPECT_EQ(box, Rect::ltrb(0, 0, 30, 4));
  EXPECT_EQ(top.bbox(), box);
}

TEST(Cell, LayerAreaSumsFlattened) {
  auto leaf = std::make_shared<Cell>("leaf");
  leaf->add_shape(Layer::Metal2, Rect::ltrb(0, 0, 5, 2));
  Cell top("top");
  for (int i = 0; i < 4; ++i)
    top.add_instance("i" + std::to_string(i), leaf,
                     Transform::translate(i * 10, 0));
  EXPECT_DOUBLE_EQ(top.layer_area(Layer::Metal2), 40.0);
  EXPECT_DOUBLE_EQ(top.layer_area(Layer::Metal1), 0.0);
}

TEST(Cell, TransistorCensusCountsGates) {
  Cell c("inv");
  // NMOS: poly crossing fully over ndiff.
  c.add_shape(Layer::NDiff, Rect::ltrb(0, 0, 10, 4));
  c.add_shape(Layer::Poly, Rect::ltrb(4, -2, 6, 6));
  // PMOS: poly crossing pdiff.
  c.add_shape(Layer::PDiff, Rect::ltrb(0, 10, 10, 16));
  c.add_shape(Layer::Poly, Rect::ltrb(4, 8, 6, 18));
  // A poly wire that merely touches diffusion edge-on is not a gate.
  c.add_shape(Layer::Poly, Rect::ltrb(0, 3, 2, 5));
  EXPECT_EQ(c.transistor_census(), 2u);
}

TEST(Cell, RejectsEmptyShapes) {
  Cell c("bad");
  EXPECT_THROW(c.add_shape(Layer::Metal1, Rect{}), Error);
}

void expect_too_deep(const std::function<void()>& query) {
  try {
    query();
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "layout-flatten-too-deep");
  }
}

/// A linear chain of `links` instances above a one-shape leaf.
std::shared_ptr<Cell> make_chain(Library& lib, int links) {
  auto cur = lib.create("chain0");
  cur->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
  for (int i = 1; i <= links; ++i) {
    auto next = lib.create("chain" + std::to_string(i));
    next->add_instance("c", cur, Transform::translate(1, 1));
    cur = next;
  }
  return cur;
}

TEST(Cell, BboxAndShapeCountRefusePathologicallyDeepHierarchies) {
  // One level deeper than the guard: the same stable refusal as
  // Cell::flatten and LayoutDB instead of a stack overflow.
  Library lib;
  const auto deep = make_chain(lib, kMaxFlattenDepth + 1);
  expect_too_deep([&] { (void)deep->bbox(); });
  expect_too_deep([&] { (void)deep->flat_shape_count(); });
  expect_too_deep([&] { deep->flatten([](Layer, const Rect&) {}); });

  // Exactly at the guard: every query answers, and agrees with flatten.
  Library ok_lib;
  const auto ok = make_chain(ok_lib, kMaxFlattenDepth);
  Rect box{};
  std::size_t n = 0;
  ok->flatten([&](Layer, const Rect& r) {
    box = box.united(r);
    ++n;
  });
  EXPECT_EQ(ok->bbox(), box);
  EXPECT_EQ(ok->flat_shape_count(), n);
}

TEST(Cell, BboxAndShapeCountRefuseSelfReferentialHierarchies) {
  Library lib;
  auto c = lib.create("ouroboros");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
  // A non-owning self-reference: an owning one would be a shared_ptr
  // cycle that outlives the test.
  c->add_instance("self", CellPtr(CellPtr{}, c.get()),
                  Transform::translate(4, 4));
  expect_too_deep([&] { (void)c->bbox(); });
  expect_too_deep([&] { (void)c->flat_shape_count(); });
}

TEST(Cell, DepthGuardCountsTheDeepestPathThroughSharedDefinitions) {
  // The chain is reached first one level down (depth 64 at its leaf,
  // legal), then memoized, then reached again two levels down (depth
  // 65): the flatten refuses, so the memoized queries must too.
  Library lib;
  const auto chain = make_chain(lib, kMaxFlattenDepth - 1);
  auto wrap = lib.create("wrap");
  wrap->add_instance("c", chain, Transform{});
  auto top = lib.create("top");
  top->add_instance("shallow", chain, Transform{});
  top->add_instance("deep", wrap, Transform{});
  expect_too_deep([&] { top->flatten([](Layer, const Rect&) {}); });
  expect_too_deep([&] { (void)top->bbox(); });
  expect_too_deep([&] { (void)top->flat_shape_count(); });
  EXPECT_NO_THROW((void)wrap->bbox());
}

// The plain recursion the memoized queries replaced, kept as the oracle.
Rect naive_bbox(const Cell& c) {
  Rect box{};
  for (const auto& s : c.shapes()) box = box.united(s.rect);
  for (const auto& inst : c.instances())
    box = box.united(inst.transform.apply(naive_bbox(*inst.cell)));
  return box;
}

std::size_t naive_flat_shape_count(const Cell& c) {
  std::size_t n = c.shapes().size();
  for (const auto& inst : c.instances())
    n += naive_flat_shape_count(*inst.cell);
  return n;
}

TEST(Cell, MemoizedBboxAndShapeCountMatchNaiveRecursion) {
  // Random DAGs of shared definitions, placed under all eight
  // orientations (cycled, so every seed uses each), with shapeless
  // cells mixed in: the memoized answers are bit-identical.
  int orient = 0;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Library lib;
    std::vector<std::shared_ptr<Cell>> cells;
    for (int level = 0; level < 4; ++level) {
      const int count = level == 3 ? 1 : pick(2, 4);
      std::vector<std::shared_ptr<Cell>> made;
      for (int k = 0; k < count; ++k) {
        auto c = lib.create("c" + std::to_string(level) + "_" +
                            std::to_string(k));
        const int shapes = level == 0 ? pick(0, 3) : pick(0, 2);
        for (int i = 0; i < shapes; ++i) {
          const Coord x = pick(-60, 60), y = pick(-60, 60);
          c->add_shape(static_cast<Layer>(pick(0, kLayerCount - 1)),
                       Rect::xywh(x, y, pick(1, 30), pick(1, 30)));
        }
        const int instances = level == 0 ? 0 : pick(1, 5);
        for (int i = 0; i < instances; ++i) {
          const auto& child = cells[static_cast<std::size_t>(
              pick(0, static_cast<int>(cells.size()) - 1))];
          c->add_instance("i" + std::to_string(i), child,
                          Transform(static_cast<Orient>(orient++ % 8),
                                    {pick(-200, 200), pick(-200, 200)}));
        }
        made.push_back(c);
      }
      cells.insert(cells.end(), made.begin(), made.end());
    }
    for (const auto& c : cells) {
      EXPECT_EQ(c->bbox(), naive_bbox(*c))
          << "seed " << seed << " " << c->name();
      EXPECT_EQ(c->flat_shape_count(), naive_flat_shape_count(*c))
          << "seed " << seed << " " << c->name();
    }
  }
}

TEST(Library, CreateAndLookup) {
  Library lib;
  auto c = lib.create("cell_a");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 1, 1));
  EXPECT_TRUE(lib.contains("cell_a"));
  EXPECT_EQ(lib.get("cell_a")->name(), "cell_a");
  EXPECT_THROW(lib.create("cell_a"), Error);
  EXPECT_THROW(lib.get("missing"), Error);
  EXPECT_EQ(lib.size(), 1u);
}

TEST(Writers, SvgContainsRects) {
  Cell c("top");
  c.add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 50));
  c.add_shape(Layer::Poly, Rect::ltrb(10, 10, 20, 40));
  const std::string svg = to_svg(c, 200);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Writers, CifHasDefinitionsAndCalls) {
  auto leaf = std::make_shared<Cell>("leaf");
  leaf->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 4, 2));
  Cell top("top");
  top.add_instance("i0", leaf, Transform::translate(10, 20));
  const std::string cif = to_cif(top, 350.0);
  EXPECT_NE(cif.find("DS 1"), std::string::npos);  // leaf defined first
  EXPECT_NE(cif.find("DS 2"), std::string::npos);
  EXPECT_NE(cif.find("L CMF;"), std::string::npos);
  EXPECT_NE(cif.find("C 1"), std::string::npos);  // instance call
  EXPECT_NE(cif.find("E\n"), std::string::npos);
}

TEST(Layers, NamesAndPredicates) {
  EXPECT_EQ(layer_name(Layer::Metal1), "metal1");
  EXPECT_EQ(layer_cif_code(Layer::Poly), "CPG");
  EXPECT_TRUE(is_conducting(Layer::Metal3));
  EXPECT_FALSE(is_conducting(Layer::NWell));
  EXPECT_TRUE(is_via(Layer::Contact));
  EXPECT_FALSE(is_via(Layer::Metal2));
}

TEST(Coords, DbuRoundTrip) {
  EXPECT_EQ(dbu(3.0), 30);
  EXPECT_EQ(dbu(1.5), 15);
  EXPECT_DOUBLE_EQ(to_lambda(dbu(2.5)), 2.5);
}

}  // namespace
}  // namespace bisram::geom
