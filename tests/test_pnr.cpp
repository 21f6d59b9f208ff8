// Tests for the macrocell floorplanner, the stretching post-pass, and
// the left-edge channel router.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "geom/layout_db.hpp"
#include "pnr/floorplan.hpp"
#include "tech/tech.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace bisram::pnr {
namespace {

using geom::Layer;
using geom::Rect;

CellPtr make_block(geom::Library& lib, const std::string& name, Coord w,
                   Coord h, Coord port_y = -1) {
  auto cell = lib.create(name);
  cell->add_shape(Layer::Metal1, Rect::ltrb(0, 0, w, h));
  if (port_y >= 0)
    cell->add_port("p", Layer::Metal1,
                   Rect::ltrb(w - 10, port_y, w, port_y + 10));
  return cell;
}

TEST(Floorplan, SingleBlock) {
  geom::Library lib;
  const std::vector<Block> blocks = {{"a", make_block(lib, "a", 100, 50)}};
  const auto plan = floorplan(blocks, {});
  EXPECT_EQ(plan.placements.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.rectangularity, 1.0);
}

TEST(Floorplan, NoOverlapsManyBlocks) {
  geom::Library lib;
  std::vector<Block> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back({"b" + std::to_string(i),
                      make_block(lib, "b" + std::to_string(i),
                                 100 + i * 37, 60 + (i * 53) % 90)});
  }
  const auto plan = floorplan(blocks, {});
  std::vector<Rect> outlines;
  for (const auto& p : plan.placements) {
    outlines.push_back(p.transform.apply(
        blocks[static_cast<std::size_t>(p.block)].cell->bbox()));
  }
  for (std::size_t i = 0; i < outlines.size(); ++i)
    for (std::size_t j = i + 1; j < outlines.size(); ++j)
      EXPECT_FALSE(outlines[i].overlaps(outlines[j])) << i << " vs " << j;
  EXPECT_GT(plan.rectangularity, 0.5);
}

TEST(Floorplan, KeepsResultRoughlySquare) {
  // Many equal blocks should tile into something much squarer than a
  // single row.
  geom::Library lib;
  std::vector<Block> blocks;
  for (int i = 0; i < 9; ++i)
    blocks.push_back({"s" + std::to_string(i),
                      make_block(lib, "s" + std::to_string(i), 100, 100)});
  const auto plan = floorplan(blocks, {});
  const double aspect = static_cast<double>(plan.bbox.width()) /
                        static_cast<double>(plan.bbox.height());
  EXPECT_GT(aspect, 1.0 / 3.0);
  EXPECT_LT(aspect, 3.0);
}

TEST(Floorplan, PortAlignmentPullsConnectedBlocksTogether) {
  geom::Library lib;
  auto a = lib.create("blk_a");
  a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 200, 200));
  a->add_port("out", Layer::Metal1, Rect::ltrb(190, 120, 200, 140));
  auto b = lib.create("blk_b");
  b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 40));
  b->add_port("in", Layer::Metal1, Rect::ltrb(0, 10, 10, 30));

  const std::vector<Block> blocks = {{"a", a}, {"b", b}};
  const std::vector<Net> nets = {{"n", {{0, "out"}, {1, "in"}}}};
  FloorplanOptions opt;
  opt.wirelength_weight = 1e-2;  // make alignment matter
  const auto plan = floorplan(blocks, nets, opt);
  // b's port should land opposite a's port (y centres aligned).
  const Rect pa = plan.placements[0].transform.apply(a->port("out").rect);
  const Rect pb = plan.placements[1].transform.apply(b->port("in").rect);
  EXPECT_EQ(pa.center().y, pb.center().y);
  EXPECT_LE(std::abs(pb.lo.x - pa.hi.x), 10);
}

TEST(Floorplan, DecreasingAreaOrderIsUsed) {
  // The largest block anchors at the origin.
  geom::Library lib;
  const std::vector<Block> blocks = {
      {"small", make_block(lib, "small", 50, 50)},
      {"large", make_block(lib, "large", 300, 300)},
  };
  const auto plan = floorplan(blocks, {});
  const Rect large_outline = plan.placements[1].transform.apply(
      blocks[1].cell->bbox());
  EXPECT_EQ(large_outline.lo.x, 0);
  EXPECT_EQ(large_outline.lo.y, 0);
}

TEST(Floorplan, EmptyInputThrows) {
  EXPECT_THROW(floorplan({}, {}), Error);
}

TEST(BuildTop, RoutesNonAbuttingNetsOnMetal3) {
  geom::Library lib;
  const auto& t = tech::cda_07();
  // Ports on opposite outer edges, far beyond the abutment reach, so the
  // net must be routed over-the-cell.
  auto a = lib.create("blk_a");
  a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2000, 2000));
  a->add_port("p", Layer::Metal1, Rect::ltrb(0, 900, 60, 960));
  auto b = lib.create("blk_b");
  b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 800, 800));
  b->add_port("p", Layer::Metal1, Rect::ltrb(740, 100, 800, 160));
  const std::vector<Block> blocks = {{"a", a}, {"b", b}};
  const std::vector<Net> nets = {{"n", {{0, "p"}, {1, "p"}}}};
  const auto plan = floorplan(blocks, nets);
  const auto top = build_top(lib, t, "top", blocks, nets, plan);
  EXPECT_EQ(top->instances().size(), 2u);
  // Expect at least one metal3 shape (the over-the-cell route) and vias.
  double m3_area = 0;
  for (const auto& s : top->shapes())
    if (s.layer == Layer::Metal3) m3_area += s.rect.area();
  EXPECT_GT(m3_area, 0.0);
}

TEST(ChannelRouter, TrackCountEqualsDensity) {
  // Three nets: a:[0,100], b:[50,150], c:[120,200].
  // Density 2 (a and b overlap; b and c overlap; a and c do not).
  const std::vector<ChannelPin> pins = {
      {0, 1}, {100, 1}, {50, 2}, {150, 2}, {120, 3}, {200, 3},
  };
  const auto route = left_edge_route(pins);
  EXPECT_EQ(route.tracks, 2);
  ASSERT_EQ(route.segments.size(), 3u);
  // Net c reuses net a's track.
  int track_a = -1, track_c = -1;
  for (const auto& s : route.segments) {
    if (s.net == 1) track_a = s.track;
    if (s.net == 3) track_c = s.track;
  }
  EXPECT_EQ(track_a, track_c);
}

TEST(ChannelRouter, DisjointNetsShareOneTrack) {
  std::vector<ChannelPin> pins;
  for (int i = 0; i < 10; ++i) {
    pins.push_back({i * 100, i});
    pins.push_back({i * 100 + 50, i});
  }
  EXPECT_EQ(left_edge_route(pins).tracks, 1);
}

TEST(ChannelRouter, FullyOverlappingNetsEachGetATrack) {
  std::vector<ChannelPin> pins;
  for (int i = 0; i < 5; ++i) {
    pins.push_back({0 - i, i});
    pins.push_back({1000 + i, i});
  }
  EXPECT_EQ(left_edge_route(pins).tracks, 5);
}

TEST(ChannelRouter, SegmentsSpanTheirPins) {
  const std::vector<ChannelPin> pins = {{10, 7}, {300, 7}, {150, 7}};
  const auto route = left_edge_route(pins);
  ASSERT_EQ(route.segments.size(), 1u);
  EXPECT_EQ(route.segments[0].x0, 10);
  EXPECT_EQ(route.segments[0].x1, 300);
}

/// Channel density: the maximum number of net trunks crossing any x.
/// Trunk intervals are closed, matching the router's strict track-reuse
/// rule (a track frees up only strictly past its last occupant).
int channel_density(const std::vector<ChannelPin>& pins) {
  std::map<int, std::pair<Coord, Coord>> spans;
  for (const auto& pin : pins) {
    auto it = spans.find(pin.net);
    if (it == spans.end()) {
      spans[pin.net] = {pin.x, pin.x};
    } else {
      it->second.first = std::min(it->second.first, pin.x);
      it->second.second = std::max(it->second.second, pin.x);
    }
  }
  std::map<Coord, int> delta;  // +1 at lo, -1 just past hi
  for (const auto& [net, span] : spans) {
    ++delta[span.first];
    --delta[span.second + 1];
  }
  int depth = 0, density = 0;
  for (const auto& [x, d] : delta) density = std::max(density, depth += d);
  return density;
}

/// A reproducible jumble of net intervals (no global RNG state).
std::vector<ChannelPin> lcg_pins(int nets, std::uint64_t seed) {
  std::vector<ChannelPin> pins;
  std::uint64_t s = seed;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<Coord>(s >> 40);
  };
  for (int net = 0; net < nets; ++net) {
    const Coord lo = next() % 5000;
    pins.push_back({lo, net});
    pins.push_back({lo + 1 + next() % 900, net});
  }
  std::sort(pins.begin(), pins.end(),
            [](const ChannelPin& a, const ChannelPin& b) {
              return a.x < b.x;
            });
  return pins;
}

TEST(ChannelRouter, TrackCountEqualsDensityOnSortedPinSets) {
  // The left-edge algorithm is optimal for channels without vertical
  // constraints: track count == channel density, on any pin set.
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    const auto pins = lcg_pins(48, seed);
    EXPECT_EQ(left_edge_route(pins).tracks, channel_density(pins))
        << "seed " << seed;
  }
}

TEST(ChannelRouter, TrunksSharingATrackNeverOverlap) {
  // The negative case guarding the greedy packer: two trunks assigned to
  // the same track must be strictly disjoint, or the nets would short.
  const auto pins = lcg_pins(48, 7);
  const auto route = left_edge_route(pins);
  for (std::size_t i = 0; i < route.segments.size(); ++i) {
    for (std::size_t j = i + 1; j < route.segments.size(); ++j) {
      const auto& a = route.segments[i];
      const auto& b = route.segments[j];
      if (a.track != b.track) continue;
      EXPECT_TRUE(a.x1 < b.x0 || b.x1 < a.x0)
          << "nets " << a.net << " and " << b.net << " share track "
          << a.track << " with overlapping trunks";
    }
  }
}

// --- stretching post-pass ---------------------------------------------------

/// Two blocks abutting side by side with vertically misaligned ports,
/// hand-placed so the test controls the exact offset (110 DBU).
struct StretchFixture {
  geom::Library lib;
  std::vector<Block> blocks;
  std::vector<Net> nets;
  FloorplanResult plan;

  StretchFixture() {
    auto a = lib.create("sf_a");
    a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 200, 200));
    a->add_port("out", Layer::Metal1, Rect::ltrb(190, 120, 200, 140));
    auto b = lib.create("sf_b");
    b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 40));
    b->add_port("in", Layer::Metal1, Rect::ltrb(0, 10, 10, 30));
    blocks = {{"a", a}, {"b", b}};
    nets = {{"n", {{0, "out"}, {1, "in"}}}};
    plan.placements = {{0, geom::Transform::translate(0, 0)},
                       {1, geom::Transform::translate(200, 0)}};
    plan.bbox = Rect::ltrb(0, 0, 300, 200);
  }
};

TEST(Stretch, DrivesPortMisalignmentToZero) {
  StretchFixture f;
  // a's port centre sits at y 130, b's at y 20: off by 110.
  EXPECT_DOUBLE_EQ(port_misalignment(f.blocks, f.nets, f.plan), 110.0);
  StretchStats stats;
  const auto stretched = stretch(f.blocks, f.nets, f.plan, geom::dbu(16),
                                 &stats);
  EXPECT_DOUBLE_EQ(stats.misalignment_before_dbu, 110.0);
  EXPECT_DOUBLE_EQ(stats.misalignment_after_dbu, 0.0);
  EXPECT_GE(stats.moves, 1);
  EXPECT_DOUBLE_EQ(port_misalignment(f.blocks, f.nets, stretched), 0.0);
  // The slid port pair actually lines up.
  const Rect pa = stretched.placements[0].transform.apply(
      f.blocks[0].cell->port("out").rect);
  const Rect pb = stretched.placements[1].transform.apply(
      f.blocks[1].cell->port("in").rect);
  EXPECT_EQ(pa.center().y, pb.center().y);
}

TEST(Stretch, RefusesSlidesThatWouldOverlap) {
  StretchFixture f;
  // A third block parked right where b would land if it slid up to
  // align: the pass must leave the misalignment rather than overlap.
  auto c = f.lib.create("sf_c");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 100));
  f.blocks.push_back({"c", c});
  f.plan.placements.push_back({2, geom::Transform::translate(200, 60)});
  StretchStats stats;
  const auto stretched = stretch(f.blocks, f.nets, f.plan, geom::dbu(16),
                                 &stats);
  EXPECT_EQ(stats.moves, 0);
  EXPECT_DOUBLE_EQ(stats.misalignment_after_dbu,
                   stats.misalignment_before_dbu);
  std::vector<Rect> outlines;
  for (const auto& p : stretched.placements)
    outlines.push_back(p.transform.apply(
        f.blocks[static_cast<std::size_t>(p.block)].cell->bbox()));
  for (std::size_t i = 0; i < outlines.size(); ++i)
    for (std::size_t j = i + 1; j < outlines.size(); ++j)
      EXPECT_FALSE(outlines[i].overlaps(outlines[j])) << i << " vs " << j;
}

TEST(Stretch, NeverIntroducesOverlapOnRealPlans) {
  // Stretch a genuine floorplanner result and re-check the floorplan
  // no-overlap invariant plus monotone misalignment.
  geom::Library lib;
  std::vector<Block> blocks;
  std::vector<Net> nets;
  for (int i = 0; i < 6; ++i) {
    auto cell = lib.create("rb" + std::to_string(i));
    const Coord w = 120 + i * 41, h = 70 + (i * 67) % 110;
    cell->add_shape(Layer::Metal1, Rect::ltrb(0, 0, w, h));
    cell->add_port("l", Layer::Metal1, Rect::ltrb(0, 10, 10, 30));
    cell->add_port("r", Layer::Metal1, Rect::ltrb(w - 10, h - 30, w, h - 10));
    blocks.push_back({"rb" + std::to_string(i), cell});
    if (i > 0)
      nets.push_back({"n" + std::to_string(i), {{i - 1, "r"}, {i, "l"}}});
  }
  const auto plan = floorplan(blocks, nets);
  StretchStats stats;
  const auto stretched = stretch(blocks, nets, plan, geom::dbu(16), &stats);
  EXPECT_LE(stats.misalignment_after_dbu, stats.misalignment_before_dbu);
  std::vector<Rect> outlines;
  for (const auto& p : stretched.placements)
    outlines.push_back(p.transform.apply(
        blocks[static_cast<std::size_t>(p.block)].cell->bbox()));
  for (std::size_t i = 0; i < outlines.size(); ++i)
    for (std::size_t j = i + 1; j < outlines.size(); ++j)
      EXPECT_FALSE(outlines[i].overlaps(outlines[j])) << i << " vs " << j;
}

// --- over-the-cell route check ---------------------------------------------

/// Three blocks in a row: a's port faces b's across c, so the one route
/// wire runs horizontally over c, whose metal3 sits two levels down
/// (c/mid/core) under rotated and mirrored placements.
struct OverTheCell {
  geom::Library lib;
  std::shared_ptr<geom::Cell> a, b, c, mid, core;
  std::vector<Block> blocks;
  std::vector<Net> nets = {{"n", {{0, "p"}, {1, "p"}}}};
  FloorplanResult plan;

  OverTheCell() {
    a = lib.create("blk_a");
    a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 1000, 1000));
    a->add_port("p", Layer::Metal1, Rect::ltrb(940, 450, 1000, 510));
    b = lib.create("blk_b");
    b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 1000, 1000));
    b->add_port("p", Layer::Metal2, Rect::ltrb(0, 450, 60, 510));
    core = lib.create("core");
    core->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 50, 50));
    mid = lib.create("mid");
    mid->add_instance("core", core, Transform(geom::Orient::MX, {50, 600}));
    c = lib.create("blk_c");
    c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 1000, 1000));
    c->add_instance("mid", mid, Transform(geom::Orient::R90, {700, 100}));
    blocks = {{"a", a}, {"b", b}, {"c", c}};
    plan.placements = {{0, Transform{}},
                       {1, Transform::translate(5000, 0)},
                       {2, Transform::translate(2000, 0)}};
  }

  /// Adds a metal3 rect to `core` that lands on `absolute` in the top.
  void plant(const Rect& absolute) {
    const Transform to_top = plan.placements[2]
                                 .transform.compose(c->instances()[0].transform)
                                 .compose(mid->instances()[0].transform);
    core->add_shape(Layer::Metal3, to_top.inverse().apply(absolute));
  }

  /// The route wire running over c (found by building a probe top).
  Rect wire() {
    RouteStats probe;
    const auto top =
        build_top(lib, tech::cda_07(), "probe", blocks, nets, plan, &probe);
    EXPECT_EQ(probe.m3_conflicts, 0);
    for (const auto& s : top->shapes())
      if (s.layer == Layer::Metal3 && s.rect.width() > 3000) return s.rect;
    ADD_FAILURE() << "no route wire over block c";
    return Rect{};
  }
};

TEST(BuildTop, PlantedMetal3UnderARouteIsCaughtAndNamed) {
  OverTheCell f;
  const Rect w = f.wire();
  ASSERT_FALSE(w.empty());
  f.plant(Rect::ltrb(2450, w.lo.y - 20, 2550, w.hi.y + 20));
  RouteStats stats;
  build_top(f.lib, tech::cda_07(), "top", f.blocks, f.nets, f.plan, &stats);
  EXPECT_EQ(stats.routed_spans, 1);
  EXPECT_EQ(stats.m3_conflicts, 1);
  EXPECT_EQ(stats.conflict_paths, std::vector<std::string>{"c/mid/core"});
}

TEST(BuildTop, Metal3TouchingARouteEdgeIsNotAConflict) {
  OverTheCell f;
  const Rect w = f.wire();
  ASSERT_FALSE(w.empty());
  // Abuts the wire's top and bottom edges: touching, no shared area.
  const Rect above = Rect::ltrb(2600, w.hi.y, 2700, w.hi.y + 100);
  const Rect below = Rect::ltrb(2300, w.lo.y - 100, 2400, w.lo.y);
  ASSERT_TRUE(above.intersects(w) && below.intersects(w));
  ASSERT_FALSE(above.overlaps(w) || below.overlaps(w));
  f.plant(above);
  f.plant(below);
  // Metal3 owned by the block itself, clear of the wire.
  f.c->add_shape(Layer::Metal3, Rect::ltrb(100, 900, 200, 980));
  RouteStats stats;
  build_top(f.lib, tech::cda_07(), "top", f.blocks, f.nets, f.plan, &stats);
  EXPECT_EQ(stats.m3_conflicts, 0);
  EXPECT_TRUE(stats.conflict_paths.empty());
}

TEST(BuildTop, RefusesWhatAFlattenOfThePlacedBlocksWould) {
  const auto& t = tech::cda_07();
  FloorplanResult plan;
  plan.placements = {{0, Transform{}}};
  {
    // A chain one level deeper than the guard below the top.
    geom::Library lib;
    auto cur = lib.create("chain0");
    cur->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
    for (int i = 1; i <= geom::kMaxFlattenDepth; ++i) {
      auto next = lib.create("chain" + std::to_string(i));
      next->add_instance("c", cur, Transform::translate(1, 1));
      cur = next;
    }
    RouteStats stats;
    try {
      build_top(lib, t, "top", {{"deep", cur}}, {}, plan, &stats);
      FAIL() << "expected DiagError";
    } catch (const DiagError& e) {
      EXPECT_EQ(e.diagnostics().at(0).code, "layout-flatten-too-deep");
    }
  }
  {
    // 2^27 leaves in 27 doubling levels: cheap to build and to bound,
    // past the instance cap to flatten.
    geom::Library lib;
    auto cur = lib.create("twice0");
    cur->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
    for (int i = 1; i <= 27; ++i) {
      auto next = lib.create("twice" + std::to_string(i));
      next->add_instance("l", cur, Transform{});
      next->add_instance("r", cur, Transform::translate(2 << (i - 1), 0));
      cur = next;
    }
    const std::vector<Block> blocks = {{"huge", cur}};
    RouteStats stats;
    try {
      build_top(lib, t, "top", blocks, {}, plan, &stats);
      FAIL() << "expected DiagError";
    } catch (const DiagError& e) {
      EXPECT_EQ(e.diagnostics().at(0).code,
                "layout-flatten-too-many-instances");
    }
    // Without route stats nothing is checked, so nothing is refused.
    EXPECT_NO_THROW(build_top(lib, t, "top_unchecked", blocks, {}, plan));
  }
}

/// The check build_top used to run, kept as the oracle: flatten the
/// placed blocks into a LayoutDB and query it with every route wire.
/// Route wires are the top's metal3 shapes exactly one metal3 width
/// across (the via landing pads are wider).
RouteStats layout_db_check(const geom::Cell& top, const tech::Tech& t) {
  geom::Cell placed("placed");
  for (const auto& inst : top.instances())
    placed.add_instance(inst.name, inst.cell, inst.transform);
  const geom::LayoutDB db(placed);
  const Coord w3 = t.rule(Layer::Metal3).min_width;
  const auto& m3 = db.rects(Layer::Metal3);
  RouteStats ref;
  for (const auto& s : top.shapes()) {
    if (s.layer != Layer::Metal3 ||
        std::min(s.rect.width(), s.rect.height()) != 2 * (w3 / 2))
      continue;
    ++ref.m3_wires;
    db.for_each_in(Layer::Metal3, s.rect, [&](std::uint32_t id) {
      if (!s.rect.overlaps(m3[id])) return;
      ++ref.m3_conflicts;
      ref.conflict_paths.push_back(db.shape_path(Layer::Metal3, id));
    });
  }
  return ref;
}

TEST(BuildTop, AbstractRouteCheckMatchesLayoutDbOnRandomHierarchies) {
  // Random blocks built from shared, rotated and mirrored sub-cells full
  // of metal3, joined by random nets: the conflict count and every
  // offender path, in order, equal the flattened LayoutDB query's.
  const auto& t = tech::cda_07();
  int conflicts = 0;
  for (std::uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto orient = [&] { return static_cast<geom::Orient>(pick(0, 7)); };
    geom::Library lib;
    std::vector<CellPtr> leaves;
    for (int k = 0; k < 3; ++k) {
      auto leaf = lib.create("leaf" + std::to_string(k));
      for (int i = pick(1, 3); i > 0; --i)
        leaf->add_shape(i % 2 ? Layer::Metal3 : Layer::Metal1,
                        Rect::xywh(pick(0, 300), pick(0, 300), pick(20, 400),
                                   pick(20, 400)));
      leaves.push_back(leaf);
    }
    std::vector<CellPtr> mids;
    for (int k = 0; k < 2; ++k) {
      auto mid = lib.create("mid" + std::to_string(k));
      if (pick(0, 1)) mid->add_shape(Layer::Metal3, Rect::xywh(0, 0, 60, 500));
      for (int i = pick(1, 4); i > 0; --i)
        mid->add_instance("l" + std::to_string(i),
                          leaves[static_cast<std::size_t>(pick(0, 2))],
                          Transform(orient(),
                                    {pick(-300, 300), pick(-300, 300)}));
      mids.push_back(mid);
    }
    std::vector<Block> blocks;
    const int nblocks = pick(3, 5);
    for (int k = 0; k < nblocks; ++k) {
      auto blk = lib.create("blk" + std::to_string(k));
      const Coord w = pick(1200, 3000), h = pick(1200, 3000);
      blk->add_shape(Layer::Metal1, Rect::ltrb(0, 0, w, h));
      for (int i = pick(1, 4); i > 0; --i)
        blk->add_instance("m" + std::to_string(i),
                          mids[static_cast<std::size_t>(pick(0, 1))],
                          Transform(orient(), {pick(400, w - 400),
                                               pick(400, h - 400)}));
      const Layer pl = pick(0, 1) ? Layer::Metal1 : Layer::Metal2;
      const Coord py = pick(100, h - 160), px = pick(100, w - 160);
      blk->add_port("w", pl, Rect::ltrb(0, py, 60, py + 60));
      blk->add_port("e", pl, Rect::ltrb(w - 60, py, w, py + 60));
      blk->add_port("s", pl, Rect::ltrb(px, 0, px + 60, 60));
      blk->add_port("n", pl, Rect::ltrb(px, h - 60, px + 60, h));
      blocks.push_back({"B" + std::to_string(k), blk});
    }
    const char* ports[] = {"w", "e", "s", "n"};
    std::vector<Net> nets;
    for (int k = pick(2, 5); k > 0; --k) {
      Net net{"net" + std::to_string(k), {}};
      for (int i = pick(2, 3); i > 0; --i)
        net.pins.push_back({pick(0, nblocks - 1), ports[pick(0, 3)]});
      nets.push_back(net);
    }
    FloorplanOptions opt;
    opt.spacing = geom::dbu(12);
    const auto plan = floorplan(blocks, nets, opt);
    RouteStats stats;
    const auto top = build_top(lib, t, "top", blocks, nets, plan, &stats);
    const RouteStats ref = layout_db_check(*top, t);
    EXPECT_EQ(ref.m3_wires, stats.m3_wires) << "seed " << seed;
    EXPECT_EQ(stats.m3_conflicts, ref.m3_conflicts) << "seed " << seed;
    EXPECT_EQ(stats.conflict_paths, ref.conflict_paths) << "seed " << seed;
    conflicts += stats.m3_conflicts;
  }
  EXPECT_GT(conflicts, 0) << "the oracle never saw a conflict";
}

}  // namespace
}  // namespace bisram::pnr
