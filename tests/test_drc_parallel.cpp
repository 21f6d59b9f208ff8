// The DRC engine's parallel cold build (drc::check) against the seed
// checker kept as a test oracle (support/drc_reference.hpp), on seeded
// random layouts with planted violations of every rule: sub-minimum
// widths, close pairs of separate components (next to U-shaped
// same-component notches that must stay exempt), vias missing their
// lower or upper landing, and p-diffusion outside its n-well. A Metal3
// comb placed twice on top of itself spans several build chunks, so
// every pass of the build really splits its work and coincident shapes
// from different instances sit in different chunks.
//
// At every pool width the report must equal the reference as a key set
// (and, for the one-finding-per-shape rules, as a multiset), keep
// equal-key findings in shape-id order, and be bit-identical across
// widths, also when the check runs inside a pool worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "drc/drc.hpp"
#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "support/drc_reference.hpp"
#include "support/scoped_threads.hpp"
#include "tech/tech.hpp"
#include "util/parallel.hpp"
#include "util/union_find.hpp"

namespace bisram {
namespace {

using geom::Coord;
using geom::Layer;
using geom::Rect;
using test_support::drc_key;
using test_support::drc_key_set;
using test_support::ScopedThreads;

const tech::Tech& deck() { return tech::cda_07(); }

Coord min_width(Layer l) { return deck().rule(l).min_width; }
Coord min_space(Layer l) { return deck().rule(l).min_space; }

/// Random layout generator. A block cell is a 4 x 4 grid of 160-DBU
/// slots, each holding one motif — clean or carrying one planted
/// violation — jittered so neighbouring motifs sometimes interact.
class LayoutGen {
 public:
  explicit LayoutGen(std::uint64_t seed) : rng_(seed) {}

  Coord uni(Coord lo, Coord hi) {
    return std::uniform_int_distribution<Coord>(lo, hi)(rng_);
  }

  /// A clean transistor: poly across an NDiff, a contact on the
  /// diffusion under a Metal1 pad.
  void transistor(geom::Cell& c, Coord x, Coord y) {
    c.add_shape(Layer::NDiff, Rect::xywh(x, y, 110, 50));
    c.add_shape(Layer::Poly, Rect::xywh(x + 70, y - 20, 20, 90));
    c.add_shape(Layer::Contact, Rect::xywh(x + 20, y + 15, 20, 20));
    c.add_shape(Layer::Metal1, Rect::xywh(x + 10, y + 5, 40, 40));
  }

  /// Two separate rects closer than the layer's spacing.
  void close_pair(geom::Cell& c, Layer l, Coord x, Coord y) {
    const Coord w = min_width(l) + uni(0, 20);
    const Coord gap = uni(1, min_space(l) - 1);
    c.add_shape(l, Rect::xywh(x, y, w, 80));
    c.add_shape(l, Rect::xywh(x + w + gap, y + uni(-40, 40), w, 80));
  }

  /// A U of three touching rects whose arms sit closer than the
  /// layer's spacing: one merged polygon, so exempt.
  void notch(geom::Cell& c, Layer l, Coord x, Coord y) {
    const Coord w = min_width(l) + uni(0, 10);
    const Coord gap = uni(1, min_space(l) - 1);
    c.add_shape(l, Rect::xywh(x, y, 2 * w + gap, w));
    c.add_shape(l, Rect::xywh(x, y + w, w, 80));
    c.add_shape(l, Rect::xywh(x + w + gap, y + w, w, 80));
  }

  void motif(geom::Cell& c, Coord x, Coord y) {
    static constexpr Layer kWires[] = {Layer::Poly, Layer::Metal1,
                                       Layer::Metal2, Layer::NDiff};
    const Layer wire = kWires[uni(0, 3)];
    switch (uni(0, 9)) {
      case 0:
        transistor(c, x, y);
        break;
      case 1:  // too narrow
        c.add_shape(wire, Rect::xywh(x, y, min_width(wire) - uni(1, 9),
                                     uni(40, 120)));
        break;
      case 2:
        close_pair(c, wire, x, y);
        break;
      case 3:
        notch(c, wire, x, y);
        break;
      case 4:  // contact under Metal1 with nothing (or too little) below
        c.add_shape(Layer::Contact, Rect::xywh(x + 20, y + 20, 20, 20));
        c.add_shape(Layer::Metal1, Rect::xywh(x + 10, y + 10, 40, 40));
        if (uni(0, 1))
          c.add_shape(Layer::PDiff, Rect::xywh(x + 15, y + 15, 30, 30));
        break;
      case 5: {  // Via1 on Metal1, Metal2 missing or short of enclosure
        c.add_shape(Layer::Via1, Rect::xywh(x + 20, y + 20, 20, 20));
        c.add_shape(Layer::Metal1, Rect::xywh(x + 10, y + 10, 40, 40));
        if (uni(0, 1))
          c.add_shape(Layer::Metal2, Rect::xywh(x + 15, y + 10, 40, 40));
        break;
      }
      case 6:  // a clean Via2 landing
        c.add_shape(Layer::Via2, Rect::xywh(x + 20, y + 20, 20, 20));
        c.add_shape(Layer::Metal2, Rect::xywh(x + 10, y + 10, 40, 40));
        c.add_shape(Layer::Metal3, Rect::xywh(x + 5, y + 5, 50, 50));
        break;
      case 7:  // pdiff deep inside its n-well
        c.add_shape(Layer::NWell, Rect::xywh(x, y, 140, 140));
        c.add_shape(Layer::PDiff, Rect::xywh(x + 50, y + 50, 40, 40));
        break;
      case 8:  // pdiff with too little (or no) n-well around it
        if (uni(0, 1))
          c.add_shape(Layer::NWell, Rect::xywh(x, y, 120, 120));
        c.add_shape(Layer::PDiff, Rect::xywh(x + 40, y + 40, 40, 40));
        break;
      default:
        break;
    }
  }

  geom::CellPtr block(const std::string& name) {
    auto c = std::make_shared<geom::Cell>(name);
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        motif(*c, i * 160 + uni(-15, 15), j * 160 + uni(-15, 15));
    return c;
  }

  /// `count` Metal3 slivers narrower than the layer's minimum width in
  /// rows of 250, mostly at legal spacing, every 7th too close.
  geom::CellPtr comb(int count) {
    auto c = std::make_shared<geom::Cell>("COMB");
    const Coord w = min_width(Layer::Metal3) - 10;
    Coord x = 0;
    for (int k = 0; k < count; ++k) {
      if (k % 250 == 0) x = 0;
      c->add_shape(Layer::Metal3, Rect::xywh(x, (k / 250) * 300, w, 200));
      x += w + (k % 7 == 3 ? min_space(Layer::Metal3) - 10
                           : min_space(Layer::Metal3) + 10);
    }
    return c;
  }

  /// Top cell: the comb as the first instance, `kinds` block cells
  /// placed `copies` times each on a grid with a few shapes of its
  /// own, and the comb again, at the same spot, as the last instance.
  geom::CellPtr top(int kinds, int copies, int comb_count) {
    auto top = std::make_shared<geom::Cell>("TOP");
    const geom::CellPtr teeth = comb(comb_count);
    const auto comb_at = geom::Transform::translate(0, -40000);
    top->add_instance("combA", teeth, comb_at);
    int placed = 0;
    for (int k = 0; k < kinds; ++k) {
      const geom::CellPtr cell = block("BLOCK" + std::to_string(k));
      for (int r = 0; r < copies; ++r, ++placed)
        top->add_instance("u" + std::to_string(placed), cell,
                          geom::Transform::translate((placed % 8) * 700,
                                                     (placed / 8) * 700));
    }
    for (int s = 0; s < 6; ++s)
      motif(*top, uni(0, 5000), uni(0, 5000));
    top->add_instance("combB", teeth, comb_at);
    return top;
  }

 private:
  std::mt19937_64 rng_;
};

drc::DrcOptions unbounded() {
  drc::DrcOptions opt;
  opt.max_violations = std::size_t{1} << 30;
  return opt;
}

void expect_identical(const std::vector<drc::Violation>& got,
                      const std::vector<drc::Violation>& want,
                      const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const drc::Violation& a = got[i];
    const drc::Violation& b = want[i];
    ASSERT_TRUE(drc_key(a) == drc_key(b) && a.note == b.note &&
                a.path_a == b.path_a && a.path_b == b.path_b)
        << tag << " #" << i << ": " << drc::describe(a) << " vs "
        << drc::describe(b);
  }
}

/// Width, via-enclosure and well findings are one per (shape, note) in
/// both checkers, so they must agree as multisets, not only as sets.
std::map<std::tuple<test_support::DrcKey, std::string>, int>
per_shape_counts(const std::vector<drc::Violation>& vios) {
  std::map<std::tuple<test_support::DrcKey, std::string>, int> counts;
  for (const auto& v : vios)
    if (v.kind != drc::RuleKind::MinSpace) ++counts[{drc_key(v), v.note}];
  return counts;
}

/// Shape ids by (layer, rect, instance path): how a finding's emitter
/// and partner are recovered from the report. A duplicate within one
/// instance maps to its lowest id.
class ShapeIds {
 public:
  explicit ShapeIds(const geom::LayoutDB& db) {
    for (Layer l : geom::all_layers()) {
      const auto& rects = db.rects(l);
      for (std::uint32_t i = 0; i < rects.size(); ++i)
        ids_.emplace(key(l, rects[i], db.shape_path(l, i)), i);
    }
  }

  /// The id of the shape a finding names, or nullopt.
  std::optional<std::uint32_t> find(Layer l, const Rect& r,
                                    const std::string& path) const {
    const auto it = ids_.find(key(l, r, path));
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

 private:
  using Key = std::tuple<int, Coord, Coord, Coord, Coord, std::string>;
  static Key key(Layer l, const Rect& r, const std::string& path) {
    return {static_cast<int>(l), r.lo.x, r.lo.y, r.hi.x, r.hi.y, path};
  }
  std::map<Key, std::uint32_t> ids_;
};

/// Equal-key findings must come in (emitter id, partner id / lower-
/// before-upper) order.
void expect_ties_in_id_order(const std::vector<drc::Violation>& vios,
                             const ShapeIds& ids, const std::string& tag) {
  auto id_of = [&](Layer l, const Rect& r, const std::string& path) {
    const auto id = ids.find(l, r, path);
    EXPECT_TRUE(id.has_value()) << tag << ": no shape for a finding";
    return id.value_or(0);
  };
  auto order_of = [&](const drc::Violation& v) {
    const std::uint32_t second =
        v.kind == drc::RuleKind::MinSpace ? id_of(v.layer, v.b, v.path_b)
        : v.note.find("upper") != std::string::npos ? 1u
                                                    : 0u;
    return std::make_pair(id_of(v.layer, v.a, v.path_a), second);
  };
  int ties = 0;
  for (std::size_t i = 1; i < vios.size(); ++i) {
    if (drc_key(vios[i - 1]) != drc_key(vios[i])) continue;
    ++ties;
    ASSERT_LE(order_of(vios[i - 1]), order_of(vios[i]))
        << tag << " #" << i << ": " << drc::describe(vios[i]);
  }
  EXPECT_GT(ties, 0) << tag << ": the layout plants no equal-key findings";
}

TEST(DrcParallel, RandomLayoutsMatchReferenceAtEveryPoolWidth) {
  const drc::DrcOptions opt = unbounded();
  for (std::uint64_t seed : {1u, 2u}) {
    const std::string seed_tag = "seed " + std::to_string(seed);
    LayoutGen gen(seed);
    const geom::CellPtr top =
        gen.top(/*kinds=*/4, /*copies=*/12, /*comb_count=*/3 * 8192 + 900);
    const geom::LayoutDB db(*top, drc::tile_size_for(deck()));
    const ShapeIds ids(db);
    // The doubled comb spans more than three build chunks of Metal3.
    ASSERT_GT(db.rects(Layer::Metal3).size(),
              static_cast<std::size_t>(3 * drc::kBuildChunk));

    const auto reference = test_support::check_reference(*top, deck(), opt);
    const auto reference_keys = drc_key_set(reference);
    // Every rule, and both via sides, has planted findings.
    for (auto kind : {drc::RuleKind::MinWidth, drc::RuleKind::MinSpace,
                      drc::RuleKind::ViaEnclosure,
                      drc::RuleKind::WellCoverage})
      EXPECT_TRUE(std::any_of(reference.begin(), reference.end(),
                              [&](const drc::Violation& v) {
                                return v.kind == kind;
                              }))
          << seed_tag << " kind " << static_cast<int>(kind);
    for (const char* side : {"lower", "upper"})
      EXPECT_TRUE(std::any_of(reference.begin(), reference.end(),
                              [&](const drc::Violation& v) {
                                return v.note.find(side) != std::string::npos;
                              }))
          << seed_tag << " " << side;

    std::vector<drc::Violation> first;
    for (int width : {1, 2, 8}) {
      const std::string tag = seed_tag + " width " + std::to_string(width);
      const ScopedThreads pin(width);
      const auto got = drc::check(db, deck(), opt);
      EXPECT_EQ(drc_key_set(got), reference_keys) << tag;
      EXPECT_EQ(per_shape_counts(got), per_shape_counts(reference)) << tag;
      expect_ties_in_id_order(got, ids, tag);
      if (first.empty())
        first = got;
      else
        expect_identical(got, first, tag);

      // The call shape of a DSE compile: the check inside a worker.
      constexpr int kOuter = 2;
      std::vector<std::vector<drc::Violation>> nested(kOuter);
      parallel_for(
          kOuter, 1,
          [&](std::int64_t i) { nested[i] = drc::check(db, deck(), opt); },
          /*threads=*/kOuter);
      for (int i = 0; i < kOuter; ++i)
        expect_identical(nested[i], first,
                         tag + " nested " + std::to_string(i));
    }
  }
}

// The chunk-and-join helper both cold builds share: the parts land in
// range order, whatever the width.
TEST(DrcParallel, ParallelAppendJoinsChunksInRangeOrder) {
  for (int width : {1, 2, 8}) {
    const ScopedThreads pin(width);
    for (std::int64_t items : {0, 1, 99, 100, 101, 1000}) {
      std::vector<std::int64_t> out = {-1};
      parallel_append(items, 100, out,
                      [](std::int64_t lo, std::int64_t hi,
                         std::vector<std::int64_t>& part) {
                        for (std::int64_t i = lo; i < hi; ++i)
                          if (i % 3 != 0) part.push_back(i);
                      });
      std::vector<std::int64_t> want = {-1};
      for (std::int64_t i = 0; i < items; ++i)
        if (i % 3 != 0) want.push_back(i);
      EXPECT_EQ(out, want) << "width " << width << " items " << items;
    }
  }
}

// component_labels finds pairs a batch of 16 chunks at a time and
// merges each batch before the next. With 7-id chunks, 1,000 ids span
// nine batches, and the random pairs reach both forward and back across
// batch boundaries; the labels must equal each component's lowest id,
// found here by plain relaxation, at every pool width.
TEST(DrcParallel, ComponentLabelsMergeAcrossBatches) {
  constexpr std::uint32_t n = 1000;
  std::mt19937_64 rng(17);
  std::vector<std::vector<std::uint32_t>> partners(n);
  for (std::uint32_t i = 0; i < n; ++i)
    for (int k = 0; k < 2; ++k)
      if (rng() % 3 == 0)
        partners[i].push_back(static_cast<std::uint32_t>(rng() % n));
  const auto pack = [](std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
           std::max(a, b);
  };

  std::vector<std::uint32_t> want(n);
  for (std::uint32_t i = 0; i < n; ++i) want[i] = i;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j : partners[i]) {
        const std::uint32_t m = std::min(want[i], want[j]);
        if (want[i] != m || want[j] != m) changed = true;
        want[i] = want[j] = m;
      }
  }

  for (int width : {1, 2, 8}) {
    const ScopedThreads pin(width);
    const std::vector<std::uint32_t> got = component_labels(
        n, 7,
        [&](std::int64_t lo, std::int64_t hi,
            std::vector<std::uint64_t>& part) {
          for (auto i = static_cast<std::uint32_t>(lo); i < hi; ++i)
            for (std::uint32_t j : partners[i]) part.push_back(pack(i, j));
        });
    EXPECT_EQ(got, want) << "width " << width;
  }
}

}  // namespace
}  // namespace bisram
