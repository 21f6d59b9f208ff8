// The parallel extraction engine against the monolithic reference
// extractor (support/extract_reference.hpp): extract::extract must
// equal it bit for bit — devices with paths, port nets, net capacitance
// — at every pool width, on seeded random layouts that exercise every
// conducting layer and the diffusion split's corner cases, and on a
// compiled macro. A nested-pool case guards the call shape a DSE
// compile produces (extraction inside a parallel_for worker). The
// diffusion split's rules are also pinned by hand: small layouts whose
// devices, W/L, source/drain nets and piece extents (through each
// piece's capacitance) are written out in the tests, checked against
// both the engine and the reference.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "extract/extract.hpp"
#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "spice/netlist.hpp"
#include "support/extract_reference.hpp"
#include "support/scoped_threads.hpp"
#include "tech/tech.hpp"
#include "util/parallel.hpp"

namespace bisram {
namespace {

using geom::Coord;
using geom::Layer;
using geom::Rect;
using test_support::expect_same_extraction;
using test_support::ScopedThreads;

/// Random layout generator. Each cluster is a CMOS stage: an NDiff and
/// a PDiff stripe crossed by one shared gate plus 0-2 extra gates per
/// stripe — vertical or horizontal, some flush with a stripe edge or
/// abutting the previous gate, so the split leaves zero-width pieces,
/// and a few straddling the stripe's end or turned across the others —
/// a poly that overlaps a stripe without crossing it, and source/drain
/// contacts under stacked Via1/Via2 towers up to Metal3.
class LayoutGen {
 public:
  explicit LayoutGen(std::uint64_t seed) : rng_(seed) {}

  Coord uni(Coord lo, Coord hi) {
    return std::uniform_int_distribution<Coord>(lo, hi)(rng_);
  }
  bool chance(int one_in) { return uni(1, one_in) == 1; }

  /// Contact + Metal1, then (sometimes) Via1 + Metal2 and Via2 + Metal3
  /// on the same footprint: a via stack.
  void tower(geom::Cell& c, Coord x, Coord y) {
    const Rect cut = Rect::xywh(x, y, 4, 4);
    c.add_shape(Layer::Contact, cut);
    c.add_shape(Layer::Metal1, Rect::xywh(x - 2, y - 2, 8, 8));
    if (!chance(2)) return;
    c.add_shape(Layer::Via1, cut);
    c.add_shape(Layer::Metal2, Rect::xywh(x - 2, y - 2, 8, 8));
    if (!chance(2)) return;
    c.add_shape(Layer::Via2, cut);
    c.add_shape(Layer::Metal3, Rect::xywh(x - 3, y - 3, 10, 10));
  }

  /// Extra gates across `diff`: vertical ones split it along x,
  /// horizontal ones along y.
  void gates(geom::Cell& c, const Rect& diff, bool vertical) {
    const int n = static_cast<int>(uni(0, 2));
    Coord pos = vertical ? diff.lo.x : diff.lo.y;
    const Coord end = vertical ? diff.hi.x : diff.hi.y;
    for (int g = 0; g < n; ++g) {
      const Coord w = uni(2, 6);
      Coord at = pos + uni(0, 12);
      if (chance(5)) at = pos;  // flush with the edge or the last gate
      if (at + w > end) break;
      const Rect poly =
          vertical ? Rect::ltrb(at, diff.lo.y - 4, at + w, diff.hi.y + 4)
                   : Rect::ltrb(diff.lo.x - 4, at, diff.hi.x + 4, at + w);
      c.add_shape(Layer::Poly, poly);
      pos = at + w;
    }
    // Now and then a gate off the stripe's normal form: one straddling
    // its far end, or one turned across the others.
    if (chance(10))
      c.add_shape(Layer::Poly,
                  vertical ? Rect::ltrb(end - 2, diff.lo.y - 4, end + 3,
                                        diff.hi.y + 4)
                           : Rect::ltrb(diff.lo.x - 4, end - 2, diff.hi.x + 4,
                                        end + 3));
    if (chance(10))
      c.add_shape(Layer::Poly,
                  vertical ? Rect::ltrb(diff.lo.x - 4, diff.lo.y + 2,
                                        diff.hi.x + 4, diff.lo.y + 5)
                           : Rect::ltrb(diff.lo.x + 2, diff.lo.y - 4,
                                        diff.lo.x + 5, diff.hi.y + 4));
  }

  /// A cluster in an 80 x 80 DBU box at (x, y). Vertical clusters stack
  /// the stripes in y under a vertical shared gate; horizontal ones are
  /// the same stage turned a quarter.
  void cluster(geom::Cell& c, Coord x, Coord y) {
    const bool vertical = !chance(3);
    // Along = the stripe's long axis, across = the stacking axis.
    const Coord len = uni(24, 60);
    const Coord wn = uni(10, 20), wp = uni(10, 20);
    const Coord gat = uni(6, len - 8);
    auto box = [&](Coord along, Coord across, Coord l, Coord w) {
      return vertical ? Rect::xywh(x + along, y + across, l, w)
                      : Rect::xywh(x + across, y + along, w, l);
    };
    const Rect ndiff = box(0, 0, len, wn);
    const Rect pdiff = box(0, wn + 12, len, wp);
    const Coord top = wn + 12 + wp;
    c.add_shape(Layer::NDiff, ndiff);
    c.add_shape(Layer::PDiff, pdiff);
    // The shared gate crosses both stripes; a contact on its far end
    // ties it to Metal1.
    c.add_shape(Layer::Poly, box(gat, -4, 4, top + 14));
    const Rect gate_cut = box(gat, top + 4, 4, 4);
    c.add_shape(Layer::Contact, gate_cut);
    c.add_shape(Layer::Metal1, gate_cut.expanded(2));
    gates(c, ndiff, vertical);
    gates(c, pdiff, vertical);
    if (chance(4))  // overlaps the stripe but crosses neither way
      c.add_shape(Layer::Poly, box(1, 2, 3, 4));
    if (chance(3)) {
      const Rect r = box(1, 1, 4, 4);
      tower(c, r.lo.x, r.lo.y);
    }
    if (chance(3)) {
      const Rect r = box(len - 5, top - 5, 4, 4);
      tower(c, r.lo.x, r.lo.y);
    }
    // A Metal1 rail past the far end, sometimes tied to the PDiff.
    if (chance(2)) {
      c.add_shape(Layer::Metal1, box(-8, top + 14, len + 16, 4));
      if (chance(2)) c.add_shape(Layer::Contact, box(2, top - 5, 4, 4));
    }
  }

  /// One leaf cell: an n x n grid of clusters at a 100-DBU pitch.
  geom::CellPtr leaf(const std::string& name, int n) {
    auto c = std::make_shared<geom::Cell>(name);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) cluster(*c, i * 100, j * 100);
    return c;
  }

  /// Top cell: `kinds` distinct leaves placed `copies` times each in all
  /// eight orientations (so gates of both directions come from every
  /// leaf), long Metal2/Metal3 straps across the placements, and one
  /// port on every conducting layer.
  geom::CellPtr top(int kinds, int copies, int n) {
    auto top = std::make_shared<geom::Cell>("TOP");
    const Coord pitch = 100 * n + 200;
    int placed = 0;
    for (int k = 0; k < kinds; ++k) {
      const geom::CellPtr cell = leaf("LEAF" + std::to_string(k), n);
      for (int r = 0; r < copies; ++r, ++placed) {
        const auto orient = static_cast<geom::Orient>(uni(0, 7));
        const geom::Point at{(placed % 4) * pitch + uni(-40, 40),
                             (placed / 4) * pitch + uni(-40, 40)};
        top->add_instance("u" + std::to_string(placed), cell,
                          geom::Transform(orient, at));
      }
    }
    // Rotated placements reach one pitch below and left of their slot.
    const Coord wide = 5 * pitch, high = (placed / 4 + 2) * pitch;
    for (int s = 0; s < 40; ++s) {
      top->add_shape(Layer::Metal2,
                     Rect::xywh(uni(-pitch, wide), -pitch, 6, high));
      top->add_shape(Layer::Metal3,
                     Rect::xywh(-pitch, uni(-pitch, high), wide, 6));
    }
    // Ports sit on top-level shapes so every one touches its layer.
    for (Layer l : {Layer::NDiff, Layer::PDiff, Layer::Poly, Layer::Metal1,
                    Layer::Metal2, Layer::Metal3, Layer::Contact, Layer::Via1,
                    Layer::Via2}) {
      const Rect r = Rect::xywh(uni(0, wide), uni(0, high), 8, 8);
      top->add_shape(l, r);
      top->add_port("P" + std::to_string(static_cast<int>(l)), l, r);
    }
    return top;
  }

 private:
  std::mt19937_64 rng_;
};

const tech::Tech& deck() { return tech::cda_07(); }

TEST(ExtractParallel, RandomLayoutsMatchReferenceAtEveryPoolWidth) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    LayoutGen gen(seed);
    const geom::CellPtr top = gen.top(/*kinds=*/4, /*copies=*/8, /*n=*/24);
    const geom::LayoutDB db(*top);
    // Several build chunks of pieces, and more than one of diffusion
    // shapes, so both parallel passes really split their work.
    ASSERT_GT(db.rects(Layer::NDiff).size(),
              static_cast<std::size_t>(extract::kBuildChunk));
    ASSERT_GT(db.shape_count(),
              static_cast<std::size_t>(8 * extract::kBuildChunk));

    const extract::Extracted want =
        test_support::extract_reference(db, deck());
    ASSERT_GT(want.devices.size(), 0u);
    ASSERT_EQ(want.port_net.size(), 9u);
    for (int threads : {1, 2, 8}) {
      const ScopedThreads scope(threads);
      expect_same_extraction(extract::extract(db, deck()), want,
                             "seed " + std::to_string(seed) + " threads " +
                                 std::to_string(threads));
    }
  }
}

TEST(ExtractParallel, CompiledMacroMatchesReferenceAtEveryPoolWidth) {
  core::RamSpec spec;
  spec.words = 256;
  spec.bpw = 32;
  spec.bpc = 4;
  const core::Generated g = core::Compiler().run(spec);
  const tech::Tech& t = spec.resolved_technology();
  const geom::LayoutDB db(*g.top);
  ASSERT_GT(db.shape_count(), static_cast<std::size_t>(extract::kBuildChunk));
  const extract::Extracted want = test_support::extract_reference(db, t);
  for (int threads : {1, 2, 8}) {
    const ScopedThreads scope(threads);
    expect_same_extraction(extract::extract(db, t), want,
                           "threads " + std::to_string(threads));
  }
}

// A DSE sweep compiles points inside parallel_for workers, and each
// compile extracts (sta::characterize). A multi-chunk extraction there
// opens a pool section inside a pool section; it must finish and agree
// with the serial result.
TEST(ExtractParallel, NestedInsideAPoolWorkerMatchesSerial) {
  LayoutGen gen(7);
  const geom::CellPtr top = gen.top(/*kinds=*/2, /*copies=*/8, /*n=*/24);
  const geom::LayoutDB db(*top);
  ASSERT_GT(db.shape_count(),
            static_cast<std::size_t>(4 * extract::kBuildChunk));

  extract::Extracted serial;
  {
    const ScopedThreads scope(1);
    serial = extract::extract(db, deck());
  }
  const ScopedThreads scope(4);
  constexpr int kOuter = 4;
  std::vector<extract::Extracted> nested(kOuter);
  parallel_for(
      kOuter, 1,
      [&](std::int64_t i) { nested[i] = extract::extract(db, deck()); },
      /*threads=*/kOuter);
  for (int i = 0; i < kOuter; ++i)
    expect_same_extraction(nested[i], serial,
                           "outer item " + std::to_string(i));
}

// --- hand-computed answers ---------------------------------------------------
//
// cda.7u3m1p: 0.035 um per DBU; NDiff carries area capacitance only, so
// a diffusion net's capacitance is its piece's area and a zero-width
// piece's is exactly 0.

/// The capacitance extraction charges a rect on `l` (DBU extents).
double cap_of(Layer l, Coord w, Coord h) {
  const auto& wp = deck().elec.wire[static_cast<std::size_t>(l)];
  const double u = deck().lambda_um / 10.0;
  const double wu = static_cast<double>(w) * u;
  const double hu = static_cast<double>(h) * u;
  return wu * hu * wp.cap_area_f_um2 + 2.0 * (wu + hu) * wp.cap_fringe_f_um;
}

/// Runs `check` on the engine's and on the reference's answer.
template <typename Check>
void for_both(const geom::Cell& c, Check&& check) {
  check(extract::extract(c, deck()), "engine");
  check(test_support::extract_reference(geom::LayoutDB(c), deck()),
        "reference");
}

TEST(ExtractGeometry, HorizontalGateTakesItsWidthAlongTheStripe) {
  // A vertical NDiff stripe 40 x 100 crossed by a horizontal gate at
  // y 40..50: pieces y 0..40 and 50..100, W = 40 (1.4 um), L = 10.
  geom::Cell c("T");
  c.add_shape(Layer::NDiff, Rect::ltrb(0, 0, 40, 100));
  c.add_shape(Layer::Poly, Rect::ltrb(-10, 40, 50, 50));
  c.add_port("G", Layer::Poly, Rect::ltrb(-10, 40, -5, 50));
  c.add_port("S", Layer::NDiff, Rect::ltrb(0, 0, 40, 10));
  c.add_port("D", Layer::NDiff, Rect::ltrb(0, 90, 40, 100));
  for_both(c, [](const extract::Extracted& x, const char* who) {
    ASSERT_EQ(x.devices.size(), 1u) << who;
    const extract::Device& d = x.devices[0];
    EXPECT_EQ(d.type, spice::MosType::Nmos) << who;
    EXPECT_DOUBLE_EQ(d.w_um, 1.4) << who;
    EXPECT_DOUBLE_EQ(d.l_um, 0.35) << who;
    // Nets are minted gate, source (the lower piece), drain.
    EXPECT_EQ(d.gate, 0) << who;
    EXPECT_EQ(d.source, 1) << who;
    EXPECT_EQ(d.drain, 2) << who;
    EXPECT_EQ(x.net_count, 3) << who;
    EXPECT_EQ(x.port_net.at("G"), 0) << who;
    EXPECT_EQ(x.port_net.at("S"), 1) << who;
    EXPECT_EQ(x.port_net.at("D"), 2) << who;
    ASSERT_EQ(x.net_cap_f.size(), 3u) << who;
    EXPECT_EQ(x.net_cap_f[0], cap_of(Layer::Poly, 60, 10)) << who;
    EXPECT_EQ(x.net_cap_f[1], cap_of(Layer::NDiff, 40, 40)) << who;
    EXPECT_EQ(x.net_cap_f[2], cap_of(Layer::NDiff, 40, 50)) << who;
  });
}

TEST(ExtractGeometry, GateFlushWithTheBottomEdgeLeavesAZeroHeightSource) {
  // The gate's low edge is the stripe's: the split still runs along y
  // (the gate does not span the stripe's height), leaving an empty
  // piece at y = 0 as the source and y 10..100 as the drain.
  geom::Cell c("T");
  c.add_shape(Layer::NDiff, Rect::ltrb(0, 0, 40, 100));
  c.add_shape(Layer::Poly, Rect::ltrb(-10, 0, 50, 10));
  c.add_port("D", Layer::NDiff, Rect::ltrb(0, 90, 40, 100));
  for_both(c, [](const extract::Extracted& x, const char* who) {
    ASSERT_EQ(x.devices.size(), 1u) << who;
    const extract::Device& d = x.devices[0];
    EXPECT_DOUBLE_EQ(d.w_um, 1.4) << who;
    EXPECT_DOUBLE_EQ(d.l_um, 0.35) << who;
    EXPECT_EQ(d.gate, 0) << who;
    EXPECT_EQ(d.source, 1) << who;
    EXPECT_EQ(d.drain, 2) << who;
    EXPECT_EQ(x.port_net.at("D"), 2) << who;
    ASSERT_EQ(x.net_cap_f.size(), 3u) << who;
    EXPECT_EQ(x.net_cap_f[1], 0.0) << who;
    EXPECT_EQ(x.net_cap_f[2], cap_of(Layer::NDiff, 40, 90)) << who;
  });
}

TEST(ExtractGeometry, GateHangingPastTheStripeEndIsClampedIntoIt) {
  // A horizontal stripe 100 x 20; a vertical gate at x 90..110 runs off
  // its right end. The channel is x 90..100 (W = 20, L = 10), and the
  // drain is the empty piece at x = 100, not a rect reaching out to 110.
  geom::Cell c("T");
  c.add_shape(Layer::NDiff, Rect::ltrb(0, 0, 100, 20));
  c.add_shape(Layer::Poly, Rect::ltrb(90, -10, 110, 30));
  for_both(c, [](const extract::Extracted& x, const char* who) {
    ASSERT_EQ(x.devices.size(), 1u) << who;
    const extract::Device& d = x.devices[0];
    EXPECT_DOUBLE_EQ(d.w_um, 0.7) << who;
    EXPECT_DOUBLE_EQ(d.l_um, 0.35) << who;
    EXPECT_EQ(d.source, 1) << who;
    EXPECT_EQ(d.drain, 2) << who;
    ASSERT_EQ(x.net_cap_f.size(), 3u) << who;
    EXPECT_EQ(x.net_cap_f[1], cap_of(Layer::NDiff, 90, 20)) << who;
    EXPECT_EQ(x.net_cap_f[2], 0.0) << who;
  });
}

TEST(ExtractGeometry, AbuttingGatesShareAZeroWidthPiece) {
  // Gates at x 30..40 and 40..50 touch, so they are one poly net; the
  // empty piece at x = 40 is the first device's drain and the second's
  // source.
  geom::Cell c("T");
  c.add_shape(Layer::NDiff, Rect::ltrb(0, 0, 100, 20));
  c.add_shape(Layer::Poly, Rect::ltrb(40, -10, 50, 30));
  c.add_shape(Layer::Poly, Rect::ltrb(30, -10, 40, 30));
  for_both(c, [](const extract::Extracted& x, const char* who) {
    ASSERT_EQ(x.devices.size(), 2u) << who;
    const extract::Device& a = x.devices[0];
    const extract::Device& b = x.devices[1];
    EXPECT_EQ(a.gate, 0) << who;
    EXPECT_EQ(b.gate, 0) << who;
    EXPECT_EQ(a.source, 1) << who;
    EXPECT_EQ(a.drain, 2) << who;
    EXPECT_EQ(b.source, 2) << who;
    EXPECT_EQ(b.drain, 3) << who;
    for (const extract::Device* d : {&a, &b}) {
      EXPECT_DOUBLE_EQ(d->w_um, 0.7) << who;
      EXPECT_DOUBLE_EQ(d->l_um, 0.35) << who;
    }
    ASSERT_EQ(x.net_cap_f.size(), 4u) << who;
    EXPECT_EQ(x.net_cap_f[0], cap_of(Layer::Poly, 10, 40) +
                                  cap_of(Layer::Poly, 10, 40))
        << who;
    EXPECT_EQ(x.net_cap_f[1], cap_of(Layer::NDiff, 30, 20)) << who;
    EXPECT_EQ(x.net_cap_f[2], 0.0) << who;
    EXPECT_EQ(x.net_cap_f[3], cap_of(Layer::NDiff, 50, 20)) << who;
  });
}

}  // namespace
}  // namespace bisram
