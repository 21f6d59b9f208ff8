#pragma once
// Test-only oracle for extract::extract: the monolithic flatten-and-scan
// extractor the library shipped before extraction became one parallel
// engine. It shares no code with src/extract — its own diffusion split,
// one global tile index over every piece, the connects() relation as a
// pair table, and std::map net numbering — so comparing the engine with
// it is an independent check of device recognition, connectivity, net
// numbering, ports and capacitance.
//
// Diffusion split: the gates crossing a diffusion are sorted along the
// split axis (x when the first gate spans the diffusion in y), gate
// edges are clamped into the diffusion so no piece leaves it, and each
// device is sized by its own gate's orientation.
//
// Net numbers are assigned in net_of() call order: devices (diffusion
// splits in shape order, gates per diffusion sorted along the split
// axis), then ports, then capacitance in piece order. "First piece
// matching" lookups take the minimum-id query hit, the piece a linear
// scan would have seen first.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"

namespace bisram::test_support {

namespace reference_detail {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

struct Piece {
  geom::Layer layer;
  geom::Rect rect;
  std::uint32_t path = 0;  ///< LayoutDB path node of the source shape
};

/// True when `poly` spans `diff` in y (a vertical gate).
inline bool vertical(const geom::Rect& poly, const geom::Rect& diff) {
  return poly.lo.y <= diff.lo.y && poly.hi.y >= diff.hi.y;
}

/// True when `poly` fully crosses `diff` (a transistor gate).
inline bool crosses(const geom::Rect& poly, const geom::Rect& diff) {
  const geom::Rect x = poly.intersection(diff);
  if (x.empty()) return false;
  const bool horizontal = poly.lo.x <= diff.lo.x && poly.hi.x >= diff.hi.x;
  return vertical(poly, diff) || horizontal;
}

}  // namespace reference_detail

/// Extracts `db` the way the monolithic extractor did.
inline extract::Extracted extract_reference(const geom::LayoutDB& db,
                                            const tech::Tech& tech) {
  using geom::Layer;
  using geom::Rect;
  using geom::TileIndex;
  using reference_detail::crosses;
  using reference_detail::vertical;
  using reference_detail::Piece;
  using reference_detail::UnionFind;
  using extract::Device;
  using extract::Extracted;

  // --- 1. split diffusion at gate crossings; collect device sites -------
  struct Site {
    bool pmos;
    bool vertical;      // the gate spans the diffusion in y
    Rect gate_poly;
    Rect channel;       // poly-diff intersection
    std::size_t left;   // piece ids filled after pieces are final
    std::size_t right;
    std::uint32_t path; // diffusion shape's provenance
  };
  std::vector<Piece> pieces;
  std::vector<Site> sites;

  const auto& polys = db.rects(Layer::Poly);
  const auto& poly_index = db.index(Layer::Poly);
  for (Layer dl : {Layer::NDiff, Layer::PDiff}) {
    const auto& diff_rects = db.rects(dl);
    const auto& diff_paths = db.paths(dl);
    for (std::size_t k = 0; k < diff_rects.size(); ++k) {
      const Rect& diff = diff_rects[k];
      const std::uint32_t path = diff_paths[k];
      // Gates crossing this diffusion, sorted along the stripe axis.
      std::vector<Rect> gates;
      poly_index.for_each_in(diff, [&](std::uint32_t pid) {
        if (crosses(polys[pid], diff)) gates.push_back(polys[pid]);
      });
      if (gates.empty()) {
        pieces.push_back({dl, diff, path});
        continue;
      }
      const bool split_x = vertical(gates[0], diff);
      std::sort(gates.begin(), gates.end(), [&](const Rect& a, const Rect& b) {
        return split_x ? a.lo.x < b.lo.x : a.lo.y < b.lo.y;
      });
      // Split coordinates stay inside the diffusion.
      const geom::Coord lo_end = split_x ? diff.lo.x : diff.lo.y;
      const geom::Coord hi_end = split_x ? diff.hi.x : diff.hi.y;
      geom::Coord pos = lo_end;
      std::vector<std::size_t> segment_ids;
      for (const Rect& g : gates) {
        const geom::Coord at =
            std::clamp(split_x ? g.lo.x : g.lo.y, lo_end, hi_end);
        const Rect seg = split_x ? Rect::ltrb(pos, diff.lo.y, at, diff.hi.y)
                                 : Rect::ltrb(diff.lo.x, pos, diff.hi.x, at);
        segment_ids.push_back(pieces.size());
        pieces.push_back({dl, seg, path});
        pos = std::clamp(split_x ? g.hi.x : g.hi.y, lo_end, hi_end);
      }
      const Rect last = split_x
                            ? Rect::ltrb(pos, diff.lo.y, diff.hi.x, diff.hi.y)
                            : Rect::ltrb(diff.lo.x, pos, diff.hi.x, diff.hi.y);
      segment_ids.push_back(pieces.size());
      pieces.push_back({dl, last, path});

      for (std::size_t g = 0; g < gates.size(); ++g) {
        Site site;
        site.pmos = dl == Layer::PDiff;
        site.vertical = vertical(gates[g], diff);
        site.gate_poly = gates[g];
        site.channel = gates[g].intersection(diff);
        site.left = segment_ids[g];
        site.right = segment_ids[g + 1];
        site.path = path;
        sites.push_back(site);
      }
    }
  }

  // --- 2. other conducting layers as-is ------------------------------------
  for (Layer l : {Layer::Poly, Layer::Metal1, Layer::Metal2, Layer::Metal3,
                  Layer::Contact, Layer::Via1, Layer::Via2})
    for (std::size_t k = 0; k < db.rects(l).size(); ++k)
      pieces.push_back({l, db.rects(l)[k], db.paths(l)[k]});

  // --- 3. connectivity ------------------------------------------------------
  // One tile index over every piece; each piece unites with its
  // overlapping electrical neighbors found by an indexed window query
  // (the j > i filter visits each unordered pair once).
  std::vector<Rect> piece_rects;
  piece_rects.reserve(pieces.size());
  for (const Piece& p : pieces) piece_rects.push_back(p.rect);
  const TileIndex piece_index(piece_rects, db.tile_size());

  UnionFind uf(pieces.size());
  auto connects = [&](Layer a, Layer b) {
    // Same-layer shapes merge on touch; vias merge with their adjacent
    // layers; poly never merges with diffusion (that is a gate).
    if (a == b) return a != Layer::Contact && a != Layer::Via1 && a != Layer::Via2;
    auto pair_is = [&](Layer x, Layer y) {
      return (a == x && b == y) || (a == y && b == x);
    };
    if (pair_is(Layer::Contact, Layer::Metal1)) return true;
    if (pair_is(Layer::Contact, Layer::Poly)) return true;
    if (pair_is(Layer::Contact, Layer::NDiff)) return true;
    if (pair_is(Layer::Contact, Layer::PDiff)) return true;
    if (pair_is(Layer::Via1, Layer::Metal1)) return true;
    if (pair_is(Layer::Via1, Layer::Metal2)) return true;
    if (pair_is(Layer::Via2, Layer::Metal2)) return true;
    if (pair_is(Layer::Via2, Layer::Metal3)) return true;
    return false;
  };
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& pi = pieces[i];
    piece_index.for_each_in(pi.rect, [&](std::uint32_t j) {
      if (j <= i) return;
      const Piece& pj = pieces[j];
      if (connects(pi.layer, pj.layer)) uf.unite(i, j);
    });
  }

  // --- 4. net numbering ------------------------------------------------------
  Extracted out;
  std::map<std::size_t, int> root_to_net;
  auto net_of = [&](std::size_t piece) {
    const std::size_t root = uf.find(piece);
    auto it = root_to_net.find(root);
    if (it != root_to_net.end()) return it->second;
    const int id = out.net_count++;
    root_to_net[root] = id;
    return id;
  };

  /// Lowest-id piece on `layer` intersecting `window` (the piece a
  /// linear scan would have found first), or pieces.size() when none.
  auto first_piece_on = [&](Layer layer, const Rect& window) {
    std::size_t found = pieces.size();
    piece_index.for_each_in(window, [&](std::uint32_t j) {
      if (found != pieces.size()) return;  // ids arrive in increasing order
      if (pieces[j].layer == layer && pieces[j].rect.intersects(window))
        found = j;
    });
    return found;
  };

  // --- 5. devices -------------------------------------------------------------
  auto poly_piece_net = [&](const Rect& gate) {
    const std::size_t i = first_piece_on(Layer::Poly, gate);
    if (i == pieces.size())
      throw InternalError("extract_reference: gate poly piece not found");
    return net_of(i);
  };
  const double um_per_dbu = tech.lambda_um / 10.0;
  for (const Site& s : sites) {
    Device d;
    d.type = s.pmos ? spice::MosType::Pmos : spice::MosType::Nmos;
    d.gate = poly_piece_net(s.gate_poly);
    d.source = net_of(s.left);
    d.drain = net_of(s.right);
    const geom::Coord w = s.vertical ? s.channel.height() : s.channel.width();
    const geom::Coord l = s.vertical ? s.channel.width() : s.channel.height();
    d.w_um = static_cast<double>(w) * um_per_dbu;
    d.l_um = static_cast<double>(l) * um_per_dbu;
    d.path = db.path_name(s.path);
    out.devices.push_back(d);
  }

  // --- 6. ports ---------------------------------------------------------------
  for (const auto& port : db.ports()) {
    const std::size_t i = first_piece_on(port.layer, port.rect);
    require(i != pieces.size(), "extract: port '" + port.name +
                                    "' touches no geometry on its layer");
    out.port_net[port.name] = net_of(i);
  }

  // --- 7. parasitic capacitance -------------------------------------------------
  out.net_cap_f.assign(static_cast<std::size_t>(out.net_count), 0.0);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& p = pieces[i];
    if (geom::is_via(p.layer)) continue;
    const auto& wp = tech.elec.wire[static_cast<std::size_t>(p.layer)];
    if (wp.cap_area_f_um2 == 0.0 && wp.cap_fringe_f_um == 0.0) continue;
    const double w = static_cast<double>(p.rect.width()) * um_per_dbu;
    const double h = static_cast<double>(p.rect.height()) * um_per_dbu;
    const int net = net_of(i);
    // net_of may mint a net here for a component no device or port
    // reached (isolated fill); grow the table rather than write past it.
    if (static_cast<std::size_t>(net) >= out.net_cap_f.size())
      out.net_cap_f.resize(static_cast<std::size_t>(net) + 1, 0.0);
    out.net_cap_f[static_cast<std::size_t>(net)] +=
        w * h * wp.cap_area_f_um2 + 2.0 * (w + h) * wp.cap_fringe_f_um;
  }
  return out;
}


/// Bitwise equality of two extractions: net count, port nets, net
/// capacitances and every device field, `tag` naming the case.
inline void expect_same_extraction(const extract::Extracted& got,
                                   const extract::Extracted& want,
                                   const std::string& tag) {
  EXPECT_EQ(got.net_count, want.net_count) << tag;
  EXPECT_TRUE(got.port_net == want.port_net) << tag;
  EXPECT_TRUE(got.net_cap_f == want.net_cap_f) << tag;  // bitwise
  ASSERT_EQ(got.devices.size(), want.devices.size()) << tag;
  for (std::size_t i = 0; i < got.devices.size(); ++i) {
    const extract::Device& a = got.devices[i];
    const extract::Device& b = want.devices[i];
    ASSERT_TRUE(a.type == b.type && a.gate == b.gate && a.source == b.source &&
                a.drain == b.drain && a.w_um == b.w_um && a.l_um == b.l_um &&
                a.path == b.path)
        << tag << " device " << i;
  }
}

}  // namespace bisram::test_support
