#include "extract/extract.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/union_find.hpp"

namespace bisram::extract {

using geom::Layer;
using geom::LayoutDB;
using geom::Rect;

std::vector<Device> Extracted::gated_by(int net) const {
  std::vector<Device> out;
  for (const auto& d : devices)
    if (d.gate == net) out.push_back(d);
  return out;
}

std::vector<Device> Extracted::touching(int net) const {
  std::vector<Device> out;
  for (const auto& d : devices)
    if (d.source == net || d.drain == net) out.push_back(d);
  return out;
}

bool Extracted::channel_between(int a, int b) const {
  for (const auto& d : devices)
    if ((d.source == a && d.drain == b) || (d.source == b && d.drain == a))
      return true;
  return false;
}

// --- the extraction engine ---------------------------------------------------
//
// Pieces are the conducting rects connectivity is computed over: the
// diffusion shapes split at their gate crossings, plus every shape of
// the other conducting layers as-is. Piece-id space: diffusion split
// segments first — every NDiff shape's segments in shape order, then
// every PDiff shape's — then the step-2 layers' shapes verbatim, in
// {Poly, M1, M2, M3, Contact, Via1, Via2} order. The caches below are
// keyed so that after an edit the surviving pieces renumber by pure
// prefix arithmetic: per-shape segment lists for the diffusion blocks,
// the LayoutDB's own shape ids for the step-2 blocks.

namespace {

/// True when `poly` spans `diff` in y: a vertical gate, which splits
/// the diffusion along x (a poly covering both ways counts as vertical).
bool spans_y(const Rect& poly, const Rect& diff) {
  return poly.lo.y <= diff.lo.y && poly.hi.y >= diff.hi.y;
}

/// True when `poly` fully crosses `diff` (a transistor gate).
bool crosses(const Rect& poly, const Rect& diff) {
  const Rect x = poly.intersection(diff);
  if (x.empty()) return false;
  const bool horizontal = poly.lo.x <= diff.lo.x && poly.hi.x >= diff.hi.x;
  return spans_y(poly, diff) || horizontal;
}

/// Step-2 piece layers, in piece-id order.
constexpr Layer kStep2[] = {Layer::Poly,    Layer::Metal1, Layer::Metal2,
                            Layer::Metal3,  Layer::Contact, Layer::Via1,
                            Layer::Via2};
constexpr std::size_t kStep2Count = sizeof(kStep2) / sizeof(kStep2[0]);

int step2_slot(Layer l) {
  for (std::size_t t = 0; t < kStep2Count; ++t)
    if (kStep2[t] == l) return static_cast<int>(t);
  return -1;
}

/// Layers a piece on `l` electrically merges with, as adjacency lists
/// for targeted index queries: same-layer shapes merge on touch, vias
/// merge with their adjacent layers, and poly never merges with
/// diffusion (that is a gate). The relation is symmetric.
const std::vector<Layer>& connect_targets(Layer l) {
  static const std::vector<Layer> none;
  static const std::vector<Layer> table[] = {
      /*NDiff*/ {Layer::NDiff, Layer::Contact},
      /*PDiff*/ {Layer::PDiff, Layer::Contact},
      /*Poly*/ {Layer::Poly, Layer::Contact},
      /*Metal1*/ {Layer::Metal1, Layer::Contact, Layer::Via1},
      /*Metal2*/ {Layer::Metal2, Layer::Via1, Layer::Via2},
      /*Metal3*/ {Layer::Metal3, Layer::Via2},
      /*Contact*/ {Layer::Metal1, Layer::Poly, Layer::NDiff, Layer::PDiff},
      /*Via1*/ {Layer::Metal1, Layer::Metal2},
      /*Via2*/ {Layer::Metal2, Layer::Metal3},
  };
  switch (l) {
    case Layer::NDiff: return table[0];
    case Layer::PDiff: return table[1];
    case Layer::Poly: return table[2];
    case Layer::Metal1: return table[3];
    case Layer::Metal2: return table[4];
    case Layer::Metal3: return table[5];
    case Layer::Contact: return table[6];
    case Layer::Via1: return table[7];
    case Layer::Via2: return table[8];
    default: return none;
  }
}

constexpr std::uint32_t kNoPiece = 0xffffffffu;

/// One device site of a diffusion shape's split, in local segment
/// coordinates. gate_pid is the Poly shape id of the crossing gate; any
/// shape of the gate's merged poly net would do, since only its
/// component root feeds net_of.
struct LocalSite {
  geom::Coord w = 0;  // channel extent across the gate
  geom::Coord l = 0;  // ... and along it
  std::uint32_t gate_pid = 0;
  std::uint32_t left = 0;  // local segment index
  std::uint32_t right = 0;
};

/// The split of one diffusion shape.
struct Entry {
  std::vector<Rect> segs;
  std::vector<LocalSite> sites;
};

/// Piece-id layout (prefix sums).
struct Blocks {
  std::array<std::vector<std::uint32_t>, 2> entry_start;  // per-shape, n+1
  std::array<std::uint32_t, kStep2Count> step2_start;
  std::uint32_t total = 0;
};

Layer diff_layer(int dl_i) { return dl_i == 0 ? Layer::NDiff : Layer::PDiff; }

/// extract()'s build over one database: the diffusion split, edge
/// discovery, and net numbering.
class Builder {
 public:
  Builder(const LayoutDB& db, const tech::Tech& tech)
      : db_(db), um_per_dbu_(tech.lambda_um / 10.0), wire_(tech.elec.wire) {}

  /// Every diffusion shape is split and every piece's edges are
  /// discovered, both on the campaign pool; the edges are merged into
  /// component labels a batch at a time (util/union_find.hpp), which
  /// depend only on the connectivity, so the result is the same at any
  /// thread count.
  Extracted run() {
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& rects = db_.rects(diff_layer(dl_i));
      auto& es = entries_[dl_i];
      es.resize(rects.size());
      parallel_for(static_cast<std::int64_t>(rects.size()), kBuildChunk,
                   [&](std::int64_t s) { es[s] = compute_entry(rects[s]); });
    }
    const Blocks b = blocks();

    // Every piece points straight at its component's lowest piece.
    const std::vector<std::uint32_t> parent = component_labels(
        b.total, kBuildChunk,
        [&](std::int64_t lo, std::int64_t hi,
            std::vector<std::uint64_t>& part) {
          for_each_piece(static_cast<std::uint32_t>(lo),
                         static_cast<std::uint32_t>(hi), b,
                         [&](Layer l, const Rect& r, std::uint32_t g) {
                           discover(l, r, g, b, part);
                         });
        });
    Extracted out;
    out.devices = lay_out_devices();
    number_nets(b, parent, out);
    return out;
  }

 private:
  /// Splits one diffusion rect at the poly gates that fully cross it:
  /// the gates, collected in poly-id order, are sorted along the split
  /// axis (x when the first gate is vertical), and the segments between
  /// them become the rect's pieces. Gate edges are clamped into the
  /// rect, so no piece leaves it; a gate flush with an edge, or two
  /// abutting gates, leave a zero-width segment. Each gate is one device
  /// site between its two segments, sized by its own orientation.
  Entry compute_entry(const Rect& diff) const {
    Entry e;
    const auto& polys = db_.rects(Layer::Poly);
    std::vector<std::uint32_t> pids;
    std::vector<Rect> gates;
    db_.index(Layer::Poly).for_each_in(diff, [&](std::uint32_t pid) {
      if (crosses(polys[pid], diff)) {
        pids.push_back(pid);
        gates.push_back(polys[pid]);
      }
    });
    if (gates.empty()) {
      e.segs.push_back(diff);
      return e;
    }
    const bool split_x = spans_y(gates[0], diff);
    std::sort(gates.begin(), gates.end(), [&](const Rect& a, const Rect& b) {
      return split_x ? a.lo.x < b.lo.x : a.lo.y < b.lo.y;
    });
    auto cut = [&](const geom::Point& p) {
      return split_x ? std::clamp(p.x, diff.lo.x, diff.hi.x)
                     : std::clamp(p.y, diff.lo.y, diff.hi.y);
    };
    geom::Coord pos = split_x ? diff.lo.x : diff.lo.y;
    for (const Rect& g : gates) {
      const geom::Coord lo = cut(g.lo);
      e.segs.push_back(split_x ? Rect::ltrb(pos, diff.lo.y, lo, diff.hi.y)
                               : Rect::ltrb(diff.lo.x, pos, diff.hi.x, lo));
      pos = cut(g.hi);
    }
    e.segs.push_back(split_x
                         ? Rect::ltrb(pos, diff.lo.y, diff.hi.x, diff.hi.y)
                         : Rect::ltrb(diff.lo.x, pos, diff.hi.x, diff.hi.y));
    for (std::uint32_t g = 0; g < gates.size(); ++g) {
      const Rect channel = gates[g].intersection(diff);
      const bool vertical = spans_y(gates[g], diff);
      LocalSite s;
      s.w = vertical ? channel.height() : channel.width();
      s.l = vertical ? channel.width() : channel.height();
      s.gate_pid = kNoPiece;
      for (std::size_t k = 0; k < pids.size(); ++k)
        if (polys[pids[k]] == gates[g]) {
          s.gate_pid = pids[k];
          break;
        }
      s.left = g;
      s.right = g + 1;
      e.sites.push_back(s);
    }
    return e;
  }

  Blocks blocks() const {
    Blocks b;
    std::uint32_t acc = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& es = entries_[dl_i];
      b.entry_start[dl_i].resize(es.size() + 1);
      for (std::size_t s = 0; s < es.size(); ++s) {
        b.entry_start[dl_i][s] = acc;
        acc += static_cast<std::uint32_t>(es[s].segs.size());
      }
      b.entry_start[dl_i][es.size()] = acc;
    }
    for (std::size_t t = 0; t < kStep2Count; ++t) {
      b.step2_start[t] = acc;
      acc += static_cast<std::uint32_t>(db_.rects(kStep2[t]).size());
    }
    b.total = acc;
    return b;
  }

  /// Calls fn(layer, rect, id) for every piece id in [lo, hi), in order.
  template <typename Fn>
  void for_each_piece(std::uint32_t lo, std::uint32_t hi, const Blocks& b,
                      Fn&& fn) const {
    std::uint32_t g = lo;
    for (int dl_i = 0; dl_i < 2 && g < hi; ++dl_i) {
      const auto& start = b.entry_start[dl_i];
      if (g >= start.back()) continue;
      // Every shape has >= 1 segment, so the prefix sums strictly rise.
      auto s = static_cast<std::size_t>(
          std::upper_bound(start.begin(), start.end(), g) - start.begin() - 1);
      for (; s + 1 < start.size() && g < hi; ++s) {
        const auto& segs = entries_[dl_i][s].segs;
        for (std::uint32_t t = g - start[s]; t < segs.size() && g < hi; ++t)
          fn(diff_layer(dl_i), segs[t], g++);
      }
    }
    for (std::size_t t = 0; t < kStep2Count && g < hi; ++t) {
      const auto& rects = db_.rects(kStep2[t]);
      const std::uint32_t base = b.step2_start[t];
      const auto end = std::min<std::uint32_t>(
          hi, base + static_cast<std::uint32_t>(rects.size()));
      for (; g < end; ++g) fn(kStep2[t], rects[g - base], g);
    }
  }

  /// Appends to `found` the electrical adjacency edges (g, h) of piece g
  /// (on layer `from`, at `r`) with every higher piece id h, queried
  /// through the per-layer indexes and, for diffusion targets, the
  /// splits. Packed g<<32|h, so each unordered pair is kept once.
  void discover(Layer from, const Rect& r, std::uint32_t g, const Blocks& b,
                std::vector<std::uint64_t>& found) const {
    const auto keep = [&](std::uint32_t h) {
      if (h > g) found.push_back((static_cast<std::uint64_t>(g) << 32) | h);
    };
    for (Layer m : connect_targets(from)) {
      if (m == Layer::NDiff || m == Layer::PDiff) {
        const int mi = m == Layer::NDiff ? 0 : 1;
        db_.index(m).for_each_in(r, [&](std::uint32_t s) {
          const auto& segs = entries_[mi][s].segs;
          const std::uint32_t base = b.entry_start[mi][s];
          for (std::uint32_t t = 0; t < segs.size(); ++t)
            if (segs[t].intersects(r)) keep(base + t);
        });
      } else {
        const std::uint32_t base = b.step2_start[step2_slot(m)];
        db_.index(m).for_each_in(r, [&](std::uint32_t s) { keep(base + s); });
      }
    }
  }

  /// The lowest piece id on `layer` intersecting `window`, answered
  /// from the per-layer LayoutDB indexes and the splits.
  std::uint32_t first_piece(Layer layer, const Rect& window,
                            const Blocks& b) const {
    std::uint32_t found = kNoPiece;
    if (layer == Layer::NDiff || layer == Layer::PDiff) {
      const int dl_i = layer == Layer::NDiff ? 0 : 1;
      db_.index(layer).for_each_in(window, [&](std::uint32_t s) {
        if (found != kNoPiece) return;  // shape ids arrive ascending
        const auto& segs = entries_[dl_i][s].segs;
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          if (segs[t].intersects(window)) {
            found = b.entry_start[dl_i][s] + t;
            return;
          }
      });
      return found;
    }
    const int slot = step2_slot(layer);
    if (slot < 0) return kNoPiece;  // no pieces live on this layer
    db_.index(layer).for_each_in(window, [&](std::uint32_t s) {
      if (found == kNoPiece) found = b.step2_start[slot] + s;
    });
    return found;
  }

  /// One device per site, in shape then site order; number_nets() sets
  /// their net ids.
  std::vector<Device> lay_out_devices() const {
    std::size_t count = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (const Entry& e : entries_[dl_i]) count += e.sites.size();
    std::vector<Device> devs;
    devs.reserve(count);
    // Memoized provenance strings: devices repeat a small set of paths.
    std::vector<std::string> path_memo(db_.path_count());
    std::vector<char> path_done(db_.path_count(), 0);
    auto path_of = [&](std::uint32_t node) -> const std::string& {
      if (!path_done[node]) {
        path_memo[node] = db_.path_name(node);
        path_done[node] = 1;
      }
      return path_memo[node];
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& paths = db_.paths(diff_layer(dl_i));
      for (std::size_t k = 0; k < entries_[dl_i].size(); ++k)
        for (const LocalSite& site : entries_[dl_i][k].sites) {
          Device d;
          d.type = dl_i == 1 ? spice::MosType::Pmos : spice::MosType::Nmos;
          d.w_um = static_cast<double>(site.w) * um_per_dbu_;
          d.l_um = static_cast<double>(site.l) * um_per_dbu_;
          d.path = path_of(paths[k]);
          devs.push_back(std::move(d));
        }
    }
    return devs;
  }

  /// Numbers the nets of the components `parent` labels. Net ids are
  /// minted in visit order — devices, then ports, then capacitance in
  /// piece order — so they depend only on the connectivity partition,
  /// never on edge order.
  void number_nets(const Blocks& b, const std::vector<std::uint32_t>& parent,
                   Extracted& out) const {
    std::vector<int> root_net(b.total, -1);
    auto net_of = [&](std::uint32_t piece) {
      int& net = root_net[parent[piece]];
      if (net < 0) net = out.net_count++;
      return net;
    };

    const std::uint32_t poly_start = b.step2_start[0];
    std::size_t di = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::size_t s = 0; s < entries_[dl_i].size(); ++s) {
        const std::uint32_t base = b.entry_start[dl_i][s];
        for (const LocalSite& site : entries_[dl_i][s].sites) {
          Device& d = out.devices[di++];
          d.gate = net_of(poly_start + site.gate_pid);
          d.source = net_of(base + site.left);
          d.drain = net_of(base + site.right);
        }
      }

    for (const auto& port : db_.ports()) {
      const std::uint32_t i = first_piece(port.layer, port.rect, b);
      require(i != kNoPiece, "extract: port '" + port.name +
                                 "' touches no geometry on its layer");
      out.port_net[port.name] = net_of(i);
    }

    // Capacitance, folded per net in piece order. Vias and layers
    // without parasitics carry none (and mint no net), so whole blocks
    // are skipped.
    out.net_cap_f.assign(static_cast<std::size_t>(out.net_count), 0.0);
    auto add_cap = [&](Layer layer, const Rect& r, std::uint32_t i) {
      const auto& wp = wire_[static_cast<std::size_t>(layer)];
      const double w = static_cast<double>(r.width()) * um_per_dbu_;
      const double h = static_cast<double>(r.height()) * um_per_dbu_;
      const auto net = static_cast<std::size_t>(net_of(i));
      // net_of may mint a net here for a component no device or port
      // reached (isolated fill); grow the table rather than write past it.
      if (net >= out.net_cap_f.size()) out.net_cap_f.resize(net + 1, 0.0);
      out.net_cap_f[net] +=
          w * h * wp.cap_area_f_um2 + 2.0 * (w + h) * wp.cap_fringe_f_um;
    };
    auto has_cap = [&](Layer layer) {
      const auto& wp = wire_[static_cast<std::size_t>(layer)];
      return !geom::is_via(layer) &&
             (wp.cap_area_f_um2 != 0.0 || wp.cap_fringe_f_um != 0.0);
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      if (!has_cap(dl)) continue;
      for (std::size_t s = 0; s < entries_[dl_i].size(); ++s) {
        const auto& segs = entries_[dl_i][s].segs;
        const std::uint32_t base = b.entry_start[dl_i][s];
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          add_cap(dl, segs[t], base + t);
      }
    }
    for (std::size_t t = 0; t < kStep2Count; ++t) {
      if (!has_cap(kStep2[t])) continue;
      const auto& rects = db_.rects(kStep2[t]);
      for (std::uint32_t s = 0; s < rects.size(); ++s)
        add_cap(kStep2[t], rects[s], b.step2_start[t] + s);
    }
  }

  const LayoutDB& db_;
  double um_per_dbu_;
  std::array<tech::WireParams, geom::kLayerCount> wire_;
  std::array<std::vector<Entry>, 2> entries_;  // [0]=NDiff, [1]=PDiff
};

}  // namespace

Extracted extract(const geom::LayoutDB& db, const tech::Tech& tech) {
  return Builder(db, tech).run();
}

Extracted extract(const geom::Cell& top, const tech::Tech& tech) {
  return extract(geom::LayoutDB(top), tech);
}

}  // namespace bisram::extract
