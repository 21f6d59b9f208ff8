#include "extract/extract.hpp"

#include <algorithm>

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

}  // namespace

struct IncrementalExtract::Impl {
  /// One device site of a diffusion shape's split, in local segment
  /// coordinates. gate_pid is the Poly *shape id* of the crossing gate
  /// (renumbered through poly splices); any shape of the gate's merged
  /// poly net would do, since only its component root feeds net_of.
  struct LocalSite {
    geom::Coord w = 0;  // channel extent across the gate
    geom::Coord l = 0;  // ... and along it
    std::uint32_t gate_pid = 0;
    std::uint32_t left = 0;  // local segment index
    std::uint32_t right = 0;
  };
  /// The cached split of one diffusion shape.
  struct Entry {
    std::vector<Rect> segs;
    std::vector<LocalSite> sites;
  };
  /// Piece-id layout of the current state (prefix sums).
  struct Blocks {
    std::array<std::vector<std::uint32_t>, 2> entry_start;  // per-shape, n+1
    std::array<std::uint32_t, kStep2Count> step2_start;
    std::uint32_t total = 0;
  };

  const LayoutDB* db = nullptr;
  double um_per_dbu = 0;
  std::array<tech::WireParams, geom::kLayerCount> wire{};
  std::array<std::vector<Entry>, 2> entries;  // [0]=NDiff, [1]=PDiff
  std::vector<std::uint64_t> edges;           // packed (i<<32)|j, i<j
  Extracted out;

  static Layer diff_layer(int dl_i) {
    return dl_i == 0 ? Layer::NDiff : Layer::PDiff;
  }
  static std::uint64_t pack(std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  /// Splits one diffusion rect at the poly gates that fully cross it:
  /// the gates, collected in poly-id order, are sorted along the split
  /// axis (x when the first gate is vertical), and the segments between
  /// them become the rect's pieces. Gate edges are clamped into the
  /// rect, so no piece leaves it; a gate flush with an edge, or two
  /// abutting gates, leave a zero-width segment. Each gate is one device
  /// site between its two segments, sized by its own orientation.
  Entry compute_entry(const Rect& diff) const {
    Entry e;
    const auto& polys = db->rects(Layer::Poly);
    std::vector<std::uint32_t> pids;
    std::vector<Rect> gates;
    db->index(Layer::Poly).for_each_in(diff, [&](std::uint32_t pid) {
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
      const auto& es = entries[dl_i];
      b.entry_start[dl_i].resize(es.size() + 1);
      for (std::size_t s = 0; s < es.size(); ++s) {
        b.entry_start[dl_i][s] = acc;
        acc += static_cast<std::uint32_t>(es[s].segs.size());
      }
      b.entry_start[dl_i][es.size()] = acc;
    }
    for (std::size_t t = 0; t < kStep2Count; ++t) {
      b.step2_start[t] = acc;
      acc += static_cast<std::uint32_t>(db->rects(kStep2[t]).size());
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
        const auto& segs = entries[dl_i][s].segs;
        for (std::uint32_t t = g - start[s]; t < segs.size() && g < hi; ++t)
          fn(diff_layer(dl_i), segs[t], g++);
      }
    }
    for (std::size_t t = 0; t < kStep2Count && g < hi; ++t) {
      const auto& rects = db->rects(kStep2[t]);
      const std::uint32_t base = b.step2_start[t];
      const auto end = std::min<std::uint32_t>(
          hi, base + static_cast<std::uint32_t>(rects.size()));
      for (; g < end; ++g) fn(kStep2[t], rects[g - base], g);
    }
  }

  /// Appends to `found` the electrical adjacency edges of piece g (on
  /// layer `from`, at `r`), queried through the per-layer indexes and,
  /// for diffusion targets, the cached splits. is_new(layer, shape)
  /// tells whether a neighbour's shape is among those this pass visits;
  /// a pair of two such pieces is kept from its lower member's visit
  /// only.
  template <typename IsNew>
  void discover(Layer from, const Rect& r, std::uint32_t g, const Blocks& b,
                IsNew&& is_new, std::vector<std::uint64_t>& found) const {
    for (Layer m : connect_targets(from)) {
      if (m == Layer::NDiff || m == Layer::PDiff) {
        const int mi = m == Layer::NDiff ? 0 : 1;
        db->index(m).for_each_in(r, [&](std::uint32_t s) {
          const auto& segs = entries[mi][s].segs;
          const std::uint32_t base = b.entry_start[mi][s];
          const bool both_new = is_new(m, s);
          for (std::uint32_t t = 0; t < segs.size(); ++t) {
            if (!segs[t].intersects(r)) continue;
            const std::uint32_t h = base + t;
            if (h == g || (both_new && h < g)) continue;
            found.push_back(pack(std::min(g, h), std::max(g, h)));
          }
        });
      } else {
        const int slot = step2_slot(m);
        db->index(m).for_each_in(r, [&](std::uint32_t s) {
          const std::uint32_t h = b.step2_start[slot] + s;
          if (h == g || (is_new(m, s) && h < g)) return;
          found.push_back(pack(std::min(g, h), std::max(g, h)));
        });
      }
    }
  }

  /// The lowest piece id on `layer` intersecting `window`, answered
  /// from the per-layer LayoutDB indexes and the cached splits.
  std::uint32_t first_piece(Layer layer, const Rect& window,
                            const Blocks& b) const {
    std::uint32_t found = kNoPiece;
    if (layer == Layer::NDiff || layer == Layer::PDiff) {
      const int dl_i = layer == Layer::NDiff ? 0 : 1;
      db->index(layer).for_each_in(window, [&](std::uint32_t s) {
        if (found != kNoPiece) return;  // shape ids arrive ascending
        const auto& segs = entries[dl_i][s].segs;
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
    db->index(layer).for_each_in(window, [&](std::uint32_t s) {
      if (found == kNoPiece) found = b.step2_start[slot] + s;
    });
    return found;
  }

  /// Lays out out.devices, one per site in shape then site order.
  /// old_first(dl_i, k) is the index in `old` of the first device of a
  /// carried entry k, or kFresh for an entry (re)built by this pass,
  /// whose devices are minted here. Carried devices are moved, strings
  /// and all: only their net ids change, and number_nets() sets those.
  static constexpr std::size_t kFresh = ~std::size_t{0};
  template <typename OldFirst>
  void lay_out_devices(std::vector<Device>& old, OldFirst&& old_first) {
    std::size_t count = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (const Entry& e : entries[dl_i]) count += e.sites.size();
    std::vector<Device> devs;
    devs.reserve(count);
    // Memoized provenance strings: devices repeat a small set of paths.
    std::vector<std::string> path_memo(db->path_count());
    std::vector<char> path_done(db->path_count(), 0);
    auto path_of = [&](std::uint32_t node) -> const std::string& {
      if (!path_done[node]) {
        path_memo[node] = db->path_name(node);
        path_done[node] = 1;
      }
      return path_memo[node];
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& shapes = db->shapes(diff_layer(dl_i));
      for (std::size_t k = 0; k < entries[dl_i].size(); ++k) {
        const auto& sites = entries[dl_i][k].sites;
        const std::size_t from = old_first(dl_i, k);
        if (from != kFresh) {
          for (std::size_t i = 0; i < sites.size(); ++i)
            devs.push_back(std::move(old[from + i]));
          continue;
        }
        for (const LocalSite& site : sites) {
          Device d;
          d.type = dl_i == 1 ? spice::MosType::Pmos : spice::MosType::Nmos;
          d.w_um = static_cast<double>(site.w) * um_per_dbu;
          d.l_um = static_cast<double>(site.l) * um_per_dbu;
          d.path = path_of(shapes[k].path);
          devs.push_back(std::move(d));
        }
      }
    }
    out.devices = std::move(devs);
  }

  /// Unites the edges and numbers the nets. Net ids are minted in
  /// visit order — devices, then ports, then capacitance in piece
  /// order — so they depend only on the connectivity partition, never
  /// on edge order; every edit renumbers them, so this is a linear
  /// re-pass over all pieces.
  void number_nets(const Blocks& b) {
    // Every piece points straight at its component's lowest piece.
    const std::vector<std::uint32_t> parent =
        component_labels(b.total, edges);

    out.net_count = 0;
    out.port_net.clear();
    std::vector<int> root_net(b.total, -1);
    auto net_of = [&](std::uint32_t piece) {
      int& net = root_net[parent[piece]];
      if (net < 0) net = out.net_count++;
      return net;
    };

    const std::uint32_t poly_start = b.step2_start[0];
    std::size_t di = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::size_t s = 0; s < entries[dl_i].size(); ++s) {
        const std::uint32_t base = b.entry_start[dl_i][s];
        for (const LocalSite& site : entries[dl_i][s].sites) {
          Device& d = out.devices[di++];
          d.gate = net_of(poly_start + site.gate_pid);
          d.source = net_of(base + site.left);
          d.drain = net_of(base + site.right);
        }
      }

    for (const auto& port : db->ports()) {
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
      const auto& wp = wire[static_cast<std::size_t>(layer)];
      const double w = static_cast<double>(r.width()) * um_per_dbu;
      const double h = static_cast<double>(r.height()) * um_per_dbu;
      const auto net = static_cast<std::size_t>(net_of(i));
      // net_of may mint a net here for a component no device or port
      // reached (isolated fill); grow the table rather than write past it.
      if (net >= out.net_cap_f.size()) out.net_cap_f.resize(net + 1, 0.0);
      out.net_cap_f[net] +=
          w * h * wp.cap_area_f_um2 + 2.0 * (w + h) * wp.cap_fringe_f_um;
    };
    auto has_cap = [&](Layer layer) {
      const auto& wp = wire[static_cast<std::size_t>(layer)];
      return !geom::is_via(layer) &&
             (wp.cap_area_f_um2 != 0.0 || wp.cap_fringe_f_um != 0.0);
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      if (!has_cap(dl)) continue;
      for (std::size_t s = 0; s < entries[dl_i].size(); ++s) {
        const auto& segs = entries[dl_i][s].segs;
        const std::uint32_t base = b.entry_start[dl_i][s];
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          add_cap(dl, segs[t], base + t);
      }
    }
    for (std::size_t t = 0; t < kStep2Count; ++t) {
      if (!has_cap(kStep2[t])) continue;
      const auto& rects = db->rects(kStep2[t]);
      for (std::uint32_t s = 0; s < rects.size(); ++s)
        add_cap(kStep2[t], rects[s], b.step2_start[t] + s);
    }
  }

  /// The cold build: every diffusion shape is split and every piece's
  /// edges are discovered, both on the campaign pool. Each chunk of
  /// pieces fills its own edge list and the lists are joined in chunk
  /// order, so the edge list — and with it the whole result — is the
  /// same at any thread count. Every piece is new, so discover's
  /// both-new dedup keeps each unordered pair exactly once.
  void init() {
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& rects = db->rects(diff_layer(dl_i));
      auto& es = entries[dl_i];
      es.resize(rects.size());
      parallel_for(static_cast<std::int64_t>(rects.size()), kBuildChunk,
                   [&](std::int64_t s) { es[s] = compute_entry(rects[s]); });
    }
    const Blocks b = blocks();

    const auto all_new = [](Layer, std::uint32_t) { return true; };
    parallel_append(
        b.total, kBuildChunk, edges,
        [&](std::int64_t lo, std::int64_t hi,
            std::vector<std::uint64_t>& part) {
          for_each_piece(static_cast<std::uint32_t>(lo),
                         static_cast<std::uint32_t>(hi), b,
                         [&](Layer l, const Rect& r, std::uint32_t g) {
                           discover(l, r, g, b, all_new, part);
                         });
        });
    std::vector<Device> none;
    lay_out_devices(none, [](int, std::size_t) { return kFresh; });
    number_nets(b);
  }

  void update(const geom::EditResult& edit) {
    bool touched = false;
    for (Layer l : {Layer::NDiff, Layer::PDiff, Layer::Poly, Layer::Metal1,
                    Layer::Metal2, Layer::Metal3, Layer::Contact, Layer::Via1,
                    Layer::Via2})
      touched = touched || edit.touches(l);
    if (!touched) return;  // nothing electrical changed; result is current

    const auto& sp_poly = edit.splice_of(Layer::Poly);
    const auto poly_dirty = edit.dirty_rects(Layer::Poly);

    // Capture the pre-edit piece and device layout before touching the
    // caches.
    std::array<std::vector<std::uint32_t>, 2> old_lens;
    std::array<std::vector<std::size_t>, 2> old_dev_first;
    std::size_t dev_acc = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      old_lens[dl_i].reserve(entries[dl_i].size());
      old_dev_first[dl_i].reserve(entries[dl_i].size());
      for (const Entry& e : entries[dl_i]) {
        old_lens[dl_i].push_back(static_cast<std::uint32_t>(e.segs.size()));
        old_dev_first[dl_i].push_back(dev_acc);
        dev_acc += e.sites.size();
      }
    }
    std::array<std::uint32_t, kStep2Count> old_step2_count;
    for (std::size_t t = 0; t < kStep2Count; ++t)
      old_step2_count[t] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(db->rects(kStep2[t]).size()) -
          edit.splice_of(kStep2[t]).delta());

    // Refresh the diffusion splits: inserted shapes get fresh entries;
    // surviving shapes whose rect intersects the dirty poly region are
    // recomputed (their gate set may have changed); everything else is
    // carried, with cached gate poly ids renumbered through the poly
    // splice. fresh[k] marks entries whose old pieces are invalid.
    std::array<std::vector<char>, 2> fresh;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      const auto& sp = edit.splice_of(dl);
      const auto& rects = db->rects(dl);
      auto& es = entries[dl_i];
      if (sp.new_end < sp.old_end)
        es.erase(es.begin() + sp.new_end, es.begin() + sp.old_end);
      else
        es.insert(es.begin() + sp.old_end, sp.new_end - sp.old_end, Entry{});
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        es[k] = compute_entry(rects[k]);

      fresh[dl_i].assign(es.size(), 0);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        fresh[dl_i][k] = 1;
      for (const Rect& d : poly_dirty)
        for (std::uint32_t k : db->index(dl).ids_in(d))
          if (!fresh[dl_i][k]) {
            es[k] = compute_entry(rects[k]);
            fresh[dl_i][k] = 1;
          }
      if (!sp_poly.empty()) {
        for (std::size_t k = 0; k < es.size(); ++k) {
          if (fresh[dl_i][k]) continue;
          for (LocalSite& site : es[k].sites) {
            site.gate_pid = sp_poly.remap(site.gate_pid);
            ensure(site.gate_pid != geom::ShapeSplice::kRemoved,
                   "IncrementalExtract: gate poly vanished without "
                   "dirtying its diffusion");
          }
        }
      }
    }

    const Blocks nb = blocks();

    // Old-to-new piece id map (kNoPiece = the piece no longer exists).
    std::uint32_t old_total = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::uint32_t len : old_lens[dl_i]) old_total += len;
    // Old step-2 blocks start after all old diffusion pieces.
    std::array<std::uint32_t, kStep2Count> old_step2_start;
    {
      std::uint32_t acc = old_total;
      for (std::size_t t = 0; t < kStep2Count; ++t) {
        old_step2_start[t] = acc;
        acc += old_step2_count[t];
      }
      old_total = acc;
    }
    std::vector<std::uint32_t> pmap(old_total, kNoPiece);
    {
      std::uint32_t o = 0;
      for (int dl_i = 0; dl_i < 2; ++dl_i) {
        const auto& sp = edit.splice_of(diff_layer(dl_i));
        for (std::uint32_t s = 0; s < old_lens[dl_i].size(); ++s) {
          const std::uint32_t len = old_lens[dl_i][s];
          const std::uint32_t k = sp.remap(s);
          if (k != geom::ShapeSplice::kRemoved && !fresh[dl_i][k])
            for (std::uint32_t t = 0; t < len; ++t)
              pmap[o + t] = nb.entry_start[dl_i][k] + t;
          o += len;
        }
      }
      for (std::size_t t = 0; t < kStep2Count; ++t) {
        const auto& sp = edit.splice_of(kStep2[t]);
        for (std::uint32_t s = 0; s < old_step2_count[t]; ++s) {
          const std::uint32_t r = sp.remap(s);
          if (r != geom::ShapeSplice::kRemoved)
            pmap[old_step2_start[t] + s] = nb.step2_start[t] + r;
        }
      }
    }

    // Discover the edges of the new pieces: those of fresh entries and
    // of the step-2 splice ranges.
    auto is_new = [&](Layer m, std::uint32_t s) {
      if (m == Layer::NDiff || m == Layer::PDiff)
        return fresh[m == Layer::NDiff ? 0 : 1][s] != 0;
      const auto& sp = edit.splice_of(m);
      return s >= sp.begin && s < sp.new_end;
    };
    std::vector<std::uint64_t> found;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::size_t k = 0; k < entries[dl_i].size(); ++k) {
        if (!fresh[dl_i][k]) continue;
        const auto& segs = entries[dl_i][k].segs;
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          discover(diff_layer(dl_i), segs[t], nb.entry_start[dl_i][k] + t, nb,
                   is_new, found);
      }
    for (std::size_t t = 0; t < kStep2Count; ++t) {
      const auto& sp = edit.splice_of(kStep2[t]);
      const auto& rects = db->rects(kStep2[t]);
      for (std::uint32_t s = sp.begin; s < sp.new_end; ++s)
        discover(kStep2[t], rects[s], nb.step2_start[t] + s, nb, is_new,
                 found);
    }

    // Carry the surviving edges through pmap: each chunk compacts its
    // own range in place on the pool, then the kept runs are closed up
    // in chunk order and the new edges appended.
    const auto nedges = static_cast<std::int64_t>(edges.size());
    const std::int64_t chunks = (nedges + kBuildChunk - 1) / kBuildChunk;
    std::vector<std::int64_t> kept(static_cast<std::size_t>(chunks));
    parallel_for(chunks, 1, [&](std::int64_t c) {
      const std::int64_t lo = c * kBuildChunk;
      const std::int64_t hi = std::min(nedges, lo + kBuildChunk);
      std::int64_t w = lo;
      for (std::int64_t r = lo; r < hi; ++r) {
        const std::uint64_t e = edges[static_cast<std::size_t>(r)];
        const std::uint32_t a = pmap[static_cast<std::uint32_t>(e >> 32)];
        const std::uint32_t b2 = pmap[static_cast<std::uint32_t>(e)];
        if (a != kNoPiece && b2 != kNoPiece)
          edges[static_cast<std::size_t>(w++)] = pack(a, b2);
      }
      kept[static_cast<std::size_t>(c)] = w - lo;
    });
    auto w = edges.begin();
    for (std::int64_t c = 0; c < chunks; ++c) {
      const auto from = edges.begin() + c * kBuildChunk;
      w = from == w ? w + kept[static_cast<std::size_t>(c)]
                    : std::copy(from, from + kept[static_cast<std::size_t>(c)],
                                w);
    }
    edges.erase(w, edges.end());
    edges.insert(edges.end(), found.begin(), found.end());

    // Carried entries keep their devices; a carried shape's old index is
    // itself before the splice and shifted by the splice delta after it.
    lay_out_devices(out.devices, [&](int dl_i, std::size_t k) {
      if (fresh[dl_i][k]) return kFresh;
      const auto& sp = edit.splice_of(diff_layer(dl_i));
      const std::size_t o =
          k < sp.begin ? k
                       : static_cast<std::size_t>(
                             static_cast<std::int64_t>(k) - sp.delta());
      return old_dev_first[dl_i][o];
    });
    number_nets(nb);
  }
};

IncrementalExtract::IncrementalExtract(const geom::LayoutDB& db,
                                       const tech::Tech& tech)
    : impl_(std::make_unique<Impl>()) {
  impl_->db = &db;
  impl_->um_per_dbu = tech.lambda_um / 10.0;
  impl_->wire = tech.elec.wire;
  impl_->init();
}

IncrementalExtract::~IncrementalExtract() = default;

void IncrementalExtract::update(const geom::EditResult& edit) {
  impl_->update(edit);
}

const Extracted& IncrementalExtract::result() const { return impl_->out; }

Extracted extract(const geom::LayoutDB& db, const tech::Tech& tech) {
  IncrementalExtract engine(db, tech);
  return std::move(engine.impl_->out);
}

Extracted extract(const geom::Cell& top, const tech::Tech& tech) {
  return extract(geom::LayoutDB(top), tech);
}

}  // namespace bisram::extract
