#include "geom/layout_snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace bisram::geom {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'R', 'L', 'Y', 'D', 'B', '\0'};
constexpr std::size_t kHeaderBytes = 32;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const std::string& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

// LEB128 varint; signed values zigzag-coded so small negatives stay small.
void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

void put_str(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out += s;
}

/// Bounds-checked payload reader. Every accessor reports at most one
/// diagnostic (the first failure) and turns all later reads into no-ops,
/// so the decode loop below can stay linear and still never touch a byte
/// past the end — the property the snap_* fuzz corpus hammers on.
class Decoder {
 public:
  Decoder(const std::string& buf, std::size_t begin, std::size_t end,
          DiagEngine& diag)
      : buf_(buf), data_(buf.data()), pos_(begin), end_(end), diag_(diag) {}

  bool failed() const { return failed_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return end_ - pos_; }

  bool fail(const char* code, std::string message) {
    if (!failed_) diag_.error(code, std::move(message));
    failed_ = true;
    return false;
  }

  bool u(std::uint64_t* v) {
    if (failed_) return false;
    // At most ten bytes; the bounds check is hoisted out of the loop.
    const std::size_t avail = std::min<std::size_t>(end_ - pos_, 10);
    const auto* p = reinterpret_cast<const unsigned char*>(data_ + pos_);
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < avail; ++i) {
      if (i == 9 && (p[i] & 0xfe))
        return fail("snapshot-bad-value", "varint wider than 64 bits");
      out |= static_cast<std::uint64_t>(p[i] & 0x7f) << (7 * i);
      if (!(p[i] & 0x80)) {
        pos_ += i + 1;
        *v = out;
        return true;
      }
    }
    return avail < 10
               ? fail("snapshot-truncated", "varint runs past the payload end")
               : fail("snapshot-bad-value", "varint wider than 64 bits");
  }

  /// Skips `n` varints by counting their terminator bytes. While n is at
  /// least a block, a whole block cannot pass the n-th terminator, so it
  /// is counted without a per-byte exit test (a loop that vectorizes).
  bool skip(std::uint64_t n) {
    if (failed_) return false;
    constexpr std::size_t kBlock = 4096;
    const auto* p = reinterpret_cast<const unsigned char*>(data_);
    while (n >= kBlock && end_ - pos_ >= kBlock) {
      std::uint64_t ends = 0;
      for (std::size_t i = 0; i < kBlock; ++i)
        ends += (p[pos_ + i] & 0x80) == 0;
      n -= ends;
      pos_ += kBlock;
    }
    for (; n > 0 && pos_ < end_; ++pos_) n -= (p[pos_] & 0x80) == 0;
    if (n > 0)
      return fail("snapshot-truncated", "shape data runs past the payload end");
    return true;
  }

  bool z(std::int64_t* v) {
    std::uint64_t raw = 0;
    if (!u(&raw)) return false;
    *v = unzigzag(raw);
    return true;
  }

  /// A count that must be followed by at least one byte per item.
  bool count(std::uint64_t* v, const char* what) {
    if (!u(v)) return false;
    if (*v > remaining())
      return fail("snapshot-bad-count",
                  strfmt("%s count %llu exceeds the %zu remaining payload "
                         "bytes",
                         what, static_cast<unsigned long long>(*v),
                         remaining()));
    return true;
  }

  bool str(std::string* s, const char* what) {
    std::uint64_t len = 0;
    if (!count(&len, what)) return false;
    s->assign(buf_, pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

 private:
  const std::string& buf_;
  const char* data_;
  std::size_t pos_;
  std::size_t end_;
  DiagEngine& diag_;
  bool failed_ = false;
};

}  // namespace

/// Private-member access for the snapshot layer (friend of LayoutDB).
class SnapshotCodec {
 public:
  static std::string encode(const LayoutDB& db) {
    std::string p;
    put_str(p, db.top_name_);
    put_zigzag(p, db.tile_);
    put_varint(p, db.ports_.size());
    for (const Port& pt : db.ports_) {
      put_str(p, pt.name);
      put_varint(p, static_cast<std::uint64_t>(pt.layer));
      put_zigzag(p, pt.rect.lo.x);
      put_zigzag(p, pt.rect.lo.y);
      put_zigzag(p, pt.rect.hi.x);
      put_zigzag(p, pt.rect.hi.y);
    }
    put_varint(p, db.path_parent_.size());
    for (std::size_t i = 0; i < db.path_parent_.size(); ++i) {
      put_varint(p, db.path_parent_[i]);
      put_str(p, db.path_name_[i]);
      put_varint(p, static_cast<std::uint64_t>(db.path_local_[i].orient()));
      put_zigzag(p, db.path_local_[i].offset().x);
      put_zigzag(p, db.path_local_[i].offset().y);
    }
    for (int l = 0; l < kLayerCount; ++l) {
      const auto& rv = db.rects_[static_cast<std::size_t>(l)];
      const auto& pv = db.paths_[static_cast<std::size_t>(l)];
      put_varint(p, rv.size());
      Point prev{};
      std::uint32_t prev_path = 0;
      for (std::size_t i = 0; i < rv.size(); ++i) {
        put_zigzag(p, rv[i].lo.x - prev.x);
        put_zigzag(p, rv[i].lo.y - prev.y);
        put_zigzag(p, rv[i].width());
        put_zigzag(p, rv[i].height());
        put_varint(p, pv[i] - prev_path);  // non-decreasing in flatten order
        prev = rv[i].lo;
        prev_path = pv[i];
      }
    }
    return p;
  }

  /// Decodes one layer's `count` shapes into `rv` and `pv`.
  static bool decode_layer(Decoder& d, Layer layer, std::uint64_t count,
                           std::uint64_t nnodes, std::vector<Rect>& rv,
                           std::vector<std::uint32_t>& pv) {
    rv.resize(static_cast<std::size_t>(count));
    pv.resize(static_cast<std::size_t>(count));
    Point prev{};
    std::uint64_t prev_path = 0;
    for (std::size_t i = 0; i < rv.size(); ++i) {
      std::int64_t dx = 0, dy = 0, w = 0, h = 0;
      std::uint64_t dpath = 0;
      if (!d.z(&dx) || !d.z(&dy) || !d.z(&w) || !d.z(&h) || !d.u(&dpath))
        return false;
      if (w < 0 || h < 0)
        return d.fail("snapshot-bad-value",
                      strfmt("%s shape has negative size %lld x %lld",
                             std::string(layer_name(layer)).c_str(),
                             static_cast<long long>(w),
                             static_cast<long long>(h)));
      prev = Point{prev.x + dx, prev.y + dy};
      prev_path += dpath;
      if (prev_path >= nnodes)
        return d.fail("snapshot-bad-value",
                      strfmt("%s shape path id %llu out of range",
                             std::string(layer_name(layer)).c_str(),
                             static_cast<unsigned long long>(prev_path)));
      rv[i] = Rect{prev, {prev.x + w, prev.y + h}};
      pv[i] = static_cast<std::uint32_t>(prev_path);
    }
    return true;
  }

  /// Decodes the payload and rebuilds the derived state; `*hash`
  /// receives the decoded database's content_hash() for the caller's
  /// check against the header.
  static std::unique_ptr<LayoutDB> decode(const std::string& doc,
                                          std::size_t begin, std::size_t end,
                                          DiagEngine& diag,
                                          std::uint64_t* hash) {
    Decoder d(doc, begin, end, diag);
    std::unique_ptr<LayoutDB> db(new LayoutDB());

    if (!d.str(&db->top_name_, "top-name")) return nullptr;
    std::int64_t tile = 0;
    if (!d.z(&tile)) return nullptr;
    if (tile < 1) {
      d.fail("snapshot-bad-value",
             strfmt("tile size %lld is not positive",
                    static_cast<long long>(tile)));
      return nullptr;
    }
    db->tile_ = tile;

    std::uint64_t nports = 0;
    if (!d.count(&nports, "port")) return nullptr;
    db->ports_.resize(static_cast<std::size_t>(nports));
    for (auto& pt : db->ports_) {
      std::uint64_t layer = 0;
      std::int64_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
      if (!d.str(&pt.name, "port-name") || !d.u(&layer) || !d.z(&x0) ||
          !d.z(&y0) || !d.z(&x1) || !d.z(&y1))
        return nullptr;
      if (layer >= static_cast<std::uint64_t>(kLayerCount)) {
        d.fail("snapshot-bad-value",
               strfmt("port layer %llu out of range",
                      static_cast<unsigned long long>(layer)));
        return nullptr;
      }
      pt.layer = static_cast<Layer>(layer);
      pt.rect = Rect{{x0, y0}, {x1, y1}};
    }

    std::uint64_t nnodes = 0;
    if (!d.count(&nnodes, "path-node")) return nullptr;
    if (nnodes == 0 || nnodes > kMaxFlattenInstances) {
      d.fail("snapshot-bad-count",
             strfmt("path-node count %llu out of range",
                    static_cast<unsigned long long>(nnodes)));
      return nullptr;
    }
    const auto n = static_cast<std::size_t>(nnodes);
    db->path_parent_.resize(n);
    db->path_name_.resize(n);
    db->path_local_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t parent = 0, orient = 0;
      std::int64_t dx = 0, dy = 0;
      if (!d.u(&parent) || !d.str(&db->path_name_[i], "path-node-name") ||
          !d.u(&orient) || !d.z(&dx) || !d.z(&dy))
        return nullptr;
      // Preorder invariant: a node's parent precedes it (node 0 is its
      // own parent). Path materialization relies on this.
      if ((i == 0 && parent != 0) || (i > 0 && parent >= i)) {
        d.fail("snapshot-bad-value",
               strfmt("path node %zu has non-preorder parent %llu", i,
                      static_cast<unsigned long long>(parent)));
        return nullptr;
      }
      if (orient >= 8) {
        d.fail("snapshot-bad-value",
               strfmt("path node %zu has orientation %llu out of range", i,
                      static_cast<unsigned long long>(orient)));
        return nullptr;
      }
      db->path_parent_[i] = static_cast<std::uint32_t>(parent);
      db->path_local_[i] =
          Transform(static_cast<Orient>(orient), Point{dx, dy});
    }

    // Layer blocks. A scan that only counts varint terminator bytes (a
    // shape is five varints) finds each block's byte range; the blocks
    // then decode side by side on the pool, each with its own reader,
    // and the lowest failing layer's diagnostic is the one reported.
    std::array<std::uint64_t, kLayerCount> nshapes{};
    std::array<std::size_t, kLayerCount> at{};
    for (int l = 0; l < kLayerCount; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (!d.count(&nshapes[li], "shape")) return nullptr;
      at[li] = d.pos();
      if (!d.skip(5 * nshapes[li])) return nullptr;
    }
    if (d.remaining() != 0) {
      d.fail("snapshot-bad-length",
             strfmt("%zu trailing payload bytes after the last layer",
                    d.remaining()));
      return nullptr;
    }
    std::vector<DiagEngine> layer_diag(kLayerCount);
    std::array<char, kLayerCount> ok{};
    parallel_for(kLayerCount, 1, [&](std::int64_t l) {
      const auto li = static_cast<std::size_t>(l);
      // Bounded by the payload end; the scan proved the block holds
      // exactly its shapes' varints.
      Decoder ld(doc, at[li], end, layer_diag[li]);
      ok[li] = decode_layer(ld, static_cast<Layer>(l), nshapes[li], nnodes,
                            db->rects_[li], db->paths_[li]);
    });
    for (std::size_t l = 0; l < kLayerCount; ++l)
      if (!ok[l]) {
        for (const Diagnostic& g : layer_diag[l].diagnostics())
          diag.error(g.code, g.message);
        return nullptr;
      }

    // Derived state: the indexes are pure functions of the serialized
    // fields and are rebuilt, not stored. Each layer's index and the
    // content hash read disjoint fields, so they run side by side on the
    // pool.
    parallel_for(kLayerCount + 1, 1, [&](std::int64_t i) {
      if (i == 0)
        *hash = db->content_hash();  // the longest job goes first
      else
        db->reindex_layer(static_cast<std::size_t>(i - 1));
    });
    db->rebuild_bbox();
    return db;
  }
};

void LayoutDB::save_snapshot(const std::string& path) const {
  require(!path.empty(), "layout snapshot: empty path");
  const std::string payload = SnapshotCodec::encode(*this);
  std::string doc;
  doc.reserve(kHeaderBytes + payload.size() + 4);
  doc.append(kMagic, sizeof kMagic);
  put_u32(doc, kSnapshotVersion);
  put_u32(doc, 0);  // reserved
  put_u64(doc, content_hash());
  put_u64(doc, payload.size());
  doc += payload;
  put_u32(doc, crc32(doc.data(), doc.size()));

  // Atomic, durable publish — same discipline as util/checkpoint: a
  // crash at any instant leaves the previous snapshot or the new one,
  // never a torn file.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw Error(strfmt("layout snapshot: cannot create '%s': %s", tmp.c_str(),
                       std::strerror(errno)));
  std::size_t off = 0;
  bool ok = true;
  while (ok && off < doc.size()) {
    const ssize_t wrote = ::write(fd, doc.data() + off, doc.size() - off);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      ok = false;
    } else {
      off += static_cast<std::size_t>(wrote);
    }
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  const int saved_errno = errno;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    throw Error(strfmt("layout snapshot: cannot write '%s': %s", tmp.c_str(),
                       std::strerror(saved_errno)));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    throw Error(strfmt("layout snapshot: cannot publish '%s': %s",
                       path.c_str(), std::strerror(e)));
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

namespace {

std::unique_ptr<LayoutDB> load_snapshot_impl(const std::string& path,
                                             DiagEngine& diag) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) {
    diag.error("snapshot-open-failed",
               strfmt("cannot open '%s'", path.c_str()));
    return nullptr;
  }
  // One sized read: a character-wise stream copy costs more than the
  // decode itself on a large macro.
  const std::streamoff size = f.tellg();
  std::string doc(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  f.seekg(0);
  if (size < 0 ||
      !f.read(doc.data(), static_cast<std::streamsize>(doc.size()))) {
    diag.error("snapshot-open-failed",
               strfmt("cannot read '%s'", path.c_str()));
    return nullptr;
  }
  if (doc.size() < kHeaderBytes + 4) {
    diag.error("snapshot-truncated",
               strfmt("'%s' is %zu bytes; a valid snapshot has at least %zu",
                      path.c_str(), doc.size(), kHeaderBytes + 4));
    return nullptr;
  }
  if (std::memcmp(doc.data(), kMagic, sizeof kMagic) != 0) {
    diag.error("snapshot-bad-magic",
               strfmt("'%s' is not a LayoutDB snapshot", path.c_str()));
    return nullptr;
  }
  const std::uint32_t version = get_u32(doc, 8);
  if (version != kSnapshotVersion) {
    diag.error("snapshot-version-skew",
               strfmt("'%s' has format version %u; this build reads version "
                      "%u",
                      path.c_str(), version, kSnapshotVersion));
    return nullptr;
  }
  const std::uint64_t payload_bytes = get_u64(doc, 24);
  if (payload_bytes != doc.size() - kHeaderBytes - 4) {
    diag.error("snapshot-bad-length",
               strfmt("'%s' payload length %llu does not match the file size "
                      "(truncated or padded file)",
                      path.c_str(),
                      static_cast<unsigned long long>(payload_bytes)));
    return nullptr;
  }
  const std::uint32_t stored_crc = get_u32(doc, doc.size() - 4);
  const std::uint32_t actual_crc = crc32(doc.data(), doc.size() - 4);
  if (stored_crc != actual_crc) {
    diag.error("snapshot-crc-mismatch",
               strfmt("'%s' failed its CRC32 check (stored %08x, computed "
                      "%08x) — the file is corrupted",
                      path.c_str(), stored_crc, actual_crc));
    return nullptr;
  }
  std::uint64_t actual_hash = 0;
  auto db = SnapshotCodec::decode(doc, kHeaderBytes, doc.size() - 4, diag,
                                  &actual_hash);
  if (!db) return nullptr;
  const std::uint64_t stored_hash = get_u64(doc, 16);
  if (stored_hash != actual_hash) {
    diag.error("snapshot-content-hash-mismatch",
               strfmt("'%s' decodes to content hash %016llx but claims "
                      "%016llx",
                      path.c_str(),
                      static_cast<unsigned long long>(actual_hash),
                      static_cast<unsigned long long>(stored_hash)));
    return nullptr;
  }
  return db;
}

}  // namespace

std::unique_ptr<LayoutDB> LayoutDB::load_snapshot(const std::string& path,
                                                  DiagEngine* diag) {
  if (diag) return load_snapshot_impl(path, *diag);
  DiagEngine local(path);
  auto db = load_snapshot_impl(path, local);
  if (!db) local.throw_if_errors();
  return db;
}

// --- SnapshotCache -----------------------------------------------------------

namespace {

/// mkdir -p for the (at most two-level) cache path; EEXIST is success.
void ensure_dir(const std::string& dir) {
  const std::size_t slash = dir.find_last_of('/');
  if (slash != std::string::npos && slash > 0)
    ::mkdir(dir.substr(0, slash).c_str(), 0755);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw Error(strfmt("layout cache: cannot create '%s': %s", dir.c_str(),
                       std::strerror(errno)));
}

}  // namespace

SnapshotCache::SnapshotCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) ensure_dir(dir_);
}

std::string SnapshotCache::entry_path(std::uint64_t key) const {
  return strfmt("%s/layout-%016llx.snap", dir_.c_str(),
                static_cast<unsigned long long>(key));
}

std::unique_ptr<LayoutDB> SnapshotCache::load(std::uint64_t key) const {
  if (dir_.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const std::string path = entry_path(key);
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // A present-but-invalid entry is a miss, never an error: the caller
  // re-flattens and store() repairs the entry.
  DiagEngine diag(path);
  auto db = LayoutDB::load_snapshot(path, &diag);
  if (!db) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return db;
}

void SnapshotCache::store(std::uint64_t key, const LayoutDB& db) const {
  if (dir_.empty()) return;
  db.save_snapshot(entry_path(key));
  stores_.fetch_add(1, std::memory_order_relaxed);
}

SnapshotCache::Stats SnapshotCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bisram::geom
