// LayoutDB snapshot persistence: byte-exact round-trips, stable
// rejection codes for every corruption class (the same classes the
// committed tests/fuzz_inputs/snap_* corpus replays), the no-engine
// throwing convention, and the fingerprint-keyed SnapshotCache the
// compiler / DSE / signoff integration builds on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/bisramgen.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "geom/layout_db.hpp"
#include "geom/layout_snapshot.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace bisram {
namespace {

std::string temp_dir() {
  char tmpl[] = "/tmp/bisram_snap_test.XXXXXX";
  const char* d = mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 16;
  return spec;
}

// One flattened small macro, shared by every test in this suite.
const geom::LayoutDB& small_db() {
  static const geom::LayoutDB* db = [] {
    const core::RamSpec spec = small_spec();
    const core::Generated g = core::Compiler().run(spec);
    return new geom::LayoutDB(*g.top,
                              drc::tile_size_for(spec.resolved_technology()));
  }();
  return *db;
}

TEST(LayoutSnapshot, RoundTripIsExactAndByteStable) {
  const geom::LayoutDB& db = small_db();
  const std::string dir = temp_dir();
  const std::string a = dir + "/a.snap";
  db.save_snapshot(a);

  const auto loaded = geom::LayoutDB::load_snapshot(a);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->content_hash(), db.content_hash());
  EXPECT_EQ(loaded->shape_count(), db.shape_count());
  EXPECT_EQ(loaded->path_count(), db.path_count());
  EXPECT_EQ(loaded->top_name(), db.top_name());
  EXPECT_EQ(loaded->tile_size(), db.tile_size());
  EXPECT_EQ(loaded->ports().size(), db.ports().size());
  for (geom::Layer l : geom::all_layers()) {
    ASSERT_TRUE(db.rects(l) == loaded->rects(l))
        << "layer " << static_cast<int>(l);
    ASSERT_EQ(db.paths(l), loaded->paths(l));
  }
  for (std::uint32_t n = 0; n < db.path_count(); ++n)
    ASSERT_EQ(loaded->path_name(n), db.path_name(n));

  // save -> load -> save produces identical bytes (acceptance bullet).
  const std::string b = dir + "/b.snap";
  loaded->save_snapshot(b);
  EXPECT_EQ(slurp(a), slurp(b));
}

TEST(LayoutSnapshot, LoadedDatabaseAnswersQueriesLikeTheOriginal) {
  const geom::LayoutDB& db = small_db();
  const std::string path = temp_dir() + "/q.snap";
  db.save_snapshot(path);
  const auto loaded = geom::LayoutDB::load_snapshot(path);
  ASSERT_NE(loaded, nullptr);

  // The TileIndex is rebuilt on load, not stored: indexed queries must
  // agree anyway.
  EXPECT_TRUE(loaded->bbox() == db.bbox());
  EXPECT_EQ(loaded->transistor_census(), db.transistor_census());
  const geom::Rect win{db.bbox().lo,
                       {db.bbox().lo.x + db.bbox().width() / 3,
                        db.bbox().lo.y + db.bbox().height() / 3}};
  for (geom::Layer l : geom::all_layers())
    EXPECT_EQ(loaded->index(l).ids_in(win), db.index(l).ids_in(win))
        << "layer " << static_cast<int>(l);
}

/// Writes `bytes` to a temp file and expects the loader to reject it
/// with exactly `code` (diag mode: null result, no throw).
void expect_rejected(const std::string& bytes, const std::string& code) {
  const std::string path = temp_dir() + "/corrupt.snap";
  spit(path, bytes);
  DiagEngine diag;
  const auto r = geom::LayoutDB::load_snapshot(path, &diag);
  EXPECT_EQ(r, nullptr) << code;
  ASSERT_FALSE(diag.diagnostics().empty()) << code;
  EXPECT_EQ(diag.diagnostics()[0].code, code);
}

TEST(LayoutSnapshot, CorruptFilesAreRejectedWithStableCodes) {
  const std::string dir = temp_dir();
  const std::string path = dir + "/good.snap";
  small_db().save_snapshot(path);
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 64u);

  expect_rejected(good.substr(0, 16), "snapshot-truncated");
  // Cut mid-payload the header's length field now exceeds the file.
  expect_rejected(good.substr(0, good.size() / 2), "snapshot-bad-length");
  {
    std::string b = good;
    b[0] ^= '\xff';  // magic
    expect_rejected(b, "snapshot-bad-magic");
  }
  {
    std::string b = good;
    b[8] = 9;  // version field
    expect_rejected(b, "snapshot-version-skew");
  }
  {
    std::string b = good;
    b[24] ^= 0x01;  // payload length field
    expect_rejected(b, "snapshot-bad-length");
  }
  {
    std::string b = good;
    b[good.size() - 2] ^= 0x40;  // trailing CRC
    expect_rejected(b, "snapshot-crc-mismatch");
  }
}

TEST(LayoutSnapshot, MissingFileIsOpenFailed) {
  DiagEngine diag;
  EXPECT_EQ(geom::LayoutDB::load_snapshot(temp_dir() + "/nope.snap", &diag),
            nullptr);
  ASSERT_FALSE(diag.diagnostics().empty());
  EXPECT_EQ(diag.diagnostics()[0].code, "snapshot-open-failed");
}

TEST(LayoutSnapshot, WithoutEngineLoaderThrowsDiagError) {
  const std::string path = temp_dir() + "/bad.snap";
  spit(path, "definitely not a snapshot");
  try {
    geom::LayoutDB::load_snapshot(path);
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "snapshot-truncated");
  }
}

TEST(SnapshotCacheTest, MissStoreHitAndStats) {
  const geom::LayoutDB& db = small_db();
  geom::SnapshotCache cache(temp_dir());
  ASSERT_TRUE(cache.persistent());
  const std::uint64_t key = db.content_hash();

  EXPECT_EQ(cache.load(key), nullptr);
  cache.store(key, db);
  const auto hit = cache.load(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->content_hash(), db.content_hash());

  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.stores, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(SnapshotCacheTest, CorruptEntryIsRejectedNotServed) {
  const geom::LayoutDB& db = small_db();
  geom::SnapshotCache cache(temp_dir());
  const std::uint64_t key = db.content_hash();
  cache.store(key, db);

  // Tear the entry in place; the next load must degrade to a miss.
  std::string bytes = slurp(cache.entry_path(key));
  bytes[bytes.size() - 3] ^= 0x10;
  spit(cache.entry_path(key), bytes);

  EXPECT_EQ(cache.load(key), nullptr);
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(SnapshotCacheTest, EmptyDirDisablesPersistence) {
  geom::SnapshotCache cache("");
  EXPECT_FALSE(cache.persistent());
  EXPECT_EQ(cache.load(123), nullptr);
  cache.store(123, small_db());  // no-op, must not throw
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(LayoutFingerprint, SeparatesSpecsAndDecks) {
  const core::RamSpec spec = small_spec();
  const tech::Tech& t = spec.resolved_technology();
  const std::uint64_t base = core::layout_fingerprint(spec, t);
  EXPECT_EQ(core::layout_fingerprint(spec, t), base);  // deterministic

  core::RamSpec other = spec;
  other.words = 128;
  EXPECT_NE(core::layout_fingerprint(other, t), base);
  other = spec;
  other.gate_size = 4.0;
  EXPECT_NE(core::layout_fingerprint(other, t), base);
  other = spec;
  other.max_passes = 4;  // sizes the TRPLA macro
  EXPECT_NE(core::layout_fingerprint(other, t), base);
  EXPECT_NE(core::layout_fingerprint(spec, tech::technology("cda.5u3m1p")),
            base);
}

}  // namespace
}  // namespace bisram
