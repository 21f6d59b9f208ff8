// drc::check and extract::extract on real leaf-cell hierarchies with
// many findings: a small generated macro after a chain of instance
// edits (support/edited_hierarchy.hpp) — a moved bit-cell row, a
// removed decoder, a replaced row, an added precharge cell — each
// flattened afresh. On every hierarchy, at the signoff, default and 4x
// coarse tile sizes and at pool widths 1/2/8,
//
//   * the DRC report equals the seed checker kept as a test oracle
//     (support/drc_reference.hpp) as a key set;
//   * the extraction equals the monolithic extractor kept as a test
//     oracle (support/extract_reference.hpp);
//   * both are bit-identical to the width-1 run.
//
// The CI sanitizer legs also run this suite at BISRAM_THREADS 1/2/8.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "support/drc_reference.hpp"
#include "support/edited_hierarchy.hpp"
#include "support/extract_reference.hpp"
#include "support/scoped_threads.hpp"

namespace bisram {
namespace {

using geom::LayoutDB;
using test_support::drc_key_set;
using test_support::expect_same_extraction;
using test_support::ScopedThreads;

core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 16;
  return spec;
}

const tech::Tech& deck() {
  static const tech::Tech t = small_spec().resolved_technology();
  return t;
}

/// One hierarchy and its oracles' answers, which do not depend on the
/// tile size or the pool width.
struct Fixture {
  std::string name;
  geom::CellPtr cell;
  std::vector<test_support::DrcKey> want_drc;
  extract::Extracted want_ext;
};

/// The unedited macro, then the four edited ones.
const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> f = [] {
    const geom::CellPtr top = core::Compiler().run(small_spec()).top;
    std::vector<std::pair<std::string, geom::CellPtr>> cells = {
        {"unedited", top}};
    for (auto& fx : test_support::edited_fixtures(top, deck()))
      cells.push_back(std::move(fx));
    std::vector<Fixture> out;
    for (auto& [name, cell] : cells)
      out.push_back(
          {name, cell,
           drc_key_set(test_support::check_reference(*cell, deck())),
           test_support::extract_reference(LayoutDB(*cell), deck())});
    return out;
  }();
  return f;
}

void expect_same_violations(const std::vector<drc::Violation>& got,
                            const std::vector<drc::Violation>& want,
                            const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const drc::Violation& a = got[i];
    const drc::Violation& b = want[i];
    ASSERT_TRUE(a.kind == b.kind && a.layer == b.layer && a.a == b.a &&
                a.b == b.b && a.note == b.note && a.path_a == b.path_a &&
                a.path_b == b.path_b)
        << tag << " violation " << i << ": " << drc::describe(a) << " vs "
        << drc::describe(b);
  }
}

void check_at_tile(geom::Coord tile) {
  const tech::Tech& t = deck();
  for (const Fixture& f : fixtures()) {
    const std::string tag = f.name + " tile=" + std::to_string(tile);
    const LayoutDB db(*f.cell, tile);
    std::vector<drc::Violation> drc1;
    extract::Extracted ext1;
    for (int n : {1, 2, 8}) {
      const std::string wtag = tag + " threads=" + std::to_string(n);
      const ScopedThreads pin(n);
      std::vector<drc::Violation> report = drc::check(db, t);
      extract::Extracted ext = extract::extract(db, t);
      EXPECT_EQ(drc_key_set(report), f.want_drc) << wtag;
      expect_same_extraction(ext, f.want_ext, wtag);
      if (n == 1) {
        drc1 = std::move(report);
        ext1 = std::move(ext);
      } else {
        expect_same_violations(report, drc1, wtag);
        expect_same_extraction(ext, ext1, wtag);
      }
    }
    // The fixtures are only worth their cost while they carry findings.
    if (f.name != "unedited") {
      EXPECT_GE(drc1.size(), 50u) << tag;
    }
  }
}

TEST(EditedHierarchies, MatchOraclesAtSignoffTile) {
  check_at_tile(drc::tile_size_for(deck()));
}

TEST(EditedHierarchies, MatchOraclesAtDefaultTile) {
  check_at_tile(LayoutDB::kDefaultTile);
}

TEST(EditedHierarchies, MatchOraclesAtCoarseTile) {
  check_at_tile(4 * drc::tile_size_for(deck()));
}

}  // namespace
}  // namespace bisram
