// The staged compile API (core/compiler.hpp): stage-by-stage compiles
// must be indistinguishable from the one-shot Compiler().run() —
// bit-identical datasheets, CIF bytes and signoff verdicts, cold cache or
// warm, one thread or eight — and the shared CompileCache must
// characterize each (deck, gate size, decoder width) exactly once no
// matter how many concurrent sessions race for it (the TSan CI leg runs
// this suite).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/bisramgen.hpp"
#include "core/compiler.hpp"
#include "geom/writers.hpp"
#include "sta/leaf.hpp"
#include "tech/tech_file.hpp"
#include "util/parallel.hpp"
#include "verify/signoff.hpp"

namespace bisram::core {
namespace {

RamSpec small_spec() {
  RamSpec s;
  s.words = 256;
  s.bpw = 8;
  s.bpc = 4;
  s.spare_rows = 4;
  s.strap_interval = 16;
  return s;
}

double cif_lambda_nm(const tech::Tech& t) { return t.lambda_um * 1000.0; }

TEST(CompilerApi, StagedRunEqualsGenerate) {
  const RamSpec spec = small_spec();
  const Generated whole = Compiler().run(spec);

  Compiler session;
  const tech::Tech& t = session.resolve_tech(spec);
  const Assembled a = session.assemble(spec, t);
  Datasheet ds = session.datasheet(spec, t, a);

  // Bit-identical datasheet text and mask geometry.
  EXPECT_EQ(ds.render(), whole.sheet.render());
  EXPECT_EQ(geom::to_cif(*a.top, cif_lambda_nm(t)),
            geom::to_cif(*whole.top, cif_lambda_nm(t)));
}

TEST(CompilerApi, ColdAndWarmCachesAreBitIdentical) {
  // Session 1 on a fresh cache (cold), sessions 2 and 3 sharing another
  // fresh cache (2 cold, 3 warm): all three produce the same bytes.
  const RamSpec spec = small_spec();
  const Datasheet cold = Compiler().run(spec).sheet;

  auto cache = std::make_shared<CompileCache>();
  Compiler s2(cache);
  Compiler s3(cache);
  const Generated g2 = s2.run(spec);
  const std::uint64_t misses_after_cold = cache->stats().leaf_misses;
  const Generated g3 = s3.run(spec);

  EXPECT_EQ(cold.render(), g2.sheet.render());
  EXPECT_EQ(cold.render(), g3.sheet.render());
  const tech::Tech& t = spec.resolved_technology();
  EXPECT_EQ(geom::to_cif(*g2.top, cif_lambda_nm(t)),
            geom::to_cif(*g3.top, cif_lambda_nm(t)));
  // The warm session hit the shared cache instead of recharacterizing.
  EXPECT_EQ(cache->stats().leaf_misses, misses_after_cold);
  EXPECT_GT(cache->stats().leaf_hits(), 0u);
}

TEST(CompilerApi, LintVerdictIdenticalColdAndWarm) {
  RamSpec spec = small_spec();
  verify::SignoffOptions opt;
  opt.run_drc = false;
  opt.run_erc_lvs = false;
  const verify::SignoffReport r1 = verify::run_signoff(spec, opt);
  const verify::SignoffReport r2 = verify::run_signoff(spec, opt);
  EXPECT_EQ(r1.clean(), r2.clean());
  EXPECT_EQ(r1.render(), r2.render());
}

TEST(CompilerApi, SharedCacheCharacterizesOnceAcrossConcurrentSessions) {
  // Eight sessions race for the same deck-pure entry; exactly one
  // characterization runs, everyone gets the same library.
  auto cache = std::make_shared<CompileCache>();
  const RamSpec spec = small_spec();
  std::vector<std::string> sheets(8);
  parallel_for(
      8, /*chunk=*/1,
      [&](std::int64_t i) {
        Compiler session(cache);
        sheets[static_cast<std::size_t>(i)] = session.run(spec).sheet.render();
      },
      /*threads=*/8);
  EXPECT_EQ(cache->stats().leaf_misses, 1u);
  EXPECT_EQ(cache->stats().leaf_lookups, 8u);
  for (const std::string& s : sheets) EXPECT_EQ(s, sheets[0]);
}

TEST(CompilerApi, ThreadCountInvariantAcrossSessionFleet) {
  // The same fleet of specs compiled with 1 worker and with 8 workers
  // produces byte-identical datasheets, position by position.
  std::vector<RamSpec> specs;
  for (int spares : {4, 8, 16}) {
    RamSpec s = small_spec();
    s.spare_rows = spares;
    specs.push_back(s);
  }
  auto compile_all = [&](int threads) {
    auto cache = std::make_shared<CompileCache>();
    std::vector<std::string> sheets(specs.size());
    parallel_for(
        static_cast<std::int64_t>(specs.size()), /*chunk=*/1,
        [&](std::int64_t i) {
          Compiler session(cache);
          sheets[static_cast<std::size_t>(i)] =
              session.run(specs[static_cast<std::size_t>(i)]).sheet.render();
        },
        threads);
    return sheets;
  };
  EXPECT_EQ(compile_all(1), compile_all(8));
}

TEST(CompilerApi, AdoptTechGivesSessionLifetimeDecks) {
  // The historical footgun: a deck parsed into a stack local outliving
  // the call. adopt_tech() takes the deck by value and the session owns
  // it for its whole life.
  Compiler session;
  RamSpec spec = small_spec();
  {
    tech::Tech user = tech::read_tech_string(
        "name user.0p8u3m\n"
        "feature_um 0.8\n"
        "vdd 5.0\n"
        "nmos vt0 0.7 kp 1e-04 lambda 0.04\n"
        "pmos vt0 -0.8 kp 3.5e-05 lambda 0.05\n");
    const tech::Tech& owned = session.adopt_tech(std::move(user));
    spec.custom_tech = std::make_shared<const tech::Tech>(owned);
  }
  const Generated g = session.run(spec);
  EXPECT_EQ(g.sheet.technology, "user.0p8u3m");
}

TEST(CompilerApi, DeckFingerprintKeysNotNames) {
  // Two decks sharing a name but differing in a parameter must not
  // alias each other's leaf libraries.
  const std::string deck_a =
      "name twin.deck\nfeature_um 0.8\nvdd 5.0\n"
      "nmos vt0 0.7 kp 1e-04 lambda 0.04\n"
      "pmos vt0 -0.8 kp 3.5e-05 lambda 0.05\n";
  const std::string deck_b =
      "name twin.deck\nfeature_um 0.6\nvdd 5.0\n"
      "nmos vt0 0.7 kp 1e-04 lambda 0.04\n"
      "pmos vt0 -0.8 kp 3.5e-05 lambda 0.05\n";
  const tech::Tech a = tech::read_tech_string(deck_a);
  const tech::Tech b = tech::read_tech_string(deck_b);
  EXPECT_NE(tech::fingerprint(a), tech::fingerprint(b));
  auto cache = std::make_shared<CompileCache>();
  Compiler session(cache);
  const sta::LeafTiming la = session.leaf_library(a, 2.0, 6);
  const sta::LeafTiming lb = session.leaf_library(b, 2.0, 6);
  EXPECT_EQ(cache->stats().leaf_misses, 2u);  // no aliasing
  EXPECT_NE(la.decoder_s, lb.decoder_s);
}

TEST(CompilerApi, CharacterizationCounterTracksUncachedRunsOnly) {
  const RamSpec spec = small_spec();
  auto cache = std::make_shared<CompileCache>();
  Compiler warmup(cache);
  warmup.run(spec);  // whatever this costs, the next run is cached
  const std::uint64_t before = sta::characterization_count();
  Compiler again(cache);  // fresh session on the same shared cache
  again.run(spec);
  EXPECT_EQ(sta::characterization_count(), before);
}

}  // namespace
}  // namespace bisram::core
