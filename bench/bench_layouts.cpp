// Reproduces Figs. 6 and 7: the layout plots of two typical embedded
// RAM modules generated by BISRAMGEN —
//   Fig. 6: 4 K words x 128 bits (bpw), 8 bits per column (bpc),
//           32 cells between straps, four spare rows, buffer size 2
//           (64 KB);
//   Fig. 7: 4 K words x 256 bits, 16 bits per column, same options
//           (128 KB).
// The harness generates both modules, prints their datasheets, and
// writes macro-level floorplan plots (SVG) next to the binary. Full
// mask-level CIF is written for a scaled-down module (the full arrays
// flatten to tens of millions of rectangles).
//
// It also carries the signoff-scan benchmark: one LayoutDB flatten of
// the Fig. 6 module, then mask-level DRC through the tiled checker
// (single-threaded and across a thread sweep) against the quadratic
// reference scan, plus connectivity extraction over the same database.
// `--json [FILE]` emits the scan as a machine-readable table instead of
// running the Google benchmarks.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>

#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "geom/writers.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace bisram;
using Clock = std::chrono::steady_clock;

core::RamSpec fig_spec(int bpw, int bpc) {
  core::RamSpec spec;
  spec.words = 4096;
  spec.bpw = bpw;
  spec.bpc = bpc;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  return spec;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The Fig. 6 module and its shared layout database, built once on first
/// use (generation is itself one of the benchmarks, so nothing heavy may
/// run at static-init time).
const core::Generated& fig6() {
  static const core::Generated g = core::Compiler().run(fig_spec(128, 8));
  return g;
}

const tech::Tech& fig6_tech() {
  static const tech::Tech& t = fig_spec(128, 8).resolved_technology();
  return t;
}

const geom::LayoutDB& fig6_db() {
  static const geom::LayoutDB db(*fig6().top,
                                 drc::tile_size_for(fig6_tech()));
  return db;
}

void emit(const char* tag, const core::RamSpec& spec) {
  const core::Generated g = core::Compiler().run(spec);
  std::printf("\n=== %s ===\n%s", tag, g.sheet.render().c_str());
  const std::string path = std::string(tag) + "_floorplan.svg";
  std::ofstream svg(path);
  geom::write_svg_outline(svg, *g.top, 2, 1600);
  std::printf("floorplan plot written to %s\n", path.c_str());
}

void print_figs() {
  emit("fig6_64KB", fig_spec(128, 8));
  emit("fig7_128KB", fig_spec(256, 16));

  // Mask-level export demonstrated on a small module (full CIF of the
  // 64 KB module would be ~10^7 rectangles).
  core::RamSpec small = fig_spec(8, 4);
  small.words = 64;
  small.strap_interval = 16;
  const core::Generated g = core::Compiler().run(small);
  {
    std::ofstream cif("small_module.cif");
    geom::write_cif(cif, *g.top,
                    tech::technology(small.technology).lambda_um * 1000.0);
  }
  {
    std::ofstream svg("small_module.svg");
    geom::write_svg(svg, *g.top, 2000);
  }
  std::printf(
      "\nmask-level exports for a 4 Kb module: small_module.cif, "
      "small_module.svg (flat shapes: %zu)\n",
      g.top->flat_shape_count());
}

// The signoff scan as a machine-readable artifact: flatten cost, the
// reference scan, the tiled checker across a thread sweep (bit-identical
// results, so only wall clock moves), and extraction over the same
// database. This is the CI record of the "tiled DRC beats the seed scan
// single-threaded" claim.
void signoff_json(const std::string& path) {
  const tech::Tech& t = fig6_tech();
  const core::Generated& g = fig6();

  const auto t_flat = Clock::now();
  const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
  const double flatten_ms = ms_since(t_flat);

  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("layout_signoff");
  j.key("module").begin_object();
  j.key("words").value(static_cast<std::int64_t>(4096));
  j.key("bpw").value(128);
  j.key("bpc").value(8);
  j.key("technology").value(t.name);
  j.key("flat_shapes").value(static_cast<std::uint64_t>(db.shape_count()));
  j.key("transistors").value(
      static_cast<std::uint64_t>(db.transistor_census()));
  j.key("tile_dbu").value(static_cast<std::int64_t>(db.tile_size()));
  j.end_object();
  j.key("flatten_ms").value(flatten_ms);

  const auto t_ref = Clock::now();
  const auto ref = drc::check_reference(*g.top, t);
  const double reference_ms = ms_since(t_ref);
  j.key("reference").begin_object();
  j.key("ms").value(reference_ms);
  j.key("violations").value(static_cast<std::int64_t>(ref.size()));
  j.end_object();

  j.key("tiled").begin_array();
  for (int threads : {1, 2, 4, 8}) {
    drc::DrcOptions opt;
    opt.threads = threads;
    const auto t_run = Clock::now();
    const auto vios = drc::check(db, t, opt);
    const double ms = ms_since(t_run);
    j.begin_object();
    j.key("threads").value(threads);
    j.key("ms").value(ms);
    j.key("violations").value(static_cast<std::int64_t>(vios.size()));
    j.key("speedup_vs_reference").value(reference_ms / ms);
    j.end_object();
  }
  j.end_array();

  const auto t_ext = Clock::now();
  const extract::Extracted ex = extract::extract(db, t);
  j.key("extract").begin_object();
  j.key("ms").value(ms_since(t_ext));
  j.key("devices").value(static_cast<std::int64_t>(ex.devices.size()));
  j.key("nets").value(ex.net_count);
  j.end_object();
  j.end_object();

  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_layouts: cannot write '%s'\n",
                   path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
  }
}

void BM_Fig6Generate(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::Compiler().run(fig_spec(128, 8)).sheet.area_mm2);
}
BENCHMARK(BM_Fig6Generate)->Unit(benchmark::kMillisecond);

void BM_OutlineSvg(benchmark::State& state) {
  const core::Generated g = core::Compiler().run(fig_spec(128, 8));
  for (auto _ : state)
    benchmark::DoNotOptimize(geom::to_svg_outline(*g.top, 2, 800).size());
}
BENCHMARK(BM_OutlineSvg)->Unit(benchmark::kMillisecond);

// One hierarchy flatten into the spatial index — the cost every signoff
// consumer (DRC, extraction, SVG) now shares instead of re-flattening.
void BM_LayoutDbFlatten(benchmark::State& state) {
  const core::Generated& g = fig6();
  for (auto _ : state) {
    const geom::LayoutDB db(*g.top, drc::tile_size_for(fig6_tech()));
    benchmark::DoNotOptimize(db.shape_count());
  }
}
BENCHMARK(BM_LayoutDbFlatten)->Unit(benchmark::kMillisecond);

// The seed checker: hash-bucketed all-pairs scan over one private
// flatten. The baseline the tiled path has to beat single-threaded.
void BM_SignoffDrcReference(benchmark::State& state) {
  const core::Generated& g = fig6();
  for (auto _ : state)
    benchmark::DoNotOptimize(drc::check_reference(*g.top, fig6_tech()).size());
}
BENCHMARK(BM_SignoffDrcReference)->Unit(benchmark::kMillisecond);

// The tiled checker over the shared database, swept across worker
// counts. Results are bit-identical at every point of the sweep (the
// determinism contract, enforced by tests/test_signoff_equivalence.cpp);
// only the wall clock moves.
void BM_SignoffDrcTiled(benchmark::State& state) {
  const geom::LayoutDB& db = fig6_db();
  drc::DrcOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(drc::check(db, fig6_tech(), opt).size());
}
BENCHMARK(BM_SignoffDrcTiled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Connectivity extraction over the same shared database.
void BM_SignoffExtract(benchmark::State& state) {
  const geom::LayoutDB& db = fig6_db();
  for (auto _ : state)
    benchmark::DoNotOptimize(extract::extract(db, fig6_tech()).net_count);
}
BENCHMARK(BM_SignoffExtract)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  Cli cli("bench_layouts",
          "Figs. 6-7 layout generation and the LayoutDB signoff scan.");
  cli.optional_value("--json", &json, &json_path,
                     "emit the signoff scan as JSON (to FILE or stdout) and "
                     "skip the plots and benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    signoff_json(json_path);
    return 0;
  }
  print_figs();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
