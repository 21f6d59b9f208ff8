// Static timing signoff on the Fig. 6 module (4 K words x 128 bits,
// 8 bits per column, 64 KB): build the macro access-path RC graph once,
// then time the full per-endpoint analysis (arrival/slew propagation,
// required times, K worst paths with provenance).
//
// `--json [FILE]` emits the graph size, build and analysis times and the
// signoff as a machine-readable document instead of running the Google
// benchmarks; CI regenerates the committed BENCH_timing.json from it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/spec.hpp"
#include "sta/access_path.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace bisram;
using Clock = std::chrono::steady_clock;

core::RamSpec fig6_spec() {
  core::RamSpec spec;
  spec.words = 4096;
  spec.bpw = 128;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  return spec;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The access-path graph of the Fig. 6 macro, built once on first use
/// (leaf characterization runs the built-in SPICE engine, so nothing
/// heavy may run at static-init time).
const sta::TimingGraph& fig6_graph() {
  static const sta::TimingGraph g = sta::build_access_graph(
      fig6_spec().resolved_technology(), fig6_spec().geometry(), 2.0);
  return g;
}

sta::AnalyzeOptions fig6_options() {
  sta::AnalyzeOptions opt;
  opt.clock_period_s = fig6_spec().resolved_technology().timing.clock_period_s;
  opt.k_paths = 4;
  return opt;
}

void write_doc(const char* prog, const JsonWriter& j, const std::string& path) {
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", prog, path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "%s\n", j.str().c_str());
  std::fclose(f);
}

/// One timed analysis, repeated to damp scheduler noise; returns the
/// best wall time in ms.
double timed_analysis(int repeats = 5) {
  const sta::TimingGraph& g = fig6_graph();
  const sta::AnalyzeOptions opt = fig6_options();
  double best_ms = 0;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(g.analyze(opt).wns_s);
    const double ms = ms_since(t0);
    if (i == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

void timing_json(const std::string& path) {
  const tech::Tech& t = fig6_spec().resolved_technology();

  const auto t_build = Clock::now();
  const sta::TimingGraph& g = fig6_graph();
  const double build_ms = ms_since(t_build);

  const sta::AccessTiming at =
      sta::analyze_access_path(t, fig6_spec().geometry(), 2.0,
                               fig6_options());

  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("timing_sta");
  j.key("module").begin_object();
  j.key("words").value(static_cast<std::int64_t>(4096));
  j.key("bpw").value(128);
  j.key("bpc").value(8);
  j.key("technology").value(t.name);
  j.end_object();
  j.key("graph").begin_object();
  j.key("nodes").value(static_cast<std::uint64_t>(g.node_count()));
  j.key("arcs").value(static_cast<std::uint64_t>(g.arc_count()));
  j.key("endpoints").value(
      static_cast<std::uint64_t>(at.report.endpoint_count));
  j.key("build_ms").value(build_ms);
  const double analyze_ms = timed_analysis();
  j.key("analyze_ms").value(analyze_ms);
  j.key("endpoints_per_s")
      .value(static_cast<double>(at.report.endpoint_count) /
             (analyze_ms * 1e-3));
  j.end_object();
  j.key("signoff").begin_object();
  j.key("access_ns").value(at.access_s * 1e9);
  j.key("write_ns").value(at.write_s * 1e9);
  j.key("decoder_ns").value(at.decoder_s * 1e9);
  j.key("wordline_ns").value(at.wordline_s * 1e9);
  j.key("bitline_ns").value(at.bitline_s * 1e9);
  j.key("senseamp_ns").value(at.senseamp_s * 1e9);
  j.key("clock_ns").value(t.timing.clock_period_s * 1e9);
  j.key("access_budget_ns").value(t.timing.access_budget_s * 1e9);
  j.key("wns_ns").value(at.report.wns_s * 1e9);
  j.key("setup_clean").value(at.report.setup_clean());
  j.end_object();
  j.end_object();
  write_doc("bench_timing", j, path);
}

void print_timing() {
  const tech::Tech& t = fig6_spec().resolved_technology();
  const sta::AccessTiming at =
      sta::analyze_access_path(t, fig6_spec().geometry(), 2.0,
                               fig6_options());
  std::printf("\n=== STA signoff: Fig. 6 module (4 K x 128, 64 KB) ===\n");
  std::printf("%s", at.report.render().c_str());
  std::printf(
      "access %.2f ns (decoder %.2f + wordline %.2f + bitline %.2f + "
      "senseamp %.2f), write %.2f ns, clock %.1f ns\n",
      at.access_s * 1e9, at.decoder_s * 1e9, at.wordline_s * 1e9,
      at.bitline_s * 1e9, at.senseamp_s * 1e9, at.write_s * 1e9,
      t.timing.clock_period_s * 1e9);
  std::printf("analysis %.2f ms (best of 5)\n", timed_analysis());
}

void BM_BuildAccessGraph(benchmark::State& state) {
  const tech::Tech& t = fig6_spec().resolved_technology();
  const sim::RamGeometry geo = fig6_spec().geometry();
  for (auto _ : state)
    benchmark::DoNotOptimize(sta::build_access_graph(t, geo, 2.0).arc_count());
}
BENCHMARK(BM_BuildAccessGraph)->Unit(benchmark::kMillisecond);

void BM_Analyze(benchmark::State& state) {
  const sta::TimingGraph& g = fig6_graph();
  const sta::AnalyzeOptions opt = fig6_options();
  for (auto _ : state) benchmark::DoNotOptimize(g.analyze(opt).wns_s);
}
BENCHMARK(BM_Analyze)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  Cli cli("bench_timing",
          "STA signoff and analysis timing on the Fig. 6 64 KB module.");
  cli.optional_value("--json", &json, &json_path,
                     "emit the signoff and timings as JSON (to FILE or "
                     "stdout) and skip the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    timing_json(json_path);
    return 0;
  }
  print_timing();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
