// Reproduces Table I: BISR overhead with four spare rows (process
// CDA 0.7u 3M 1P). The paper's table lists, per configuration (number of
// words, bpw, bpc), the module geometry in um x um and the area overhead
// of redundancy + BIST + BISR; the headline claims are overhead <= 7%
// for realistic embedded sizes (64 Kb - 4 Mb) and ~1% of a whole chip.
// `--json [FILE]` emits the table as machine-readable rows instead of
// running the Google benchmarks.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/compiler.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;

struct Config {
  std::uint32_t words;
  int bpw;
  int bpc;
};

constexpr Config kTable1[] = {
    {2048, 32, 4},    // 64 Kb
    {4096, 32, 4},    // 128 Kb
    {4096, 32, 8},    // 128 Kb, wider mux
    {8192, 32, 8},    // 256 Kb
    {4096, 64, 8},    // 256 Kb wide word
    {8192, 64, 8},    // 512 Kb
    {16384, 64, 8},   // 1 Mb
    {4096, 128, 8},   // 512 Kb (Fig. 6 word organization)
    {16384, 128, 8},  // 2 Mb
    {32768, 128, 8},  // 4 Mb
};

core::Datasheet table1_sheet(const Config& c) {
  core::RamSpec spec;
  spec.words = c.words;
  spec.bpw = c.bpw;
  spec.bpc = c.bpc;
  spec.spare_rows = 4;
  spec.gate_size = 2.0;
  spec.strap_interval = 32;
  return core::Compiler().run(spec).sheet;
}

void print_table1() {
  std::printf(
      "\n=== Table I: BISR overhead, 4 spare rows, process cda.7u3m1p "
      "===\n");
  TextTable t;
  t.header({"words", "bpw", "bpc", "kbit", "geometry um x um", "overhead %",
            "access ns", "tlb ns"});
  for (const Config& c : kTable1) {
    const core::Datasheet ds = table1_sheet(c);
    t.row({std::to_string(c.words), std::to_string(c.bpw),
           std::to_string(c.bpc),
           strfmt("%llu", static_cast<unsigned long long>(
                              ds.geo.bits() / 1024)),
           strfmt("%.0f x %.0f", ds.width_um, ds.height_um),
           strfmt("%.2f", ds.overhead_pct),
           strfmt("%.2f", ds.timing.access_s * 1e9),
           strfmt("%.2f", ds.timing.tlb_penalty_s * 1e9)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "paper check: overhead <= 7%% for realistic sizes (64 Kb - 4 Mb) and "
      "shrinking with array size.\n");
}

void print_table1_json(const std::string& path) {
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("area_overhead");
  j.key("spare_rows").value(4);
  j.key("technology").value(core::RamSpec{}.technology);
  j.key("rows").begin_array();
  for (const Config& c : kTable1) {
    const core::Datasheet ds = table1_sheet(c);
    j.begin_object();
    j.key("words").value(static_cast<std::int64_t>(c.words));
    j.key("bpw").value(c.bpw);
    j.key("bpc").value(c.bpc);
    j.key("kbit").value(static_cast<std::uint64_t>(ds.geo.bits() / 1024));
    j.key("width_um").value(ds.width_um);
    j.key("height_um").value(ds.height_um);
    j.key("overhead_pct").value(ds.overhead_pct);
    j.key("access_ns").value(ds.timing.access_s * 1e9);
    j.key("tlb_penalty_ns").value(ds.timing.tlb_penalty_s * 1e9);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_area_overhead: cannot write '%s'\n",
                   path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
  }
}

void BM_GenerateSmallModule(benchmark::State& state) {
  for (auto _ : state) {
    core::RamSpec spec;
    spec.words = 1024;
    spec.bpw = 16;
    spec.bpc = 4;
    benchmark::DoNotOptimize(core::Compiler().run(spec).sheet.area_mm2);
  }
}
BENCHMARK(BM_GenerateSmallModule)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  Cli cli("bench_area_overhead", "Table I: BISR area-overhead sweep.");
  cli.optional_value("--json", &json, &json_path,
                     "emit Table I as JSON (to FILE or stdout) and skip the "
                     "benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    print_table1_json(json_path);
    return 0;
  }
  print_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
