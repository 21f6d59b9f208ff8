// Reproduces the Section VI controller claims: "the self-test and
// self-repair controller consists of 59 states, encoded using six
// flip-flops, and a pseudo-NMOS NOR-NOR PLA. The controller area is
// found to be a very tiny fraction of the memory array area (less than
// 0.1%) for a 16-kbyte RAM." Also demonstrates swapping the control
// program: "changing these files to implement a different test algorithm
// is a simple and straightforward matter."

// `--json [FILE]` emits the controller statistics as a machine-readable
// table instead of running the Google benchmarks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "core/compiler.hpp"
#include "macro/macros.hpp"
#include "sim/controller.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;

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

void print_controller() {
  std::printf("\n=== Section VI: TRPLA controller statistics ===\n");
  TextTable t;
  t.header({"program", "passes", "states", "FFs", "PLA terms",
            "PLA grid (rows x cols)"});
  const std::vector<std::pair<const char*, const march::MarchTest*>> tests = {
      {"IFA-9", &march::ifa9()},
      {"IFA-13", &march::ifa13()},
      {"MATS+", &march::mats_plus()},
      {"March C-", &march::march_c_minus()},
  };
  for (const auto& [name, test] : tests) {
    for (int passes : {2, 4}) {
      const auto ctrl = microcode::build_trpla(*test, passes);
      t.row({name, std::to_string(passes), std::to_string(ctrl.num_states),
             std::to_string(ctrl.state_bits),
             std::to_string(ctrl.pla.terms()),
             strfmt("%d x %d", ctrl.pla.grid_rows(), ctrl.pla.grid_cols())});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("paper reference point: 59 states in 6 flip-flops for the "
              "IFA-9 two-pass controller (our factoring differs slightly "
              "but fits the same 6-FF state register).\n");

  // Controller area fraction for a 16 KB RAM (paper: < 0.1%).
  core::RamSpec spec;
  spec.words = 4096;
  spec.bpw = 32;
  spec.bpc = 4;
  const core::Datasheet ds = core::Compiler().run(spec).sheet;
  std::printf("\ncontroller area for a 16 KB RAM: %.4f%% of the array "
              "(paper < 0.1%%)\n",
              ds.controller_pct);
}

void controller_json(const std::string& path) {
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("controller_stats");
  j.key("programs").begin_array();
  const std::vector<std::pair<const char*, const march::MarchTest*>> tests = {
      {"IFA-9", &march::ifa9()},
      {"IFA-13", &march::ifa13()},
      {"MATS+", &march::mats_plus()},
      {"March C-", &march::march_c_minus()},
  };
  for (const auto& [name, test] : tests) {
    for (int passes : {2, 4}) {
      const auto ctrl = microcode::build_trpla(*test, passes);
      j.begin_object();
      j.key("program").value(name);
      j.key("passes").value(passes);
      j.key("states").value(ctrl.num_states);
      j.key("state_bits").value(ctrl.state_bits);
      j.key("pla_terms").value(ctrl.pla.terms());
      j.key("pla_grid_rows").value(ctrl.pla.grid_rows());
      j.key("pla_grid_cols").value(ctrl.pla.grid_cols());
      j.end_object();
    }
  }
  j.end_array();
  core::RamSpec spec;
  spec.words = 4096;
  spec.bpw = 32;
  spec.bpc = 4;
  j.key("controller_pct_16kb")
      .value(core::Compiler().run(spec).sheet.controller_pct);
  j.end_object();
  write_doc("bench_controller", j, path);
}

void BM_BuildTrpla(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        microcode::build_trpla(march::ifa9(), 2).pla.terms());
}
BENCHMARK(BM_BuildTrpla);

void BM_MicrocodedBistRun(benchmark::State& state) {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  for (auto _ : state) {
    sim::RamModel ram(g);
    ram.array().inject(sim::stuck_bit_fault(g, 13, 1, true));
    benchmark::DoNotOptimize(sim::run_microcoded_bist(ram).spares_used);
  }
}
BENCHMARK(BM_MicrocodedBistRun)->Unit(benchmark::kMillisecond);

void BM_BehaviouralBistRun(benchmark::State& state) {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  for (auto _ : state) {
    sim::RamModel ram(g);
    ram.array().inject(sim::stuck_bit_fault(g, 13, 1, true));
    benchmark::DoNotOptimize(sim::self_test_and_repair(ram).spares_used);
  }
}
BENCHMARK(BM_BehaviouralBistRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  Cli cli("bench_controller",
          "Section VI TRPLA controller statistics and BIST runs.");
  cli.optional_value("--json", &json, &json_path,
                     "emit the controller statistics as JSON (to FILE or "
                     "stdout) and skip the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    controller_json(json_path);
    return 0;
  }
  print_controller();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
