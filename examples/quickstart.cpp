// Quickstart: generate a built-in self-repairable SRAM, read its
// datasheet, break it, and watch it heal itself.
//
//   $ ./quickstart
//
// This walks the complete BISRAMGEN flow on a small module: spec ->
// layout generation -> datasheet, then a behavioural bring-up in which
// we inject manufacturing defects and run the microprogrammed two-pass
// BIST/BISR.

#include <cstdio>

#include "core/compiler.hpp"
#include "sim/bist.hpp"
#include "sim/controller.hpp"

using namespace bisram;

int main() {
  // --- 1. specify the RAM (the paper's Fig. 1 user parameters) ----------
  core::RamSpec spec;
  spec.words = 1024;        // 1 K words
  spec.bpw = 16;            // of 16 bits
  spec.bpc = 4;             // 4-way column multiplexing
  spec.spare_rows = 4;      // 16 spare words of repair capacity
  spec.gate_size = 2.0;     // boost critical gates
  spec.strap_interval = 32;
  spec.technology = "cda.7u3m1p";

  // --- 2. run the physical design tool -----------------------------------
  const core::Generated chip = core::Compiler().run(spec);
  std::printf("%s\n", chip.sheet.render().c_str());

  // --- 3. bring-up: inject defects and self-repair ------------------------
  sim::RamModel ram(spec.geometry());
  // Three stuck cells, as a clustered manufacturing defect would leave.
  ram.array().inject(sim::stuck_bit_fault(spec.geometry(), 100, 3, true));
  ram.array().inject(sim::stuck_bit_fault(spec.geometry(), 101, 3, false));
  ram.array().inject(sim::stuck_bit_fault(spec.geometry(), 731, 9, true));

  // Drive the datapath from the TRPLA microprogram we just generated.
  const sim::BistResult result = sim::run_microcoded_bist(ram);
  std::printf("self-test: pass1 %s, %d spare word(s) used, repair %s "
              "(%llu RAM cycles)\n",
              result.pass1_clean ? "clean" : "found faults",
              result.spares_used,
              result.repair_successful ? "SUCCESSFUL" : "UNSUCCESSFUL",
              static_cast<unsigned long long>(result.cycles));

  // --- 4. use the repaired RAM in normal mode ------------------------------
  sim::Word pattern(16);
  for (int i = 0; i < 16; ++i) pattern[static_cast<std::size_t>(i)] = i % 3 == 0;
  ram.write_word(100, pattern);
  const bool ok = ram.read_word(100) == pattern;
  std::printf("normal-mode write/read at repaired address 100: %s\n",
              ok ? "OK" : "CORRUPT");
  return ok && result.repair_successful ? 0 : 1;
}
