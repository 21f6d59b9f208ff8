// Design-rule independence: the same RAM specification compiled for all
// three registered processes ("CMOS SRAM compilers such as the CDA and
// the ARC try to achieve process independence... BISRAMGEN is
// design-rule independent").
//
// The module shrinks with lambda while every relative metric — overhead
// percentage, penalty ratio, controller share — stays put. That is the
// whole point of generating from rules instead of porting layouts.

#include <cstdio>

#include "core/compiler.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace bisram;

int main() {
  core::RamSpec spec;
  spec.words = 2048;
  spec.bpw = 32;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.gate_size = 2.0;
  spec.strap_interval = 32;

  TextTable t;
  t.header({"process", "feature", "geometry um x um", "area mm^2",
            "overhead %", "access ns", "tlb ns"});
  for (const auto& name : tech::technology_names()) {
    spec.technology = name;
    const core::Datasheet ds = core::Compiler().run(spec).sheet;
    t.row({name, strfmt("%.1f um", tech::technology(name).feature_um),
           strfmt("%.0f x %.0f", ds.width_um, ds.height_um),
           strfmt("%.3f", ds.area_mm2), strfmt("%.2f", ds.overhead_pct),
           strfmt("%.2f", ds.timing.access_s * 1e9),
           strfmt("%.2f", ds.timing.tlb_penalty_s * 1e9)});
  }
  std::printf("64 Kb embedded RAM, identical spec, three processes:\n%s",
              t.render().c_str());
  std::printf(
      "\nnote how the absolute numbers scale with the process while the "
      "overhead percentage is identical — the layout generators consume "
      "only the rule deck.\n");
  return 0;
}
