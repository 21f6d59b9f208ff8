#include "core/bisramgen.hpp"

#include <sstream>

#include "util/math.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace bisram::core {

std::string Datasheet::render() const {
  std::ostringstream os;
  os << "BISRAMGEN datasheet\n";
  os << "===================\n";
  os << strfmt("words            %u x %d bits (bpc %d, %d spare rows)\n",
               geo.words, geo.bpw, geo.bpc, geo.spare_rows);
  os << strfmt("technology       %s\n", technology.c_str());
  os << strfmt("geometry         %.0f um x %.0f um  (%.3f mm^2)\n", width_um,
               height_um, area_mm2);
  TextTable t;
  t.header({"block", "area mm^2"});
  t.row({"array (regular rows)", strfmt("%.4f", array_mm2)});
  t.row({"spare rows", strfmt("%.4f", spare_mm2)});
  t.row({"row decoders", strfmt("%.4f", decoder_mm2)});
  t.row({"column periphery", strfmt("%.4f", periphery_mm2)});
  t.row({"BIST (ADDGEN+DATAGEN+STREG+TRPLA)", strfmt("%.4f", bist_mm2)});
  t.row({"BISR (TLB)", strfmt("%.4f", bisr_mm2)});
  os << t.render();
  os << strfmt("BIST+BISR overhead   %.2f %%\n", overhead_pct);
  os << strfmt("controller share     %.3f %% of array\n", controller_pct);
  os << strfmt("read access          %.2f ns\n", timing.access_s * 1e9);
  os << strfmt("write cycle          %.2f ns\n", timing.write_s * 1e9);
  os << strfmt("addr setup / hold    %.2f / %.2f ns\n", timing.setup_s * 1e9,
               timing.hold_s * 1e9);
  os << strfmt("TLB penalty          %.2f ns (%.1fx below access)\n",
               timing.tlb_penalty_s * 1e9,
               timing.access_s / std::max(timing.tlb_penalty_s, 1e-15));
  os << strfmt("supply               %.1f V, %.1f mA active, %.2f uW standby\n",
               power.vdd, power.active_current_a * 1e3,
               power.standby_power_w * 1e6);
  os << strfmt("energy               %.1f pJ/read, %.1f pJ/write\n",
               power.read_energy_j * 1e12, power.write_energy_j * 1e12);
  os << strfmt("self-test length     %llu cycles (%.1f ms with waits)\n",
               static_cast<unsigned long long>(test_cycles),
               test_time_s * 1e3);
  os << strfmt("controller           %d states, %d PLA terms, %d FFs\n",
               controller_states, controller_terms, state_register_bits);
  os << strfmt("floorplan fill       %.1f %%\n", rectangularity * 100.0);
  return os.str();
}

}  // namespace bisram::core
