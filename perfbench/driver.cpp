// The benchmark's operation driver: one process runs one operation of
// one workload and reports it on stdout, so every operation starts with
// cold caches (the program keeps process-global characterization caches
// that a fresh core::Compiler does not reset) and its peak RSS is its
// own. perfbench/run.py spawns it in a closed loop and gates the
// outputs; see perfbench/README.md for the protocol.
//
//   perfbench_driver --workload W --seed N [--trace] [--setup-only]
//                    [--spec JSON]
//   perfbench_driver --selftest traced-compile
//
// Protocol: after set-up (deck resolution, input generation, pool
// warm-up) the driver prints "READY <seconds from main() to here>" and
// flushes; after the operation it prints one line "RESULT {json}" and
// exits (0: the operation returned, 3: it threw). With --trace the operation runs through the staged,
// span-wrapped path and the result carries spans and counters.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/bisramgen.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "dse/engine.hpp"
#include "extract/erc.hpp"
#include "extract/extract.hpp"
#include "extract/lvs.hpp"
#include "geom/layout_db.hpp"
#include "macro/macros.hpp"
#include "march/analysis.hpp"
#include "microcode/controller.hpp"
#include "models/batch.hpp"
#include "models/yield.hpp"
#include "sim/importance.hpp"
#include "pnr/floorplan.hpp"
#include "sta/access_path.hpp"
#include "sta/leaf.hpp"
#include "tech/tech.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "verify/microprogram.hpp"
#include "verify/signoff.hpp"

namespace {

using namespace bisram;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;  // the benchmark's worker-thread ceiling

// --- process probes -----------------------------------------------------------

/// A numeric field of /proc/self/status (memory fields are in kB).
double proc_status(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':')
      return std::strtod(line.c_str() + n + 1, nullptr);
  return 0;
}

double status_mb(const char* field) { return proc_status(field) / 1024.0; }

/// Resets VmHWM to the current RSS (Linux clear_refs "5").
void reset_hwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

struct CpuTimes {
  double user = 0, sys = 0;
};

CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6,
          ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6};
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- JSON emission (full precision; util/json's writer rounds to 12
// --- significant digits, too coarse for byte-exact expected values) ----------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

class Obj {
 public:
  Obj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  Obj& num(const std::string& k, long long v) {
    return raw(k, std::to_string(v));
  }
  Obj& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Obj& str(const std::string& k, const std::string& v) { return raw(k, jstr(v)); }
  Obj& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += jstr(k) + ':' + json;
    return *this;
  }
  std::string json() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

// --- tracing: spans and counters kept in memory, reported at exit -------------

struct Span {
  std::string name;
  int parent = -1;
  double t0 = 0, t1 = 0;  ///< seconds since the driver started
  double hwm_mb = -1;     ///< VmHWM at close when tracked (reset at open)
};

struct Trace {
  bool on = false;
  Clock::time_point epoch = Clock::now();
  std::vector<Span> spans;
  std::vector<int> open;
  std::map<std::string, double> counters;

  double now() const { return seconds(epoch, Clock::now()); }
  void count(const std::string& name, double delta) {
    if (on) counters[name] += delta;
  }
};

Trace g_trace;

/// A span around one call into a layer; a no-op unless tracing is on.
class Scope {
 public:
  explicit Scope(std::string name, bool track_hwm = false)
      : track_hwm_(track_hwm && g_trace.on) {
    if (!g_trace.on) return;
    if (track_hwm_) reset_hwm();
    id_ = static_cast<int>(g_trace.spans.size());
    Span s;
    s.name = std::move(name);
    s.parent = g_trace.open.empty() ? -1 : g_trace.open.back();
    s.t0 = g_trace.now();
    g_trace.spans.push_back(std::move(s));
    g_trace.open.push_back(id_);
  }
  ~Scope() {
    if (id_ < 0) return;
    Span& s = g_trace.spans[static_cast<std::size_t>(id_)];
    s.t1 = g_trace.now();
    if (track_hwm_) s.hwm_mb = status_mb("VmHWM");
    g_trace.open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool track_hwm_;
  int id_ = -1;
};

std::string trace_json() {
  std::string spans = "[";
  for (std::size_t i = 0; i < g_trace.spans.size(); ++i) {
    const Span& s = g_trace.spans[i];
    if (i) spans += ',';
    spans += '[' + jstr(s.name) + ',' + std::to_string(s.parent) + ',' +
             jnum(s.t0) + ',' + jnum(s.t1) + ',' + jnum(s.hwm_mb) + ']';
  }
  spans += ']';
  Obj counters;
  for (const auto& [k, v] : g_trace.counters) counters.num(k, v);
  return Obj().raw("spans", spans).raw("counters", counters.json()).json();
}

// --- workload inputs ------------------------------------------------------------

/// Fig. 6: 64 KB, 4096 words x 128 bits, bpc 8 (512 rows x 1024 columns).
core::RamSpec fig6_spec() {
  core::RamSpec s;
  s.words = 4096;
  s.bpw = 128;
  s.bpc = 8;
  s.spare_rows = 4;
  s.technology = "cda.7u3m1p";
  s.test = &march::ifa9();
  return s;
}

/// Fig. 6's word width and column mux at a quarter of the words.
core::RamSpec signoff_spec() {
  core::RamSpec s = fig6_spec();
  s.words = 1024;
  return s;
}

struct YieldPoint {
  int spares = 4;
  double mean = 0;
  bool stratified = false;
  int trials = 0;
  std::string label;  ///< the sim.campaign_s.<label> metric suffix
};

constexpr double kAlpha = 2.0;

/// BISR area growth per spare-row count (the models' default factors).
double growth_for(int spares) {
  return spares == 4 ? 1.05 : spares == 8 ? 1.06 : 1.08;
}

/// The Fig. 4 geometry: 4096 x 4, bpc 4 (1024 rows).
sim::RamGeometry fig4_geometry(int spares) {
  sim::RamGeometry g;
  g.words = 4096;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = spares;
  return g;
}

/// Plain-sampled points across the Fig. 4 x-axis for 4/8/16 spares, and
/// the production-density point with stratified sampling. Trial counts
/// shrink with the defect mean so each point costs a similar time.
std::vector<YieldPoint> yield_points() {
  std::vector<YieldPoint> pts;
  const struct {
    double mean;
    int trials;
    const char* label;
  } xs[] = {{1, 3000, "d1"}, {10, 2000, "d10"}, {25, 1500, "d25"},
            {100, 500, "d100"}};
  for (int spares : {4, 8, 16})
    for (const auto& x : xs) pts.push_back({spares, x.mean, false, x.trials, x.label});
  pts.push_back({4, 0.08, true, 20000, "d0.08"});
  return pts;
}

dse::SweepSpec dse_lattice() {
  dse::SweepSpec s;
  s.words = {256, 1024};
  s.bpw = {8, 32};
  s.bpc = {4, 8};
  s.spare_rows = {4, 8, 16};
  s.gate_size = {1.5, 2.5};
  for (const char* name : {"cda.7u3m1p", "cda.5u3m1p", "mos.6u3m1pHP"})
    s.tech.push_back(dse::TechChoice{name, nullptr});
  return s;
}

// --- output records -----------------------------------------------------------------

std::string datasheet_json(const core::Datasheet& d) {
  const core::TimingReport& t = d.timing;
  const core::PowerReport& p = d.power;
  return Obj()
      .num("rows", static_cast<long long>(d.geo.rows()))
      .num("cols", static_cast<long long>(d.geo.cols()))
      .str("technology", d.technology)
      .num("width_um", d.width_um)
      .num("height_um", d.height_um)
      .num("area_mm2", d.area_mm2)
      .num("array_mm2", d.array_mm2)
      .num("spare_mm2", d.spare_mm2)
      .num("decoder_mm2", d.decoder_mm2)
      .num("periphery_mm2", d.periphery_mm2)
      .num("bist_mm2", d.bist_mm2)
      .num("bisr_mm2", d.bisr_mm2)
      .num("overhead_pct", d.overhead_pct)
      .num("controller_pct", d.controller_pct)
      .num("tau_s", t.tau_s)
      .num("decoder_s", t.decoder_s)
      .num("wordline_s", t.wordline_s)
      .num("bitline_s", t.bitline_s)
      .num("senseamp_s", t.senseamp_s)
      .num("access_s", t.access_s)
      .num("write_s", t.write_s)
      .num("setup_s", t.setup_s)
      .num("hold_s", t.hold_s)
      .num("tlb_penalty_s", t.tlb_penalty_s)
      .num("read_energy_j", p.read_energy_j)
      .num("write_energy_j", p.write_energy_j)
      .num("active_power_w", p.active_power_w)
      .num("standby_power_w", p.standby_power_w)
      .num("test_cycles", static_cast<long long>(d.test_cycles))
      .num("test_time_s", d.test_time_s)
      .num("controller_states", static_cast<long long>(d.controller_states))
      .num("controller_terms", static_cast<long long>(d.controller_terms))
      .num("state_register_bits", static_cast<long long>(d.state_register_bits))
      .num("rectangularity", d.rectangularity)
      .num("drc_violations", static_cast<long long>(d.drc_violations))
      .json();
}

std::string route_json(const pnr::RouteStats& r) {
  return Obj()
      .num("routed_spans", static_cast<long long>(r.routed_spans))
      .num("via_stacks", static_cast<long long>(r.via_stacks))
      .num("m3_wires", static_cast<long long>(r.m3_wires))
      .num("m3_length_dbu", r.m3_length_dbu)
      .num("m3_conflicts", static_cast<long long>(r.m3_conflicts))
      .json();
}

std::string bbox_json(const geom::Rect& b) {
  return '[' + std::to_string(b.lo.x) + ',' + std::to_string(b.lo.y) + ',' +
         std::to_string(b.hi.x) + ',' + std::to_string(b.hi.y) + ']';
}

std::string compile_json(const geom::Cell& top, const pnr::RouteStats& route,
                         const core::Datasheet& ds) {
  return Obj()
      .raw("top_bbox", bbox_json(top.bbox()))
      .raw("route", route_json(route))
      .raw("datasheet", datasheet_json(ds))
      .json();
}

// --- the traced compile: Compiler::assemble's order, one span per call ----------

struct TracedCompile {
  const tech::Tech* tech;
  core::Assembled a;
  core::Datasheet ds;
};

core::Assembled traced_assemble(const core::RamSpec& spec, const tech::Tech& t) {
  const sim::RamGeometry geo = spec.geometry();
  // The control program comes first: its PLA shape sizes the TRPLA macro.
  std::optional<microcode::AssembledController> program;
  {
    Scope s("microcode.build_trpla");
    program.emplace(microcode::build_trpla(*spec.test, spec.max_passes));
  }
  core::Assembled out{std::make_unique<geom::Library>(),
                      nullptr,
                      std::move(*program),
                      {},
                      {},
                      0, 0, 0, 0, 0, 0, 0, 0};
  geom::Library& lib = *out.library;
  macro::MacroOptions opt;
  opt.gate_size = spec.gate_size;
  opt.strap_interval = spec.strap_interval;
  opt.strap_width_lambda = spec.strap_width_lambda;

  geom::CellPtr array, decoders, periphery, addgen, datagen, streg, tlb, trpla;
  {
    Scope s("macro.ram_array");
    array = macro::ram_array(lib, t, geo, opt);
  }
  {
    Scope s("macro.row_decoder");
    decoders = macro::row_decoder_column(lib, t, geo.rows(), opt);
  }
  {
    Scope s("macro.column_periphery");
    periphery = macro::column_periphery(lib, t, geo, opt);
  }
  {
    Scope s("macro.bist_bisr");
    const int addr_bits = log2_ceil(std::max<std::uint64_t>(geo.words, 2));
    addgen = macro::addgen_macro(lib, t, addr_bits);
    datagen = macro::datagen_macro(lib, t, geo.bpw);
    streg = macro::streg_macro(lib, t, out.trpla.state_bits);
    tlb = macro::tlb_macro(lib, t, geo.spare_words(), addr_bits);
    trpla = macro::trpla_macro(lib, t, out.trpla.pla);
  }
  const std::vector<pnr::Block> blocks = {
      {"RAMARRAY", array},   {"ROWDEC", decoders}, {"COLPERIPH", periphery},
      {"ADDGEN", addgen},    {"DATAGEN", datagen}, {"STREG", streg},
      {"TLB", tlb},          {"TRPLA", trpla},
  };
  const std::vector<pnr::Net> nets = {
      {"wordlines", {{0, "decoder_side"}, {1, "wl_out"}}},
      {"bitlines", {{0, "column_side"}, {2, "bitline_top"}}},
      {"address", {{3, "bus"}, {1, "addr_in"}, {6, "addr_in"}}},
      {"data", {{4, "bus"}, {2, "data_out"}}},
      {"spare_select", {{6, "spare_out"}, {0, "decoder_side"}}},
      {"control",
       {{7, "outputs"}, {3, "control"}, {4, "control"}, {5, "control"}}},
      {"state", {{5, "bus"}, {7, "inputs"}}},
  };
  pnr::FloorplanOptions fp_opt;
  fp_opt.spacing = geom::dbu(12);
  {
    Scope s("pnr.floorplan");
    out.plan = pnr::floorplan(blocks, nets, fp_opt);
  }
  {
    Scope s("pnr.build_top", /*track_hwm=*/true);
    out.top = pnr::build_top(lib, t, "bisram_top", blocks, nets, out.plan,
                             &out.route);
  }
  g_trace.count("pnr.routed_spans", out.route.routed_spans);
  g_trace.count("pnr.m3_wires", out.route.m3_wires);
  {
    Scope s("macro.area");
    out.array_total_mm2 = macro::macro_area_mm2(t, *array);
    out.decoder_mm2 = macro::macro_area_mm2(t, *decoders);
    out.periphery_mm2 = macro::macro_area_mm2(t, *periphery);
    out.addgen_mm2 = macro::macro_area_mm2(t, *addgen);
    out.datagen_mm2 = macro::macro_area_mm2(t, *datagen);
    out.streg_mm2 = macro::macro_area_mm2(t, *streg);
    out.tlb_mm2 = macro::macro_area_mm2(t, *tlb);
    out.trpla_mm2 = macro::macro_area_mm2(t, *trpla);
  }
  return out;
}

TracedCompile traced_compile(core::Compiler& session,
                             const core::RamSpec& spec) {
  const tech::Tech* t = nullptr;
  {
    Scope s("core.resolve_tech");
    t = &session.resolve_tech(spec);
  }
  TracedCompile c{t, traced_assemble(spec, *t), {}};
  {
    // The datasheet's own lookup then hits the session cache, so the
    // characterization shows as its own span.
    Scope s("core.leaf_library");
    const int row_bits = std::max(
        1, log2_ceil(static_cast<std::uint64_t>(spec.geometry().rows())));
    session.leaf_library(*c.tech, spec.gate_size, row_bits);
  }
  {
    Scope s("core.datasheet");
    c.ds = session.datasheet(spec, *c.tech, c.a);
  }
  const core::CompileCache::Stats cs = session.cache()->stats();
  g_trace.count("core.leaf_lookups", static_cast<double>(cs.leaf_lookups));
  g_trace.count("core.leaf_misses", static_cast<double>(cs.leaf_misses));
  return c;
}

// --- operations -------------------------------------------------------------------

std::string op_compile(const core::RamSpec& spec) {
  if (!g_trace.on) {
    const core::Generated g = core::Compiler().run(spec);
    return compile_json(*g.top, g.route, g.sheet);
  }
  core::Compiler session;
  const TracedCompile c = traced_compile(session, spec);
  return compile_json(*c.a.top, c.a.route, c.ds);
}

/// bisram_lint's leaf ERC/LVS step, rebuilt from public calls because
/// verify::run_signoff keeps it internal.
std::vector<std::string> leaf_erc_lvs(const core::RamSpec& spec,
                                      const tech::Tech& tech) {
  std::vector<std::string> details;
  geom::Library lib;
  const double size = spec.gate_size;
  const int decoder_bits = std::max(
      1, log2_ceil(static_cast<std::uint64_t>(spec.geometry().total_rows())));
  const extract::Schematic sram = extract::sram6t_schematic();
  const extract::Schematic precharge = extract::precharge_schematic();
  const extract::Schematic mux = extract::column_mux_schematic();
  const std::pair<geom::CellPtr, const extract::Schematic*> entries[] = {
      {cells::sram_cell_6t(lib, tech), &sram},
      {cells::precharge_cell(lib, tech, size), &precharge},
      {cells::column_mux_cell(lib, tech, size), &mux},
      {cells::write_driver_cell(lib, tech, size), nullptr},
      {cells::row_decoder_cell(lib, tech, decoder_bits, size), nullptr},
  };
  for (const auto& [cell, golden] : entries) {
    const extract::Extracted ex = extract::extract(*cell, tech);
    for (const auto& v : extract::check_erc(ex))
      details.push_back(cell->name() + ": " + extract::describe(v));
    if (golden && !extract::compare(ex, *golden).match)
      details.push_back(cell->name() + ": LVS mismatch");
  }
  return details;
}

std::string signoff_json(const verify::SignoffReport& r) {
  return Obj()
      .num("drc_violations", static_cast<long long>(r.drc_violations))
      .flag("micro_clean", r.micro.clean())
      .flag("hang_free", r.micro.hang_free)
      .flag("deterministic", r.micro.deterministic())
      .num("worst_case_cycles", static_cast<long long>(r.micro.worst_case_cycles))
      .num("product_states_explored",
           static_cast<long long>(r.micro.product_states_explored))
      .flag("erc_lvs_clean", r.erc_lvs_clean())
      .flag("timing_clean", r.timing_clean())
      .num("access_s", r.access_s)
      .num("write_s", r.write_s)
      .num("wns_s", r.timing.wns_s)
      .num("endpoints", static_cast<long long>(r.timing.endpoints.size()))
      .num("watchdog_budget_s", r.watchdog_budget_s)
      .flag("detects_saf", r.march.detects_saf)
      .num("test_cycles", static_cast<long long>(r.test_cycles))
      .num("area_mm2", r.area_mm2)
      .num("overhead_pct", r.overhead_pct)
      .json();
}

/// run_signoff's defaults step by step, one span per call.
verify::SignoffReport traced_signoff(const core::RamSpec& spec) {
  Scope root("verify.run_signoff");
  const verify::SignoffOptions options;
  core::Compiler session;
  const TracedCompile c = traced_compile(session, spec);
  const tech::Tech& tech = *c.tech;
  verify::SignoffReport rep;
  rep.area_mm2 = c.ds.area_mm2;
  rep.overhead_pct = c.ds.overhead_pct;
  rep.test_cycles = c.ds.test_cycles;
  {
    Scope s("verify.micro");
    verify::VerifyOptions micro = options.micro;
    micro.bpw = std::min(micro.bpw, spec.bpw);
    micro.johnson_backgrounds = spec.johnson_backgrounds;
    rep.micro = verify::analyze_controller(c.a.trpla, micro);
  }
  {
    rep.drc_ran = true;
    std::unique_ptr<geom::LayoutDB> db;
    {
      // Return freed heap pages first so the RSS delta is the database's.
      malloc_trim(0);
      Scope s("geom.flatten", /*track_hwm=*/true);
      const double rss0 = status_mb("VmRSS");
      db = std::make_unique<geom::LayoutDB>(*c.a.top,
                                            drc::tile_size_for(tech));
      const double shapes = static_cast<double>(db->shape_count());
      g_trace.count("geom.shapes", shapes);
      g_trace.count("geom.resident_bytes",
                    (status_mb("VmRSS") - rss0) * 1024.0 * 1024.0);
    }
    Scope s("drc.check");
    rep.drc_violations = drc::check(*db, tech).size();
    g_trace.count("drc.violations", static_cast<double>(rep.drc_violations));
  }
  {
    rep.erc_lvs_ran = true;
    Scope s("verify.residual");
    rep.erc_lvs_details = leaf_erc_lvs(spec, tech);
  }
  {
    rep.timing_ran = true;
    Scope s("sta.access_path");
    sta::AnalyzeOptions aopt;
    aopt.clock_period_s = tech.timing.clock_period_s;
    aopt.k_paths = options.timing_paths;
    aopt.threads = options.threads;
    const sta::AccessTiming at =
        sta::analyze_access_path(tech, spec.geometry(), spec.gate_size, aopt);
    rep.timing = at.report;
    rep.access_s = at.access_s;
    rep.write_s = at.write_s;
    rep.access_budget_s = tech.timing.access_budget_s;
    if (rep.micro.hang_free)
      rep.watchdog_budget_s =
          static_cast<double>(rep.micro.worst_case_cycles) *
          rep.timing.clock_period_s;
    g_trace.count("sta.endpoints",
                  static_cast<double>(rep.timing.endpoints.size()));
  }
  {
    Scope s("march.analyze");
    rep.march = march::analyze(*spec.test);
  }
  return rep;
}

std::string op_signoff(const core::RamSpec& spec, double* signoff_s,
                       double* extract_s) {
  const auto t0 = Clock::now();
  const verify::SignoffReport rep =
      g_trace.on ? traced_signoff(spec) : verify::run_signoff(spec);
  const auto t1 = Clock::now();
  // Full-chip extraction of the same layout: the public path is a
  // compile followed by extract::extract (which flattens the top).
  extract::Extracted ex;
  if (!g_trace.on) {
    core::Compiler session;
    const core::Generated g = session.run(spec);
    ex = extract::extract(*g.top, spec.resolved_technology());
  } else {
    Scope root("extract.full_chip");
    core::Compiler session;
    const TracedCompile c = traced_compile(session, spec);
    std::unique_ptr<geom::LayoutDB> db;
    {
      Scope s("geom.flatten", /*track_hwm=*/true);
      db = std::make_unique<geom::LayoutDB>(*c.a.top);
    }
    Scope s("extract.extract", /*track_hwm=*/true);
    ex = extract::extract(*db, *c.tech);
    g_trace.count("extract.nets", ex.net_count);
    g_trace.count("extract.devices", static_cast<double>(ex.devices.size()));
  }
  const auto t2 = Clock::now();
  *signoff_s = seconds(t0, t1);
  *extract_s = seconds(t1, t2);
  return Obj()
      .raw("signoff", signoff_json(rep))
      .num("nets", static_cast<long long>(ex.net_count))
      .num("devices", static_cast<long long>(ex.devices.size()))
      .json();
}

/// The standard error the campaign's estimator would have if the
/// analytic model held: the z-test's yardstick. Plain sampling gives
/// a(1-a)/n; stratified sampling gives sum_k Pk^2 qk(1-qk)/nk over the
/// campaign's own strata plan, with qk the analytic repair probability
/// of k defects. The estimator's reported SE is the plug-in form of the
/// same sums, which collapses when a stratum sees few or no failures.
double analytic_sampling_se(const sim::RamGeometry& geo, const YieldPoint& p,
                            const sim::SamplingSpec& sampling,
                            double analytic) {
  if (!p.stratified)
    return std::sqrt(analytic * (1 - analytic) / p.trials);
  const sim::StrataPlan plan = sim::plan_strata(
      p.mean * growth_for(p.spares), kAlpha, p.trials, sampling);
  double var = 0;
  for (const sim::Stratum& st : plan.strata) {
    const double q = models::repair_probability(geo, st.defects);
    var += st.probability * st.probability * q * (1 - q) / st.trials;
  }
  return std::sqrt(var);
}

std::string op_yield(const std::vector<YieldPoint>& pts, std::uint64_t seed) {
  std::string out = "[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const YieldPoint& p = pts[i];
    const sim::RamGeometry geo = fig4_geometry(p.spares);
    sim::CampaignSpec cs;
    cs.trials = p.trials;
    cs.seed = seed;
    cs.threads = kThreads;
    cs.sampling.mode =
        p.stratified ? sim::SamplingMode::Stratified : sim::SamplingMode::Plain;
    sim::CampaignResult<models::BisrYieldMc> r;
    {
      Scope s("sim.campaign." + p.label);
      r = models::bisr_yield_mc_with_bist(geo, p.mean, kAlpha,
                                          growth_for(p.spares), cs);
    }
    double analytic = 0, analytic_se = 0, stapper = 0;
    {
      Scope s("models.analytic");
      analytic = models::bisr_yield(geo, p.mean, kAlpha, growth_for(p.spares));
      analytic_se = analytic_sampling_se(geo, p, cs.sampling, analytic);
      stapper = models::stapper_yield(p.mean, kAlpha);
    }
    g_trace.count("sim.die_sims", static_cast<double>(r.value.die_sims));
    g_trace.count("sim.trials", p.trials);
    g_trace.count("sim.packed_trials",
                  static_cast<double>(r.provenance.packed_trials));
    g_trace.count("sim.scalar_trials",
                  static_cast<double>(r.provenance.scalar_trials));
    g_trace.count("sim.strata", static_cast<double>(r.provenance.strata));
    if (i) out += ',';
    out += Obj()
               .num("spares", static_cast<long long>(p.spares))
               .num("mean", p.mean)
               .flag("stratified", p.stratified)
               .num("trials", static_cast<long long>(p.trials))
               .num("trials_done",
                    static_cast<long long>(r.provenance.trials_done))
               .num("die_sims", static_cast<long long>(r.value.die_sims))
               .num("strict_good", r.value.strict_good)
               .num("strict_good_se", r.value.strict_good_se)
               .num("bist_repaired", r.value.bist_repaired)
               .num("analytic", analytic)
               .num("analytic_se", analytic_se)
               .num("stapper", stapper)
               .str("termination", termination_name(r.termination))
               .json();
  }
  return out + "]";
}

models::EvalInputs eval_inputs(const core::Datasheet& ds) {
  models::EvalInputs in;
  in.geo = ds.geo;
  in.area_mm2 = ds.area_mm2;
  in.base_area_mm2 = ds.array_mm2 + ds.decoder_mm2 + ds.periphery_mm2;
  in.access_s = ds.timing.access_s;
  in.overhead_pct = ds.overhead_pct;
  return in;
}

std::string op_dse(const dse::SweepSpec& sweep, dse::SweepResult& r) {
  dse::RunOptions ro;
  ro.threads = kThreads;
  {
    Scope s("dse.sweep");
    r = dse::run_sweep(sweep, ro);
  }
  g_trace.count("dse.full_compiles", static_cast<double>(r.stats.full_compiles));
  g_trace.count("dse.characterizations",
                static_cast<double>(r.stats.characterizations));
  g_trace.count("dse.invalid", static_cast<double>(r.stats.invalid));
  g_trace.count("dse.frontier_size", static_cast<double>(r.frontier.size()));
  return Obj()
      .num("points", static_cast<long long>(r.stats.points))
      .num("evaluated", static_cast<long long>(r.stats.evaluated))
      .num("invalid", static_cast<long long>(r.stats.invalid))
      .num("full_compiles", static_cast<long long>(r.stats.full_compiles))
      .str("termination", termination_name(r.stats.termination))
      .str("frontier_json", r.frontier_json())
      .raw("sweep", r.json(/*include_all_points=*/true))
      .json();
}

bool same_metrics(const models::DesignMetrics& a, const models::DesignMetrics& b) {
  return a.area_mm2 == b.area_mm2 && a.yield == b.yield &&
         a.mttf_hours == b.mttf_hours && a.cost_usd == b.cost_usd &&
         a.access_ns == b.access_ns && a.overhead_pct == b.overhead_pct;
}

/// Traced runs only, outside the operation span: a seeded sample of
/// lattice points compiled through the Compiler stages and priced by the
/// models, each compared exactly with the sweep's own metrics for the
/// point (run.py fails the operation on a mismatch).
std::string dse_point_sample(const dse::SweepSpec& sweep,
                             const dse::SweepResult& r, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out = "[";
  int taken = 0;
  for (int tries = 0; taken < 4 && tries < 64; ++tries) {
    const std::size_t i = rng() % sweep.size();
    const core::RamSpec spec = sweep.point(i);
    try {
      spec.validate();
    } catch (const SpecError&) {
      continue;
    }
    models::DesignMetrics m;
    {
      Scope s("dse.point_compile");
      core::Compiler session;
      const TracedCompile c = traced_compile(session, spec);
      Scope e("models.evaluate");
      m = models::evaluate_design(eval_inputs(c.ds), sweep.eval);
    }
    if (taken++) out += ',';
    out += Obj()
               .num("index", static_cast<long long>(i))
               .flag("matches_sweep", same_metrics(m, r.points[i].metrics))
               .json();
  }
  return out + "]";
}

// --- selftest: the traced compile equals Compiler::run -------------------------

int selftest_traced_compile() {
  core::RamSpec spec;
  spec.words = 256;
  spec.bpw = 8;
  spec.bpc = 4;
  const core::Generated g = core::Compiler().run(spec);
  const std::string want = compile_json(*g.top, g.route, g.sheet);
  g_trace.on = true;
  core::Compiler session;
  const TracedCompile c = traced_compile(session, spec);
  const std::string got = compile_json(*c.a.top, c.a.route, c.ds);
  std::printf("run:    %s\ntraced: %s\n", want.c_str(), got.c_str());
  const bool same = want == got && g.route.conflict_paths == c.a.route.conflict_paths;
  std::printf("%s\n", same ? "traced compile equals Compiler::run"
                           : "MISMATCH: traced compile differs");
  return same ? 0 : 1;
}

// --- main ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  bool setup_only = false;
  std::string spec_json;
  std::string selftest;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "compile_fig6|signoff_16kb|yield_fig4|dse_sweep --seed N "
               "[--trace] [--setup-only] [--spec JSON]\n"
               "       perfbench_driver --selftest traced-compile\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (k == "--trace") a.trace = true;
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--spec") a.spec_json = next();
    else if (k == "--selftest") a.selftest = next();
    else usage(("unknown argument " + k).c_str());
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_main = Clock::now();
  const Args args = parse(argc, argv);
  if (!args.selftest.empty()) {
    if (args.selftest == "traced-compile") return selftest_traced_compile();
    usage("unknown selftest");
  }
  g_trace.on = args.trace;
  const std::string& w = args.workload;
  if (w != "compile_fig6" && w != "signoff_16kb" && w != "yield_fig4" &&
      w != "dse_sweep")
    usage("unknown workload");

  // --- set-up: deck resolution, input generation, pool warm-up -----------------
  core::RamSpec spec;
  std::vector<YieldPoint> points;
  dse::SweepSpec sweep;
  std::string setup_error;
  {
    Scope s("bench.setup");
    try {
      if (w == "compile_fig6" || w == "signoff_16kb") {
        spec = w == "compile_fig6" ? fig6_spec() : signoff_spec();
        // Tests push other (including invalid) specs through the same
        // operation wrapper; validation is part of the operation.
        if (!args.spec_json.empty()) spec = core::RamSpec::from_json(args.spec_json);
        tech::technology(spec.technology);
      } else if (w == "yield_fig4") {
        points = yield_points();
      } else {
        sweep = dse_lattice();
        for (const dse::TechChoice& tc : sweep.tech) tc.resolved();
      }
    } catch (const std::exception& e) {
      setup_error = e.what();
    }
    Scope p("util.pool_warmup");
    parallel_for(kThreads, 1, [](std::int64_t) {}, kThreads);
  }
  std::printf("READY %s\n", jnum(seconds(t_main, Clock::now())).c_str());
  std::fflush(stdout);
  if (args.setup_only) std::_Exit(0);

  // --- the operation -------------------------------------------------------------
  const std::uint64_t chars0 = sta::characterization_count();
  const CpuTimes c0 = cpu_now();
  const auto t0 = Clock::now();
  Obj result;
  std::string outputs, error = setup_error;
  double signoff_s = 0, extract_s = 0;
  dse::SweepResult sweep_result;
  if (error.empty()) {
    try {
      Scope op("bench.op");
      if (w == "compile_fig6") outputs = op_compile(spec);
      else if (w == "signoff_16kb") outputs = op_signoff(spec, &signoff_s, &extract_s);
      else if (w == "yield_fig4") outputs = op_yield(points, args.seed);
      else outputs = op_dse(sweep, sweep_result);
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  const auto t1 = Clock::now();
  const CpuTimes c1 = cpu_now();
  const double hwm = status_mb("VmHWM");
  g_trace.count("sta.characterizations",
                static_cast<double>(sta::characterization_count() - chars0));
  std::string sample;
  if (g_trace.on && error.empty() && w == "dse_sweep") {
    Scope s("bench.sample");
    sample = dse_point_sample(sweep, sweep_result, args.seed);
  }

  result.str("workload", w)
      .flag("ok", error.empty())
      .str("error", error)
      .num("op_s", seconds(t0, t1))
      .num("cpu_user_s", c1.user - c0.user)
      .num("cpu_sys_s", c1.sys - c0.sys)
      .num("hwm_mb", hwm)
      .num("threads", static_cast<long long>(proc_status("Threads")))
      .num("signoff_s", signoff_s)
      .num("extract_s", extract_s)
      .raw("outputs", outputs.empty() ? "null" : outputs);
  if (!sample.empty()) result.raw("sample", sample);
  if (g_trace.on) result.raw("trace", trace_json());
  std::printf("RESULT %s\n", result.json().c_str());
  std::fflush(stdout);
  // Skip tearing down multi-GB layouts: the process is done.
  std::_Exit(error.empty() ? 0 : 3);
}
