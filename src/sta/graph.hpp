#pragma once
// Static timing analysis over an explicit RC timing graph.
//
// The paper sizes its critical gates with "built-in access to SPICE
// utilities" and quotes datasheet access times, but a lumped-RC formula
// (the historical core/timing.cpp model) can only produce one number —
// it cannot say *which* instance on *which* path sets it, and it cannot
// check a clock constraint per endpoint. This module is the repo's
// signoff timing engine: a levelized DAG of electrical nodes and timing
// arcs, Elmore delay propagation for arrival times and slews, a backward
// required-time pass, per-endpoint slack, and the K worst critical paths
// with full provenance (the same instance-path scheme DRC offenders
// carry).
//
// Arc semantics (first-order switch-level model, exactly the physics the
// lumped model used, made path-explicit):
//   * Gate  — a switching stage: the driver resistance `r_ohm` charges
//     the RC tree rooted at the arc's head. delay = delay_s + r * C_net
//     where C_net is the total downstream capacitance of the head's
//     wire tree (computed once per analysis).
//   * Wire  — one segment of an RC interconnect tree: delay = r * C_sub
//     where C_sub is the capacitance at and below the head. Summing the
//     Gate term and the Wire terms along a path reproduces the Elmore
//     delay of the distributed line exactly.
//   * Delay — a fixed, pre-characterized delay (e.g. a logic stage whose
//     tau was calibrated by the SPICE engine, or a leaf-cell stage delay
//     measured on the extracted netlist).
//
// Slew is propagated alongside arrival as a first-order 10-90% estimate
// (2.2 tau for the driving stage, root-sum-square accumulation through
// wire segments); it is reported, not fed back into delay — that is the
// documented fidelity limit of the level-1 model, and the STA-vs-SPICE
// tests in tests/test_sta.cpp pin the resulting envelope.
//
// Every ordering in the report is canonical (slack, then name).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bisram::sta {

enum class ArcKind : std::uint8_t { Gate, Wire, Delay };

/// One electrical node (a pin or a tap of a distributed net).
struct Node {
  std::string name;
  double cap_f = 0;          ///< capacitance at this node
  bool is_source = false;    ///< arrival pinned to the launch time (0)
  bool is_endpoint = false;  ///< slack is reported here
};

/// One timing arc. `tag` is the provenance string shown in path reports
/// (an instance path for extracted devices, a block/structure label for
/// the access-path graph).
struct Arc {
  int from = -1;
  int to = -1;
  ArcKind kind = ArcKind::Delay;
  double r_ohm = 0;    ///< Gate/Wire resistance
  double delay_s = 0;  ///< fixed delay component (Delay arcs; Gate intrinsic)
  std::string tag;
};

/// One step of a critical path, head node of the arc taken.
struct PathStep {
  std::string node;   ///< node name at this step
  std::string tag;    ///< provenance of the arc into it ("" for the source)
  double incr_s = 0;  ///< delay of that arc
  double arrival_s = 0;
};

/// Slack row for one endpoint.
struct EndpointSlack {
  std::string name;
  double arrival_s = 0;
  double slew_s = 0;
  double required_s = 0;
  double slack_s = 0;
};

/// A worst path, source to endpoint.
struct CriticalPath {
  std::string endpoint;
  double arrival_s = 0;
  double required_s = 0;
  double slack_s = 0;
  std::vector<PathStep> steps;
};

struct AnalyzeOptions {
  /// Setup constraint: required time at every endpoint. <= 0 selects the
  /// unconstrained mode where the required time is the latest endpoint
  /// arrival (the critical endpoint then reports slack exactly 0 and
  /// every other endpoint its margin to it).
  double clock_period_s = 0;
  /// Worst paths carried with full step-by-step traces.
  int k_paths = 4;
  /// Ignored: the analysis is serial. Kept only because the repository
  /// benchmark driver (perfbench/driver.cpp) still assigns it; delete it
  /// together with that assignment.
  int threads = 0;
  /// Slew of the launch edge at source nodes.
  double input_slew_s = 0;
};

struct StaReport {
  double clock_period_s = 0;  ///< the constraint actually applied
  bool constrained = false;   ///< false: unconstrained (relative slack) mode
  std::size_t node_count = 0;
  std::size_t arc_count = 0;
  std::size_t endpoint_count = 0;

  double wns_s = 0;  ///< worst (most negative) endpoint slack
  double tns_s = 0;  ///< total negative slack
  double max_arrival_s = 0;  ///< latest endpoint arrival (the access time)

  /// Every endpoint, ordered by (slack ascending, name ascending).
  std::vector<EndpointSlack> endpoints;
  /// The k_paths worst endpoints' full paths, same order.
  std::vector<CriticalPath> worst_paths;

  bool setup_clean() const { return wns_s >= 0; }

  /// Multi-line human rendering (endpoint table capped at `max_rows`).
  std::string render(std::size_t max_rows = 10) const;
};

/// The timing graph. Build with add_node/add_arc; analyze() levelizes
/// and propagates. The graph must be a DAG (analyze throws
/// bisram::SpecError naming a node on a cycle otherwise); wire arcs must
/// form trees (at most one incoming wire arc per node).
class TimingGraph {
 public:
  /// Adds a node and returns its id (dense, starting at 0).
  int add_node(std::string name, double cap_f = 0);
  int add_source(std::string name, double cap_f = 0);
  int add_endpoint(std::string name, double cap_f = 0);

  void set_endpoint(int node, bool on = true);
  void set_source(int node, bool on = true);
  void add_cap(int node, double cap_f);

  /// Adds an arc; returns its id.
  int add_arc(int from, int to, ArcKind kind, double r_ohm, double delay_s,
              std::string tag);
  int add_gate(int from, int to, double r_ohm, std::string tag,
               double intrinsic_s = 0) {
    return add_arc(from, to, ArcKind::Gate, r_ohm, intrinsic_s,
                   std::move(tag));
  }
  int add_wire(int from, int to, double r_ohm, std::string tag) {
    return add_arc(from, to, ArcKind::Wire, r_ohm, 0.0, std::move(tag));
  }
  int add_delay(int from, int to, double delay_s, std::string tag) {
    return add_arc(from, to, ArcKind::Delay, 0.0, delay_s, std::move(tag));
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t arc_count() const { return arcs_.size(); }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  const Arc& arc(int id) const { return arcs_[static_cast<std::size_t>(id)]; }

  /// True when adding from->to would close a directed cycle (used by the
  /// netlist builder to break transistor-level feedback loops the way a
  /// production STA breaks timing loops).
  bool would_cycle(int from, int to) const;

  /// Total capacitance of the wire tree rooted at `node` (the C_net a
  /// Gate arc into `node` drives). Exposed for tests and leaf
  /// characterization.
  double subtree_cap_f(int node) const;

  /// Runs the full analysis. Throws bisram::SpecError on a cyclic graph
  /// or a node with two incoming wire arcs.
  StaReport analyze(const AnalyzeOptions& options = {}) const;

 private:
  std::vector<int> topo_order() const;  ///< throws on cycles

  std::vector<Node> nodes_;
  std::vector<Arc> arcs_;
  std::vector<std::vector<int>> out_;  ///< arc ids by tail node
  std::vector<std::vector<int>> in_;   ///< arc ids by head node
};

}  // namespace bisram::sta
