#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, gated outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the operation driver
(perfbench/driver.cpp plus the libraries under src/) into .bench_build/,
then runs the workload as a closed loop: one operation at a time, each in
a fresh driver process with at most 4 worker threads, the next starting
when the previous returns, until S seconds have passed (at least one
operation). Every operation's outputs are checked against
perfbench/expected.json. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run alternates untraced and traced operations and
reports the per-layer metrics, the tracing overhead and the span
coverage, and writes a Chrome trace-event file under .bench_build/traces/.
The command exits nonzero when any output check fails, and with code 2
(printing no result) when the program's sources are missing.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
THREADS = 4
SETUP_SAMPLES = 10    # set-up-only launches before each op and after the last
OP_TIMEOUT_S = 170.0  # one operation may not take longer than this

WORKLOADS = ("compile_fig6", "signoff_16kb", "yield_fig4", "dse_sweep")
YIELD_LABELS = ("d0.08", "d1", "d10", "d25", "d100")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# --- build -------------------------------------------------------------------


def build():
    """Configures (once) and builds the driver; no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no program sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                die("configure failed; see " + log_path)
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench_driver",
               "-j", str(THREADS)]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            die("build failed; see " + log_path)


# --- one operation -----------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["BISRAM_THREADS"] = str(THREADS)
    return env


def spawn(args):
    return subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(),
                            text=True)


def read_driver(p):
    """Reads a driver's stdout to the end, killing it after OP_TIMEOUT_S.

    Returns (the driver's own set-up seconds from its READY line or None,
    the RESULT object or None, whether the driver was killed for taking
    too long).
    """
    killed = threading.Event()

    def kill():
        killed.set()
        p.kill()

    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    ready_s = result = None
    try:
        for line in p.stdout:
            if line.startswith("READY ") and ready_s is None:
                ready_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        p.wait()
    finally:
        timer.cancel()
        timer.join()
        p.stdout.close()
    return ready_s, result, killed.is_set()


def setup_sample(workload, seed):
    """The driver's own set-up seconds (main() to READY), set-up only."""
    p = spawn(["--workload", workload, "--seed", str(seed), "--setup-only"])
    ready_s, _, _ = read_driver(p)
    if ready_s is None or p.returncode != 0:
        raise RuntimeError("driver set-up failed")
    return ready_s


def run_op(workload, seed, traced=False, spec_json=None):
    """Runs one operation in a fresh driver process.

    Returns (setup_s, result): result is the driver's RESULT object, or a
    synthetic {"ok": False, "error": ...} when the process failed in any
    way; it never raises for a failed operation.
    """
    args = ["--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--trace")
    if spec_json is not None:
        args += ["--spec", spec_json]
    setup_s, result, timed_out = read_driver(spawn(args))
    if timed_out:
        return setup_s, {"ok": False, "error": "operation timed out"}
    if result is None:
        return setup_s, {"ok": False, "error": "driver gave no result"}
    return setup_s, result


# --- output gate -------------------------------------------------------------


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def diff_exact(got, want, path, problems, skip=()):
    """Appends every leaf where got != want (floats compared exactly)."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if k in skip:
                continue
            if k not in got or k not in want:
                problems.append("%s.%s: present on one side only" % (path, k))
            else:
                diff_exact(got[k], want[k], path + "." + k, problems, skip)
    elif (isinstance(want, list) and isinstance(got, list)
          and len(got) == len(want)):
        for i, (g, w) in enumerate(zip(got, want)):
            diff_exact(g, w, "%s[%d]" % (path, i), problems, skip)
    elif got != want:
        problems.append("%s: got %r, expected %r" % (path, got, want))


def check_compile(out, exp):
    p = []
    diff_exact(out, exp["outputs"], "compile", p)
    ds = out["datasheet"]
    # Checks that do not come from the compiler under test: the paper's
    # Fig. 6 geometry, the overhead claim, and a conflict-free route.
    if (ds["rows"], ds["cols"]) != tuple(exp["paper_rows_cols"]):
        p.append("geometry %dx%d is not the paper's %dx%d"
                 % (ds["rows"], ds["cols"], *exp["paper_rows_cols"]))
    if not ds["overhead_pct"] < exp["max_overhead_pct"]:
        p.append("overhead %.3f%% >= %.1f%%" % (ds["overhead_pct"],
                                                 exp["max_overhead_pct"]))
    if out["route"]["m3_conflicts"] != 0:
        p.append("m3_conflicts = %d" % out["route"]["m3_conflicts"])
    return p


def check_signoff(out, exp):
    p = []
    want = exp["outputs"]
    # The known bpw-128 DRC defect is shown, not hidden: the count may
    # only go down from the committed one.
    diff_exact(out, want, "signoff", p, skip=("drc_violations",))
    got_drc = out["signoff"]["drc_violations"]
    max_drc = want["signoff"]["drc_violations"]
    if got_drc > max_drc:
        p.append("drc_violations %d > %d" % (got_drc, max_drc))
    s = out["signoff"]
    for k in ("micro_clean", "hang_free", "erc_lvs_clean", "timing_clean",
              "detects_saf"):
        if s[k] is not True:
            p.append("signoff %s is not true" % k)
    if not s["overhead_pct"] < exp["max_overhead_pct"]:
        p.append("overhead %.3f%% >= %.1f%%" % (s["overhead_pct"],
                                                 exp["max_overhead_pct"]))
    return p


def check_yield(out, exp):
    p = []
    want = exp["points"]
    if len(out) != len(want):
        return ["%d yield points, expected %d" % (len(out), len(want))]
    zmax = exp["z_bound"]
    for got, w in zip(out, want):
        name = "yield[spares %d, mean %g]" % (w["spares"], w["mean"])
        for k in ("spares", "mean", "stratified", "trials"):
            if got[k] != w[k]:
                p.append("%s: %s %r != %r" % (name, k, got[k], w[k]))
        if got["termination"] != "completed" or (
                not got["stratified"] and got["trials_done"] != w["trials"]):
            p.append("%s: %s" % (name, got["termination"]))
        # Agreement with the analytic occupancy model within z_bound
        # standard errors (tests/test_yield_statistics.cpp's criterion).
        # The SE is the one the campaign's estimator has if the analytic
        # model holds, over its own sampling plan (the driver's
        # analytic_sampling_se). The estimator's reported SE is not used:
        # it collapses when a stratum sees few or no failures (a known
        # defect, see README.md).
        se = got["analytic_se"]
        dev = abs(got["strict_good"] - got["analytic"])
        if not (se > 0 and dev <= zmax * se):
            p.append("%s: MC %.6f vs analytic %.6f is %.2f SE apart (> %g)"
                     % (name, got["strict_good"], got["analytic"],
                        dev / se if se > 0 else math.inf, zmax))
        # Repair beats no repair: above Stapper's spare-less yield.
        if not got["strict_good"] > got["stapper"]:
            p.append("%s: BISR yield %.6f <= Stapper %.6f"
                     % (name, got["strict_good"], got["stapper"]))
        if got["stratified"]:
            if not got["die_sims"] * exp["min_is_saving"] <= got["trials"]:
                p.append("%s: %d die sims for %d trials (< %gx saving)"
                         % (name, got["die_sims"], got["trials"],
                            exp["min_is_saving"]))
        elif got["die_sims"] != got["trials"]:
            p.append("%s: %d die sims for %d plain trials"
                     % (name, got["die_sims"], got["trials"]))
    return p


def check_dse(out, exp):
    p = []
    with open(os.path.join(HERE, exp["frontier_file"])) as f:
        frontier = f.read().strip()
    if out["frontier_json"] != frontier:
        p.append("frontier differs from %s" % exp["frontier_file"])
    # Every lattice point's spec and metrics, not only the frontier's;
    # the stats section describes the run (cache traffic), not the result.
    with open(os.path.join(HERE, exp["sweep_file"])) as f:
        sweep = json.load(f)
    diff_exact({k: v for k, v in out["sweep"].items() if k != "stats"},
               sweep, "dse.sweep", p)
    diff_exact({k: v for k, v in out.items()
                if k not in ("frontier_json", "sweep")},
               exp["outputs"], "dse", p)
    return p


CHECKS = {"compile_fig6": check_compile, "signoff_16kb": check_signoff,
          "yield_fig4": check_yield, "dse_sweep": check_dse}


def gate(workload, result, expected):
    """Problems with one operation's result; empty means it passed."""
    if not result.get("ok"):
        return ["operation failed: " + str(result.get("error"))]
    problems = CHECKS[workload](result["outputs"], expected[workload])
    # Traced dse_sweep runs also compile a seeded sample of lattice points
    # through the traced stages; each must equal the sweep's own point.
    for s in result.get("sample", []):
        if not s["matches_sweep"]:
            problems.append("traced compile of point %d differs from the "
                            "sweep's" % s["index"])
    return problems


# --- statistics --------------------------------------------------------------


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, sorted(values)[max(0, math.ceil(pct / 100.0 * n) - 1)]


def describe(name, values, unit):
    med = statistics.median(values)
    t = tail(values)
    extra = ("p%d %.6g %s" % (t[0], t[1], unit) if t
             else "no tail percentile below 11 samples")
    return "%-22s %.6g %s  (median, n=%d; %s)" % (name, med, unit,
                                                   len(values), extra)


# --- traces ------------------------------------------------------------------


def span_tree(spans):
    """Per span: its duration and its self time (duration minus the part
    its child spans cover; spans are single-threaded and nested)."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[0], s[3] - s[2], s[3] - s[2] - child[i])
            for i, s in enumerate(spans)]


def coverage(spans):
    """Share of the operation span covered by its layer spans."""
    ops = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    if not ops:
        return 0.0
    op = ops[0]
    total = spans[op][3] - spans[op][2]
    covered = sum(s[3] - s[2] for s in spans if s[1] == op)
    return covered / total if total > 0 else 0.0


def layer_metrics(result, seconds_untraced):
    """The per-layer metrics of one traced operation."""
    tr = result["trace"]
    spans, counters = tr["spans"], tr["counters"]
    total, hwm = {}, {}
    for name, parent, t0, t1, h in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        if h is not None and h >= 0:
            hwm[name] = max(hwm.get(name, 0.0), h)
    c = lambda k: float(counters.get(k, 0.0))
    s = lambda k: total.get(k, 0.0)
    point_compiles = [t1 - t0 for n, _, t0, t1, _ in spans
                      if n == "dse.point_compile"]
    op_s = s("bench.op")
    m = {
        "pnr.build_top_s": s("pnr.build_top"),
        "pnr.build_top_hwm_mb": hwm.get("pnr.build_top", 0.0),
        "pnr.floorplan_s": s("pnr.floorplan"),
        "pnr.routed_spans": c("pnr.routed_spans"),
        "pnr.m3_wires": c("pnr.m3_wires"),
        "geom.flatten_s": s("geom.flatten"),
        "geom.shapes": c("geom.shapes"),
        "geom.resident_bytes_per_shape":
            c("geom.resident_bytes") / c("geom.shapes")
            if c("geom.shapes") else 0.0,
        "geom.flatten_hwm_mb": hwm.get("geom.flatten", 0.0),
        "drc.check_s": s("drc.check"),
        "drc.violations": c("drc.violations"),
        "extract.full_chip_s": s("extract.full_chip"),
        "extract.extract_s": s("extract.extract"),
        "extract.nets": c("extract.nets"),
        "extract.devices": c("extract.devices"),
        "extract.hwm_mb": hwm.get("extract.extract", 0.0),
        "core.resolve_tech_s": s("core.resolve_tech"),
        "core.leaf_library_s": s("core.leaf_library"),
        "core.datasheet_s": s("core.datasheet"),
        "core.leaf_lookups": c("core.leaf_lookups"),
        "core.leaf_misses": c("core.leaf_misses"),
        "sta.characterizations": c("sta.characterizations"),
        "sta.access_path_s": s("sta.access_path"),
        "sta.endpoints": c("sta.endpoints"),
        "microcode.build_trpla_s": s("microcode.build_trpla"),
        "macro.ram_array_s": s("macro.ram_array"),
        "macro.row_decoder_s": s("macro.row_decoder"),
        "macro.column_periphery_s": s("macro.column_periphery"),
        "macro.bist_bisr_s": s("macro.bist_bisr"),
        "macro.area_s": s("macro.area"),
        "verify.micro_s": s("verify.micro"),
        "verify.run_signoff_s": s("verify.run_signoff"),
        "verify.residual_s": s("verify.residual"),
        "march.analyze_s": s("march.analyze"),
    }
    for label in YIELD_LABELS:
        m["sim.campaign_s." + label] = s("sim.campaign." + label)
    m.update({
        "sim.die_sims": c("sim.die_sims"),
        "sim.packed_trials": c("sim.packed_trials"),
        "sim.scalar_trials": c("sim.scalar_trials"),
        "sim.strata": c("sim.strata"),
        "sim.die_sims_per_trial":
            c("sim.die_sims") / c("sim.trials") if c("sim.trials") else 0.0,
        "models.analytic_s": s("models.analytic"),
        "dse.sweep_s": s("dse.sweep"),
        "dse.full_compiles": c("dse.full_compiles"),
        "dse.characterizations": c("dse.characterizations"),
        "dse.invalid": c("dse.invalid"),
        "dse.frontier_size": c("dse.frontier_size"),
        "dse.point_compile_s":
            statistics.median(point_compiles) if point_compiles else 0.0,
        "models.evaluate_s": s("models.evaluate"),
        "util.pool_warmup_s": s("util.pool_warmup"),
        "proc.cpu_user_s": result["cpu_user_s"],
        "proc.cpu_sys_s": result["cpu_sys_s"],
        "proc.threads": float(result["threads"]),
        "trace.op_s": op_s,
        "trace.overhead_s": op_s - seconds_untraced,
        "trace.overhead_pct": 100.0 * (op_s - seconds_untraced)
                              / seconds_untraced,
        "trace.coverage_pct": 100.0 * coverage(spans),
    })
    return m


LAYER_UNITS = {"_s": "s", "_mb": "MB", "_pct": "%",
               "_per_shape": "B/shape", "_per_trial": "1/trial"}


def layer_unit(name):
    if name.startswith("sim.campaign_s."):
        return "s"
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def write_trace(workload, seed, traced, t_run0):
    """Chrome trace-event JSON of every traced operation, one track per
    operation, plus the self-time table; returns (path, table rows)."""
    events, selfs = [], {}
    for k, (t_start, result) in enumerate(traced):
        base = (t_start - t_run0) * 1e6
        spans = result["trace"]["spans"]
        for (name, dur, self_s), s in zip(span_tree(spans), spans):
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": 1, "tid": k + 1,
                           "ts": base + s[2] * 1e6, "dur": dur * 1e6,
                           "args": {"hwm_mb": s[4]} if s[4] >= 0 else {}})
            agg = selfs.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s
        for name, value in sorted(result["trace"]["counters"].items()):
            events.append({"name": name, "ph": "C", "pid": 1, "tid": k + 1,
                           "ts": base + spans[-1][3] * 1e6,
                           "args": {"value": value}})
    rows = sorted(([n, a[0], a[1], a[2]] for n, a in selfs.items()),
                  key=lambda r: -r[3])
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"workload": workload, "seed": seed,
                                 "self_time": [
                                     {"span": r[0], "count": r[1],
                                      "total_s": r[2], "self_s": r[3]}
                                     for r in rows]}}, f)
    return path, rows


# --- the run -----------------------------------------------------------------


def run(workload, seed, seconds, traced_run, expected, spec_json=None):
    """The closed loop. Returns (attempted, failed, summary) where summary
    holds the collected samples; prints each failed check.

    It stops once `seconds` have passed and at least one operation of
    each kind it runs (untraced, and traced with traced_run) has been
    attempted, whether or not it passed; so a kind of operation that
    keeps failing cannot keep the loop going.
    """
    t_run0 = time.perf_counter()
    # Set-up takes about 0.2 ms, and how fast the host runs such a short
    # burst changes from one ten-second stretch to the next (by up to 2x).
    # The layout workloads run only one or two operations in a run, so set
    # up is also sampled on its own, in batches between the operations, to
    # spread the samples over the whole run.
    setups = []

    def sample_setup():
        setups.extend(setup_sample(workload, seed)
                      for _ in range(SETUP_SAMPLES))

    plain, traced = [], []
    attempted = failed = 0
    tried = {False: 0, True: 0}  # attempts per kind: traced or not
    t0 = time.perf_counter()
    want_traced = False
    while True:
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and tried[False]
                and (tried[True] or not traced_run)):
            break
        sample_setup()
        t_start = time.perf_counter()
        setup_s, result = run_op(workload, seed, traced=want_traced,
                                 spec_json=spec_json)
        attempted += 1
        tried[want_traced] += 1
        if setup_s is not None:
            setups.append(setup_s)
        problems = gate(workload, result, expected)
        if problems:
            failed += 1
            for msg in problems:
                print("CHECK FAILED (%s, op %d): %s"
                      % (workload, attempted, msg))
        elif want_traced:
            traced.append((t_start, result))
        else:
            plain.append(result)
        if traced_run:
            want_traced = not want_traced
        if failed and attempted >= 2 and not (plain or traced):
            break  # nothing passes: stop early rather than spin
    sample_setup()
    return attempted, failed, {"setups": setups, "plain": plain,
                               "traced": traced, "t_run0": t_run0}


def end_to_end(workload, summary):
    plain = summary["plain"]
    col = lambda k: [r[k] for r in plain]
    cpu = [r["cpu_user_s"] + r["cpu_sys_s"] for r in plain]
    lines = [describe("setup_s", summary["setups"], "s"),
             describe("op_s", col("op_s"), "s"),
             describe("cpu_s", cpu, "s"),
             describe("peak_rss_mb", col("hwm_mb"), "MB")]
    # The workload's own names for its numbers (see perfbench/README.md).
    outs = [r["outputs"] for r in plain]
    if workload == "compile_fig6":
        lines.append(describe("compile_s", col("op_s"), "s"))
    if workload == "signoff_16kb":
        lines.append(describe("signoff_s", col("signoff_s"), "s"))
        lines.append(describe("extract_s", col("extract_s"), "s"))
        lines.append("%-22s %d count" % (
            "drc_violations", outs[0]["signoff"]["drc_violations"]))
    if workload in ("compile_fig6", "signoff_16kb"):
        sheet = (outs[0]["datasheet"] if workload == "compile_fig6"
                 else outs[0]["signoff"])
        lines.append("%-22s %.6f mm2" % ("area_mm2", sheet["area_mm2"]))
        lines.append("%-22s %.4f %%" % ("overhead_pct",
                                        sheet["overhead_pct"]))
        lines.append("%-22s %.4f ns" % ("access_ns", sheet["access_s"] * 1e9))
    if workload == "yield_fig4":
        dies = [sum(p["die_sims"] for p in r["outputs"]) / r["op_s"]
                for r in plain]
        lines.append(describe("dies_per_s", dies, "1/s"))
    if workload == "dse_sweep":
        pts = [r["outputs"]["points"] / r["op_s"] for r in plain]
        lines.append(describe("points_per_s", pts, "1/s"))
    lines.append("op_s samples: " + " ".join("%.4f" % v for v in col("op_s")))
    metrics = {
        "setup_s": statistics.median(summary["setups"]),
        "op_s": statistics.median(col("op_s")),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(col("hwm_mb")),
    }
    units = {"setup_s": "s", "op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    return lines, {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}


def per_layer(workload, seed, summary):
    untraced = statistics.median(r["op_s"] for r in summary["plain"])
    per_op = [layer_metrics(r, untraced) for _, r in summary["traced"]]
    path, rows = write_trace(workload, seed, summary["traced"],
                             summary["t_run0"])
    lines = ["trace written to %s" % os.path.relpath(path, ROOT),
             "%-28s %5s %12s %12s" % ("span", "count", "total_s", "self_s")]
    lines += ["%-28s %5d %12.6f %12.6f" % tuple(r) for r in rows]
    metrics = {}
    for name in per_op[0]:
        value = statistics.median(m[name] for m in per_op)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
        lines.append("%-34s %.6g %s" % (name, value, layer_unit(name)))
    return lines, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    expected = load_expected()
    attempted, failed, summary = run(a.workload, a.seed, a.seconds,
                                     a.trace == 1, expected)
    print("workload %s, seed %d: %d operations, %d failed, fail_frac %.4f"
          % (a.workload, a.seed, attempted, failed, failed / attempted))
    if not summary["plain"] or (a.trace and not summary["traced"]):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if a.trace:
        lines, metrics = per_layer(a.workload, a.seed, summary)
    else:
        lines, metrics = end_to_end(a.workload, summary)
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
