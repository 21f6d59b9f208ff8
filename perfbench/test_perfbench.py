#!/usr/bin/env python3
"""Tests of the benchmark itself: its output gate, its operation wrapper
and its traced compile path.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does (into .bench_build/), then runs small
operations only; the whole suite takes well under a minute once built.
"""

import copy
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def passing_result(workload, expected):
    """A result whose outputs are exactly the committed expected values."""
    exp = expected[workload]
    if workload == "dse_sweep":
        with open(os.path.join(run.HERE, exp["frontier_file"])) as f:
            out = dict(exp["outputs"], frontier_json=f.read().strip())
        with open(os.path.join(run.HERE, exp["sweep_file"])) as f:
            out["sweep"] = dict(json.load(f), stats={"cache_hits": 0})
    elif workload == "yield_fig4":
        out = []
        for p in exp["points"]:
            # A plausible estimate one standard error off the analytic
            # value, with the die-simulation accounting of its mode.
            sims = p["trials"] // 20 if p["stratified"] else p["trials"]
            out.append(dict(p, trials_done=sims, die_sims=sims,
                            strict_good=0.51, strict_good_se=0.01,
                            analytic=0.5, analytic_se=0.01, stapper=0.1,
                            bist_repaired=0.52, termination="completed"))
    else:
        out = copy.deepcopy(exp["outputs"])
    return {"ok": True, "outputs": out}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.load_expected()

    def test_committed_values_pass(self):
        for w in run.WORKLOADS:
            self.assertEqual(
                run.gate(w, passing_result(w, self.expected), self.expected),
                [], w)

    def test_planted_wrong_datasheet_value_fails(self):
        bad = copy.deepcopy(self.expected)
        ds = bad["compile_fig6"]["outputs"]["datasheet"]
        ds["area_mm2"] = ds["area_mm2"] * (1 + 1e-15)  # one ulp-ish off
        got = passing_result("compile_fig6", self.expected)
        problems = run.gate("compile_fig6", got, bad)
        self.assertEqual(len(problems), 1)
        self.assertIn("area_mm2", problems[0])

    def test_planted_wrong_route_stats_fail(self):
        bad = copy.deepcopy(self.expected)
        bad["compile_fig6"]["outputs"]["route"]["m3_wires"] += 1
        got = passing_result("compile_fig6", self.expected)
        self.assertTrue(run.gate("compile_fig6", got, bad))

    def test_independent_checks_do_not_trust_the_expected_file(self):
        # A conflicting route fails even when the expected file agrees.
        bad = copy.deepcopy(self.expected)
        bad["compile_fig6"]["outputs"]["route"]["m3_conflicts"] = 2
        got = passing_result("compile_fig6", bad)
        problems = run.gate("compile_fig6", got, bad)
        self.assertEqual(problems, ["m3_conflicts = 2"])

    def test_drc_count_may_fall_but_not_rise(self):
        got = passing_result("signoff_16kb", self.expected)
        seed_count = got["outputs"]["signoff"]["drc_violations"]
        got["outputs"]["signoff"]["drc_violations"] = seed_count - 1
        self.assertEqual(run.gate("signoff_16kb", got, self.expected), [])
        got["outputs"]["signoff"]["drc_violations"] = seed_count + 1
        self.assertTrue(run.gate("signoff_16kb", got, self.expected))

    def test_yield_outside_z_bound_fails(self):
        got = passing_result("yield_fig4", self.expected)
        point = got["outputs"][-1]  # the stratified point
        point["strict_good"] = 0.5 + 5.5 * point["analytic_se"]
        problems = run.gate("yield_fig4", got, self.expected)
        self.assertEqual(len(problems), 1)
        self.assertIn("SE apart", problems[0])
        # A large reported SE does not widen the check.
        point["strict_good_se"] = 1.0
        self.assertEqual(len(run.gate("yield_fig4", got, self.expected)), 1)

    def test_yield_gate_ignores_a_collapsed_reported_se(self):
        got = passing_result("yield_fig4", self.expected)
        point = got["outputs"][-1]
        point["strict_good"] = 0.5 + 2 * point["analytic_se"]
        point["strict_good_se"] = 1e-9
        self.assertEqual(run.gate("yield_fig4", got, self.expected), [])

    def test_frontier_must_be_byte_equal(self):
        got = passing_result("dse_sweep", self.expected)
        got["outputs"]["frontier_json"] += " "
        self.assertTrue(run.gate("dse_sweep", got, self.expected))

    def test_planted_wrong_dominated_point_fails(self):
        got = passing_result("dse_sweep", self.expected)
        frontier = {p["index"] for p in got["outputs"]["sweep"]["frontier"]}
        point = next(p for p in got["outputs"]["sweep"]["points"]
                     if p["index"] not in frontier)
        point["cost_usd"] *= 1.001
        problems = run.gate("dse_sweep", got, self.expected)
        self.assertEqual(len(problems), 1)
        self.assertIn("cost_usd", problems[0])

    def test_traced_point_sample_must_match_the_sweep(self):
        got = passing_result("dse_sweep", self.expected)
        got["sample"] = [{"index": 3, "matches_sweep": True}]
        self.assertEqual(run.gate("dse_sweep", got, self.expected), [])
        got["sample"].append({"index": 7, "matches_sweep": False})
        self.assertEqual(len(run.gate("dse_sweep", got, self.expected)), 1)

    def test_failed_operation_fails_the_gate(self):
        problems = run.gate("compile_fig6", {"ok": False, "error": "boom"},
                            self.expected)
        self.assertEqual(problems, ["operation failed: boom"])


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_invalid_spec_counts_as_failed_without_crashing(self):
        expected = run.load_expected()
        bad_spec = json.dumps({"words": 1000, "bpw": 8, "bpc": 3})
        setup_s, result = run.run_op("compile_fig6", 1, spec_json=bad_spec)
        self.assertIsNotNone(setup_s)
        self.assertFalse(result["ok"])
        self.assertTrue(result["error"])
        attempted, failed, _ = run.run(
            "compile_fig6", 1, 0.0, False, expected, spec_json=bad_spec)
        self.assertEqual((attempted, failed), (1, 1))

    def test_trace_run_ends_when_one_kind_of_operation_keeps_failing(self):
        # A planted failure on only the traced (then only the untraced)
        # operations must still end the loop, with the failure counted.
        expected = run.load_expected()
        spec = json.dumps({"words": 256, "bpw": 8, "bpc": 4})
        for failing_traced in (True, False):
            def gate(workload, result, expected):
                traced = "trace" in result
                return ["planted"] if traced == failing_traced else []
            with mock.patch.object(run, "gate", gate):
                attempted, failed, summary = run.run(
                    "compile_fig6", 1, 0.0, True, expected, spec_json=spec)
            self.assertEqual((attempted, failed), (2, 1))
            passed = summary["plain"] if failing_traced else summary["traced"]
            self.assertEqual(len(passed), 1)

    def test_traced_compile_equals_compiler_run(self):
        proc = subprocess.run([run.DRIVER, "--selftest", "traced-compile"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("traced compile equals Compiler::run", proc.stdout)

    def test_small_traced_compile_covers_its_operation(self):
        spec = json.dumps({"words": 256, "bpw": 8, "bpc": 4})
        _, result = run.run_op("compile_fig6", 1, traced=True,
                               spec_json=spec)
        self.assertTrue(result["ok"], result.get("error"))
        self.assertGreaterEqual(run.coverage(result["trace"]["spans"]), 0.95)


if __name__ == "__main__":
    unittest.main()
