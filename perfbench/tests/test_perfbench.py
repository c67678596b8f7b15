#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py      (from the repository root)

Checks that every metric a run prints carries its unit and a name from
BENCHMARK.json, that a different seed changes the inputs but not the set of
metrics, that each correctness check fails on a perturbed output (the C++
self-test), and that the benchmark fails cleanly where the repository's
sources are absent. Runs are short (--seconds 1); the suite takes about two
minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)


def bench(workload, seed, trace, cwd=ROOT, env=None):
    """Runs `cwd`/perfbench/run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def inputs_line(lines):
    return next(line for line in lines if line.startswith("inputs:"))


def digest_of(lines):
    return re.search(r"digest ([0-9a-f]+)", inputs_line(lines)).group(1)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_validator_rejects_mismatches(self):
        expected = {"op_ms_p50": "ms", "setup_s": "s"}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"op_ms_p50": {"value": 1.5, "unit": "ms"},
                            "setup_s": {"value": 0.2, "unit": "s"}}}
        self.assertEqual(run.validate(good, expected), [])
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["setup_s"]
        self.assertTrue(run.validate(missing, expected))
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate(wrong_unit, expected))
        extra = json.loads(json.dumps(good))
        extra["metrics"]["other"] = {"value": 1, "unit": "count"}
        self.assertTrue(run.validate(extra, expected))


class SelfTest(unittest.TestCase):
    def test_checks_fail_on_perturbed_outputs(self):
        binary = run.build(run.build_dir(), "perfbench_selftest")
        proc = subprocess.run([binary], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("one flipped PUE sample fails", proc.stdout)
        self.assertIn("one changed byte fails", proc.stdout)


class RunTest(unittest.TestCase):
    def check_result(self, lines, trace):
        result = json.loads(lines[-1])
        self.assertEqual(run.validate(result, run.expected_metrics(trace)), [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_every_workload_and_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code_a, lines_a = bench(workload, 1, 0)
                code_b, lines_b = bench(workload, 2, 0)
                self.assertEqual((code_a, code_b), (0, 0))
                a = self.check_result(lines_a, 0)
                b = self.check_result(lines_b, 0)
                # A new seed gives new inputs but the same metrics.
                self.assertNotEqual(digest_of(lines_a), digest_of(lines_b))
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))
                # The same seed gives the same inputs.
                code_c, lines_c = bench(workload, 1, 0)
                self.assertEqual(code_c, 0)
                self.assertEqual(digest_of(lines_a), digest_of(lines_c))

    def test_traced_runs_report_layers_and_write_a_trace(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 3, 1)
                self.assertEqual(code, 0)
                self.check_result(lines, 1)
                path = os.path.join(run.build_dir(), "traces", "%s-seed3.trace.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in events))

    def test_fails_without_the_repository_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        try:
            code, lines = bench("coupled_day", 1, 0, cwd=bare, env=env)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
