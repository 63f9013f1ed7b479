"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The first integration test builds the driver (about 30 s on 4 cores).
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")

spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def raw_run(points_per_iteration, failures=None):
    its = []
    for i, points in enumerate(points_per_iteration):
        reasons = failures[i] if failures else [""] * len(points)
        its.append({"points": points, "failures": reasons})
    return {"iterations": its}


def benchmark(workload, seed, trace):
    """Runs run.py; returns (exit code, result line, full record)."""
    done = subprocess.run([sys.executable, RUN_PY, "--workload", workload, "--seed",
                           str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = os.path.join(run.RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(record_path) as f:
        return done.returncode, result, json.load(f)


class CheckPointsTest(unittest.TestCase):
    def test_recorded_fingerprints_are_the_reference(self):
        attempted, failures = run.check_points(raw_run([["a", "b"], ["a", "b"]]), ["a", "c"])
        self.assertEqual(attempted, 4)
        self.assertEqual(len(failures), 2)
        self.assertIn("recorded", failures[0])

    def test_unrecorded_seed_requires_every_iteration_to_agree(self):
        attempted, failures = run.check_points(raw_run([["a", "b"], ["a", "x"]]), None)
        self.assertEqual(attempted, 4)
        self.assertEqual(failures, ["iteration 1 point 1: output fingerprint differs "
                                    "from the first iteration's"])

    def test_point_failure_reason_counts(self):
        raw = raw_run([["a"]], failures=[["3 audit violation(s)"]])
        self.assertEqual(run.check_points(raw, ["a"]), (1, ["iteration 0 point 0: "
                                                            "3 audit violation(s)"]))


class CheckSpansTest(unittest.TestCase):
    def write_trace(self, events):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, f.name)
        json.dump({"traceEvents": events}, f)
        f.close()
        return f.name

    @staticmethod
    def span(index, parent, begin, end):
        common = {"name": f"s{index}", "cat": "perfbench", "pid": 1, "tid": 1,
                  "args": {"span": index, "parent": parent}}
        return [dict(common, ph="B", ts=begin), dict(common, ph="E", ts=end)]

    def test_nested_spans_pass(self):
        path = self.write_trace(self.span(0, -1, 0, 10) + self.span(1, 0, 2, 8))
        self.assertEqual(run.check_spans(path), [])

    def test_span_escaping_its_parent_fails(self):
        path = self.write_trace(self.span(0, -1, 0, 10) + self.span(1, 0, 2, 12))
        self.assertEqual(run.check_spans(path), ["span 1 escapes its parent 0"])


class CompareTest(unittest.TestCase):
    def record(self, directory, name, **context):
        base = {"nproc": 4, "compiler": "GNU 12.2.0", "compiler_version": "12.2.0",
                "flags": "-O3 -DNDEBUG", "build_type": "Release", "git_commit": name}
        base.update(context)
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as f:
            json.dump({"workload": "scaling_fanin", "trace": 0, "context": base,
                       "metrics": metrics}, f)
        return path

    def compare(self, base, head):
        return subprocess.run([sys.executable, RUN_PY, "compare", "--base", base,
                               "--head", head], capture_output=True, text=True).returncode

    def test_same_context_compares(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(self.compare(self.record(d, "a"), self.record(d, "b")), 0)

    def test_differing_context_is_refused(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(self.compare(self.record(d, "a"),
                                          self.record(d, "b", nproc=1)), 2)
            self.assertEqual(self.compare(self.record(d, "c"),
                                          self.record(d, "d", flags="-O2")), 2)

    def test_non_release_build_is_refused(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(self.compare(self.record(d, "a", build_type="Debug"),
                                          self.record(d, "b", build_type="Debug")), 2)


class TracedRunTest(unittest.TestCase):
    def test_collateral_traced_run(self):
        code, result, record = benchmark("collateral_lossless", 1, 1)
        self.assertEqual(code, 0, record["failures"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCH["per_layer"]})

        checked = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
                                  record["trace_file"]], capture_output=True)
        self.assertEqual(checked.returncode, 0, checked.stderr)
        self.assertEqual(run.check_spans(record["trace_file"]), [])

        # Every collateral point ran under its own hub: their event counts
        # add up to the sweep's own total.
        with open(record["metrics_file"]) as f:
            hubs = json.load(f)
        self.assertEqual(sorted(hubs), ["credit", "droptail", "pfc", "trim"])
        hub_events = sum(h["metrics"]["sim.events.processed"] for h in hubs.values())
        self.assertEqual(hub_events, result["metrics"]["sim.events"]["value"])
        self.assertGreater(result["metrics"]["net.pfc_pauses"]["value"], 0)
        self.assertGreater(result["metrics"]["net.trims"]["value"], 0)
        self.assertIn("analysis.bursts", record["not_applicable"])

    def test_fleet_traced_run_redetects_every_burst(self):
        code, result, record = benchmark("fleet_storage", 1, 1)
        self.assertEqual(code, 0, record["failures"])
        metrics = result["metrics"]
        self.assertEqual(metrics["telemetry.bins"]["value"], 2 * 2 * 1000)
        self.assertGreater(metrics["analysis.bursts"]["value"], 0)
        self.assertEqual(sum(metrics[f"sim.events.{c}"]["value"]
                             for c in ("net", "tcp", "workload", "telemetry")),
                         metrics["sim.events"]["value"])


class EndToEndRunTest(unittest.TestCase):
    def test_held_out_seed_is_self_consistent(self):
        code, result, record = benchmark("collateral_lossless", 1001, 0)
        self.assertEqual(code, 0, record["failures"])
        self.assertEqual(record["fingerprints"], "self-consistent")
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCH["end_to_end"]})
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)
        for key in run.CONTEXT_KEYS:
            self.assertIsNotNone(record["context"][key])


if __name__ == "__main__":
    unittest.main()
