#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload in its small --smoke configuration, untraced and traced,
and checks that each run passes its output checks, prints the result line the
BENCHMARK.json contract asks for, and reports every metric the benchmark
defines with its unit. Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics a workload reports beyond the contract's per_layer list,
# because only that workload exercises the layer.
MERGE_STAGES = ["lsm.merge_read_ms", "lsm.merge_transform_ms",
                "lsm.merge_compress_ms", "lsm.merge_write_ms"]
EXTRA_LAYERS = {
    "ingest_upsert": ["ingest.submit_us_p50", "ingest.submit_us_p99"] + MERGE_STAGES,
    "scan_cold": ["query.twitter_q2_s", "query.twitter_q3_s", "query.twitter_q4_s",
                  "query.sensors_q1_s", "query.sensors_q2_s", "query.sensors_q3_s",
                  "query.sensors_q4_s", "device.read_mib_per_round"],
    "lookup_mixed": MERGE_STAGES,
}
# Unit implied by a metric name's suffix; the most specific suffix first.
UNITS = [("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_mib", "MiB"), ("_s", "s")]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("tcbench did not build")
        run.RUNS.mkdir(parents=True, exist_ok=True)

    def run_workload(self, workload, trace):
        p = run.run_one(self.exe, workload, 7, 1, trace, smoke=True, capture=True)
        self.assertIsNotNone(p, f"{workload} timed out")
        self.assertEqual(p.returncode, 0, p.stdout)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        report = json.loads(
            (run.RUNS / f"report-{workload}-7-trace{trace}.json").read_text())
        return result, report

    def check_result_line(self, result, section):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = [(m["name"], m["unit"]) for m in CONTRACT[section]]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def check_units(self, metrics, names):
        for name in names:
            self.assertIn(name, metrics)
            for suffix, unit in UNITS:
                if name.endswith(suffix):
                    self.assertEqual(metrics[name]["unit"], unit, name)
                    break

    def test_untraced_runs_report_end_to_end_metrics(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, report = self.run_workload(w, 0)
                self.check_result_line(result, "end_to_end")
                self.check_units(report["metrics"],
                                 run.ISSUE_METRICS["all"] + run.ISSUE_METRICS[w])
                self.assertEqual(report["metrics"]["failed_op_ratio"]["value"], 0)
                self.assertGreater(report["metrics"]["setup_s"]["value"], 0)

    def test_traced_runs_report_per_layer_metrics_and_spans(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, report = self.run_workload(w, 1)
                self.check_result_line(result, "per_layer")
                self.check_units(report["metrics"], EXTRA_LAYERS[w])
                spans = [json.loads(line) for line in
                         (run.RUNS / f"trace-{w}-7.jsonl").read_text().splitlines()]
                self.assertTrue(spans)
                ids = {s["id"] for s in spans}
                for s in spans:
                    self.assertEqual(sorted(s), ["end_ns", "id", "name", "parent",
                                                 "request", "start_ns"])
                    self.assertGreaterEqual(s["end_ns"], s["start_ns"])
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids)

    def test_cache_regimes(self):
        _, cold = self.run_workload("scan_cold", 0)
        self.assertLess(cold["metrics"]["cache.hit_ratio"]["value"], 0.2)
        _, warm = self.run_workload("lookup_mixed", 0)
        self.assertGreater(warm["metrics"]["cache.hit_ratio"]["value"], 0.9)

    def test_refuses_tc_environment_knobs(self):
        env = dict(os.environ, TC_MERGE_POLICY="tiered")
        p = subprocess.run([str(self.exe), "--workload", "scan_cold", "--seed", "1",
                            "--seconds", "1", "--trace", "0", "--smoke",
                            "--out-dir", str(run.RUNS)],
                           env=env, capture_output=True, text=True, timeout=60)
        self.assertEqual(p.returncode, 2)
        self.assertIn("TC_MERGE_POLICY", p.stderr)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
