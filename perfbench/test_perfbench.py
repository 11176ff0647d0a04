#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny document size.

    python3 perfbench/test_perfbench.py    (from the repository root)

Each workload runs briefly untraced and traced; every metric BENCHMARK.json
names must be printed, finite and in its unit, and the traced run must
leave a Chrome trace. A run whose expected document was deliberately
altered must fail the correctness gate: non-zero exit and no result line.
"""
import glob
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ["bulk_churn", "point_durable", "snapshot_read"]


def run(workload, trace, *extra):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--size", "tiny"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
            cls.layers = json.load(f)

    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result

    def test_every_metric_printed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                r = self.check_result(run(w, 0), self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0,
                                       m["name"])
            with self.subTest(workload=w, trace=1):
                self.check_result(run(w, 1), self.spec["per_layer"])
                traces = glob.glob(os.path.join(
                    ROOT, ".bench_build", "traces", "trace-%s.json" % w))
                self.assertTrue(traces)
                with open(traces[0]) as f:
                    self.assertTrue(json.load(f)["traceEvents"])

    def test_count_metrics_repeat_exactly(self):
        counts = ["engine.stmts_per_op", "engine.rows_changed_per_op",
                  "engine.xquery_stmts_per_op", "rdb.parses_per_stmt",
                  "rdb.plan_cache_hit_ratio",
                  "rdb.rows_scanned_per_row_changed",
                  "rdb.index_probes_per_op", "rdb.trigger_fires_per_op",
                  "rdb.undo_records_per_op", "rdb.wal.bytes_per_op",
                  "rdb.wal.records_per_op", "asr.rows"]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [json.loads(run(w, 1).stdout.strip().splitlines()[-1])
                        for _ in range(2)]
                for name in counts:
                    self.assertEqual(runs[0]["metrics"][name],
                                     runs[1]["metrics"][name], name)

    def test_gate_rejects_altered_expected_document(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, "--corrupt-expected")
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout.strip(), "")
                self.assertIn("differs from the expected document",
                              proc.stderr)

    def test_layer_mapping_covers_metrics(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        moves = self.layers["per_layer_moves"]
        self.assertEqual(names, set(moves))
        for name, targets in moves.items():
            for t in targets:
                self.assertIn(t["moves"], e2e | names, name)
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(self.layers["workloads"]))


if __name__ == "__main__":
    unittest.main()
