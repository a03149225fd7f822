#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_bench.py

Runs every workload through perfbench/run.py at --seconds 1 (building the
benchmark first if needed) and checks:
  - every metric name printed is declared in BENCHMARK.json, every declared
    name is printed, and names use only [A-Za-z0-9_.-];
  - in the traced randread run the asyncRead and waitBuf stage spans of every
    request sum exactly to its virtual latency, in the run's own check and in
    the exported Chrome trace;
  - traced and untraced runs at one seed print the same virtual digest, a
    repeat prints the same virtual metrics, and a second seed changes the
    digest while still passing every output check.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("randread", "dlrm_async", "kv_serve")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

_runs = {}


class Run:
    def __init__(self, stdout):
        lines = stdout.splitlines()
        self.result = json.loads(lines[-1])
        self.lines = lines[:-1]
        self.printed = {}
        self.digest = None
        for line in self.lines:
            parts = line.split()
            if parts[:1] == ["metric"]:
                self.printed[parts[1]] = float(parts[2])
            elif parts[:1] == ["digest"]:
                self.digest = parts[1]


def bench(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        if proc.returncode != 0:
            raise AssertionError(f"run.py {key} exited {proc.returncode}:\n"
                                 + proc.stderr[-4000:])
        _runs[key] = Run(proc.stdout)
    return _runs[key]


def virtual_lines(r):
    """Printed metrics that are virtual-time results (host costs excluded)."""
    return {k: v for k, v in r.printed.items()
            if k not in ("host_s", "setup_s", "peak_rss_mb")
            and not k.startswith("trace.")}


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)

    def test_printed_equals_declared(self):
        for w in WORKLOADS:
            for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=w, trace=trace):
                    r = bench(w, 1, trace)
                    self.assertEqual(set(r.result["metrics"]), declared)
                    for name in r.printed:
                        self.assertRegex(name, NAME_RE)
                        self.assertIn(name, END_TO_END | PER_LAYER)


class Correctness(unittest.TestCase):
    def test_no_failed_ops(self):
        for w in WORKLOADS:
            for seed, trace in ((1, 0), (1, 1), (2, 0)):
                with self.subTest(workload=w, seed=seed, trace=trace):
                    res = bench(w, seed, trace).result
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)

    def test_randread_stages_sum_to_latency(self):
        r = bench("randread", 1, 1)
        m = r.result["metrics"]
        self.assertEqual(m["trace.stage_sum_mismatches"]["value"], 0)
        self.assertEqual(m["trace.asyncread_samples"]["value"],
                         m["virt_lat_samples"]["value"])
        self.assertEqual(m["trace.waitbuf_samples"]["value"],
                         m["virt_lat_samples"]["value"])
        self.assertGreater(m["trace.asyncread_p50_us"]["value"], 0)
        self.assertGreater(m["trace.waitbuf_p50_us"]["value"], 0)

        share = [ln.split()[1] for ln in r.lines
                 if ln.startswith("media_limit_share")]
        self.assertLess(float(share[0]), 0.9)

        path = run.build_dir() / "traces" / "randread-seed1.json"
        events = json.loads(path.read_text())["traceEvents"]
        virt = [e for e in events if e.get("ph") == "X" and e["pid"] == 1]
        ns = {e["args"]["span"]: round(e["dur"] * 1000) for e in virt}
        stages = {}
        for e in virt:
            if e["name"] in ("core.ctrl.asyncRead", "core.ctrl.waitBuf"):
                stages.setdefault(e["args"]["parent"], []).append(
                    e["args"]["span"])
        requests = [e for e in virt if e["name"] == "randread.request"]
        self.assertGreater(len(requests), 1000)
        for e in requests:
            span = e["args"]["span"]
            self.assertEqual(len(stages[span]), 2)
            self.assertEqual(sum(ns[s] for s in stages[span]), ns[span])


class Digest(unittest.TestCase):
    def test_traced_run_prints_untraced_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(bench(w, 1, 1).digest, bench(w, 1, 0).digest)

    def test_virtual_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = bench(w, 1, 0)
                _runs.pop((w, 1, 0))
                again = bench(w, 1, 0)
                self.assertEqual(first.digest, again.digest)
                self.assertEqual(virtual_lines(first), virtual_lines(again))

    def test_second_seed_changes_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(bench(w, 1, 0).digest,
                                    bench(w, 2, 0).digest)


if __name__ == "__main__":
    unittest.main(verbosity=2)
