#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <randread|dlrm_async|kv_serve> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the simulator from src/) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs
agile_perfbench, and passes its output through. It checks that the metrics
the run prints are exactly the ones BENCHMARK.json declares for the mode
(end_to_end untraced, per_layer traced), with the declared units; any
difference marks the result incorrect. The last line of stdout is the
result JSON. Traced runs write their Chrome trace to
<build dir>/traces/<workload>-seed<n>.json.

Exits non-zero without a result when the build or the run fails.
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure and build incrementally; build output goes to stderr."""
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)


def declared_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def metric_problems(metrics, declared):
    problems = []
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} has characters outside "
                            "[A-Za-z0-9_.-]")
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif m.get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {m.get('unit')!r}, "
                            f"BENCHMARK.json declares {declared[name]!r}")
    for name in declared:
        if name not in metrics:
            problems.append(f"declared metric {name} was not printed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: benchmark build failed: {e}", file=sys.stderr)
        return 1

    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(out / "agile_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: agile_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    problems = metric_problems(result["metrics"],
                               declared_metrics(args.trace == 1))
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
