"""zipcone benchmark: four seeded CLI workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; zipcone is imported from its src/.  Every
operation is `zipcone.cli.run(argv)` inside a fresh child process
(child.py) with one client in a closed loop, and every answer is checked
independently (checks.py).  Workloads and their rationale are in
DESIGN.md.

--trace 0 measures end-to-end metrics for --seconds seconds:
  setup_s      median over all child processes of spawn -> READY
               (interpreter up, zipcone.cli imported, first argv list made)
  wall_s       median over passes of first op issued -> last verdict
  op_ms.p50/.p90  median over passes of the pass's per-operation latency
               percentile (a queries pass has 100 operations)
  peak_rss_mb  median over workload processes of the peak resident set
--trace 1 runs pass 0 in fresh processes, untraced and traced in turn,
for --seconds, and reports the per-module metrics of tracing.py; the
detail trace.overhead_s is the median traced wall time minus the median
untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 0 on a completed run (wrong
answers show as failed operations), 2 if the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

SETUP_PROBES = 9
CHILD_ENV = {"PYTHONHASHSEED": "0"}  # Root hashes go through Enum names: fix set order
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    """The benchmark could not make a run (as opposed to a wrong answer)."""


class Run:
    """One run's clock and the child processes it starts."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.perf_counter()
        self.setup_s: list[float] = []

    def child(self, *extra: str) -> dict | None:
        """Start child.py, time spawn -> READY, wait for it to end, and
        return its report (None for a probe)."""
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        timeout = RUN_DEADLINE_S - (time.perf_counter() - self.t0)
        if timeout <= 0:
            raise RunError("run deadline passed")
        env = {**os.environ, **CHILD_ENV}
        t_spawn = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                ready = proc.stdout.readline()
                t_ready = time.perf_counter()
                rest = proc.stdout.read()
                rc = proc.wait()
            finally:
                killer.cancel()
        if ready.strip() != "READY" or rc != 0:
            raise RunError(f"child {' '.join(extra)} exited {rc} before finishing")
        self.setup_s.append(t_ready - t_spawn)
        if "--probe" in extra:
            return None
        return json.loads(rest.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


def _op_ms(pass_: dict, q: int) -> float:
    """The q-th percentile of one pass's operation latencies, in ms."""
    return statistics.quantiles([s * 1000 for s in pass_["op_s"]], n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics."""
    run = Run(workload, seed)
    for _ in range(SETUP_PROBES):
        run.child("--probe")
    start = run.elapsed()
    reports = []
    if workloads.FRESH_PROCESS_PER_PASS[workload]:
        k, child_s = 0, []
        while True:
            t = run.elapsed()
            reports.append(run.child("--first-pass", str(k)))
            child_s.append(run.elapsed() - t)
            k += 1
            if run.elapsed() + statistics.median(child_s) > start + seconds:
                break
    else:
        reports.append(run.child("--budget", str(seconds)))
    passes = [p for r in reports for p in r["passes"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms.p50": statistics.median(_op_ms(p, 50) for p in passes),
        "op_ms.p90": statistics.median(_op_ms(p, 90) for p in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in reports),
        "setup_s": statistics.median(run.setup_s),
    }
    return _result(workload, seed, reports, metrics, END_TO_END,
                   {"passes": len(passes), "op_samples": sum(len(p["op_s"]) for p in passes),
                    "processes": len(run.setup_s)})


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: pass 0 in fresh processes, untraced and traced in turn,
    until --seconds are spent (one pair at least); per-module metrics."""
    run = Run(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}.bin"
    plain, traced, pair_s = [], [], []
    while not pair_s or run.elapsed() + statistics.median(pair_s) <= seconds:
        t = run.elapsed()
        plain.append(run.child("--first-pass", "0"))
        traced.append(run.child("--first-pass", "0", "--spans", str(spans)))
        pair_s.append(run.elapsed() - t)
    overhead = (statistics.median(r["passes"][0]["wall_s"] for r in traced)
                - statistics.median(r["passes"][0]["wall_s"] for r in plain))
    return _result(workload, seed, plain + traced, tracing.layer_metrics(spans), tracing.PER_LAYER,
                   {"trace.overhead_s": overhead, "trace_pairs": len(pair_s),
                    "spans_file": str(spans.relative_to(ROOT)), "untraced": traced[0]["untraced"]})


def _result(workload, seed, reports, metrics, table, details) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": [f for r in reports for f in r["failures"]][:10],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
        "env": environment(seed, reports[0]["backend"], reports[0]["python"]),
        "details": details,
    }


def environment(seed: int, backend, child_python: str) -> dict:
    return {
        "python": child_python,
        "backend": backend,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "seed": seed,
        "pythonhashseed": CHILD_ENV["PYTHONHASHSEED"],
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_result(res: dict) -> None:
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w:8s} {name:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{w:8s} {'failed_share':38s} {res['failed_share']:14.6g} ratio "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    for name, val in res["details"].items():
        print(f"{w:8s} {name:38s} {val}")
    for reason in res["failures"]:
        print(f"{w:8s} FAILED {reason}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "zipcone" / "cli.py").is_file():
        print(f"error: no zipcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in names:
            res = (trace if args.trace else measure)(w, args.seed, args.seconds)
            _print_result(res)
            results.append(res)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(results[0]["env"], sort_keys=True))
    print("details: " + json.dumps({r["workload"]: r["details"] for r in results}, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
