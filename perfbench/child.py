"""One workload process: import the CLI, run passes in a closed loop, check
every answer.  Started by run.py.

Protocol on stdout: the line READY once zipcone.cli is imported from the
checkout's src/ and the first pass's argument vectors exist (the end of
set-up), then, unless --probe, one JSON report line.  Each operation is
`zipcone.cli.run(argv)` in this process with stdout and stderr captured.
The child runs passes until --budget seconds are spent, at least one.  Each
pass's answers are checked right after the pass, outside its timing, and
only the failure reasons are kept, so the memory the benchmark holds does
not grow with the number of passes.  The peak resident set is read before
the last pass's answers are checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (sibling modules; this file runs as a script)
import workloads  # noqa: E402


def _import_cli():
    """zipcone.cli from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import zipcone
    import zipcone.cli

    if Path(zipcone.__file__).resolve().parent != (src / "zipcone").resolve():
        raise SystemExit(f"zipcone imported from {zipcone.__file__}, not from {src}")
    return zipcone


def run_pass(cli, ops):
    """Issue the operations back to back; return (wall seconds, results)."""
    results = []
    t_first = time.perf_counter()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc, error = cli.run(argv), None
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                rc, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        results.append((argv, rc, out.getvalue(), error, t1 - t0))
    return time.perf_counter() - t_first, results


def failures(results) -> list[str]:
    """One reason per failed record of (argv, rc, stdout, error, seconds)."""
    reasons = []
    for argv, rc, out, error, _ in results:
        why = error or checks.check(argv, rc, out)
        if why:
            reasons.append(f"{' '.join(argv)}: {why}")
    return reasons


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--budget", type=float, default=0.0, help="seconds to keep starting passes")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--spans", help="trace, and write the spans to this file")
    args = ap.parse_args()

    zipcone = _import_cli()
    k = args.first_pass
    ops = workloads.pass_ops(args.workload, args.seed, k)
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    deadline = time.perf_counter() + args.budget
    passes, reasons, attempted, failed, out_bytes = [], [], 0, 0, 0
    while True:
        wall, recs = run_pass(zipcone.cli, ops)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes.append({"index": k, "wall_s": wall, "op_s": [r[4] for r in recs]})
        attempted += len(recs)
        out_bytes += sum(len(r[2].encode()) for r in recs)
        why = failures(recs)
        failed += len(why)
        reasons += why[: 10 - len(reasons)]
        del recs
        if time.perf_counter() + statistics.median(p["wall_s"] for p in passes) > deadline:
            break
        k += 1
        ops = workloads.pass_ops(args.workload, args.seed, k)

    if tracer is not None:
        tracer.counters["cli.out_bytes"] = out_bytes
        tracer.dump(Path(args.spans))

    report = {
        "backend": zipcone.BACKEND,
        "python": platform.python_version(),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "peak_rss_kb": peak_rss_kb,
        "untraced": tracer.missing if tracer is not None else [],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
