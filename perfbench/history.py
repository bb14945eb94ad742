"""Record benchmark results as BENCH_<tag>.json files and compare two of them.

    python3 perfbench/history.py record --tag seed
    python3 perfbench/history.py compare perfbench/results/BENCH_seed.json BENCH_new.json

`record` invokes the command of BENCHMARK.json with its run_seconds:
RUNS untraced runs per workload with seeds 1..RUNS, then two traced runs
with seed 1.  For every end-to-end metric it stores the values, median
and quartiles and the spread (quartile distance over median) next to the
metric's bound from BENCHMARK.json; it stores the per-module metrics of
the first traced run, the tracing overhead of both, and whether every
count repeated exactly in the second.

`compare` refuses (exit 2) to compare records whose Python version or
kernel backend differ.  Otherwise it prints, per workload and end-to-end
metric, both medians, the change, and a verdict: "worse" when the new
median is worse than the old by more than the bound, "unresolved" when
either record's own spread exceeds the bound, else "within bound".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUNS = 10

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    details = json.loads(next(line for line in lines if line.startswith("details: "))[9:])
    return env, details[workload], json.loads(lines[-1])


def record(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"tag": args.tag, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            env, _, res = _invoke(w, seed, seconds, 0)
            attempted, failed = attempted + res["attempted"], failed + res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        e2e = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            e2e[name] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals), "bound": bounds[name][0],
                "better": bounds[name][1], "values": vals,
            }
        _, traced_details, traced = _invoke(w, 1, seconds, 1)
        _, again_details, again = _invoke(w, 1, seconds, 1)
        counts = {k for k, m in traced["metrics"].items() if m["unit"] in ("count", "bytes")}
        repeat = all(traced["metrics"][k]["value"] == again["metrics"][k]["value"] for k in counts)
        out["env"] = env
        out["workloads"][w] = {
            "attempted": attempted, "failed": failed, "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "trace_overhead_s": [traced_details["trace.overhead_s"],
                                 again_details["trace.overhead_s"]],
            "counts_repeat": repeat,
        }
        for name, m in e2e.items():
            print(f"{w:8s} {name:12s} median {m['median']:.6g}  spread {m['spread']:.3f}"
                  f"  bound {m['bound']}", flush=True)
        print(f"{w:8s} failed {failed}/{attempted}  traced counts repeat: {repeat}", flush=True)
    del out["env"]["seed"]
    RESULTS.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else RESULTS / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def compare(args) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    for key in ("python", "backend"):
        if old["env"][key] != new["env"][key]:
            print(f"refusing to compare: {key} {old['env'][key]} vs {new['env'][key]}", file=sys.stderr)
            return 2
    for w, new_w in new["workloads"].items():
        old_w = old["workloads"].get(w)
        if old_w is None:
            print(f"{w:8s} (not in {args.old})")
            continue
        for name, n in new_w["end_to_end"].items():
            o = old_w["end_to_end"][name]
            change = n["median"] / o["median"] - 1
            worsening = change if n["better"] == "lower" else -change
            if max(o["spread"], n["spread"]) > n["bound"]:
                verdict = "unresolved"
            elif worsening > n["bound"]:
                verdict = "worse"
            else:
                verdict = "within bound"
            print(f"{w:8s} {name:12s} {o['median']:12.6g} -> {n['median']:12.6g}"
                  f"  {change:+7.1%}  bound {n['bound']:.2f}  {verdict}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--tag", required=True)
    rec.add_argument("--out", help="default: perfbench/results/BENCH_<tag>.json")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = ap.parse_args()
    return record(args) if args.cmd == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
