"""Tests of the benchmark itself: answer checks, tracing, refusal without sources.

    python3 perfbench/selftest.py

Not collected by pytest on purpose: the repository's test suite measures
the library, and its wall time must not change because the benchmark has
tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import zipcone.cli  # noqa: E402


def _one(argv):
    _, results = child.run_pass(zipcone.cli, [argv])
    return results[0]


def _retell(record, data):
    """The same operation record with its stdout replaced by `data`."""
    argv, rc, _, error, seconds = record
    return argv, rc, json.dumps(data), error, seconds


class TamperedOutputIsAFailedOp(unittest.TestCase):
    def test_certificate(self):
        rec = _one(["verify-theorem", "--n", "4", "--p", "3", "--json"])
        self.assertEqual(len(child.failures([rec])), 0)
        data = json.loads(rec[2])

        bad = json.loads(rec[2])
        check = next(c for c in bad["checks"] if "multipliers" in c)
        check["multipliers"][0] = "4/1"
        self.assertEqual(len(child.failures([_retell(rec, bad)])), 1)

        bad = json.loads(rec[2])
        check = next(c for c in bad["checks"] if "value" in c)
        check["value"] = f"{int(check['value'].split('/')[0]) - 1}/1"
        self.assertEqual(len(child.failures([_retell(rec, bad)])), 1)

        self.assertEqual(len(child.failures([rec, _retell(rec, bad), rec])), 1)
        self.assertEqual(data["verdict"], "PASS")

    def test_farkas_witness_and_multipliers(self):
        rec = _one(["farkas", "--cone", "pha-wmax", "--target=1,-2,0|0", "--json"])
        self.assertEqual(rec[1], 1, "a witness answer exits 1")
        self.assertEqual(len(child.failures([rec])), 0)
        bad = json.loads(rec[2])
        bad["witness"][0] = "5/1"
        self.assertEqual(len(child.failures([_retell(rec, bad)])), 1)

        rec = _one(["farkas", "--cone", "lmin-i", "--p", "3", "--target=3,3,1|0", "--json"])
        self.assertEqual((rec[1], len(child.failures([rec]))), (0, 0))
        bad = json.loads(rec[2])
        bad["multipliers"][-1] = "1/7"
        self.assertEqual(len(child.failures([_retell(rec, bad)])), 1)

    def test_path_and_membership(self):
        rec = _one(["path", "--n", "5", "--p", "2", "--json"])
        self.assertEqual(len(child.failures([rec])), 0)
        bad = json.loads(rec[2])
        bad["reference_mismatches"].pop()
        self.assertEqual(len(child.failures([_retell(rec, bad)])), 1)

        rec = _one(["cone-check", "--cone", "pha-wmax", "--lambda=-1,0,2|0", "--json"])
        self.assertEqual((rec[1], len(child.failures([rec]))), (1, 0))
        bad = json.loads(rec[2])
        bad["member"] = True
        self.assertEqual(len(child.failures([_retell(rec, bad)])), 1)

    def test_exit_2_and_exceptions_fail(self):
        self.assertEqual(len(child.failures([(["weyl", "--elem", "1 1"], 2, "", None, 0.0)])), 1)
        self.assertEqual(len(child.failures([(["weyl"], None, "", "RuntimeError: boom", 0.0)])), 1)

    def test_pass_zero_of_every_workload_is_generated_deterministically(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.pass_ops(w, 7, 0), workloads.pass_ops(w, 7, 0))
            self.assertNotEqual(workloads.pass_ops(w, 7, 0), workloads.pass_ops(w, 8, 0))
        self.assertEqual(len(workloads.pass_ops("queries", 1, 0)), workloads.QUERIES_PER_PASS)


class Tracing(unittest.TestCase):
    def test_install_rebinds_every_imported_copy(self):
        import zipcone.bruhat
        import zipcone.certify
        import zipcone.cones
        import zipcone.hasse
        import zipcone.sweeps
        import zipcone.weylroot

        originals = {
            id(zipcone.cones.farkas_implies), id(zipcone.weylroot.compose),
            id(zipcone.weylroot.reflection), id(zipcone.bruhat.lower_neighbors),
        }
        tracer = tracing.Tracer()
        tracing.install(tracer)
        self.assertEqual(tracer.missing, [])
        for mod in (zipcone.certify, zipcone.cli, zipcone.sweeps):
            self.assertIs(mod.farkas_implies, zipcone.cones.farkas_implies)
        for mod in (zipcone.bruhat, zipcone.hasse):
            self.assertIs(mod.compose, zipcone.weylroot.compose)
            self.assertIs(mod.reflection, zipcone.weylroot.reflection)
        for name, mod in sys.modules.items():
            if name.startswith("zipcone"):
                stale = [k for k, v in vars(mod).items() if id(v) in originals]
                self.assertEqual(stale, [], name)

        _one(["verify-theorem", "--n", "3", "--p", "2", "--json"])
        names = [tracer.names[k] for k in tracer.name]
        self.assertIn("cones.farkas_implies", names)
        self.assertEqual(names[0], "cli.run")
        self.assertEqual(len(tracer.start), len(tracer.end))
        self.assertTrue(all(e >= s for s, e in zip(tracer.start, tracer.end)))

    def test_traced_counts_repeat_for_the_same_seed(self):
        def counts():
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "path", "--seed", "3",
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
            return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}

        first = counts()
        self.assertGreater(first["bruhat.oracle.calls"], 0)
        self.assertEqual(first, counts())


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}, set(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracing.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_compare_refuses_other_backend_or_python(self):
        record = {"env": {"python": "3.11.7", "backend": "python"}, "workloads": {}}
        paths = []
        for key, value in (("python", "3.11.7"), ("backend", "c"), ("python", "3.12.0")):
            path = ROOT / ".bench_out" / f"compare-{len(paths)}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({**record, "env": {**record["env"], key: value}}))
            paths.append(str(path))

        def rc(a, b):
            return subprocess.run([sys.executable, str(HERE / "history.py"), "compare", a, b],
                                  capture_output=True).returncode

        try:
            self.assertEqual(rc(paths[0], paths[0]), 0)
            self.assertEqual(rc(paths[0], paths[1]), 2)
            self.assertEqual(rc(paths[0], paths[2]), 2)
        finally:
            for path in paths:
                Path(path).unlink()

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
