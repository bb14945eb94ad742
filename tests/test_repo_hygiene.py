import ast
import importlib
import io
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from test_cli import LIMIT_CASES
from zipcone import cli, linalg
from zipcone.cli import LIMITS

ROOT = Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert listed.stdout == ""


def _unused_imports(path):
    """Top-level imports of a module that no name in it reads; an import on
    a line marked `# noqa: F401` is exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_package_modules():
    modules = sorted((ROOT / "src" / "zipcone").glob("*.py"))
    assert modules
    unused = [u for path in modules if path.name != "__init__.py" for u in _unused_imports(path)]
    assert unused == []


def _traced_spans():
    """`SPANS` of perfbench/tracing.py, read from the file, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["SPANS"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/tracing.py assigns no SPANS")


def test_every_traced_span_resolves_in_the_package():
    """Each (module, function or Class.method) the benchmark tracer wraps is
    defined where it looks, as `tracing.install` looks it up, and so are the
    imported copies its selftest checks are rebound."""
    spans = _traced_spans()
    assert spans
    missing = []
    for module, qualname in spans:
        owner = importlib.import_module(f"zipcone.{module}")
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
    cones = importlib.import_module("zipcone.cones")
    weylroot = importlib.import_module("zipcone.weylroot")
    for module in ("certify", "cli", "sweeps"):
        assert importlib.import_module(f"zipcone.{module}").farkas_implies is cones.farkas_implies
    for module in ("bruhat", "hasse"):
        mod = importlib.import_module(f"zipcone.{module}")
        assert mod.compose is weylroot.compose
        assert mod.reflection is weylroot.reflection


# ---------------------------------------------------------------------------
# every definition is run by some verb, or kept on purpose

PACKAGE = ROOT / "src" / "zipcone"
TRACING = ROOT / "perfbench" / "tracing.py"
W3 = "4 6 5 2 1 3"

# Every verb, in text and with --json, with every --cone and --suite choice;
# each of these exits 0 or 1.  "{out}" is a file the --out runs may write.
RUNS = [
    [*argv, *form]
    for argv in [
        ["weyl", "--n", "3", "--canonical", "--elem", W3],
        ["weyl", "--elem", W3, "--length", "--inverse", "--act=1,-2,3/2|1"],
        ["neighbors", "--elem", W3],
        ["path", "--n", "3", "--p", "2"],
        *[["cone-check", "--cone", cone, "--p", "3", "--lambda=1,-4,-4|0"] for cone in ("gs", "lmin", "lmin-i", "pha-wmax")],
        ["cone-check", "--cone", "pha", "--p", "5", "--elem", W3, "--lambda=1,-3/2,2|1"],
        # an integral chi = e_1, so its parity is read too
        ["cone-check", "--cone", "pha", "--p", "3", "--elem", "1 2 3 4", "--lambda=-1,-3|0"],
        *[["farkas", "--cone", cone, "--p", "2", "--target=4,1,2|0"] for cone in ("gs", "lmin-i", "pha-wmax", "n3")],
        ["farkas", "--cone", "pha-wmax", "--target=1,-2,0|0"],
        ["verify-theorem", "--n", "3", "--p", "2"],
        ["verify-theorem", "--n", "3", "--p", "2", "--path-report", "--out", "{out}"],
        ["enum-iw", "--n", "3"],
        ["bruhat", "--elem", "1 3 2 4", "--elem2", "3 4 1 2", "--preceq"],
        ["sweep", "--suite", "gamma", "--n", "2,3"],
        ["sweep", "--suite", "bruhat", "--n", "3"],
        ["sweep", "--suite", "bruhat", "--n", "3", "--samples", "40"],
        ["sweep", "--suite", "lmin-oracle", "--n", "2", "--p", "3", "--samples", "10"],
        ["sweep", "--suite", "redundancy", "--n", "2", "--p", "2,3", "--samples", "10"],
    ]
    for form in ([], ["--json"])
]

# Every refusal and error path, each of which exits 2: one past each bound
# of every `LIMITS` row, and every other message the CLI can refuse with.
REFUSALS = [
    *[argv(bound + past) for key, (argv, _) in LIMIT_CASES.items()
      for bound, past in zip(LIMITS[key], (-1, 1)) if bound is not None],
    [],
    ["no-such-verb"],
    ["path", "--n", "3"],
    ["weyl"],
    ["weyl", "--canonical"],
    ["weyl", "--elem", "1 1"],
    ["weyl", "--elem", "1 x"],
    ["weyl", "--elem", "2 1", "--act=1,2|0"],
    ["neighbors", "--n", "3", "--elem", "2 1"],
    ["cone-check", "--cone", "lmin", "--lambda=1|0"],
    ["cone-check", "--cone", "pha", "--p", "3", "--lambda=1|0"],
    ["cone-check", "--cone", "gs", "--n", "3", "--lambda=1|0"],
    ["cone-check", "--cone", "gs", "--lambda=1,x|0"],
    ["cone-check", "--cone", "gs", "--lambda=1,2"],
    ["farkas", "--cone", "gs", "--target=1/2,1|0"],
    ["farkas", "--cone", "n3", "--target=1,1,1|0"],
    ["farkas", "--cone", "n3", "--p", "2", "--target=1,1|0"],
    ["farkas", "--cone", "lmin-i", "--target=1,1|0"],
    ["verify-theorem", "--n", "3", "--p", "2", "--out", "{out}/missing/cert.json"],
    ["bruhat", "--elem", "1 2", "--elem2", "1 2 3 4"],
    ["bruhat", "--elem", "2 1 4 3", "--elem2", "1 2 3 4", "--preceq"],
    ["sweep", "--suite", "gamma", "--n", ","],
    ["sweep", "--suite", "gamma", "--n", "x"],
    ["sweep", "--suite", "lmin-oracle", "--n", "2"],
]

# Refused by a Fourier-Motzkin blow-up, with the row bound lowered to 10.
BLOWUP = ["farkas", "--cone", "lmin-i", "--p", "3", "--target=9,8,7,6,5|0"]

# Each top-level function or method the corpus never calls, with the reason
# it stays.  A reason that names `SPANS X` pins it to the span X of
# perfbench/tracing.py, and `OBSERVERS X reads result.A` to the observer of
# span X reading attribute A of its result: perfbench/ runs on the package
# unchanged, so these cannot leave it.
REFERENCE = {
    "bruhat.admissible_pairs": "SPANS bruhat.admissible_pairs; the classed pairs as records",
    "bruhat.AdmissiblePair.__init__": "the record SPANS bruhat.admissible_pairs returns",
    "certify.Certificate.checks": "OBSERVERS certify.envelope_certificate reads result.checks",
    "certify.EnvelopeCheck.__init__": "built by Certificate.checks, which OBSERVERS certify.envelope_certificate reads result.checks",
    "certify.Certificate.to_json_dict": "SPANS certify.Certificate.to_json_dict; the json.dumps reference of Certificate.iter_json",
    "certify.EnvelopeCheck.to_json_dict": "called by SPANS certify.Certificate.to_json_dict",
    "cones.Cone.member": "SPANS cones.Cone.member; the row-by-row reference of the O(n) memberships",
    "hasse.hasse_map": "SPANS hasse.hasse_map; the dense weight matrix behind the reference of cones.weight_preimage",
    "hasse.HasseMap.__init__": "the record SPANS hasse.hasse_map returns",
    "weylroot.Character.unit": "builds the basis characters of SPANS hasse.hasse_map",
    "hasse.PathReport.to_json_dict": "SPANS hasse.PathReport.to_json_dict; the json.dumps reference of PathReport.iter_json",
    "hasse.StepReport.to_json_dict": "called by SPANS hasse.PathReport.to_json_dict",
    "linalg.rank": "SPANS linalg.rank; the rank reference of bruhat.is_separating",
    "linalg.solve_square": "SPANS linalg.solve_square; the dense solve of the weight-map reference",
    "linalg._bareiss": "the elimination of SPANS linalg.rank and SPANS linalg.solve_square",
    "weylroot.Record.__init_subclass__": "runs when each record class is defined, at import, before any verb",
    "weylroot.Record.__repr__": "the records' text in tracebacks and test failures",
    "weylroot.Record.__setattr__": "refuses assignment: no product code assigns to a record",
    "weylroot.Record.__delattr__": "refuses deletion: no product code deletes a field",
}


def _definitions():
    """`module.name` of each top-level function and `module.Class.name` of
    each method in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            prefix = f"{path.stem}.{stmt.name}." if isinstance(stmt, ast.ClassDef) else f"{path.stem}."
            names.update(prefix + item.name for item in body if isinstance(item, ast.FunctionDef))
    return names


def _run(argv, entry=cli.run):
    """(argv, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = entry(argv)
    return argv, code, out.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The names of the package definitions the corpus calls, and the
    (argv, exit code, stdout) of each call: RUNS, then REFUSALS, then
    BLOWUP, then one call of `cli.main`.  The package's caches are emptied
    first, so that what earlier tests cached is called again."""
    for module in [m for name, m in sys.modules.items() if name.startswith("zipcone.")]:
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()
    out = str(tmp_path_factory.mktemp("corpus") / "cert.json")
    codes = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
    try:
        results = [_run([a.replace("{out}", out) for a in argv]) for argv in RUNS + REFUSALS]
        with mock.patch.object(linalg, "_MAX_FM_ROWS", 10):
            results.append(_run(BLOWUP))
        with mock.patch.object(sys, "argv", ["zipcone", "enum-iw", "--n", "2"]):
            results.append(_run(sys.argv[1:], lambda _: cli.main()))
    finally:
        sys.setprofile(None)
    package = PACKAGE.resolve()
    paths = {code.co_filename: Path(code.co_filename).resolve() for code in codes}
    called = {f"{paths[c.co_filename].stem}.{c.co_qualname}" for c in codes if paths[c.co_filename].parent == package}
    return called, results


def test_every_definition_is_called_by_a_verb_or_listed_as_a_reference(corpus):
    flagged = _definitions() - corpus[0]
    assert sorted(flagged - set(REFERENCE)) == [], "called by no verb and not in REFERENCE"
    assert sorted(set(REFERENCE) - flagged) == [], "stale REFERENCE entries"
    assert all(reason.strip() for reason in REFERENCE.values())


def test_refusals_exit_2_with_empty_stdout_and_runs_do_not(corpus):
    results = corpus[1]
    assert [argv for argv, code, _ in results[:len(RUNS)] if code not in (0, 1)] == []
    assert [argv for argv, code, _ in results[len(RUNS):-1] if code != 2] == []
    assert results[-1][1:] == _run(["enum-iw", "--n", "2"])[1:]
    assert [argv for argv, code, out in results if code == 2 and out] == []


def _broken_pins(source: str) -> set[str]:
    """The REFERENCE entries whose perfbench pins fail in `source`, a text
    of perfbench/tracing.py: a `SPANS X` that SPANS does not list, an
    `OBSERVERS X reads result.A` whose observer does not read result.A, or
    a reason that cites SPANS or OBSERVERS and pins nothing."""
    assigned = {
        stmt.targets[0].id: stmt.value
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
    }
    spans = {".".join(entry) for entry in ast.literal_eval(assigned["SPANS"])}
    observers = assigned["OBSERVERS"]
    reads = {key.value: re.findall(r"result\.\w+", ast.get_source_segment(source, value))
             for key, value in zip(observers.keys, observers.values) if key}
    broken = set()
    for name, reason in REFERENCE.items():
        cited = re.findall(r"SPANS ([\w.]+)", reason)
        observed = re.findall(r"OBSERVERS ([\w.]+) reads (result\.\w+)", reason)
        pinned = all(span in spans for span in cited) and all(attr in reads.get(k, ()) for k, attr in observed)
        if not pinned or re.search("SPANS|OBSERVERS", reason) and not (cited or observed):
            broken.add(name)
    return broken


def test_every_perfbench_pin_names_an_entry_that_is_there():
    assert _broken_pins(TRACING.read_text(encoding="utf-8")) == set()


def test_a_pin_whose_entry_was_removed_fails():
    source = TRACING.read_text(encoding="utf-8")
    without_rank = source.replace('    ("linalg", "rank"),\n', "")
    reads_ledger = source.replace("len(result.checks)", "len(result.ledger)")
    assert without_rank != source and reads_ledger != source
    assert _broken_pins(without_rank) == {"linalg.rank", "linalg._bareiss"}
    assert _broken_pins(reads_ledger) == {"certify.Certificate.checks", "certify.EnvelopeCheck.__init__"}
