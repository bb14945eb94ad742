import ast
import importlib
import shutil
import subprocess
from pathlib import Path

import pytest

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


def _read_names(paths):
    """Every name that an ast.Name or an ast.Attribute reads in the files.
    An import binds a name without reading it, so an `__init__` re-export
    is not a read."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _overrides(module: str, cls_name: str, method: str) -> bool:
    """Whether the method overrides one of a base class, whose callers read it."""
    cls = getattr(importlib.import_module(f"zipcone.{module}"), cls_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def _dead_definitions(package):
    """Top-level functions and classes of the package, and their non-dunder
    methods, whose names no module of the package reads, as
    `module.name` or `module.Class.method`."""
    modules = sorted(package.glob("*.py"))
    read = _read_names(modules)
    dead = set()
    for path in modules:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name not in read:
                dead.add(f"{path.stem}.{stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for item in stmt.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in read
                    and not _overrides(path.stem, stmt.name, item.name)
                ):
                    dead.add(f"{path.stem}.{stmt.name}.{item.name}")
    return dead


# Definitions that no package module reads, kept on purpose for the tests,
# each with the reason.  Anything else that only the tests read is dead.
TEST_ONLY = {
    "bruhat.rank_matrix": "the rank-matrix definition of Bruhat order that the kernel's sorted-prefix bruhat_leq is checked against",
    "bruhat.gamma": "the classed-pair-to-root map that lower_neighbors' root bitmasks are checked against",
    "certify.Certificate.from_json_dict": "the certificate loader of the round-trip tests, until `check-cert` (ROADMAP item 1) replaces it",
    "cones.worst_subset": "the root-level worst subset that orbit_worst_rows' closed-form rows are checked against",
    "hasse.eset_reference": "the uncorrected closed form of E_w as a root set, an example reference for the path report's masks",
    "hasse.eset_verified": "the corrected closed form of E_w as a root set, an example reference for the path report's masks",
    "linalg.rank": "a span of perfbench/tracing.SPANS; its tests pin the Bareiss elimination that solve_square shares",
    "weylroot.simple_roots": "the simple reflections that generate the group in the generation test",
    "weylroot.is_I_dominant": "Levi dominance, the reference for cone_GS's Levi rows",
    "weylroot.WeylElem.identity": "a fixture: the identity window",
    "weylroot.inversion_count": "the root-image inversion count that the window kernel's length is checked against",
    "weylroot.random_element": "a fixture: a uniformly random window from a seeded generator",
    "weylroot.weyl_elements": "a fixture: every element of one rank, for the exhaustive tests",
}


def test_no_dead_definitions_in_package_modules():
    """Only a read by a package module counts as a use: a read in the tests
    does not, so a helper that only the tests call is listed in TEST_ONLY
    or deleted, and a stale TEST_ONLY entry fails too."""
    assert _dead_definitions(ROOT / "src" / "zipcone") == set(TEST_ONLY)
    assert all(reason.strip() for reason in TEST_ONLY.values())


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
