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
    """Every name that an ast.Name or an ast.Attribute reads in the files."""
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


def _dead_definitions(package, readers):
    """Top-level functions and classes of the package, and their non-dunder
    methods, whose names no module of the package or of `readers` reads."""
    modules = sorted(package.glob("*.py"))
    read = _read_names(modules + sorted(readers.glob("*.py")))
    dead = []
    for path in modules:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name not in read:
                dead.append(f"{path.name}:{stmt.lineno} {stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            for item in stmt.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in read
                    and not _overrides(path.stem, stmt.name, item.name)
                ):
                    dead.append(f"{path.name}:{item.lineno} {stmt.name}.{item.name}")
    return dead


def test_no_dead_definitions_in_package_modules():
    assert _dead_definitions(ROOT / "src" / "zipcone", ROOT / "tests") == []
