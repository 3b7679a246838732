"""Docs cannot rot silently: run the docs-check and pydoc render in CI."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "docs_check", REPO_ROOT / "tools" / "docs_check.py"
)
assert _spec is not None and _spec.loader is not None
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)


def test_docs_check_passes():
    """tools/docs_check.py: src/ compiles, Markdown links/anchors resolve."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "docs_check.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    assert "OK" in proc.stdout


class TestCheckCompile:
    """The compile pass parses src/ in memory and writes nothing."""

    def test_clean_tree_passes_and_leaves_no_pycache(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text('"""A package."""\n')
        (pkg / "mod.py").write_text("def f():\n    return 1\n")
        assert docs_check.check_compile(tmp_path) == []
        assert not list(tmp_path.rglob("__pycache__"))
        assert not list(tmp_path.rglob("*.pyc"))

    def test_syntax_error_is_named(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        (pkg / "broken.py").write_text("x = 1\ndef f(:\n")
        problems = docs_check.check_compile(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("src/pkg/broken.py:2:")


def test_docs_exist_and_cover_packages():
    """ARCHITECTURE.md and API.md must mention every package under
    src/repro/ — a new package without documentation fails here."""
    packages = sorted(
        p.parent.name
        for p in (REPO_ROOT / "src" / "repro").glob("*/__init__.py")
    )
    assert packages, "no packages found under src/repro"
    for doc in ["ARCHITECTURE.md", "API.md"]:
        text = (REPO_ROOT / "docs" / doc).read_text()
        missing = [pkg for pkg in packages if f"repro.{pkg}" not in text]
        assert not missing, f"docs/{doc} does not mention: {missing}"


def test_pydoc_renders_cleanly():
    """`python -m pydoc repro` must render the package documentation."""
    import os

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "pydoc", "repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PACKAGE CONTENTS" in proc.stdout
    for pkg in ["batch", "obs", "core", "bitstream"]:
        assert pkg in proc.stdout


def test_every_package_has_docstring():
    """Module docstrings on every package __init__ (pydoc quality floor)."""
    import ast

    for init in sorted((REPO_ROOT / "src" / "repro").rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        doc = ast.get_docstring(tree)
        assert doc and len(doc.strip()) > 20, f"{init} has no useful docstring"
