"""The repo linter's magic frame-count and dead-private-helper rules,
unit-tested as pure functions, plus the end-to-end gate: the tree itself
must be clean."""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "repo_lint", REPO_ROOT / "tools" / "lint.py"
)
assert _spec is not None and _spec.loader is not None
repo_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repo_lint)


def findings(source: str, rel: str = "src/repro/example.py") -> list[str]:
    tree = ast.parse(source)
    return repo_lint.check_frame_count_literals(
        tree, source.splitlines(), rel
    )


class TestFrameCountRule:
    def test_flags_every_magic_count(self):
        for literal in (27, 48, 52, 54, 64):
            out = findings(f"frames = {literal}\n")
            assert len(out) == 1 and str(literal) in out[0], literal

    def test_ignores_other_integers(self):
        assert findings("x = 32\ny = 18\nz = 47\nw = 511\n") == []

    def test_waiver_comment_suppresses(self):
        assert findings("CACHE = 64  # not-a-frame-count\n") == []

    def test_spec_catalog_is_exempt(self):
        src = "CLB_FRAMES = 48\n"
        assert findings(src, "src/repro/devices/spec.py") == []
        assert findings(src, "src/repro/devices/data/gen.py") == []

    def test_only_src_is_swept(self):
        assert findings("n = 48\n", "tools/helper.py") == []
        assert findings("n = 48\n", "benchmarks/bench.py") == []

    def test_reports_line_numbers(self):
        out = findings("a = 1\nb = 54\n")
        assert len(out) == 1 and ":2:" in out[0]

    def test_nested_expressions_are_caught(self):
        out = findings("def f(x):\n    return [x] * (48 + 1)\n")
        assert len(out) == 1


def dead(**sources: str) -> list[str]:
    """Dead-helper findings over modules given as ``name=source``."""
    return repo_lint.check_dead_private(
        {f"src/repro/{name}.py": ast.parse(src) for name, src in sources.items()}
    )


class TestDeadPrivateRule:
    def test_unnamed_helper_is_flagged(self):
        out = dead(route="def _stale_helper(c):\n    return c\n")
        assert len(out) == 1
        assert "src/repro/route.py:1:" in out[0] and "_stale_helper" in out[0]

    def test_methods_and_classes_are_covered(self):
        src = ("class _State:\n    pass\n"
               "class Router:\n    def _rip_up(self):\n        pass\n")
        out = dead(route=src)
        assert len(out) == 2
        assert ":1: " in out[0] and "_State" in out[0]
        assert ":4: " in out[1] and "_rip_up" in out[1]

    def test_any_kind_of_reference_keeps_it(self):
        assert dead(a="def _f():\n    pass\nx = _f\n") == []
        assert dead(a="class C:\n    def _m(self):\n        pass\n",
                    b="def g(c):\n    return c._m()\n") == []
        assert dead(a="def _h():\n    pass\n",
                    b="from .a import _h\n") == []

    def test_public_and_dunder_names_are_exempt(self):
        assert dead(a="def f():\n    pass\n"
                      "class C:\n    def __init__(self):\n        pass\n") == []


def test_repo_lint_passes():
    """The tree must satisfy its own linter (frame-count rule included)."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    assert "fallback OK" in proc.stdout
