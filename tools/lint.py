#!/usr/bin/env python3
"""lint: the repository's code-quality entry point.

Runs, in order:

1. **ruff** (``ruff check src tools benchmarks tests``) when the binary
   is available — configured by ``[tool.ruff]`` in ``pyproject.toml``;
2. **mypy** (``python -m mypy src/repro``) when the module is available —
   configured by ``[tool.mypy]``, strict on ``repro.analyze``;
3. a **stdlib AST fallback** that always runs, so the container (which
   ships neither ruff nor mypy) still gets the highest-value checks:
   unused imports (F401-style), duplicate imports, and ``== None`` /
   ``!= None`` comparisons (E711-style) across ``src/``, ``tools/``, and
   ``benchmarks/``; plus a repo-specific rule flagging **magic
   frame-count literals** (48/54/27/64/52) in ``src/`` — those numbers
   are device geometry and must come from ``repro.devices.spec``
   (suppress a deliberate non-geometry use with a ``not-a-frame-count``
   line comment); and a **dead private helper** rule flagging a
   ``_``-prefixed function, method or class in ``src/`` that no code in
   ``src/`` names (a helper kept alive only by tests is dead code).

Run from the repository root::

    python tools/lint.py            # exit 0 iff everything checks out

Missing external tools are *skipped with a notice*, never an error: the
fallback keeps the gate meaningful without network installs.
"""

from __future__ import annotations

import ast
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories the AST fallback sweeps.
SWEEP_DIRS = ["src", "tools", "benchmarks"]


# -- external tools, when present ---------------------------------------------


def run_ruff() -> bool | None:
    """Run ruff if installed; None when unavailable."""
    exe = shutil.which("ruff")
    if exe is None:
        return None
    proc = subprocess.run(
        [exe, "check", "src", "tools", "benchmarks", "tests"],
        cwd=REPO_ROOT,
    )
    return proc.returncode == 0


def run_mypy() -> bool | None:
    """Run mypy if importable; None when unavailable."""
    if importlib.util.find_spec("mypy") is None:
        return None
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        cwd=REPO_ROOT,
    )
    return proc.returncode == 0


# -- stdlib AST fallback ------------------------------------------------------


class _ImportUse(ast.NodeVisitor):
    """Collects imported names and every name/attribute-root used."""

    def __init__(self) -> None:
        self.imports: dict[str, tuple[int, str]] = {}   # name -> (line, desc)
        self.used: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imports[name] = (node.lineno, f"import {alias.name}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return                        # compiler directives, not bindings
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            self.imports[name] = (
                node.lineno,
                f"from {'.' * node.level}{node.module or ''} import {alias.name}",
            )

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)


def _names_in_strings(tree: ast.Module) -> set[str]:
    """Names referenced inside string annotations/docstring-free strings —
    a cheap guard so typing-only imports used in quoted annotations (and
    ``__all__`` entries) don't count as unused."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in (
                node.value.replace("[", " ").replace("]", " ")
                .replace("|", " ").replace(".", " ").replace(",", " ").split()
            ):
                if token.isidentifier():
                    names.add(token)
    return names


#: Per-kind frame counts (and the XCVZ8 variant) from the device specs.
#: Bare occurrences of these in src/ are almost always a hardcoded
#: geometry assumption that breaks on other family members.
FRAME_COUNT_LITERALS = frozenset({27, 48, 52, 54, 64})

#: Only the spec catalog (and its data files) may spell these out.
FRAME_COUNT_EXEMPT = ("src/repro/devices/spec.py", "src/repro/devices/data")

#: Line-comment marker acknowledging a literal is not a frame count.
FRAME_COUNT_WAIVER = "not-a-frame-count"


def check_frame_count_literals(tree: ast.Module, lines: list[str],
                               rel: str) -> list[str]:
    """Flag magic frame-count literals outside the device-spec catalog.

    Pure function over a parsed tree so the rule is unit-testable: the
    caller decides which files are swept.  A literal on a line carrying a
    ``not-a-frame-count`` comment is waived (e.g. a bit position or cache
    size that coincides with a frame count).
    """
    posix = rel.replace("\\", "/")
    if not posix.startswith("src/") or posix.startswith(FRAME_COUNT_EXEMPT):
        return []
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and type(node.value) is int):
            continue
        if node.value not in FRAME_COUNT_LITERALS:
            continue
        line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        if FRAME_COUNT_WAIVER in line:
            continue
        problems.append(
            f"{rel}:{node.lineno}: magic frame-count literal {node.value}: "
            f"take it from the device spec (repro.devices.spec) or mark "
            f"the line '# {FRAME_COUNT_WAIVER}'"
        )
    return problems


def check_dead_private(trees: dict[str, ast.Module]) -> list[str]:
    """Flag ``_``-prefixed functions, methods and classes nothing names.

    ``trees`` maps repo-relative paths to parsed modules (``src/`` in the
    real sweep).  A definition is used when any tree names it: as a
    ``Name``, as the attribute of an ``Attribute``, or in a ``from ...
    import``.  Dunder names are exempt (the interpreter calls them).
    Pure function over parsed trees so the rule is unit-testable.
    """
    defined: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for rel, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((rel, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{rel}:{lineno}: dead private helper {name}: nothing in src/ names it"
        for rel, lineno, name in defined
        if name not in used
    ]


def _src_trees() -> dict[str, ast.Module]:
    """Every parseable module under ``src/``, keyed by relative path."""
    trees = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        try:
            trees[str(path.relative_to(REPO_ROOT))] = ast.parse(
                path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue                      # check_file reports it
    return trees


def check_file(path: Path) -> list[str]:
    """Fallback findings for one source file."""
    problems: list[str] = []
    rel = path.relative_to(REPO_ROOT)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"{rel}:{exc.lineno}: syntax error: {exc.msg}"]
    problems.extend(
        check_frame_count_literals(tree, source.splitlines(), str(rel))
    )

    visitor = _ImportUse()
    visitor.visit(tree)
    quoted = _names_in_strings(tree)
    is_package_init = path.name == "__init__.py"
    for name, (lineno, desc) in sorted(visitor.imports.items(),
                                       key=lambda kv: kv[1][0]):
        if name.startswith("_") or is_package_init:
            continue                      # re-export surface
        if name not in visitor.used and name not in quoted:
            problems.append(f"{rel}:{lineno}: unused import: {desc}")

    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, right in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(isinstance(o, ast.Constant) and o.value is None
                   for o in operands):
                kind = "==" if isinstance(op, ast.Eq) else "!="
                problems.append(
                    f"{rel}:{node.lineno}: comparison to None should be "
                    f"'is{' not' if kind == '!=' else ''} None', not '{kind}'"
                )
                break
    return problems


def run_fallback() -> list[str]:
    problems: list[str] = []
    for sweep in SWEEP_DIRS:
        root = REPO_ROOT / sweep
        if not root.exists():
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            problems.extend(check_file(path))
    problems.extend(check_dead_private(_src_trees()))
    return problems


def main() -> int:
    ok = True
    for name, result in (("ruff", run_ruff()), ("mypy", run_mypy())):
        if result is None:
            print(f"lint: {name} not installed, skipped "
                  f"(stdlib fallback still runs)")
        elif result:
            print(f"lint: {name} OK")
        else:
            print(f"lint: {name} found problems", file=sys.stderr)
            ok = False
    problems = run_fallback()
    for problem in problems:
        print(f"lint: {problem}", file=sys.stderr)
    if problems:
        ok = False
    else:
        print(f"lint: fallback OK ({', '.join(SWEEP_DIRS)} swept)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
