#!/usr/bin/env python3
"""docs-check: keep the documentation from rotting silently.

Four passes, all stdlib-only:

1. ``python -m compileall`` over ``src/`` — every module must at least
   parse (catches syntax rot in rarely-imported corners);
2. a Markdown link/anchor checker over ``docs/*.md``, ``README.md``, and
   the other top-level ``.md`` files: every relative link must point at an
   existing file, and every ``#fragment`` must match a heading anchor in
   the target document (GitHub anchor rules: lowercase, punctuation
   stripped, spaces to dashes).  External ``http(s)``/``mailto`` links are
   not fetched;
3. a rule-catalog check: every analyzer rule id registered in
   ``src/repro/analyze`` must be documented in ``docs/ANALYSIS.md``;
4. a docstring-coverage pass over the packages in
   :data:`DOCSTRING_PACKAGES` (the public-facing execution and serving
   layers): every public module, class, function, and method must carry a
   docstring — coverage below :data:`DOCSTRING_THRESHOLD` fails, naming
   each gap.

Run from the repository root::

    python tools/docs_check.py          # exit 0 iff everything checks out

The test suite runs this via ``tests/test_docs_check.py``, so a broken
link or a stale file reference fails CI.
"""

from __future__ import annotations

import ast
import compileall
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages whose public API must be fully docstring-covered (pass 4).
DOCSTRING_PACKAGES = ["src/repro/exec", "src/repro/serve"]

#: Minimum acceptable docstring coverage over the packages above.
DOCSTRING_THRESHOLD = 1.0

#: Markdown files checked for links and anchors.
DOC_GLOBS = ["README.md", "*.md", "docs/*.md"]

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor id transformation (close enough)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)            # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)   # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path: Path) -> set[str]:
    """Every anchor a Markdown file's headings define."""
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = _HEADING_RE.match(line)
        if m:
            anchors.add(github_anchor(m.group(2)))
    return anchors


def markdown_links(path: Path) -> list[str]:
    """Every non-image link target in a Markdown file (fences skipped)."""
    targets: list[str] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        targets.extend(_LINK_RE.findall(line))
    return targets


def doc_files(root: Path) -> list[Path]:
    seen: dict[Path, None] = {}
    for glob in DOC_GLOBS:
        for path in sorted(root.glob(glob)):
            seen.setdefault(path.resolve(), None)
    return list(seen)


def check_links(root: Path) -> list[str]:
    """Problems with relative links/anchors in the repo's Markdown files."""
    problems: list[str] = []
    for doc in doc_files(root):
        rel = doc.relative_to(root)
        for target in markdown_links(doc):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, fragment = target.partition("#")
            dest = doc if not file_part else (doc.parent / file_part).resolve()
            if not dest.exists():
                problems.append(f"{rel}: broken link -> {target}")
                continue
            if fragment:
                if dest.suffix.lower() != ".md":
                    continue
                if github_anchor(fragment) not in heading_anchors(dest):
                    problems.append(f"{rel}: missing anchor -> {target}")
    return problems


def check_compile(root: Path) -> bool:
    """True iff every source file under src/ compiles."""
    return bool(compileall.compile_dir(str(root / "src"), quiet=2, force=False))


_RULE_RE = re.compile(r"""\brule\(\s*["']([A-Z]\d{3})["']""")


def check_rule_catalog(root: Path) -> list[str]:
    """Every analyzer rule id registered in ``src/repro/analyze`` must be
    documented in ``docs/ANALYSIS.md`` (the user-facing catalog)."""
    problems: list[str] = []
    catalog = root / "docs" / "ANALYSIS.md"
    analyze = root / "src" / "repro" / "analyze"
    if not analyze.is_dir():
        return problems
    if not catalog.exists():
        return [f"docs/ANALYSIS.md missing but {analyze} registers rules"]
    documented = catalog.read_text(encoding="utf-8")
    for src in sorted(analyze.glob("*.py")):
        for rule_id in _RULE_RE.findall(src.read_text(encoding="utf-8")):
            if rule_id not in documented:
                problems.append(
                    f"{src.relative_to(root)}: rule {rule_id} is not "
                    f"documented in docs/ANALYSIS.md"
                )
    return problems


def _public_defs(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(dotted name, node) for every public def/class in a parsed module:
    module-level functions and classes plus the methods of public classes,
    underscore-prefixed names (and private classes' methods) excluded."""
    out: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            out.append((node.name, node))
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")):
                    out.append((f"{node.name}.{sub.name}", sub))
    return out


def check_docstrings(root: Path) -> list[str]:
    """Docstring-coverage pass over :data:`DOCSTRING_PACKAGES`.

    Counts every public module/class/function/method; coverage below
    :data:`DOCSTRING_THRESHOLD` is a problem, and each missing docstring
    is named so the failure is actionable."""
    total = 0
    missing: list[str] = []
    for package in DOCSTRING_PACKAGES:
        for src in sorted((root / package).glob("*.py")):
            rel = src.relative_to(root)
            tree = ast.parse(src.read_text(encoding="utf-8"), filename=str(src))
            total += 1
            if ast.get_docstring(tree) is None:
                missing.append(f"{rel}: module docstring missing")
            for name, node in _public_defs(tree):
                total += 1
                if ast.get_docstring(node) is None:
                    missing.append(
                        f"{rel}:{node.lineno}: public `{name}` has no docstring"
                    )
    if not total:
        return []
    coverage = (total - len(missing)) / total
    if coverage >= DOCSTRING_THRESHOLD:
        return []
    problems = [
        f"docstring coverage {coverage:.1%} over {', '.join(DOCSTRING_PACKAGES)} "
        f"is below the {DOCSTRING_THRESHOLD:.0%} threshold "
        f"({len(missing)} of {total} public names undocumented):"
    ]
    problems.extend(f"  {line}" for line in missing)
    return problems


def main() -> int:
    ok = True
    if not check_compile(REPO_ROOT):
        print("docs-check: compileall failed over src/", file=sys.stderr)
        ok = False
    problems = (
        check_links(REPO_ROOT)
        + check_rule_catalog(REPO_ROOT)
        + check_docstrings(REPO_ROOT)
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        ok = False
    if ok:
        n = len(doc_files(REPO_ROOT))
        print(f"docs-check: OK ({n} Markdown files, src/ compiles, "
              f"rule catalog complete, docstrings covered)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
