"""Root pytest plugin: a dependency-free function-coverage gate.

The container has neither ``coverage`` nor ``pytest-cov``, so the tier-1
suite carries its own minimal substitute: it records every function under
``src/repro`` entered at least once and compares that against the universe
of functions compiled from the source tree, failing the run (pytest-cov's
``--cov-fail-under`` contract) when the percentage drops below the pinned
floor in ``pyproject.toml``.

Measurement is two-tier to keep the tax small: the main thread runs under
stdlib ``cProfile`` (a C-speed dispatcher; entered code objects are
recovered from ``getstats()`` afterwards), while worker threads — which
make comparatively few Python calls — use a ``threading.setprofile``
callback that only does work the first time it sees a code object.

Scope rules keep the gate honest without taxing every invocation:

* it measures and enforces only on **full-suite** runs (the default
  ``testpaths`` — exactly what tier-1 executes);
* subset runs (``pytest tests/serve``), benchmark runs, and ``-m slow``
  campaigns skip both the profiler and the gate, so selective debugging
  never fails on coverage and benchmark timings are never skewed.

Function-level granularity (not line-level) is deliberate: a line tracer
would multiply suite runtime.  The floor is pinned just below the measured
suite coverage so a PR that orphans a subsystem trips the gate.
"""

from __future__ import annotations

import cProfile
import os
import sys
import threading
from types import CodeType

_REPO_ROOT = os.path.dirname(os.path.abspath(__file__))
_SRC_ROOT = os.path.join(_REPO_ROOT, "src", "repro")


def _function_universe() -> set[tuple[str, int, str]]:
    """Every function/method/comprehension compiled from src/repro."""
    universe: set[tuple[str, int, str]] = set()
    for dirpath, dirnames, filenames in os.walk(_SRC_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            try:
                with open(path, encoding="utf-8") as handle:
                    top = compile(handle.read(), path, "exec")
            except (OSError, SyntaxError, ValueError):
                continue
            stack = [top]
            while stack:
                code = stack.pop()
                stack.extend(c for c in code.co_consts
                             if isinstance(c, CodeType))
                if code.co_name != "<module>":
                    universe.add((path, code.co_firstlineno, code.co_name))
    return universe


class _CovGate:
    """Records (file, line, name) of every src/repro function entered."""

    def __init__(self) -> None:
        self.hits: set[tuple[str, int, str]] = set()
        self._seen: set[int] = set()
        # keep every observed code object alive so id() stays unique
        self._pinned: list[CodeType] = []
        self._prefix = _SRC_ROOT + os.sep
        self._main = cProfile.Profile()

    def _record(self, code: CodeType) -> None:
        filename = code.co_filename
        if "repro" not in filename:
            return
        path = (filename if os.path.isabs(filename)
                else os.path.abspath(filename))
        if path.startswith(self._prefix) and code.co_name != "<module>":
            self.hits.add((path, code.co_firstlineno, code.co_name))

    def _thread_profile(self, frame, event, arg):  # sys.setprofile signature
        if event != "call":
            return
        code = frame.f_code
        ident = id(code)
        if ident in self._seen:
            return
        self._seen.add(ident)
        self._pinned.append(code)
        self._record(code)

    def install(self) -> None:
        threading.setprofile(self._thread_profile)
        self._main.enable(subcalls=False, builtins=False)

    def uninstall(self) -> None:
        self._main.disable()
        threading.setprofile(None)
        for entry in self._main.getstats():
            if isinstance(entry.code, CodeType):
                self._record(entry.code)


def pytest_addoption(parser):
    group = parser.getgroup("covgate", "dependency-free function-coverage gate")
    group.addoption(
        "--cov-gate", action="store_true", default=False,
        help="measure src/repro function coverage on full-suite runs",
    )
    group.addoption(
        "--cov-gate-fail-under", type=float, default=0.0, metavar="PCT",
        help="fail the run when function coverage drops below PCT "
             "(enforced only on full-suite runs; 0 reports without failing)",
    )


#: The marker expression ``addopts`` applies to tier-1 runs; a different
#: one (``-m serve``, ``-m lint``) selects a subset and must not be
#: held to full-suite coverage.
_DEFAULT_MARKEXPR = "not slow and not bench"


def _is_full_suite(config) -> bool:
    testpaths = [str(p) for p in config.getini("testpaths")]
    if not testpaths or sorted(config.args) != sorted(testpaths):
        return False
    return getattr(config.option, "markexpr", "") == _DEFAULT_MARKEXPR


def pytest_configure(config):
    config._covgate = None
    if config.getoption("--cov-gate") and _is_full_suite(config):
        gate = _CovGate()
        gate.install()
        config._covgate = gate


def pytest_sessionfinish(session, exitstatus):
    gate = getattr(session.config, "_covgate", None)
    if gate is None:
        return
    gate.uninstall()
    universe = _function_universe()
    covered = gate.hits & universe
    percent = 100.0 * len(covered) / len(universe) if universe else 100.0
    floor = session.config.getoption("--cov-gate-fail-under")
    session.config._covgate_summary = (len(covered), len(universe),
                                       percent, floor)
    if floor and percent < floor and exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    summary = getattr(config, "_covgate_summary", None)
    if summary is None:
        return
    covered, total, percent, floor = summary
    line = (f"covgate: {covered}/{total} src/repro functions entered "
            f"({percent:.1f}%)")
    if floor:
        verdict = "ok" if percent >= floor else "FAIL"
        line += f" — required {floor:.1f}% [{verdict}]"
    terminalreporter.write_line(line)
