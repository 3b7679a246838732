"""Run one jpgbench workload from the root of a checkout.

    python3 benchmarks/jpgbench/run.py --workload W --seed N [--seconds S] [--trace 0|1]

Exits 2 without a result line when the checkout holds no program to
measure (no ``src/repro``).  See harness.py for the result line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"jpgbench: nothing to measure in {ROOT}: needs src/repro and BENCHMARK.json",
              file=sys.stderr)
        sys.exit(2)
    # the checkout's own sources, never this script's directory
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.jpgbench.harness import main

    sys.exit(main())
