"""jpgbench: the repository's benchmark, from XDL source to a downloaded or
served partial bitstream, with per-layer traces.

``python3 benchmarks/jpgbench/run.py --workload W --seed N`` runs one
workload and prints its result line; ``python -m benchmarks.jpgbench``
runs, traces and compares sets of runs.  See README.md beside this file.
"""

from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parents[2]
