#!/usr/bin/env python
"""Fleet-scale load generator (thin wrapper over ``repro.cluster.loadgen``).

Replays a zipf-skewed synthetic request stream against a spawned loopback
fleet (a single node, then an N-node fleet, each addressed by its fleet
file and routed on the client) — or against any already-running endpoint
via ``--target`` (a node address or a fleet file) — and reports
throughput, p50/p95/p99 latency, per-tier cache-hit ratios, and a
byte-identity verdict.  Exit code 1 means served bytes diverged from
direct generation; speed never excuses that.

Run from the repo root::

    PYTHONPATH=src python tools/load_gen.py -n 1000 --nodes 3 --out report.json
    PYTHONPATH=src python tools/load_gen.py --target 127.0.0.1:4000 -n 100000

CI runs it as the cluster smoke replay; ``jpg loadgen`` is the same
command line behind the CLI.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.loadgen import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
