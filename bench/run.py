"""Benchmark of dptree's seeded train-and-evaluate cycle.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it prints the end-to-end metrics (set-up time, cycle time,
held-out accuracy, failure rate, peak memory). With `--trace 1` it instead
prints per-layer calls, work counts and self times from a traced run, and the
tracing overhead. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_dptree():
    """Import dptree from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import dptree
    except ImportError as exc:
        sys.exit(f"bench: cannot import dptree from {SRC}: {exc}")
    if Path(dptree.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: dptree was imported from {dptree.__file__}, not from {SRC}")


def main(argv=None) -> None:
    _import_dptree()
    import numpy

    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"environment: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}")
    outcome = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT / ".bench_build",
    )
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    lines, result = harness.report(outcome, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
