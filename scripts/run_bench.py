#!/usr/bin/env python3
"""Time the bundled corpus suites under both engines.

Prints the human-readable table; optionally writes the raw rows as JSON
(one record per row and engine).
A filtered, low-rep run is handy while iterating on engine internals:

    python scripts/run_bench.py --suite add_det --reps 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from kanrel import bench


def main() -> int:
    suites = sorted({row.suite for row in bench.default_rows()})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", action="append", choices=suites, default=None,
        help="run only this suite (repeatable; default: all)",
    )
    parser.add_argument("--reps", type=int, default=bench.REPS)
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write one JSON record per row and engine",
    )
    args = parser.parse_args()

    rows = bench.default_rows()
    if args.suite:
        rows = [row for row in rows if row.suite in args.suite]
    report = bench.run_rows(rows, reps=args.reps)
    print(report.table())
    if args.json:
        Path(args.json).write_text(json.dumps(report.records(), indent=1) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
