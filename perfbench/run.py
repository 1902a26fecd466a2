"""kanrel benchmark: every query on both engines, the way ``kanrel run`` runs it.

    python3 perfbench/run.py --workload nat_det --seed 1 --seconds 20 --trace 0

Run from the root of a kanrel source tree; the package is imported from
``src``.  Each query of the workload (see ``workloads.py``) is set up as
``kanrel run --engine converted`` sets it up: ``load_corpus``,
``normalize_program``, ``analyze`` on that one (rel, dir) -- one mode table
per query, never one per corpus -- and ``DirectedEngine``.  Then the
answer iterator of each engine is drained to the query's limit or to
exhaustion: ``interp.answer_iter`` for ref, ``DirectedEngine.answer_iter``
for converted.  Everything runs in this one single-threaded process, with
the garbage collector on and a ``gc.collect()`` before each timed call.

A run has three parts:

1. set-up, repeated ``SETUP_REPS`` times per query; ``setup_s`` sums the
   per-query medians;
2. the check pass, untimed: every answer of every query on both engines is
   decoded and judged by an oracle that is independent of both engines;
3. timed rounds, each draining every query once on each engine, the engine
   order alternating; ``ref.query_s`` / ``converted.query_s`` sum the
   per-query medians over rounds.

The check pass and the timed rounds share the ``--seconds`` window: rounds
stop before one would overrun it, after at least ``MIN_ROUNDS``.  Every
reported time is scaled for host-speed drift (see ``REF_LOOP_S`` in
``harness.py``); raw seconds are printed in the per-query table and kept in
``perfbench/out/``.  ``peak_rss_mb`` is this fresh process's high-water RSS.
The converted/ref ratio, per query and per workload, is printed and stored
for information only; it is not a metric.

On ``nat_det`` the depth probe (``depth_probe.py``) runs one deep query
through ``cli.main`` in a child process.  It is reported in the printed
``failed_frac`` and by the ``cli.depth_probe_*`` per-layer metrics, but not
in the result's ``failed``: the probe exists to expose a known defect (deep
terms end in a ``RecursionError``), while the benchmark's ops must not fail.

With ``--trace 1`` the run is a separate traced run: untraced rounds
alternate with traced ones, in which spans are recorded around every call
into the program's modules, with stream counts taken at the same
boundaries.  It prints the per-layer metrics, among them each layer's self
time and the tracing overhead (traced minus untraced end-to-end time), and
writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kanrel" / "__init__.py").is_file():
        print(f"error: no kanrel sources under {ROOT / 'src'}; run from a kanrel source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(json.dumps(harness.run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
