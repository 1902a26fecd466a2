"""Depth probe: one deep deterministic query through ``kanrel run``.

Runs ``cli.main(["run", "nat", "--rel", "addo", "--dir", "iio", "--engine",
"converted", "--in", S^k(O), "--in", S^k(O)])`` for k = DEPTH, with its output
captured, and prints one JSON object: the exit code, the seconds
``cli.main`` took, and whether the output is exactly the oracle's answer
(S^k(O), S^k(O), S^2k(O)).  It runs in a process of its own, so that a crash
or a deep recursion cannot take the benchmark, or its peak RSS, with it.

    python3 perfbench/depth_probe.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPTH = 10_000


def _nat_text(k: int) -> str:
    return "S(" * k + "O" + ")" * k


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kanrel import cli

    argv = ["run", "nat", "--rel", "addo", "--dir", "iio", "--engine", "converted",
            "--in", _nat_text(DEPTH), "--in", _nat_text(DEPTH)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    expected = f"({_nat_text(DEPTH)}, {_nat_text(DEPTH)}, {_nat_text(2 * DEPTH)})"
    last_err = err.getvalue().strip().splitlines()[-1:] or [""]
    print(json.dumps({
        "depth": DEPTH,
        "exit": code,
        "seconds": seconds,
        "answer_ok": out.getvalue().strip() == expected,
        "stderr_tail": last_err[0][:200],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
