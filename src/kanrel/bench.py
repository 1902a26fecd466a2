"""Benchmark harness comparing the two engines on the bundled corpus.

Each row runs one query under both engines.  A warmup pass consumes the
full answer stream and doubles as the integrity check: the answer multisets
must hash equal across engines before any timing counts.  Timed repetitions
then consume the stream without retaining answers, with the garbage
collector paused so allocation-heavy rows are not charged for collection
pauses triggered by unrelated rows.

Engine construction (parsing, normalization, mode analysis, plan
compilation) happens once per corpus and is excluded from timing.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .convert import DirectedEngine
from .interp import answer_iter, query_args
from .modes import analyze
from .normal import normalize_program
from .parser import load_corpus
from .pretty import format_term
from .schema import Node, Term

REPS = 10


class HashMismatch(Exception):
    """The two engines disagreed on a row's answers; timing it is pointless."""


@dataclass(frozen=True)
class RowSpec:
    """One benchmark query: a direction, its ground inputs, and a limit."""

    suite: str
    corpus: str
    rel: str
    direction: str
    ins: tuple[Term, ...]
    limit: int | None
    param: str
    tag: str = ""

    @property
    def query(self) -> str:
        base = f"{self.rel}@{self.direction}"
        return f"{base} {self.tag}" if self.tag else base


@dataclass(frozen=True)
class RowResult:
    suite: str
    query: str
    param: str
    ref_ns: int
    converted_ns: int
    reps: int
    answers: int
    answers_hash: str


@dataclass
class BenchReport:
    rows: list[RowResult]

    def records(self) -> list[dict]:
        """One record per row and engine, for machine-readable output."""
        python = platform.python_version()
        return [
            {
                "suite": r.suite,
                "query": r.query,
                "engine": engine,
                "param": r.param,
                "median_ns": ns,
                "reps": r.reps,
                "answers": r.answers,
                "hash": r.answers_hash,
                "python": python,
            }
            for r in self.rows
            for engine, ns in (("ref", r.ref_ns), ("converted", r.converted_ns))
        ]

    def table(self) -> str:
        header = (
            f"{'suite':<12} {'query':<22} {'param':<7} {'answers':>7} "
            f"{'ref_ms':>10} {'conv_ms':>10} {'ratio':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            ratio = r.converted_ns / r.ref_ns if r.ref_ns else float("inf")
            lines.append(
                f"{r.suite:<12} {r.query:<22} {r.param:<7} {r.answers:>7} "
                f"{r.ref_ns / 1e6:>10.3f} {r.converted_ns / 1e6:>10.3f} "
                f"{ratio:>6.2f}"
            )
        return "\n".join(lines)


def _nat(n: int) -> Node:
    out = Node("O")
    for _ in range(n):
        out = Node("S", (out,))
    return out


def _natlist(xs: list[int]) -> Node:
    out = Node("Nil")
    for x in reversed(xs):
        out = Node("Cons", (_nat(x), out))
    return out


def _comb(leaves: int) -> Node:
    """The left comb: a tree with ``leaves`` leaves, every right child a leaf."""
    out = Node("Leaf")
    for _ in range(leaves - 1):
        out = Node("Node", (out, Node("Leaf")))
    return out


def default_rows() -> list[RowSpec]:
    """The full suite: addition both ways, sorting backwards, typechecking,
    and rebalancing trees (building balanced trees of n leaves, rebalancing
    a comb, enumerating tree pairs)."""
    rows: list[RowSpec] = []
    eight = _nat(8)
    for n in (16, 32, 64, 128, 256, 512, 1024):
        rows.append(
            RowSpec("add_nondet", "nat", "addo", "ioo", (eight,), n, f"n={n}", "x=8")
        )
        rows.append(
            RowSpec("add_nondet", "nat", "addo", "oio", (eight,), n, f"n={n}", "y=8")
        )
    for a in (256, 512, 1024):
        rows.append(
            RowSpec(
                "add_det", "nat", "addo", "iii",
                (_nat(a), _nat(a), _nat(2 * a)), 1, f"a={a}",
            )
        )
        rows.append(
            RowSpec("add_det", "nat", "addo", "iio", (_nat(a), _nat(a)), 1, f"a={a}")
        )
        rows.append(
            RowSpec(
                "add_det", "nat", "addo", "ioi", (_nat(a), _nat(2 * a)), 1, f"a={a}"
            )
        )
    for k in (3, 4, 5, 6):
        rows.append(
            RowSpec(
                "sort", "sort", "sorto", "oi",
                (_natlist(list(range(1, k + 1))),), None, f"len={k}",
            )
        )
    contexts = [
        ("ctx=0", Node("CNil")),
        ("ctx=1", Node("CCons", (Node("TInt"), Node("CNil")))),
    ]
    for tag, ctx in contexts:
        for n in (10, 25, 50):
            rows.append(
                RowSpec(
                    "typecheck", "typecheck", "typov", "ioi",
                    (ctx, Node("TInt")), n, f"n={n}", tag,
                )
            )
    for n in (4, 8, 12):
        rows.append(
            RowSpec("balance", "balance", "balanced", "oi", (_nat(n),), None, f"n={n}")
        )
    rows.append(
        RowSpec(
            "balance", "balance", "balanceo", "io",
            (_comb(8),), None, "leaves=8", "comb",
        )
    )
    rows.append(RowSpec("balance", "balance", "balanceo", "oo", (), 50, "n=50"))
    return rows


def rows_for(corpus: str) -> list[RowSpec]:
    rows = [r for r in default_rows() if r.corpus == corpus]
    if not rows:
        have = sorted({r.corpus for r in default_rows()})
        raise KeyError(f"no bench suite for corpus {corpus!r}; have: {', '.join(have)}")
    return rows


def _answers_hash(answers: Iterator[tuple[Term, ...]]) -> tuple[str, int]:
    """Order-insensitive digest: hash over the sorted rendered answers."""
    rendered = sorted(
        "(" + ", ".join(format_term(t) for t in answer) + ")" for answer in answers
    )
    digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
    return digest, len(rendered)


def _timed_count(make_iter: Callable[[], Iterator], limit: int | None) -> tuple[int, int]:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        it = make_iter()
        if limit is not None:
            it = itertools.islice(it, limit)
        count = sum(1 for _ in it)
        t1 = time.perf_counter_ns()
    finally:
        gc.enable()
    return t1 - t0, count


class _Runner:
    """Caches one parsed program and one directed engine per corpus."""

    def __init__(self, rows: list[RowSpec]) -> None:
        self.programs = {}
        self.engines = {}
        by_corpus: dict[str, set[tuple[str, str]]] = {}
        for r in rows:
            by_corpus.setdefault(r.corpus, set()).add((r.rel, r.direction))
        for corpus, requests in by_corpus.items():
            program = load_corpus(corpus)
            self.programs[corpus] = program
            table = analyze(normalize_program(program), sorted(requests))
            self.engines[corpus] = DirectedEngine(table)

    def iter_makers(self, spec: RowSpec):
        program = self.programs[spec.corpus]
        args = query_args(program.relation(spec.rel), spec.direction, spec.ins)
        engine = self.engines[spec.corpus]

        def make_ref() -> Iterator:
            return answer_iter(program, spec.rel, args)

        def make_converted() -> Iterator:
            return engine.answer_iter(spec.rel, spec.direction, spec.ins)

        return make_ref, make_converted


def run_rows(rows: list[RowSpec], reps: int = REPS) -> BenchReport:
    runner = _Runner(rows)
    results = []
    for spec in rows:
        make_ref, make_converted = runner.iter_makers(spec)
        makers = (("ref", make_ref), ("converted", make_converted))
        hashes: dict[str, tuple[str, int]] = {}
        for engine, make in makers:
            it = make()
            if spec.limit is not None:
                it = itertools.islice(it, spec.limit)
            hashes[engine] = _answers_hash(it)
        if hashes["ref"] != hashes["converted"]:
            raise HashMismatch(
                f"{spec.query} {spec.param}: engines disagree"
                f" (ref {hashes['ref'][1]} answers {hashes['ref'][0][:12]},"
                f" converted {hashes['converted'][1]} answers"
                f" {hashes['converted'][0][:12]})"
            )
        out: dict[str, int] = {}
        for engine, make in makers:
            samples = []
            for _ in range(reps):
                ns, count = _timed_count(make, spec.limit)
                if count != hashes[engine][1]:
                    raise HashMismatch(
                        f"{spec.query}: answer count changed between runs"
                        f" ({count} != {hashes[engine][1]})"
                    )
                samples.append(ns)
            out[engine] = int(statistics.median(samples))
        results.append(
            RowResult(
                suite=spec.suite,
                query=spec.query,
                param=spec.param,
                ref_ns=out["ref"],
                converted_ns=out["converted"],
                reps=reps,
                answers=hashes["ref"][1],
                answers_hash=hashes["ref"][0],
            )
        )
    return BenchReport(results)
