"""End-to-end acceptance checks, one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see a one-line summary
per criterion with the numbers that matter.  These tests compare whole
engines and whole corpora rather than units, so a pass here means the
pipeline hangs together end to end:

  1. the converted engine agrees with the search engine on first-20 answer
     multisets across directions and small ground inputs
  2. mode analysis orders the recursive add clause as match, call, assign
     in every benchmarked direction
  3. determinism classes for add, with the at-most-one-answer behavioural
     check for every semidet direction
  4. the converted engine is never slower than the search engine on the
     benchmark suite, and at least 2x faster on the deterministic add rows
  5. sorting backwards on a sorted 6-list exhausts at exactly 6! answers
  6. clause normalization is checkable, op-bounded, and answer-preserving
  7. value/term laws: ground terms round-trip, hole filling is exact,
     resolution leaves ground terms alone, generation is complete and
     duplicate-free against a brute-force enumerator
  8. a diverging disjunct cannot starve answers, and every brute-force
     solution appears within the documented prefix bound
"""

from __future__ import annotations

import random
import time
from itertools import count, product

from conftest import (
    brute_values,
    corpus_program,
    directed_engine,
    loop_program,
    natlist,
)

from kanrel import bench
from kanrel.interp import query_args, query_stream, run
from kanrel.modes import Assign, Det, DirCall, GenerateVar, Match, direction_str
from kanrel.normal import (
    check_normal,
    count_base_ops,
    count_source_goals,
    embed,
    normalize_program,
)
from kanrel.pretty import format_term
from kanrel.schema import (
    Hole,
    Node,
    VarId,
    deref,
    holes,
    is_ground,
    rebuild,
    term_size,
)

ADD_DIRECTIONS = ("iii", "iio", "ioi", "oii", "ioo", "oio", "ooi", "ooo")

REQUESTS = {
    "nat": tuple(("addo", d) for d in ADD_DIRECTIONS),
    "sort": (("sorto", "oi"), ("sorto", "io")),
    "balance": (("balanceo", "oo"), ("balanceo", "io")),
    "typecheck": (("typo", "oi"),),
}

CORE_DIRECTIONS = [("nat", "addo", d) for d in ADD_DIRECTIONS] + [
    ("sort", "sorto", "oi"),
    ("sort", "sorto", "io"),
    ("balance", "balanceo", "oo"),
    ("balance", "balanceo", "io"),
    ("typecheck", "typo", "oi"),
]

# sorto's goal order favours a ground ys (so the backward direction can
# exhaust); run forward the search engine yields the one answer and then
# searches forever.  For these cases the search engine is sampled for
# exactly the answers the exhausted converted run found.
REF_DIVERGES_AFTER_ANSWERS = {("sort", "sorto", "io")}


def _render(answer) -> str:
    return "(" + ", ".join(format_term(t) for t in answer) + ")"


def _values_up_to(schema, type_name: str, max_nodes: int) -> list[Node]:
    return [
        v
        for size in range(1, max_nodes + 1)
        for v in schema.values_of_size(type_name, size)
    ]


def test_criterion_1_engines_agree_on_small_inputs():
    started = time.perf_counter()
    compared = 0
    for corpus, rel, direction in CORE_DIRECTIONS:
        program = corpus_program(corpus)
        engine = directed_engine(corpus, REQUESTS[corpus])
        relation = program.relation(rel)
        pools = [
            _values_up_to(program.schema, param.type, 5)
            for param, mode in zip(relation.params, direction)
            if mode == "i"
        ]
        capped = (corpus, rel, direction) in REF_DIVERGES_AFTER_ANSWERS
        for combo in product(*pools):
            converted = engine.run(rel, direction, combo, 20)
            if capped:
                assert converted, (rel, direction)
            want = len(converted) if capped else 20
            ref = run(program, rel, query_args(relation, direction, combo), want)
            assert sorted(map(_render, converted)) == sorted(map(_render, ref)), (
                rel,
                direction,
                tuple(map(str, combo)),
            )
            compared += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: {compared} queries agree on first-20 answer "
        f"multisets in {elapsed:.1f}s"
    )


def test_criterion_2_mode_analysis_orders_dataflow():
    table = directed_engine("nat", REQUESTS["nat"]).table
    # (direction, matched param, assigned param) for the recursive clause.
    expected = (("iio", 0, 2), ("ooi", 2, 0), ("ioo", 0, 2))
    for direction, matched, assigned in expected:
        proc = table.proc("addo", direction)
        ops = proc.clauses[1].ops
        assert [type(op) for op in ops] == [Match, DirCall, Assign], direction
        assert ops[0].var == proc.params[matched], direction
        assert ops[1].rel == "addo"
        assert direction_str(ops[1].direction) == direction
        assert ops[2].var == proc.params[assigned], direction
    base = table.proc("addo", "ioo").clauses[0].ops
    assert any(isinstance(op, GenerateVar) for op in base)
    print(
        "criterion 2 PASS: iio/ooi/ioo recursive clauses each run "
        "match, call, assign on the direction's own dataflow order"
    )


def test_criterion_3_add_determinism_classes():
    engine = directed_engine("nat", REQUESTS["nat"])
    table = engine.table
    assert table.det("addo", "iio") <= Det.SEMIDET
    assert table.det("addo", "ioi") <= Det.SEMIDET
    assert table.det("addo", "ioo") is Det.NONDET
    assert table.det("addo", "oio") is Det.NONDET
    nats = _values_up_to(corpus_program("nat").schema, "Nat", 5)
    semidet = [d for d in ADD_DIRECTIONS if table.det("addo", d) <= Det.SEMIDET]
    checked = 0
    for direction in semidet:
        for combo in product(nats, repeat=direction.count("i")):
            answers = engine.run("addo", direction, combo, 10)
            assert len(answers) <= 1, (direction, tuple(map(str, combo)))
            checked += 1
    classes = {d: str(table.det("addo", d)) for d in ADD_DIRECTIONS}
    print(
        f"criterion 3 PASS: classes {classes}; "
        f"{checked} semidet inputs each gave at most one answer"
    )


def test_criterion_4_converted_never_slower_on_bench():
    started = time.perf_counter()
    report = bench.run_rows(bench.default_rows())
    elapsed = time.perf_counter() - started
    assert report.rows
    for row in report.rows:
        assert row.reps >= 10
        assert row.converted_ns <= row.ref_ns, (
            row.suite,
            row.query,
            row.param,
            row.ref_ns,
            row.converted_ns,
        )
    worst = max(r.converted_ns / r.ref_ns for r in report.rows)
    det_rows = [r for r in report.rows if r.suite == "add_det"]
    assert det_rows
    worst_det = max(r.converted_ns / r.ref_ns for r in det_rows)
    assert worst_det <= 0.5
    assert elapsed < 300.0
    print(
        f"criterion 4 PASS: {len(report.rows)} rows in {elapsed:.1f}s, "
        f"worst converted/ref ratio {worst:.2f}, "
        f"worst deterministic-add ratio {worst_det:.2f}"
    )


def test_criterion_5_sort_backwards_counts_permutations():
    program = corpus_program("sort")
    engine = directed_engine("sort", REQUESTS["sort"])
    target = natlist([0, 1, 2, 3, 4, 5])
    ref = run(program, "sorto", (Hole(VarId(4000, "NatList")), target), None)
    converted = engine.run("sorto", "oi", (target,), None)
    for label, answers in (("search", ref), ("converted", converted)):
        rendered = [_render(a) for a in answers]
        assert len(rendered) == 720, (label, len(rendered))
        assert len(set(rendered)) == 720, label
    assert sorted(map(_render, ref)) == sorted(map(_render, converted))
    print(
        "criterion 5 PASS: both engines exhaust sorto backwards on a "
        "sorted 6-list at exactly 720 distinct answers"
    )


def test_criterion_6_normalization_checked_bounded_preserving():
    worst_blowup = 0.0
    preserved = 0
    for name in ("balance", "nat", "sort", "typecheck"):
        program = corpus_program(name)
        nprog = normalize_program(program)
        assert check_normal(nprog) == [], name
        blowup = count_base_ops(nprog) / count_source_goals(program)
        worst_blowup = max(worst_blowup, blowup)
        assert count_base_ops(nprog) <= 4 * count_source_goals(program), name
        roundtrip = embed(nprog)
        for relation in program.relations:
            args = tuple(
                Hole(VarId(6000 + i, param.type))
                for i, param in enumerate(relation.params)
            )
            direct = sorted(_render(t) for t in run(program, relation.name, args, 20))
            via_normal = sorted(
                _render(t) for t in run(roundtrip, relation.name, args, 20)
            )
            assert direct == via_normal, (name, relation.name)
            preserved += 1
    print(
        f"criterion 6 PASS: 4 corpora normalize clean, worst op blowup "
        f"{worst_blowup:.2f}x (bound 4x), {preserved} all-out queries preserved"
    )


CORPUS_TYPES = [
    ("nat", "Nat"),
    ("balance", "Tree"),
    ("sort", "NatList"),
    ("typecheck", "Ty"),
    ("typecheck", "Boolean"),
    ("typecheck", "Expr"),
    ("typecheck", "Ctx"),
]

# Same shapes as the bundled corpus types, spelled out independently so the
# generator is checked against a second enumerator rather than itself.
GEN_DECLS = {
    "Nat": [("O", []), ("S", ["Nat"])],
    "Tree": [("Leaf", []), ("Node", ["Tree", "Tree"])],
    "NatList": [("Nil", []), ("Cons", ["Nat", "NatList"])],
    "Ty": [("TInt", []), ("TBool", [])],
    "Boolean": [("True", []), ("False", [])],
    "Expr": [
        ("Lit", ["Nat"]),
        ("BLit", ["Boolean"]),
        ("Plus", ["Expr", "Expr"]),
        ("If", ["Expr", "Expr", "Expr"]),
        ("Var", ["Nat"]),
    ],
    "Ctx": [("CNil", []), ("CCons", ["Ty", "Ctx"])],
}


def _random_values(schema, type_name: str, rng, cases: int, max_nodes: int = 9):
    by_size = [
        values
        for size in range(1, max_nodes + 1)
        if (values := schema.values_of_size(type_name, size))
    ]
    return [rng.choice(rng.choice(by_size)) for _ in range(cases)]


def _punch_holes(term, type_name, schema, rng, supply):
    """Replace a random set of subtrees with typed holes.

    Returns the holed term and the filling that restores the original.
    """
    filling: dict[VarId, Node] = {}

    def go(t: Node, owner: str):
        if rng.random() < 0.3:
            var = VarId(next(supply), owner)
            filling[var] = t
            return Hole(var)
        if not t.args:
            return t
        decl, _ = schema.ctor(t.ctor)
        return Node(t.ctor, tuple(map(go, t.args, decl.arg_types)))

    return go(term, type_name), filling


def test_criterion_7_value_and_term_laws():
    rng = random.Random(20260825)
    supply = count(7_000_000)
    cases = 0
    for corpus, type_name in CORPUS_TYPES:
        schema = corpus_program(corpus).schema
        for value in _random_values(schema, type_name, rng, 1000):
            # A ground value and its term are the same thing: grounding is
            # recognized, decomposing and rebuilding gives it back.
            assert is_ground(value)
            assert holes(value) == ()
            assert Node(value.ctor, value.args) == value
            assert rebuild(value, {}) == value

            holed, filling = _punch_holes(value, type_name, schema, rng, supply)
            assert is_ground(holed) == (not filling)
            assert set(holes(holed)) == set(filling)
            assert rebuild(holed, filling) == value

            # Resolution walks chains to the punched subtrees and never
            # touches a term that is already ground.
            chained: dict[VarId, object] = {}
            for var, subtree in filling.items():
                link = VarId(next(supply), var.type)
                chained[var] = Hole(link)
                chained[link] = subtree
            assert deref(holed, chained) == value
            assert deref(value, chained) == value
            cases += 1

    for corpus, type_name in CORPUS_TYPES:
        schema = corpus_program(corpus).schema
        produced: list[str] = []
        for v in schema.generate(type_name):
            if term_size(v) > 7:
                break
            produced.append(str(v))
        assert len(produced) == len(set(produced)), type_name
        assert set(produced) == brute_values(GEN_DECLS, type_name, 7), type_name
    print(
        f"criterion 7 PASS: {cases} random round-trip cases over "
        f"{len(CORPUS_TYPES)} types; generation complete and duplicate-free "
        f"to node count 7"
    )


def test_criterion_8_fairness_and_completeness():
    # Fairness: one diverging disjunct beside one immediate answer; the
    # answer must surface within 1000 forced suspensions.
    stream = query_stream(loop_program(), "valo", (Hole(VarId(0, "Nat")),))
    steps = 0
    while callable(stream):
        stream = stream()
        steps += 1
        assert steps <= 1000, "diverging disjunct starved the live branch"
    assert stream is not None
    first, _rest = stream
    assert first == (Node("O"),)

    # Completeness: every answer tuple of total node count <= 6 that the
    # relation accepts must appear within the first 10 * |solutions| + 100
    # answers of the all-holes query.
    total_solutions = 0
    for name in ("balance", "nat", "sort", "typecheck"):
        program = corpus_program(name)
        for relation in program.relations:
            pools = [
                _values_up_to(program.schema, param.type, 6)
                for param in relation.params
            ]
            solutions = [
                combo
                for combo in product(*pools)
                if sum(term_size(part) for part in combo) <= 6
                and run(program, relation.name, combo, 1)
            ]
            assert solutions, (name, relation.name)
            bound = 10 * len(solutions) + 100
            args = tuple(
                Hole(VarId(8000 + i, param.type))
                for i, param in enumerate(relation.params)
            )
            prefix = {_render(t) for t in run(program, relation.name, args, bound)}
            for combo in solutions:
                assert _render(combo) in prefix, (
                    name,
                    relation.name,
                    _render(combo),
                    bound,
                )
            total_solutions += len(solutions)
    print(
        f"criterion 8 PASS: live answer after {steps} steps; "
        f"{total_solutions} brute-force solutions all inside their prefix bounds"
    )
