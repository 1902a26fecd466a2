"""Directed execution against the search engine: same answers, same order."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kanrel.streams as streams_module
from kanrel.convert import (
    ConvertError,
    DirectedEngine,
    emit_text,
    residual_plan,
    transitive_procs,
)
from kanrel.goals import ArityMismatch, TypeMismatch
from kanrel.interp import query_args, run
from kanrel.modes import Det, ModeError, analyze
from kanrel.normal import normalize_program
from kanrel.parser import parse_program
from kanrel.schema import Hole, InvalidValue, Node, UnknownCtor, VarId
from kanrel.streams import stream_iter

from conftest import corpus_program, nat, natlist, unnat, unnatlist

ALL_ADDO_DIRS = ["iii", "iio", "ioi", "ioo", "oii", "oio", "ooi", "ooo"]


def qhole(i: int, type_name: str = "Nat") -> Hole:
    return Hole(VarId(900 + i, type_name, f"q{i}"))


def engine_for(name: str, requests) -> DirectedEngine:
    nprog = normalize_program(corpus_program(name))
    return DirectedEngine(analyze(nprog, requests))


@pytest.fixture(scope="module")
def addo_engine() -> DirectedEngine:
    return engine_for("nat", [("addo", d) for d in ALL_ADDO_DIRS])


@pytest.fixture(scope="module")
def sort_engine() -> DirectedEngine:
    return engine_for(
        "sort",
        [("sorto", "oi"), ("sorto", "io"), ("inserto", "iio"), ("inserto", "ooi")],
    )


@pytest.fixture(scope="module")
def type_engine() -> DirectedEngine:
    return engine_for("typecheck", [("typo", "oi"), ("typo", "io")])


def stream_all(eng: DirectedEngine, rel: str, direction: str, ins):
    """Raw interleaving path, bypassing the single-answer shortcut."""
    proc = eng.table.proc(rel, direction)
    env = eng._entry_env(proc, ins)
    out = []
    for final in stream_iter(eng._proc_stream(proc, env)):
        out.append(tuple(final[p] for p in proc.params))
    return out


# --- answer-stream agreement with the search engine ---

ADDO_CASES = {
    "iii": [(nat(2), nat(3), nat(5)), (nat(2), nat(3), nat(4))],
    "iio": [(nat(2), nat(3), qhole(0)), (nat(0), nat(0), qhole(0))],
    "ioi": [(nat(2), qhole(0), nat(5)), (nat(2), qhole(0), nat(1))],
    "ioo": [(nat(2), qhole(0), qhole(1)), (nat(0), qhole(0), qhole(1))],
    "oii": [(qhole(0), nat(3), nat(5)), (qhole(0), nat(3), nat(2))],
    "oio": [(qhole(0), nat(3), qhole(1))],
    "ooi": [(qhole(0), qhole(1), nat(3)), (qhole(0), qhole(1), nat(0))],
    "ooo": [(qhole(0), qhole(1), qhole(2))],
}


@pytest.mark.parametrize("direction", ALL_ADDO_DIRS)
def test_addo_alignment_first_twenty(direction, addo_engine):
    program = corpus_program("nat")
    for args in ADDO_CASES[direction]:
        ref = run(program, "addo", args, 20)
        ins = tuple(a for a, m in zip(args, direction) if m == "i")
        conv = addo_engine.run("addo", direction, ins, 20)
        assert conv == ref


def test_addo_ooi_exhausts(addo_engine):
    got = addo_engine.run("addo", "ooi", (nat(3),), None)
    assert got == [
        (nat(0), nat(3), nat(3)),
        (nat(1), nat(2), nat(3)),
        (nat(2), nat(1), nat(3)),
        (nat(3), nat(0), nat(3)),
    ]


def test_semidet_directions_use_single_answer_path(addo_engine):
    for direction, ins in [
        ("iii", (nat(2), nat(3), nat(5))),
        ("iio", (nat(2), nat(3))),
        ("ioi", (nat(2), nat(5))),
    ]:
        assert addo_engine.table.det("addo", direction) is Det.SEMIDET
        raw = addo_engine.raw_stream("addo", direction, ins)
        # Not a suspension: the single-answer path already resolved it.
        assert not callable(raw)
        assert len(addo_engine.run("addo", direction, ins, 10)) <= 1


# Every corpus procedure that is at most semidet, besides addo's.
SEMIDET_PROCS = [
    ("sort", "leo", "ii"),
    ("sort", "gto", "ii"),
    ("balance", "leaves", "io"),
    ("typecheck", "lookupo", "iii"),
    ("typecheck", "lookupo", "iio"),
    ("typecheck", "typov", "iii"),
    ("typecheck", "typov", "iio"),
    ("typecheck", "typo", "ii"),
    ("typecheck", "typo", "io"),
]


def test_maybe_matches_stream_path(addo_engine):
    cases = [
        ("iii", (nat(2), nat(3), nat(5))),
        ("iii", (nat(2), nat(3), nat(4))),
        ("iio", (nat(4), nat(0))),
        ("ioi", (nat(2), nat(7))),
        ("ioi", (nat(7), nat(2))),
    ]
    for direction, ins in cases:
        via_stream = stream_all(addo_engine, "addo", direction, ins)
        assert len(via_stream) <= 1
        assert addo_engine.run("addo", direction, ins, None) == via_stream
    for corpus, rel, direction in SEMIDET_PROCS:
        eng = engine_for(corpus, [(rel, direction)])
        assert eng.table.det(rel, direction) <= Det.SEMIDET
        proc = eng.table.proc(rel, direction)
        pools = [
            [v for size in range(1, 6) for v in eng.schema.values_of_size(p.type, size)]
            for p, m in zip(proc.params, direction)
            if m == "i"
        ]
        answered = 0
        for ins in itertools.product(*pools):
            via_stream = stream_all(eng, rel, direction, ins)
            assert len(via_stream) <= 1
            answers = eng.run(rel, direction, ins, None)
            assert answers == via_stream, (rel, ins)
            answered += len(answers)
        assert answered, (rel, direction)


SINGLETON_INLINE = """
type Unit = U.
type Nat = O | S(Nat).
rel isz(u: Unit, n: Nat) = n == O.
rel r(n: Nat) = fresh u, w . (isz(u, n), isz(w, n), u == w).
"""


def test_maybe_runs_inline_singleton_generation():
    program = parse_program(SINGLETON_INLINE)
    table = analyze(normalize_program(program), [("r", "i")])
    assert table.det("isz", "oi") <= Det.SEMIDET
    eng = DirectedEngine(table)
    # The guard u == w inspects isz's generated out, so it enumerates inline.
    assert any(src[0] == "isz" for src in eng.inline)
    for n, want in [(0, [(nat(0),)]), (1, [])]:
        assert stream_all(eng, "r", "i", (nat(n),)) == want
        assert eng.run("r", "i", (nat(n),), None) == want
        assert run(program, "r", (nat(n),), None) == want


@settings(max_examples=60)
@given(st.integers(0, 20), st.integers(0, 20))
def test_addo_iio_is_addition(a, b):
    eng = test_addo_iio_is_addition.engine
    assert eng.run("addo", "iio", (nat(a), nat(b)), None) == [
        (nat(a), nat(b), nat(a + b))
    ]


test_addo_iio_is_addition.engine = engine_for("nat", [("addo", "iio")])


def test_addo_iio_answers_past_the_recursion_limit_of_is_ground():
    # The entry check runs is_ground on each input; when it recursed it
    # raised RecursionError on S^9000(O).
    eng = engine_for("nat", [("addo", "iio")])
    answers = eng.run("addo", "iio", (nat(9000), nat(3)), None)
    assert len(answers) == 1
    # unnat walks iteratively; == on a term this deep would recurse in C.
    assert [unnat(t) for t in answers[0]] == [9000, 3, 9003]


def test_addo_oio_reads_its_own_stream(addo_engine, monkeypatch):
    # addo^oio(y) calls addo^oio(y): that call reads the running call's
    # stream, so each answer follows from the one before it.
    assert ("addo", "oio") in addo_engine._shared
    program = corpus_program("nat")
    ref = run(program, "addo", (qhole(0), nat(3), qhole(1)), 300)
    assert addo_engine.run("addo", "oio", (nat(3),), 300) == ref

    def smap_calls(n: int) -> int:
        calls = 0
        real = streams_module.smap

        def counting(s, f):
            nonlocal calls
            calls += 1
            return real(s, f)

        monkeypatch.setattr(streams_module, "smap", counting)
        addo_engine.run("addo", "oio", (nat(3),), n)
        monkeypatch.setattr(streams_module, "smap", real)
        return calls

    # A copy of the callee per level made this about 4x.
    small, large = smap_calls(200), smap_calls(400)
    assert large <= 2.2 * small, (small, large)


STEPS_SRC = """
type Nat = O | S(Nat).

rel addo(x: Nat, y: Nat, z: Nat) =
    x == O, y == z
  | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2)).

rel steps(y: Nat, x: Nat) =
    x == y
  | fresh x2 . (x == S(S(x2)), steps(y, x2))
  | fresh x3 . (steps(y, x3), addo(x3, y, x)).
"""


def test_shared_self_calls_keep_the_reference_order():
    # Two calls of steps^io on its own input, one of them first in its
    # clause and one before another call: the order must not change.
    program = parse_program(STEPS_SRC)
    eng = DirectedEngine(analyze(normalize_program(program), [("steps", "io")]))
    assert ("steps", "io") in eng._shared
    ref = run(program, "steps", (nat(2), qhole(0)), 300)
    assert eng.run("steps", "io", (nat(2),), 300) == ref


@settings(max_examples=40)
@given(st.integers(0, 8), st.integers(0, 16))
def test_addo_ioo_matches_reference(x, n):
    eng = test_addo_ioo_matches_reference.engine
    program = corpus_program("nat")
    ref = run(program, "addo", (nat(x), qhole(0), qhole(1)), n)
    assert eng.run("addo", "ioo", (nat(x),), n) == ref


test_addo_ioo_matches_reference.engine = engine_for("nat", [("addo", "ioo")])


# --- sort ---


def test_sorto_oi_exhaustive_permutations(sort_engine):
    program = corpus_program("sort")
    target = natlist([0, 1, 2])
    ref = run(program, "sorto", (qhole(0, "NatList"), target), None)
    conv = sort_engine.run("sorto", "oi", (target,), None)
    assert len(conv) == 6
    assert conv == ref
    assert {tuple(unnatlist(t[0])) for t in conv} == {
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    }


def test_sorto_io_sorts_and_exhausts(sort_engine):
    xs = natlist([2, 0, 3, 1])
    conv = sort_engine.run("sorto", "io", (xs,), None)
    assert conv == [(xs, natlist([0, 1, 2, 3]))]


@settings(max_examples=40)
@given(st.lists(st.integers(0, 5), max_size=5))
def test_sorto_io_is_sorting(values):
    eng = test_sorto_io_is_sorting.engine
    got = eng.run("sorto", "io", (natlist(values),), None)
    assert got == [(natlist(values), natlist(sorted(values)))]


test_sorto_io_is_sorting.engine = engine_for("sort", [("sorto", "io")])


def test_inserto_alignment(sort_engine):
    program = corpus_program("sort")
    ref = run(program, "inserto", (nat(1), natlist([0, 2]), qhole(0, "NatList")), None)
    conv = sort_engine.run("inserto", "iio", (nat(1), natlist([0, 2])), None)
    assert conv == ref == [(nat(1), natlist([0, 2]), natlist([0, 1, 2]))]

    ref = run(
        program,
        "inserto",
        (qhole(0), qhole(1, "NatList"), natlist([0, 1, 2])),
        None,
    )
    conv = sort_engine.run("inserto", "ooi", (natlist([0, 1, 2]),), None)
    assert conv == ref
    assert {(unnat(x), tuple(unnatlist(rest))) for x, rest, _ in conv} == {
        (0, (1, 2)), (1, (0, 2)), (2, (0, 1))
    }


# --- typecheck ---


def test_typo_oi_alignment_first_25(type_engine):
    program = corpus_program("typecheck")
    tint = Node("TInt", ())
    ref = run(program, "typo", (qhole(0, "Expr"), tint), 25)
    conv = type_engine.run("typo", "oi", (tint,), 25)
    assert conv == ref
    assert all(t[1] == tint for t in conv)


def test_typo_io_checks(type_engine):
    cond = Node("BLit", (Node("True", ()),))
    expr = Node("If", (cond, Node("Lit", (nat(0),)), Node("Lit", (nat(1),))))
    got = type_engine.run("typo", "io", (expr,), None)
    assert got == [(expr, Node("TInt", ()))]

    ill = Node("Plus", (Node("Lit", (nat(0),)), cond))
    assert type_engine.run("typo", "io", (ill,), None) == []


# --- balance ---


def test_balanceo_oo_alignment():
    eng = engine_for("balance", [("balanceo", "oo")])
    program = corpus_program("balance")
    ref = run(program, "balanceo", (qhole(0, "Tree"), qhole(1, "Tree")), 5)
    conv = eng.run("balanceo", "oo", (), 5)
    assert conv == ref
    leaf = Node("Leaf", ())
    assert conv[0] == (leaf, leaf)


def test_balanced_oi_tests_the_split_before_building_subtrees(monkeypatch):
    # near^ii runs right after addo^ooi proposes a split, so only near
    # splits are expanded; with near after both recursive calls this query
    # made 1 174 720 bind calls.
    eng = engine_for("balance", [("balanced", "oi")])
    calls = 0
    real = streams_module.bind

    def counting(s, f):
        nonlocal calls
        calls += 1
        return real(s, f)

    monkeypatch.setattr(streams_module, "bind", counting)
    got = eng.run("balanced", "oi", (nat(10),), None)
    monkeypatch.setattr(streams_module, "bind", real)
    assert len(got) == 16
    assert calls < 10_000, calls


def test_leaves_io():
    eng = engine_for("balance", [("leaves", "io")])
    tree = Node("Node", (Node("Leaf", ()), Node("Node", (Node("Leaf", ()), Node("Leaf", ())))))
    assert eng.run("leaves", "io", (tree,), None) == [(tree, nat(3))]


# --- residual generation ---


def test_corpus_plans_are_fully_residual(addo_engine, sort_engine, type_engine):
    assert addo_engine.inline == set()
    assert sort_engine.inline == set()
    assert type_engine.inline == set()


RAW_ANSWERS = [
    (nat(3), nat(4), nat(7)),
    (qhole(0),),
    (nat(2), qhole(0), qhole(1)),
    (Node("S", (qhole(0),)), qhole(0), qhole(1)),
    (Node("S", (Node("S", (qhole(0),)),)), nat(1), qhole(1)),
]


@pytest.mark.parametrize("answer", RAW_ANSWERS, ids=repr)
def test_fast_grounding_matches_reference_order(addo_engine, answer):
    from kanrel.interp import ground_answers
    from kanrel.streams import take

    slow = take(ground_answers(answer, addo_engine.schema), 30)
    fast = take(addo_engine._ground_stream(answer), 30)
    assert fast == slow


def test_residual_answer_is_shared(addo_engine):
    raws = []
    s = addo_engine.raw_stream("addo", "ooo", ())
    for ans in stream_iter(s):
        raws.append(ans)
        if len(raws) == 2:
            break
    first = raws[0]
    # 0 + y == y: the second and third positions carry the same hole.
    assert first[0] == nat(0)
    assert isinstance(first[1], Hole)
    assert first[1] == first[2]


CONSUMER = """
type Nat = O | S(Nat).
rel addo(x: Nat, y: Nat, z: Nat) =
    x == O, y == z
  | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2)).
rel geno(x: Nat) = fresh y . x == y.
rel uso(k: Nat, x: Nat) = fresh m . (geno(x), x == S(m), addo(m, m, k)).
"""


def test_consumed_generation_runs_inline():
    program = parse_program(CONSUMER)
    nprog = normalize_program(program)
    table = analyze(nprog, [("uso", "io")])
    plan = residual_plan(table)
    assert any(src[0] == "geno" for src in plan)

    eng = DirectedEngine(table)
    got = eng.run("uso", "io", (nat(4),), 1)
    assert got == [(nat(4), nat(3))]
    ref = run(program, "uso", (nat(4), qhole(0)), 1)
    assert got == ref


def test_plain_generation_stays_residual():
    program = parse_program(CONSUMER)
    nprog = normalize_program(program)
    table = analyze(nprog, [("geno", "o")])
    assert residual_plan(table) == set()
    eng = DirectedEngine(table)
    assert eng.run("geno", "o", (), 4) == [(nat(k),) for k in range(4)]


# --- input validation ---


def test_entry_validation(addo_engine):
    with pytest.raises(InvalidValue):
        addo_engine.run("addo", "iio", (qhole(0), nat(1)), 1)
    with pytest.raises(ConvertError):
        addo_engine.run("addo", "iio", (nat(1),), 1)
    with pytest.raises(UnknownCtor):
        addo_engine.run("addo", "iio", (Node("Nil", ()), nat(1)), 1)
    with pytest.raises(ModeError):
        addo_engine.run("addo", "oo", (nat(1),), 1)


def ref_sorto_oi(ins):
    program = corpus_program("sort")
    return run(program, "sorto", query_args(program.relation("sorto"), "oi", ins), 1)


def converted_sorto_oi(ins):
    return engine_for("sort", [("sorto", "oi")]).run("sorto", "oi", ins, 1)


@pytest.mark.parametrize(
    "engine", [ref_sorto_oi, converted_sorto_oi], ids=["ref", "converted"]
)
@pytest.mark.parametrize(
    "value, error",
    [
        (nat(1), TypeMismatch),
        (Node("Cons", (Node("Nil"), Node("Nil"))), TypeMismatch),
        (Node("S", (Node("O"), Node("O"))), ArityMismatch),
    ],
    ids=["nat-for-natlist", "natlist-in-nat-slot", "ctor-arity"],
)
def test_engines_reject_ill_typed_inputs_alike(engine, value, error):
    with pytest.raises(error):
        engine((value,))


# --- emission ---


def test_emit_addo_iio(addo_engine):
    text = emit_text(addo_engine.table, "addo", "iio")
    assert text == (
        "proc addo_iio(x, y) -> (z):  # semidet\n"
        "  firstOf:\n"
        "    allOf:\n"
        "      guard x == O\n"
        "      z := y\n"
        "    allOf:\n"
        "      match S(x2) = x\n"
        "      (z2) := addo_iio(x2, y)\n"
        "      z := S(z2)\n"
    )


def test_emit_nondet_uses_interleave(addo_engine):
    text = emit_text(addo_engine.table, "addo", "ooi")
    assert "interleaveOf:" in text
    assert "proc addo_ooi(z) -> (x, y):  # nondet" in text


def test_transitive_emission_order(sort_engine):
    procs = transitive_procs(sort_engine.table, "sorto", "oi")
    names = [(p.rel, p.direction) for p in procs]
    assert names == [
        ("sorto", "oi"),
        ("inserto", "ooi"),
        ("leo", "ii"),
        ("gto", "ii"),
    ]
