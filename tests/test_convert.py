"""Directed execution against the search engine: same answers, same order."""

from __future__ import annotations

import collections
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kanrel.convert as convert_module
import kanrel.interp as interp_module
import kanrel.schema as schema_module
import kanrel.streams as streams_module
from kanrel.convert import (
    DirectedEngine,
    emit_text,
    residual_plan,
    static_plan,
    transitive_procs,
)
from kanrel.goals import ArityMismatch, TypeMismatch
from kanrel.interp import query_args, run
from kanrel.modes import Det, DirCall, ModeError, analyze
from kanrel.normal import normalize_program
from kanrel.parser import parse_program
from kanrel.schema import Hole, InvalidValue, Node, UnknownCtor, VarId
from kanrel.streams import stream_iter, take

from conftest import (
    corpus_program,
    nat,
    natlist,
    schedulable_corpus_tables,
    unnat,
    unnatlist,
)

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
    slots = eng._slots[rel, direction]
    out = []
    for final in stream_iter(eng._proc_stream(proc, env)):
        out.append(tuple(final[slots[p]] for p in proc.params))
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


def test_emit_says_which_generators_are_deferred(addo_engine):
    # addo^ioo's generator stays a symbolic hole until answers are grounded.
    text = emit_text(addo_engine.table, "addo", "ioo")
    assert "defer y : Nat" in text
    assert "generate" not in text
    # isz's out reaches an in-argument, so that generator enumerates.
    table = analyze(normalize_program(parse_program(SINGLETON_INLINE)), [("r", "i")])
    isz = emit_text(table, "r", "i").split("proc isz_oi(")[1]
    assert "generate u : Unit" in isz
    assert "defer" not in isz


def test_maybe_runs_inline_singleton_generation():
    program = parse_program(SINGLETON_INLINE)
    table = analyze(normalize_program(program), [("r", "i")])
    assert table.det("isz", "oi") <= Det.SEMIDET
    eng = DirectedEngine(table)
    # isz's generated out u reaches the in-argument of check isz_ii(w, n)
    # through w := u, so it enumerates inline.
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


def streams_built(monkeypatch) -> collections.Counter:
    """Count the streams each (rel, direction) builds, in engines made after."""
    built: collections.Counter = collections.Counter()
    real = DirectedEngine._build_stream

    def counting(self, proc, env, table):
        built[proc.rel, proc.direction] += 1
        return real(self, proc, env, table)

    monkeypatch.setattr(DirectedEngine, "_build_stream", counting)
    return built


def test_addo_oio_reads_its_own_stream(addo_engine, monkeypatch):
    # addo^oio(y) calls addo^oio(y): that call is a table hit on the running
    # call's stream, so each answer follows from the one before it.
    built = streams_built(monkeypatch)
    engine_for("nat", [("addo", "oio")]).run("addo", "oio", (nat(3),), 300)
    assert built == {("addo", "oio"): 1}
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


def test_shared_self_calls_keep_the_reference_order(monkeypatch):
    # Two calls of steps^io on its own input, one of them first in its
    # clause and one before another call: the order must not change.
    program = parse_program(STEPS_SRC)
    built = streams_built(monkeypatch)
    eng = DirectedEngine(analyze(normalize_program(program), [("steps", "io")]))
    ref = run(program, "steps", (nat(2), qhole(0)), 300)
    assert eng.run("steps", "io", (nat(2),), 300) == ref
    # Both calls are table hits on the running call.
    assert built["steps", "io"] == 1


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


# --- pinned answer order ---

CTX = Node("CCons", (Node("TInt"), Node("CCons", (Node("TBool"), Node("CNil")))))

PINNED_QUERIES = [
    ("nat", "addo", "oio", (nat(3),), 200),
    ("nat", "addo", "ioo", (nat(4),), 200),
    ("nat", "addo", "ooi", (nat(64),), None),
    ("nat", "addo", "iio", (nat(40), nat(25)), None),
    ("nat", "addo", "iii", (nat(40), nat(25), nat(65)), None),
    ("sort", "sorto", "oi", (natlist([0, 1, 2, 3, 4]),), None),
    ("typecheck", "typo", "oi", (Node("TBool"),), 500),
    ("typecheck", "typov", "ioi", (CTX, Node("TInt")), 500),
    ("balance", "balanceo", "oo", (), 100),
]

# sha256 of the repr of each converted answer list, taken on the engine
# whose envs were dicts keyed by variable: a runtime change that reorders,
# drops or alters any answer shows here.
ANSWER_DIGESTS = {
    "addo@oio": "31ba6e41e3fb31048bf9f13440f5dcf546f2bae5a28f41fb718caaadc5231684",
    "addo@ioo": "3ad61d8e4380a5db690d34f872b9b53e84dbe612b8bed2a674fbcc3c7f3f8adf",
    "addo@ooi": "650418eeb702a6bc44ae7ff7270346d11f3b01c5c0ab5059d5f73557591f8525",
    "addo@iio": "8168bdb61c83e1eeab7a942f2756bcbc7e8ab99a04452b26fcdb4f127337880d",
    "addo@iii": "8168bdb61c83e1eeab7a942f2756bcbc7e8ab99a04452b26fcdb4f127337880d",
    "sorto@oi": "a707d5baaafd234118d05785ef27d5a27e8d67d93a3124dc560a4fe48202301f",
    "typo@oi": "f44509f4710e9c7e35e0e5f355090e3b64b9234ed5f12e34382cf9c32e1d891c",
    "typov@ioi": "0a713dd18bed9c3980b3338b790332db21043a48b7f8db00d8f32b5fe0332649",
    "balanceo@oo": "ea6240a22e6d11ed5a748bd7bc51a1f80dfd36a80c4aeb9fd79c2a7b0fa27b36",
}

# The search engine's lists, taken on the engine whose search states
# carried a variable counter.  They equal the converted ones except on
# sorto@oi, where the converter reorders calls and so answers (see the
# convert module docstring).
REF_DIGESTS = {
    **ANSWER_DIGESTS,
    "sorto@oi": "f0ad3688ec5ae7382fa79fc46cd0cd3217e5719f10b490629c47a9e94047acba",
}


@pytest.mark.parametrize(
    "engine, name, rel, direction, ins, n",
    [
        # The converted cases keep the ids they had before ref was pinned.
        pytest.param(engine, *q, id=f"{prefix}{q[1]}@{q[2]}")
        for engine, prefix in (("converted", ""), ("ref", "ref-"))
        for q in PINNED_QUERIES
    ],
)
def test_answer_lists_are_pinned(engine, name, rel, direction, ins, n):
    if engine == "ref":
        program = corpus_program(name)
        args = query_args(program.relation(rel), direction, ins)
        answers = run(program, rel, args, n)
        digests = REF_DIGESTS
    else:
        answers = engine_for(name, [(rel, direction)]).run(rel, direction, ins, n)
        digests = ANSWER_DIGESTS
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == digests[f"{rel}@{direction}"]


@pytest.mark.parametrize(
    "direction, small, large",
    [
        ("ooi", ((nat(32),), None), ((nat(256),), None)),
        ("oio", ((nat(3),), 32), ((nat(3),), 256)),
    ],
    ids=["ooi", "oio"],
)
def test_converted_runs_hash_no_variable(direction, small, large, monkeypatch):
    # Envs are lists indexed by slot numbers fixed at compile time, so a
    # built engine hashes the same number of variables however many answers
    # or levels a query has.
    eng = engine_for("nat", [("addo", direction)])
    calls = 0
    real = VarId.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(VarId, "__hash__", counting)

    def hashes(ins, n) -> int:
        nonlocal calls
        calls = 0
        assert len(eng.run("addo", direction, ins, n)) == (n or unnat(ins[0]) + 1)
        return calls

    assert hashes(*small) == hashes(*large)


# --- tabling ---


def untabled_engine(monkeypatch, name: str, requests) -> DirectedEngine:
    """An engine that tables no procedure."""
    with monkeypatch.context() as m:
        m.setattr(convert_module, "tabled_procs", lambda table, out_res: set())
        return engine_for(name, requests)


def test_tabled_sorto_oi_keeps_the_order(sort_engine, monkeypatch):
    program = corpus_program("sort")
    untabled = untabled_engine(monkeypatch, "sort", [("sorto", "oi")])
    for k in range(6):
        for values in itertools.combinations(range(6), k):
            target = natlist(list(values))
            got = sort_engine.run("sorto", "oi", (target,), None)
            assert got == untabled.run("sorto", "oi", (target,), None), values
            ref = run(program, "sorto", (qhole(0, "NatList"), target), None)
            # From four values on, the converter's schedule interleaves in
            # another order than the search engine; the answer sets agree.
            if k <= 3:
                assert got == ref, values
            else:
                assert sorted(map(str, got)) == sorted(map(str, ref)), values


def test_tabled_balance_keeps_the_reference_order():
    program = corpus_program("balance")
    eng = engine_for("balance", [("balanced", "oi")])
    for n in range(1, 9):
        ref = run(program, "balanced", (qhole(0, "Tree"), nat(n)), None)
        assert eng.run("balanced", "oi", (nat(n),), None) == ref, n
    eng = engine_for("balance", [("balanceo", "oo")])
    ref = run(program, "balanceo", (qhole(0, "Tree"), qhole(1, "Tree")), 100)
    assert eng.run("balanceo", "oo", (), 100) == ref


def test_sorto_oi_builds_one_stream_per_sublist(monkeypatch):
    built = streams_built(monkeypatch)
    eng = engine_for("sort", [("sorto", "oi")])
    assert len(eng.run("sorto", "oi", (natlist([0, 1, 2, 3, 4, 5]),), None)) == 720
    # A 6-list has 64 sublists; each untabled branch rebuilt its own (1 957).
    assert built["sorto", "oi"] <= 64


def test_tabled_call_on_a_deep_input_answers():
    # The table key of addo^oio(y) is built from y; a recursive hash of
    # S^12000(O) raised RecursionError.
    eng = engine_for("nat", [("addo", "oio")])
    answers = eng.run("addo", "oio", (nat(12000),), 2)
    assert [[unnat(t) for t in a] for a in answers] == [
        [0, 12000, 12000],
        [1, 12000, 12001],
    ]


def test_each_query_has_its_own_table(monkeypatch):
    built = streams_built(monkeypatch)
    eng = engine_for("balance", [("balanceo", "oo")])
    eng.run("balanceo", "oo", (), 100)
    first = dict(built)
    built.clear()
    eng.run("balanceo", "oo", (), 100)
    # A table kept by the engine would let the second query read the first
    # one's streams and build fewer.
    assert built == first
    # One stream per distinct size; each untabled branch rebuilt its own (695).
    assert first["balanced", "oi"] == 7


# --- residual generation ---


def test_inline_generators_leave_no_residual_out():
    table = analyze(normalize_program(corpus_program("sort")), [("inserto", "ooo")])
    inline, out_res, tabled = static_plan(table)
    # inserto^ooo generates its out x and leo^oo its out b, so with every
    # generator deferred both procedures have a residual out.  Both
    # generators run inline, which leaves no residual: a plan that did not
    # subtract them would table neither procedure.
    into_outs = {
        (rel, d)
        for rel, d, ci, oi in inline
        if table.procs[rel, d].clauses[ci].ops[oi].var in table.procs[rel, d].outs
    }
    assert into_outs == {("inserto", "ooo"), ("leo", "oo")}
    assert not any(any(res) for res in out_res.values())
    assert tabled == {("gto", "io"), ("inserto", "ooo"), ("leo", "oo")}


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


def test_grounding_compiles_a_chain_in_one_pass(addo_engine, monkeypatch):
    # Counts, not times: asking at every level of S^k(h) whether the rest
    # holds a hole makes the count grow with k.
    calls = 0

    def counted(fn):
        def wrapper(term):
            nonlocal calls
            calls += 1
            return fn(term)

        return wrapper

    for module in (schema_module, interp_module, convert_module):
        for name in ("holes", "is_ground"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))

    def calls_for(depth: int) -> int:
        nonlocal calls
        calls = 0
        chain: Node | Hole = qhole(0)
        for _ in range(depth):
            chain = Node("S", (chain,))
        grounded = take(addo_engine._ground_stream((chain,)), 3)
        assert [unnat(t) for (t,) in grounded] == [depth, depth + 1, depth + 2]
        return calls

    assert calls_for(500) == calls_for(1000)


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
    with pytest.raises(ArityMismatch):
        addo_engine.run("addo", "iio", (nat(1),), 1)
    with pytest.raises(UnknownCtor):
        addo_engine.run("addo", "iio", (Node("Nil", ()), nat(1)), 1)
    with pytest.raises(ModeError):
        addo_engine.run("addo", "oo", (nat(1),), 1)


def test_deep_non_ground_input_is_invalid(addo_engine):
    # The error message prints the whole input, past the recursion limit.
    deep = qhole(0)
    for _ in range(50_000):
        deep = Node("S", (deep,))
    with pytest.raises(InvalidValue, match=r"got S\(S\("):
        addo_engine.run("addo", "iio", (deep, nat(0)), 1)


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


@pytest.mark.parametrize(
    "value",
    [
        nat(1),
        Node("Cons", (Node("Nil"), Node("Nil"))),
        Node("S", (Node("O"), Node("O"))),
    ],
    ids=["nat-for-natlist", "natlist-in-nat-slot", "ctor-arity"],
)
def test_engines_report_ill_typed_inputs_in_the_same_words(value):
    messages = []
    for engine in (ref_sorto_oi, converted_sorto_oi):
        with pytest.raises((TypeMismatch, ArityMismatch)) as info:
            engine((value,))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("ins", [(), (nat(1), nat(2))], ids=["too-few", "too-many"])
def test_engines_count_inputs_alike(addo_engine, ins):
    with pytest.raises(ArityMismatch) as ref:
        query_args(corpus_program("nat").relation("addo"), "ioo", ins)
    with pytest.raises(ArityMismatch) as converted:
        addo_engine.run("addo", "ioo", ins, 1)
    want = f"addo@ioo takes 1 inputs (one per 'i'), got {len(ins)}"
    assert str(ref.value) == str(converted.value) == want


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


def test_emit_marks_the_calls_that_read_the_table(sort_engine, addo_engine):
    text = emit_text(sort_engine.table, "sorto", "oi")
    # st is an out of inserto^ooi, so sorto^oi sorts it through the table.
    assert "      (t) := sorto_oi(st)  # tabled\n" in text
    # ys is sorto^oi's own input: that call sees each value once.
    assert "      (h, st) := inserto_ooi(ys)\n" in text
    assert text.count("# tabled") == 1
    # A call that repeats the running one is a table hit on it.
    oio = emit_text(addo_engine.table, "addo", "oio")
    assert "      (x2, z2) := addo_oio(y)  # tabled\n" in oio


def printed_plan(text: str) -> tuple[set, set]:
    """(relation, direction, clause, op) of each ``generate`` line and of each
    call marked ``# tabled`` in the text of ``emit_text``."""
    generated, marked = set(), set()
    for line in text.splitlines():
        if line.startswith("proc "):
            rel, _, direction = line[len("proc ") : line.index("(")].rpartition("_")
            ci = -1
        elif line == "    allOf:":
            ci, oi = ci + 1, 0
        elif line.startswith("      ") and line != "      succeed":
            if line.startswith("      generate "):
                generated.add((rel, direction, ci, oi))
            if line.endswith("  # tabled"):
                marked.add((rel, direction, ci, oi))
            oi += 1
    return generated, marked


def test_convert_prints_what_runs():
    tables = schedulable_corpus_tables()
    with_inline = with_marks = 0
    for (name, rel, d), table in tables:
        eng = DirectedEngine(table)
        procs = transitive_procs(table, rel, d)
        keys = {(p.rel, p.direction) for p in procs}
        tabled_calls = {
            (p.rel, p.direction, ci, oi)
            for p in procs
            for ci, clause in enumerate(p.clauses)
            for oi, op in enumerate(clause.ops)
            if isinstance(op, DirCall) and (op.rel, op.direction) in eng._tabled
        }
        generated, marked = printed_plan(emit_text(table, rel, d))
        assert generated == {s for s in eng.inline if s[:2] in keys}, (name, rel, d)
        assert marked == tabled_calls, (name, rel, d)
        with_inline += bool(generated)
        with_marks += bool(marked)
    assert (len(tables), with_inline, with_marks) == (72, 8, 20)


def test_inline_enumeration_streams_hold_under_ref():
    """The stream path of inline enumeration.  On every table that enumerates
    inline, and every input of up to 3 nodes, the first 40 converted answers
    are distinct and each is confirmed by ref as a fully ground query."""
    drained, answers_checked = [], 0
    for (name, rel, d), table in schedulable_corpus_tables():
        eng = DirectedEngine(table)
        if not eng.inline:
            continue
        drained.append((name, rel, d))
        assert table.det(rel, d) is Det.NONDET, (name, rel, d)
        program = corpus_program(name)
        sized = program.schema.values_of_size
        pools = [
            [v for size in (1, 2, 3) for v in sized(p.type, size)]
            for p, m in zip(program.relation(rel).params, d)
            if m == "i"
        ]
        for ins in itertools.product(*pools):
            answers = eng.run(rel, d, ins, 40)
            assert len(set(answers)) == len(answers), (rel, d, ins)
            for answer in answers:
                assert run(program, rel, answer, 1) == [answer], (rel, d, answer)
            answers_checked += len(answers)
    assert drained == [
        ("sort", "inserto", "ioo"),
        ("sort", "inserto", "oio"),
        ("sort", "inserto", "ooo"),
        ("sort", "sorto", "oo"),
        ("typecheck", "typov", "oii"),
        ("typecheck", "typov", "oio"),
        ("typecheck", "typov", "ooi"),
        ("typecheck", "typov", "ooo"),
    ]
    assert answers_checked == 960


def test_transitive_emission_order(sort_engine):
    procs = transitive_procs(sort_engine.table, "sorto", "oi")
    names = [(p.rel, p.direction) for p in procs]
    assert names == [
        ("sorto", "oi"),
        ("inserto", "ooi"),
        ("leo", "ii"),
        ("gto", "ii"),
    ]
