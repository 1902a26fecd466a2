"""Corpus relations checked against independent Python oracles."""

from __future__ import annotations

from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from kanrel.interp import run
from kanrel.schema import Hole, Node, VarId

from conftest import corpus_program, directed_engine, nat, natlist, unnat, unnatlist


def qhole(i: int, type_name: str = "Nat") -> Hole:
    return Hole(VarId(900 + i, type_name, f"q{i}"))


# --- oracles ---


def type_of(e: Node) -> str | None:
    if e.ctor == "Lit":
        return "TInt"
    if e.ctor == "BLit":
        return "TBool"
    if e.ctor == "Plus":
        if all(type_of(a) == "TInt" for a in e.args):
            return "TInt"
        return None
    cond, then, other = e.args
    if type_of(cond) != "TBool":
        return None
    t = type_of(then)
    if t is not None and type_of(other) == t:
        return t
    return None


def leaf_count(t: Node) -> int:
    if t.ctor == "Leaf":
        return 1
    return sum(leaf_count(c) for c in t.args)


def is_balanced(t: Node) -> bool:
    if t.ctor == "Leaf":
        return True
    left, right = t.args
    return (
        abs(leaf_count(left) - leaf_count(right)) <= 1
        and is_balanced(left)
        and is_balanced(right)
    )


def balanced_count(n: int) -> int:
    """Trees with n leaves whose every node splits its leaves within one."""
    if n == 1:
        return 1
    half = n // 2
    count = balanced_count(half) * balanced_count(n - half)
    return count if n % 2 == 0 else 2 * count


def all_trees(leaves: int) -> list[Node]:
    if leaves == 1:
        return [Node("Leaf", ())]
    return [
        Node("Node", (left, right))
        for k in range(1, leaves)
        for left in all_trees(k)
        for right in all_trees(leaves - k)
    ]


def multiset_permutations(values: list[int]) -> int:
    n = factorial(len(values))
    for v in set(values):
        n //= factorial(values.count(v))
    return n


# --- strategies ---


def exprs():
    base = st.one_of(
        st.integers(0, 3).map(lambda n: Node("Lit", (nat(n),))),
        st.booleans().map(
            lambda b: Node("BLit", (Node("True" if b else "False", ()),))
        ),
    )
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Node("Plus", p)),
            st.tuples(kids, kids, kids).map(lambda t: Node("If", t)),
        ),
        max_leaves=8,
    )


def trees():
    return st.recursive(
        st.just(Node("Leaf", ())),
        lambda kids: st.tuples(kids, kids).map(lambda p: Node("Node", p)),
        max_leaves=6,
    )


# --- typecheck ---


@settings(max_examples=60)
@given(exprs())
def test_typo_io_matches_oracle(expr):
    program = corpus_program("typecheck")
    eng = directed_engine("typecheck", (("typo", "io"),))
    want = type_of(expr)
    expected = [] if want is None else [(expr, Node(want, ()))]
    assert run(program, "typo", (expr, qhole(0, "Ty")), None) == expected
    assert eng.run("typo", "io", (expr,), None) == expected


def test_typo_oi_generates_welltyped():
    eng = directed_engine("typecheck", (("typo", "oi"),))
    for ty in ("TInt", "TBool"):
        got = eng.run("typo", "oi", (Node(ty, ()),), 30)
        assert len(got) == 30
        assert all(type_of(e) == ty for e, _ in got)
        assert len({str(e) for e, _ in got}) == 30


def open_type_of(e: Node, ctx: list[str]) -> str | None:
    """type_of extended with de Bruijn variables looked up in ctx."""
    if e.ctor == "Var":
        i = unnat(e.args[0])
        return ctx[i] if i < len(ctx) else None
    if e.ctor == "Plus":
        if all(open_type_of(a, ctx) == "TInt" for a in e.args):
            return "TInt"
        return None
    if e.ctor == "If":
        cond, then, other = e.args
        if open_type_of(cond, ctx) != "TBool":
            return None
        t = open_type_of(then, ctx)
        if t is not None and open_type_of(other, ctx) == t:
            return t
        return None
    return type_of(e)


def test_typov_enumerates_open_terms():
    program = corpus_program("typecheck")
    eng = directed_engine("typecheck", (("typov", "ioi"),))
    for ctx in ([], ["TInt"], ["TBool", "TInt"]):
        packed = Node("CNil")
        for name in reversed(ctx):
            packed = Node("CCons", (Node(name), packed))
        conv = eng.run("typov", "ioi", (packed, Node("TInt")), 25)
        ref = run(program, "typov", (packed, qhole(0, "Expr"), Node("TInt")), 25)
        assert conv == ref
        assert all(open_type_of(e, ctx) == "TInt" for _, e, _ in conv)
        assert len({str(e) for _, e, _ in conv}) == 25
        uses_var = any("Var" in str(e) for _, e, _ in conv)
        assert uses_var == bool(ctx)


# --- balance ---


@settings(max_examples=40)
@given(trees())
def test_leaves_io_matches_oracle(tree):
    program = corpus_program("balance")
    eng = directed_engine("balance", (("leaves", "io"),))
    expected = [(tree, nat(leaf_count(tree)))]
    assert run(program, "leaves", (tree, qhole(0)), None) == expected
    assert eng.run("leaves", "io", (tree,), None) == expected


def test_balanceo_oo_pairs_are_balanced():
    # Tree enumeration cost grows steeply; five answers stay under a second.
    eng = directed_engine("balance", (("balanceo", "oo"),))
    got = eng.run("balanceo", "oo", (), 5)
    assert len(got) == 5
    assert len({(str(x), str(y)) for x, y in got}) == 5
    for x, y in got:
        assert leaf_count(x) == leaf_count(y)
        assert is_balanced(y)


def test_balanced_oi_matches_ref_and_count():
    program = corpus_program("balance")
    eng = directed_engine("balance", (("balanced", "oi"),))
    for n in range(1, 9):
        conv = eng.run("balanced", "oi", (nat(n),), None)
        ref = run(program, "balanced", (qhole(0, "Tree"), nat(n)), None)
        assert sorted(map(str, conv)) == sorted(map(str, ref)), n
        assert len(set(map(str, conv))) == len(conv) == balanced_count(n), n
        for t, m in conv:
            assert m == nat(n) and leaf_count(t) == n and is_balanced(t)


def test_balanceo_io_matches_ref_on_every_small_tree():
    program = corpus_program("balance")
    eng = directed_engine("balance", (("balanceo", "io"),))
    for leaves in range(1, 7):
        for x in all_trees(leaves):
            conv = eng.run("balanceo", "io", (x,), None)
            ref = run(program, "balanceo", (x, qhole(0, "Tree")), None)
            assert sorted(map(str, conv)) == sorted(map(str, ref)), str(x)
            assert len(conv) == balanced_count(leaves), str(x)


# --- sorting ---


@settings(max_examples=30)
@given(st.lists(st.integers(0, 2), max_size=4))
def test_sorto_oi_counts_permutations(values):
    values = sorted(values)
    target = natlist(values)
    program = corpus_program("sort")
    eng = directed_engine("sort", (("sorto", "oi"),))
    conv = eng.run("sorto", "oi", (target,), None)
    ref = run(program, "sorto", (qhole(0, "NatList"), target), None)
    # Goal reordering inside inserto permutes the answer order when the
    # list has duplicates; the answer multisets must still agree.
    assert sorted(map(str, conv)) == sorted(map(str, ref))
    assert len(conv) == multiset_permutations(values)
    seen = set()
    for xs, ys in conv:
        assert ys == target
        assert sorted(unnatlist(xs)) == values
        key = tuple(unnatlist(xs))
        assert key not in seen
        seen.add(key)


@settings(max_examples=40)
@given(st.integers(0, 10), st.integers(0, 10))
def test_leo_gto_match_comparison(a, b):
    eng = directed_engine("sort", (("leo", "ii"), ("gto", "ii")))
    leo = eng.run("leo", "ii", (nat(a), nat(b)))
    gto = eng.run("gto", "ii", (nat(a), nat(b)))
    assert leo == ([(nat(a), nat(b))] if a <= b else [])
    assert gto == ([(nat(a), nat(b))] if a > b else [])


# --- near ---


@settings(max_examples=40)
@given(st.integers(0, 8), st.integers(0, 8))
def test_near_ii_matches_oracle(a, b):
    program = corpus_program("balance")
    eng = directed_engine("balance", (("near", "ii"),))
    conv = eng.run("near", "ii", (nat(a), nat(b)), None)
    ref = run(program, "near", (nat(a), nat(b)), None)
    assert conv == ref
    assert len(conv) == (1 if abs(a - b) <= 1 else 0)


# --- addition, both exhaustive split directions ---


@settings(max_examples=30)
@given(st.integers(0, 12))
def test_addo_ooi_splits(z):
    eng = directed_engine("nat", (("addo", "ooi"),))
    got = eng.run("addo", "ooi", (nat(z),), None)
    assert [(unnat(x), unnat(y)) for x, y, _ in got] == [
        (k, z - k) for k in range(z + 1)
    ]


@settings(max_examples=30)
@given(st.integers(0, 12), st.integers(0, 12))
def test_addo_oii_subtracts(y, z):
    eng = directed_engine("nat", (("addo", "oii"),))
    got = eng.run("addo", "oii", (nat(y), nat(z)), None)
    if y > z:
        assert got == []
    else:
        assert got == [(nat(z - y), nat(y), nat(z))]
