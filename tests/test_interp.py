"""Reference engine behavior: unification, answer sets, fairness, grounding.

Ground-truth oracles are native Python arithmetic; answer-order assertions
for finite queries are derived by hand from the merge discipline (clause
order for mature answers, one delay per call) and noted inline.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    addo_program,
    deref_oracle,
    directed_engine,
    loop_program,
    nat,
    unnat,
)
from kanrel.goals import ArityMismatch, TypeMismatch, UnknownRelation
import kanrel.interp as interp_module
from kanrel.interp import (
    RefEval,
    answer_iter,
    ground_answers,
    occurs,
    query_args,
    query_stream,
    run,
    unify,
    walk,
)
from kanrel.schema import (
    Hole,
    Node,
    Term,
    VarId,
    VarSupply,
    deref,
    holes,
    is_ground,
)
from kanrel.streams import Stream, bind, from_iterator, smap, take

PROG = addo_program()
SCHEMA = PROG.schema


def h(i: int) -> Hole:
    return Hole(VarId(i, "Nat", f"q{i}"))


def as_ints(answer: tuple) -> tuple[int, ...]:
    return tuple(unnat(t) for t in answer)


def test_search_threads_substitutions_from_one_id_supply():
    # Stream elements are bare substitutions.  Fresh ids come from the
    # query's one supply, from the first id up: an x2 and a z2 per level.
    ev = RefEval(PROG, 2)
    substs = take(ev.invoke("addo", (h(0), h(1), nat(3)), {}), None)
    assert all(type(s) is dict for s in substs)
    assert [sorted(v.id for v in s) for s in substs] == [
        [0, 1],
        [0, 1, 2, 3],
        [0, 1, 2, 3, 4, 5],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ]


class TestUnify:
    supply = VarSupply()
    x = supply.fresh("Nat", "x")
    y = supply.fresh("Nat", "y")

    def test_bind_and_walk(self):
        s = unify(Hole(self.x), nat(2), {}, SCHEMA)
        assert s is not None
        assert walk(Hole(self.x), s) == nat(2)

    def test_same_hole_is_a_noop(self):
        assert unify(Hole(self.x), Hole(self.x), {}, SCHEMA) == {}

    def test_constructor_mismatch_fails(self):
        assert unify(nat(0), nat(1), {}, SCHEMA) is None

    def test_nested_descent(self):
        s = unify(Node("S", (Hole(self.x),)), nat(3), {}, SCHEMA)
        assert s is not None and s[self.x] == nat(2)

    def test_occurs_check_fails_not_errors(self):
        assert unify(Hole(self.x), Node("S", (Hole(self.x),)), {}, SCHEMA) is None

    def test_occurs_check_through_bindings(self):
        s = unify(Hole(self.x), Hole(self.y), {}, SCHEMA)
        assert unify(Hole(self.y), Node("S", (Hole(self.x),)), s, SCHEMA) is None

    def test_type_clash_raises(self):
        alien = VarId(99, "Ghost")
        with pytest.raises(TypeMismatch):
            unify(Hole(self.x), Hole(alien), {}, SCHEMA)


class TestFiniteQueries:
    @given(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_forward_addition_matches_python(self, a: int, b: int):
        answers = run(PROG, "addo", (nat(a), nat(b), h(0)))
        assert [as_ints(t) for t in answers] == [(a, b, a + b)]

    def test_checking_a_true_sum(self):
        assert run(PROG, "addo", (nat(2), nat(3), nat(5))) == [(nat(2), nat(3), nat(5))]

    def test_checking_a_false_sum(self):
        assert run(PROG, "addo", (nat(2), nat(3), nat(4))) == []

    def test_subtraction_via_first_argument(self):
        answers = run(PROG, "addo", (h(0), nat(2), nat(5)))
        assert [as_ints(t) for t in answers] == [(3, 2, 5)]

    def test_subtraction_via_second_argument(self):
        answers = run(PROG, "addo", (nat(2), h(0), nat(5)))
        assert [as_ints(t) for t in answers] == [(2, 3, 5)]

    def test_all_decompositions_of_a_sum(self):
        # Clause one answers are mature and clause two adds one delay per
        # recursion level, so x counts up: (0,3), (1,2), (2,1), (3,0).
        answers = run(PROG, "addo", (h(0), h(1), nat(3)))
        assert [as_ints(t) for t in answers] == [
            (0, 3, 3),
            (1, 2, 3),
            (2, 1, 3),
            (3, 0, 3),
        ]

    def test_shared_hole_across_arguments(self):
        # x + x = 4 has exactly one solution.
        answers = run(PROG, "addo", (h(0), h(0), nat(4)))
        assert [as_ints(t) for t in answers] == [(2, 2, 4)]


class TestInfiniteQueries:
    def test_open_query_answers_are_valid_and_distinct(self):
        answers = [as_ints(t) for t in run(PROG, "addo", (h(0), h(1), h(2)), 20)]
        assert len(set(answers)) == 20
        assert all(x + y == z for x, y, z in answers)

    def test_open_query_reaches_every_small_solution(self):
        small = {(x, y, x + y) for x in range(3) for y in range(3)}
        answers = {as_ints(t) for t in run(PROG, "addo", (h(0), h(1), h(2)), 120)}
        assert small <= answers

    def test_fixed_first_argument_enumerates_second(self):
        answers = [as_ints(t) for t in run(PROG, "addo", (nat(2), h(0), h(1)), 12)]
        assert all(y + 2 == z for _, y, z in answers)
        assert {y for _, y, _ in answers} == set(range(12))

    def test_diverging_disjunct_does_not_block_answers(self):
        prog = loop_program()
        assert run(prog, "valo", (h(0),), 1) == [(Node("O"),)]


class TestGrounding:
    def test_shared_hole_grounds_consistently(self):
        v = h(7)
        pairs = take(ground_answers((v, v), SCHEMA), 5)
        assert all(a == b for a, b in pairs)
        assert [unnat(a) for a, _ in pairs] == [0, 1, 2, 3, 4]

    def test_independent_holes_dovetail(self):
        pairs = [
            (unnat(a), unnat(b))
            for a, b in take(ground_answers((h(1), h(2)), SCHEMA), 30)
        ]
        assert len(set(pairs)) == 30
        for wanted in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]:
            assert wanted in pairs

    def test_default_builder_shares_a_marked_input(self):
        # The ground part of an answer is not copied into each grounding.
        x = nat(5)
        assert is_ground(x)
        grounded = take(ground_answers((x, Node("S", (h(0),))), SCHEMA), 3)
        assert [unnat(b) for _, b in grounded] == [1, 2, 3]
        assert all(a is x for a, _ in grounded)

    def test_ground_answer_passes_through(self):
        assert take(ground_answers((nat(1), nat(2)), SCHEMA), 3) == [(nat(1), nat(2))]

    def test_grounding_finds_the_holes_once(self, monkeypatch):
        # Counts, not times: rescanning the answer after each filled hole
        # makes the count grow with the number of answers drawn.
        def holes_calls(n: int) -> int:
            calls = 0

            def counting(term):
                nonlocal calls
                calls += 1
                return holes(term)

            monkeypatch.setattr(interp_module, "holes", counting)
            v = h(0)
            z: Term = v
            for _ in range(8):
                z = Node("S", (z,))
            assert len(take(ground_answers((nat(8), v, z), SCHEMA), n)) == n
            return calls

        assert holes_calls(64) == holes_calls(128)

    def test_ref_answers_come_to_grounding_marked(self, monkeypatch):
        # deref marks the hole-free nodes it builds, so ``holes`` does not
        # enter the Nat an addo@oio answer has built: the nodes it looks at
        # per term do not grow with the answers drawn, though x and z do.
        looked_at: list[int] = []

        def counting(term):
            # The nodes ``holes`` looks at: it enters a node only when it
            # is neither nullary nor marked.
            count, pending = 0, [term]
            while pending:
                t = pending.pop()
                count += 1
                if isinstance(t, Node) and t.args and not t._ground:
                    pending.extend(t.args)
            looked_at.append(count)
            return holes(term)

        monkeypatch.setattr(interp_module, "holes", counting)

        def most_looked_at(n: int) -> int:
            looked_at.clear()
            args = query_args(PROG.relation("addo"), "oio", (nat(3),))
            assert len(run(PROG, "addo", args, n)) == n
            return max(looked_at)

        assert most_looked_at(16) == most_looked_at(128)


# The first 40 groundings of If(BLit(b1), Lit(n), Plus(Lit(n), BLit(b2)))
# in the typecheck schema, as (b1, n, b2): a finite hole, an infinite one,
# that one again, and a second finite one.  Recorded from the dict-copying
# enumeration this one replaced, so a drift in the enumeration itself shows.
PINNED_GROUNDING = [
    ("T", 0, "T"), ("F", 0, "T"), ("T", 0, "F"), ("T", 1, "T"), ("F", 0, "F"),
    ("F", 1, "T"), ("T", 1, "F"), ("T", 2, "T"), ("F", 1, "F"), ("F", 2, "T"),
    ("T", 2, "F"), ("T", 3, "T"), ("F", 2, "F"), ("F", 3, "T"), ("T", 3, "F"),
    ("T", 4, "T"), ("F", 3, "F"), ("F", 4, "T"), ("T", 4, "F"), ("T", 5, "T"),
    ("F", 4, "F"), ("F", 5, "T"), ("T", 5, "F"), ("T", 6, "T"), ("F", 5, "F"),
    ("F", 6, "T"), ("T", 6, "F"), ("T", 7, "T"), ("F", 6, "F"), ("F", 7, "T"),
    ("T", 7, "F"), ("T", 8, "T"), ("F", 7, "F"), ("F", 8, "T"), ("T", 8, "F"),
    ("T", 9, "T"), ("F", 8, "F"), ("F", 9, "T"), ("T", 9, "F"), ("T", 10, "T"),
]


def test_grounding_order_is_pinned():
    engine = directed_engine("typecheck", (("typo", "oi"),))
    b1, n, b2 = (Hole(VarId(i, t)) for i, t in ((1, "Boolean"), (2, "Nat"), (3, "Boolean")))
    answer = (
        Node("If", (
            Node("BLit", (b1,)),
            Node("Lit", (n,)),
            Node("Plus", (Node("Lit", (n,)), Node("BLit", (b2,)))),
        )),
    )
    booleans = {"T": Node("True"), "F": Node("False")}
    want = [
        (
            Node("If", (
                Node("BLit", (booleans[c],)),
                Node("Lit", (nat(k),)),
                Node("Plus", (Node("Lit", (nat(k),)), Node("BLit", (booleans[e],)))),
            )),
        )
        for c, k, e in PINNED_GROUNDING
    ]
    assert take(ground_answers(answer, engine.schema), 40) == want
    assert take(engine._ground_stream(answer), 40) == want


def nested_grounding(types: tuple[str, ...], schema) -> Stream:
    """The value tuples of holes of these types, one nested bind per hole
    over its candidates and ``smap`` for the last: the enumeration each
    answer ran on its own before suffix streams were shared."""
    last = len(types) - 1

    def at(i: int, values: tuple) -> Stream:
        source = from_iterator(iter(schema.candidates(types[i])))
        if i == last:
            return smap(source, lambda value: (*values, value))
        return bind(source, lambda value: at(i + 1, (*values, value)))

    return at(0, ())


def stream_events(s: Stream, k: int) -> list:
    """The first k events of a stream: None for a delay forced, else the
    element yielded."""
    out: list = []
    while s is not None and len(out) < k:
        if callable(s):
            out.append(None)
            s = s()
        else:
            head, s = s
            out.append(head)
    return out


def test_shared_grounding_has_the_nested_shape():
    # Sharing suffix streams must not move one delay or one element, on
    # the read that builds the memo's streams or on a read that replays
    # them.
    schema = directed_engine("typecheck", (("typo", "oi"),)).schema
    for k in (2, 3, 4):
        for types in itertools.product(("Nat", "Boolean", "Ty", "Expr"), repeat=k):
            answer = tuple(Hole(VarId(i, t)) for i, t in enumerate(types))
            want = stream_events(nested_grounding(types, schema), 3000)
            memo: dict = {}
            for _ in range(2):
                got = ground_answers(answer, schema, lambda values: values, memo)
                assert stream_events(got, 3000) == want, types
            # One stream per suffix of the type tuple.
            assert len(memo) == k


class TestQueryValidation:
    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            run(PROG, "addo", (nat(1), nat(1)))

    def test_argument_types_checked(self):
        with pytest.raises(TypeMismatch):
            run(PROG, "addo", (nat(1), nat(1), Hole(VarId(0, "NatList"))))

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            run(PROG, "mysteryo", (nat(1),))

    def test_answer_iter_is_lazy(self):
        it = answer_iter(PROG, "addo", (h(0), h(1), h(2)))
        assert as_ints(next(it)) == (0, 0, 0)


nat_chain = st.integers(min_value=0, max_value=3)


@st.composite
def acyclic_substitution(draw):
    """A substitution over v0..v5 where vi only mentions vj with j > i."""
    supply = [VarId(i, "Nat", f"v{i}") for i in range(6)]
    subst = {}
    for i in range(5):
        if not draw(st.booleans()):
            continue
        wrap = draw(nat_chain)
        if draw(st.booleans()):
            j = draw(st.integers(min_value=i + 1, max_value=5))
            base = Hole(supply[j])
        else:
            base = Node("O")
        term = base
        for _ in range(wrap):
            term = Node("S", (term,))
        subst[supply[i]] = term
    return supply[0], subst


@given(acyclic_substitution())
def test_deref_agrees_with_iterative_oracle(case):
    root, subst = case
    assert deref(Hole(root), subst) == deref_oracle(Hole(root), subst)


def occurs_oracle(var: VarId, term: Term, subst) -> bool:
    """The plain recursive occurs check (oracle only; assumes acyclic subst)."""
    while isinstance(term, Hole) and term.var in subst:
        term = subst[term.var]
    if isinstance(term, Hole):
        return term.var == var
    return any(occurs_oracle(var, a, subst) for a in term.args)


OCC_VARS = [VarId(i, "Nat", f"o{i}") for i in range(5)]


def occ_term(max_leaves: int):
    """Terms over S, O and a binary Pair, holes at some leaves (occurs ignores types)."""
    leaf = st.one_of(
        st.builds(nat, st.integers(0, 3)),
        st.sampled_from([Hole(v) for v in OCC_VARS]),
    )
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(lambda t: Node("S", (t,)), kids),
            st.builds(lambda a, b: Node("Pair", (a, b)), kids, kids),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def occurs_case(draw):
    """A variable, a term and an acyclic substitution (oi only mentions oj, j > i)."""
    subst = {}
    for i in range(len(OCC_VARS) - 1, 0, -1):
        if draw(st.booleans()):
            t = draw(occ_term(6))
            subst[OCC_VARS[i]] = rebuild_without(t, OCC_VARS[: i + 1])
    var = draw(st.sampled_from(OCC_VARS))
    term = draw(occ_term(10))
    premark = draw(st.lists(st.integers(0, 20), max_size=3))
    return var, term, subst, premark


def rebuild_without(term: Term, banned) -> Term:
    """Replace holes of banned variables by O, keeping the substitution acyclic."""
    if isinstance(term, Hole):
        return Node("O") if term.var in banned else term
    return Node(term.ctor, tuple(rebuild_without(a, banned) for a in term.args))


def subterms(term: Term) -> list[Term]:
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Node):
            stack.extend(t.args)
    return out


@given(occurs_case())
@settings(max_examples=300, deadline=None)
def test_occurs_agrees_with_recursive_oracle(case):
    var, term, subst, premark = case
    expected = occurs_oracle(var, term, subst)
    # Ask is_ground of some subterms first, as earlier unifications would.
    pool = subterms(term) + [s for b in subst.values() for s in subterms(b)]
    for i in premark:
        is_ground(pool[i % len(pool)])
    assert occurs(var, term, subst) == expected
    # Asking again, now that every hole-free node seen is marked.
    assert occurs(var, term, subst) == expected
    assert holes(term) == tuple(dict.fromkeys(hole_leaves(term)))


@given(occurs_case())
@settings(max_examples=300, deadline=None)
def test_deref_agrees_with_recursive_oracle_on_terms(case):
    _, term, subst, premark = case
    pool = subterms(term)
    for i in premark:
        is_ground(pool[i % len(pool)])
    assert deref(term, subst) == deref_term_oracle(term, subst)


def deref_term_oracle(term: Term, subst) -> Term:
    """The plain recursive deref (oracle only; assumes acyclic subst)."""
    while isinstance(term, Hole) and term.var in subst:
        term = subst[term.var]
    if isinstance(term, Hole):
        return term
    return Node(term.ctor, tuple(deref_term_oracle(a, subst) for a in term.args))


def hole_leaves(term: Term):
    """Hole variables left to right, recursively (oracle only)."""
    if isinstance(term, Hole):
        yield term.var
    else:
        for a in term.args:
            yield from hole_leaves(a)


class TestOccursMarks:
    v = VarId(0, "Nat", "v")
    h = VarId(1, "Nat", "h")

    def test_marks_are_syntactic_not_substitution_facts(self):
        t = Node("S", (Hole(self.h),))
        subst = {self.h: Node("S", (Hole(self.v),))}
        assert not is_ground(t)
        assert occurs(self.v, t, subst)
        assert not t._ground

    def test_binding_to_a_marked_ground_term_skips_it(self):
        big = nat(50)
        assert is_ground(big)
        assert not occurs(self.v, Node("S", (big,)), {})

    def test_deep_chain_needs_no_recursion(self):
        t = Hole(self.h)
        for _ in range(20_000):
            t = Node("S", (t,))
        assert occurs(self.h, t, {})
        assert not occurs(self.v, t, {})
        assert occurs(self.v, t, {self.h: Hole(self.v)})


def _walk_calls(monkeypatch, direction: str, a: int) -> int:
    calls = 0
    real = interp_module.walk

    def counting(term, subst):
        nonlocal calls
        calls += 1
        return real(term, subst)

    monkeypatch.setattr(interp_module, "walk", counting)
    b = 3
    ins = {
        "iii": (nat(a), nat(b), nat(a + b)),
        "iio": (nat(a), nat(b)),
        "ioi": (nat(a), nat(a + b)),
    }[direction]
    rel = PROG.relation("addo")
    answers = run(PROG, "addo", query_args(rel, direction, ins))
    monkeypatch.setattr(interp_module, "walk", real)
    assert [tuple(unnat(t) for t in ans) for ans in answers] == [(a, b, a + b)]
    return calls


@pytest.mark.parametrize("direction", ["iii", "iio", "ioi"])
def test_deterministic_addition_unifies_in_linear_work(monkeypatch, direction):
    # Counts, not times: the walks the unifier makes, occurs check included.
    # A rescan of the ground input per binding makes the ratio about 4.
    small = _walk_calls(monkeypatch, direction, 200)
    large = _walk_calls(monkeypatch, direction, 400)
    assert large <= 2.2 * small, (small, large)


def test_query_stream_is_pull_driven_and_answers_are_ground():
    s = query_stream(PROG, "addo", (h(0), h(1), h(2)))
    assert callable(s)  # nothing searched until the first pull
    first = take(s, 1)[0]
    assert all(len(holes(t)) == 0 for t in first)
