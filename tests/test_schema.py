"""Schema validation, derived facts, generation order, and term utilities."""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    EXPR_DECLS,
    LIST_DECLS,
    NAT_DECLS,
    TREE_DECLS,
    brute_values,
    corpus_program,
    nat,
    natlist,
    schema_from,
)
from kanrel.schema import (
    CtorDecl,
    CyclicBindingError,
    DuplicateName,
    Hole,
    InvalidValue,
    Node,
    TermSchema,
    TypeDecl,
    UninhabitedType,
    UnknownCtor,
    UnknownType,
    VarId,
    VarSupply,
    deref,
    holes,
    is_ground,
    rebuild,
    term_size,
)


def take_str(it, n: int) -> list[str]:
    return [str(v) for v in islice(it, n)]


class TestValidation:
    def test_duplicate_type_name(self):
        tys = (
            TypeDecl("A", (CtorDecl("MkA"),)),
            TypeDecl("A", (CtorDecl("MkB"),)),
        )
        with pytest.raises(DuplicateName):
            TermSchema(tys)

    def test_duplicate_ctor_name_across_types(self):
        tys = (
            TypeDecl("A", (CtorDecl("Mk"),)),
            TypeDecl("B", (CtorDecl("Mk"),)),
        )
        with pytest.raises(DuplicateName):
            TermSchema(tys)

    def test_unknown_argument_type(self):
        tys = (TypeDecl("A", (CtorDecl("MkA", ("Ghost",)),)),)
        with pytest.raises(UnknownType):
            TermSchema(tys)

    def test_uninhabited_type(self):
        # No base case: every Stream needs a smaller Stream.
        tys = (
            TypeDecl("Nat", (CtorDecl("O"), CtorDecl("S", ("Nat",)))),
            TypeDecl("Stream", (CtorDecl("SCons", ("Nat", "Stream")),)),
        )
        with pytest.raises(UninhabitedType):
            TermSchema(tys)

    def test_mutually_recursive_but_inhabited(self):
        tys = (
            TypeDecl("Even", (CtorDecl("EZ"), CtorDecl("ES", ("Odd",)))),
            TypeDecl("Odd", (CtorDecl("OS", ("Even",)),)),
        )
        schema = TermSchema(tys)
        assert not schema.is_finite("Even")
        assert not schema.is_finite("Odd")


class TestDerivedFacts:
    def test_finiteness(self):
        schema = schema_from(EXPR_DECLS)
        assert not schema.is_finite("Nat")
        assert not schema.is_finite("Expr")
        assert schema.is_finite("Ty")
        assert schema.is_finite("Boolean")

    def test_counts_and_max_size(self):
        schema = schema_from(EXPR_DECLS)
        assert schema.count_values("Ty") == 2
        assert schema.max_size("Ty") == 1
        assert not schema.is_singleton("Ty")

    def test_composite_finite_type(self):
        tys = (
            TypeDecl("Bit", (CtorDecl("B0"), CtorDecl("B1"))),
            TypeDecl("Pair", (CtorDecl("MkPair", ("Bit", "Bit")),)),
        )
        schema = TermSchema(tys)
        assert schema.is_finite("Pair")
        assert schema.count_values("Pair") == 4
        assert schema.max_size("Pair") == 3
        assert len(list(schema.generate("Pair"))) == 4

    def test_singleton_type(self):
        tys = (TypeDecl("Unit", (CtorDecl("U"),)),)
        schema = TermSchema(tys)
        assert schema.is_singleton("Unit")
        assert list(schema.generate("Unit")) == [Node("U")]

    def test_infinite_type_has_no_count(self):
        schema = schema_from(NAT_DECLS)
        with pytest.raises(InvalidValue):
            schema.count_values("Nat")

    def test_unknown_type_queries(self):
        schema = schema_from(NAT_DECLS)
        with pytest.raises(UnknownType):
            schema.is_finite("Ghost")
        with pytest.raises(UnknownCtor):
            schema.ctor("Ghost")


class TestGenerationOrder:
    def test_nat_prefix(self):
        schema = schema_from(NAT_DECLS)
        assert take_str(schema.generate("Nat"), 4) == [
            "O",
            "S(O)",
            "S(S(O))",
            "S(S(S(O)))",
        ]

    def test_natlist_prefix(self):
        schema = schema_from(LIST_DECLS)
        assert take_str(schema.generate("NatList"), 5) == [
            "Nil",
            "Cons(O, Nil)",
            "Cons(S(O), Nil)",
            "Cons(O, Cons(O, Nil))",
            "Cons(S(S(O)), Nil)",
        ]

    def test_tree_prefix(self):
        schema = schema_from(TREE_DECLS)
        assert take_str(schema.generate("Tree"), 4) == [
            "Leaf",
            "Node(Leaf, Leaf)",
            "Node(Leaf, Node(Leaf, Leaf))",
            "Node(Node(Leaf, Leaf), Leaf)",
        ]

    def test_sizes_never_decrease(self):
        schema = schema_from(EXPR_DECLS)
        sizes = [term_size(v) for v in islice(schema.generate("Expr"), 400)]
        assert sizes == sorted(sizes)

    @given(st.integers(min_value=0, max_value=150))
    def test_nat_generation_is_the_numerals(self, n: int):
        schema = schema_from(NAT_DECLS)
        nth = next(islice(schema.generate("Nat"), n, None))
        assert nth == nat(n)

    @pytest.mark.parametrize(
        "decls,type_name,max_nodes",
        [
            (LIST_DECLS, "NatList", 7),
            (TREE_DECLS, "Tree", 9),
            (EXPR_DECLS, "Expr", 6),
        ],
    )
    def test_complete_and_duplicate_free_up_to_size(
        self, decls, type_name, max_nodes
    ):
        schema = schema_from(decls)
        produced: list[str] = []
        for v in schema.generate(type_name):
            if term_size(v) > max_nodes:
                break
            produced.append(str(v))
        expected = brute_values(decls, type_name, max_nodes)
        assert len(produced) == len(set(produced))
        assert set(produced) == expected


class TestTermUtilities:
    supply = VarSupply()
    x = supply.fresh("Nat", "x")
    y = supply.fresh("Nat", "y")

    def test_holes_first_occurrence_order(self):
        t = Node("Cons", (Hole(self.x), Node("Cons", (Hole(self.y), Hole(self.x)))))
        assert holes(t) == (self.x, self.y)
        z = VarId(2, "Nat", "z")
        wide = Node("If", (Node("S", (Hole(z),)), Hole(self.y), Hole(self.x)))
        assert holes(wide) == (z, self.y, self.x)

    def test_is_ground_and_size(self):
        t = Node("S", (Hole(self.x),))
        assert not is_ground(t)
        assert is_ground(nat(3))
        assert term_size(nat(3)) == 4
        assert term_size(t) == 2

    def test_rebuild(self):
        t = Node("S", (Hole(self.x),))
        assert rebuild(t, {self.x: Node("O")}) == nat(1)
        assert rebuild(t, {self.y: Node("O")}) == t

    def test_deref_resolves_chains(self):
        subst = {self.x: Node("S", (Hole(self.y),)), self.y: Node("O")}
        assert deref(Hole(self.x), subst) == nat(1)

    def test_deref_leaves_unbound_holes(self):
        t = deref(Node("S", (Hole(self.x),)), {})
        assert t == Node("S", (Hole(self.x),))

    def test_deref_detects_direct_cycle(self):
        subst = {self.x: Node("S", (Hole(self.x),))}
        with pytest.raises(CyclicBindingError):
            deref(Hole(self.x), subst)

    def test_deref_detects_mutual_cycle(self):
        subst = {self.x: Hole(self.y), self.y: Hole(self.x)}
        with pytest.raises(CyclicBindingError):
            deref(Hole(self.x), subst)

    def test_sibling_occurrences_are_not_a_cycle(self):
        subst = {self.x: Node("O")}
        t = Node("Cons", (Hole(self.x), Node("Cons", (Hole(self.x), Node("Nil")))))
        assert is_ground(deref(t, subst))

    def test_varid_name_is_cosmetic(self):
        assert VarId(7, "Nat", "x") == VarId(7, "Nat", "other") == VarId(7, "Nat")
        assert hash(VarId(7, "Nat", "x")) == hash(VarId(7, "Nat"))
        assert VarId(7, "Nat") != VarId(8, "Nat")
        assert VarId(7, "Nat") != VarId(7, "Bool")
        assert (repr(VarId(7, "Nat", "x")), repr(VarId(7, "Nat"))) == ("?x7", "?_7")


class TestValueSemantics:
    """Field-tuple hashes, no equality across classes, dataclass-style repr."""

    x = VarId(3, "Nat", "x")

    def test_hashes_are_the_field_tuple_hashes(self):
        t = Node("Cons", (nat(1), Node("Cons", (Hole(self.x), Node("Nil")))))
        assert hash(t) == hash(("Cons", t.args))
        assert hash(Node("O")) == hash(("O", ()))
        assert hash(Hole(self.x)) == hash((self.x,))
        assert hash(self.x) == hash((3, "Nat"))

    def test_no_equality_across_classes(self):
        node, hole = Node("O"), Hole(self.x)
        assert node.__eq__(hole) is NotImplemented
        assert hole.__eq__(node) is NotImplemented
        assert self.x.__eq__(hole) is NotImplemented
        assert node != hole and hole != node
        assert Node("S", (node,)) != ("S", (node,))
        assert ("S", (node,)) != Node("S", (node,))
        assert hole != (self.x,) and self.x != (3, "Nat")

    def test_repr_and_str_of_a_nested_term(self):
        t = Node("Cons", (Node("S", (Node("O"),)), Node("Cons", (Hole(self.x), Node("Nil")))))
        assert repr(t) == (
            "Node(ctor='Cons', args=(Node(ctor='S', args=(Node(ctor='O', args=()),)),"
            " Node(ctor='Cons', args=(Hole(var=?x3), Node(ctor='Nil', args=())))))"
        )
        assert str(t) == "Cons(S(O), Cons(?x3, Nil))"
        assert (repr(Hole(self.x)), str(Hole(self.x))) == ("Hole(var=?x3)", "?x3")

    def test_str_of_a_term_past_the_recursion_limit(self):
        assert str(nat(50_000)) == "S(" * 50_000 + "O" + ")" * 50_000

    def test_instances_carry_only_their_slots(self):
        assert VarId.__slots__ == ("id", "type", "name", "_hash")
        assert Hole.__slots__ == ("var",)
        assert Node.__slots__ == ("ctor", "args", "_ground")
        for value in (self.x, Hole(self.x), Node("O")):
            assert not hasattr(value, "__dict__")


class TestGroundMarks:
    """is_ground marks hole-free nodes; the mark is invisible to comparison."""

    h = Hole(VarId(0, "Nat", "h"))

    def test_marks_ground_child_not_holed_parent(self):
        big = natlist([3, 1, 4, 1, 5])
        t = Node("Cons", (big, Node("Cons", (self.h, Node("Nil")))))
        assert not is_ground(t)
        assert big._ground
        assert big.args[0]._ground
        assert not t._ground
        assert not t.args[1]._ground

    def test_marks_a_ground_term_once_asked(self):
        t = nat(3)
        assert not t._ground
        assert is_ground(t)
        assert t._ground
        assert is_ground(t)

    def test_marked_and_unmarked_equal_nodes_agree(self):
        marked, plain = natlist([2, 0]), natlist([2, 0])
        before = (hash(marked), repr(marked), str(marked))
        assert is_ground(marked)
        assert marked._ground and not plain._ground
        assert marked == plain and plain == marked
        assert (hash(marked), repr(marked), str(marked)) == before
        assert hash(marked) == hash(plain)
        assert repr(marked) == repr(plain) and str(marked) == str(plain)
        assert {marked: 1}[plain] == 1

    def test_holes_and_deref_unchanged_by_marks(self):
        x, y = VarId(1, "Nat", "x"), VarId(2, "Nat", "y")
        t = Node("Cons", (nat(2), Node("Cons", (Hole(y), Node("Cons", (Hole(x), Node("Nil")))))))
        before = (holes(t), deref(t, {y: nat(1)}))
        is_ground(t)
        assert (holes(t), deref(t, {y: nat(1)})) == before
        assert before[0] == (y, x)


class TestDeepTerms:
    """is_ground, holes and deref have no recursion: depth is bounded by memory alone."""

    DEPTH = 20_000

    def test_is_ground_and_holes_depth_20000(self):
        assert is_ground(nat(self.DEPTH))
        t = Hole(VarId(0, "Nat"))
        for _ in range(self.DEPTH):
            t = Node("S", (t,))
        assert not is_ground(t)
        assert holes(t) == (VarId(0, "Nat"),)

    def test_deref_depth_20000(self):
        # The recursive deref overflowed the C stack (a segfault) near
        # depth 16 000.  Checked by walking: dataclass == recurses in C too.
        x, y = VarId(0, "Nat"), VarId(1, "Nat")
        t = Hole(x)
        for _ in range(self.DEPTH):
            t = Node("S", (t,))
        out = deref(Node("Pair", (t, Hole(y))), {x: Node("S", (Hole(y),)), y: Node("O")})
        assert out.ctor == "Pair" and out.args[1] == Node("O")
        depth, node = 0, out.args[0]
        while node.args:
            assert node.ctor == "S"
            depth, node = depth + 1, node.args[0]
        assert (depth, node) == (self.DEPTH + 1, Node("O"))


class TestCandidates:
    """schema.candidates: generate's values, a cached tuple for finite types."""

    @pytest.mark.parametrize("corpus", ["nat", "sort", "balance", "typecheck"])
    def test_candidates_follow_generate(self, corpus):
        schema = corpus_program(corpus).schema
        for type_name in schema.types_by_name:
            got = schema.candidates(type_name)
            if schema.is_finite(type_name):
                assert isinstance(got, tuple)
                assert got == tuple(schema.generate(type_name))
                assert schema.candidates(type_name) is got
            else:
                # A stream, new per use, never a materialized tuple.
                assert not isinstance(got, (tuple, list))
                assert schema.candidates(type_name) is not got
                assert list(islice(got, 50)) == list(islice(schema.generate(type_name), 50))


DIFF_VARS = [VarId(i, "Nat", f"d{i}") for i in range(6)]


def random_term(rng: random.Random, depth: int):
    """Terms over O, S and a binary Pair, with holes of DIFF_VARS at some
    leaves (deref ignores types)."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Hole(rng.choice(DIFF_VARS)) if rng.random() < 0.6 else nat(rng.randrange(3))
    if r < 0.65:
        return Node("S", (random_term(rng, depth - 1),))
    return Node("Pair", (random_term(rng, depth - 1), random_term(rng, depth - 1)))


def all_subterms(term) -> list:
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Node):
            stack.extend(t.args)
    return out


def deref_reference(term, subst, active: frozenset = frozenset()):
    """Plain recursive resolution (test reference): a variable reached again
    while its own binding resolves is a cycle."""
    if isinstance(term, Hole):
        if term.var in active:
            raise CyclicBindingError(repr(term.var))
        bound = subst.get(term.var)
        if bound is None:
            return term
        return deref_reference(bound, subst, active | {term.var})
    return Node(term.ctor, tuple(deref_reference(a, subst, active) for a in term.args))


def outcome(fn, term, subst):
    try:
        return ("value", fn(term, subst))
    except CyclicBindingError:
        return ("cycle", None)


def test_deref_differential_against_reference():
    rng = random.Random(20261020)
    cycles = values = 0
    for _ in range(4000):
        subst = {v: random_term(rng, 3) for v in DIFF_VARS if rng.random() < 0.6}
        term = random_term(rng, 4)
        # Mark some hole-free subterms first, as earlier occurs checks would.
        pool = all_subterms(term) + [t for b in subst.values() for t in all_subterms(b)]
        for t in rng.sample(pool, min(3, len(pool))):
            is_ground(t)
        want = outcome(deref_reference, term, subst)
        assert outcome(deref, term, subst) == want, (term, subst)
        cycles += want[0] == "cycle"
        values += want[0] == "value"
    # Both outcomes are well represented.
    assert cycles > 400 and values > 400


class TestDerefSharing:
    x, y = VarId(0, "Nat", "x"), VarId(1, "Nat", "y")

    def test_marked_ground_subterm_comes_back_as_is(self):
        g = natlist([3, 1, 4])
        assert is_ground(g)
        assert deref(g, {}) is g
        assert deref(Hole(self.x), {self.x: g}) is g
        out = deref(Node("Pair", (Hole(self.x), g)), {self.x: Node("O")})
        assert out.args[1] is g

    def test_rebuild_returns_a_marked_subterm_as_is(self):
        g = natlist([3, 1, 4])
        assert is_ground(g)
        assert rebuild(g, {self.x: Node("O")}) is g
        out = rebuild(Node("Pair", (Hole(self.x), g)), {self.x: Node("O")})
        assert out == Node("Pair", (Node("O"), g))
        assert out.args[1] is g

    def test_chain_through_every_binding_is_not_a_cycle(self):
        # The count of bindings followed reaches len(subst) and stops there.
        vs = [VarId(i, "Nat") for i in range(8)]
        subst = {vs[i]: (Hole(vs[i + 1]) if i % 2 else Node("S", (Hole(vs[i + 1]),)))
                 for i in range(7)}
        subst[vs[7]] = Node("O")
        assert deref(Hole(vs[0]), subst) == nat(4)

    def test_fifty_thousand_unary_bindings(self):
        depth = 50_000
        vs = [VarId(i, "Nat") for i in range(depth + 1)]
        subst = {vs[i]: Node("S", (Hole(vs[i + 1]),)) for i in range(depth)}
        subst[vs[depth]] = Node("O")
        node, k = deref(Hole(vs[0]), subst), 0
        # Walked, not compared: Node == recurses once per level.
        while node.ctor == "S":
            node, k = node.args[0], k + 1
        assert (k, node) == (depth, Node("O"))
