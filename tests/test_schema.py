"""Schema validation, derived facts, generation order, and term utilities."""

from __future__ import annotations

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
        assert VarId(7, "Nat", "x") == VarId(7, "Nat", "other")
        assert hash(VarId(7, "Nat", "x")) == hash(VarId(7, "Nat"))


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
        assert is_ground(marked)
        assert marked._ground and not plain._ground
        assert marked == plain and plain == marked
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
