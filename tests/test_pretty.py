"""Renderer output: terms, precedence parentheses, relation and program text."""

from __future__ import annotations

from conftest import addo_program, nat
from kanrel.goals import Conj, Disj, Fresh, Relation, Unify
from kanrel.pretty import (
    display_names,
    format_goal,
    format_program,
    format_relation,
    format_term,
)
from kanrel.schema import Hole, Node, VarId, VarSupply


def test_format_ground_term():
    assert format_term(nat(2)) == "S(S(O))"


def test_format_deep_term_and_separators():
    deep = Hole(VarId(0, "Nat", "x"))
    for _ in range(20_000):
        deep = Node("S", (deep,))
    assert format_term(deep) == "S(" * 20_000 + "x" + ")" * 20_000
    pair = Node("P", (nat(1), Node("Q", (Hole(VarId(1, "Nat")), Node("O"), nat(0)))))
    assert format_term(pair) == "P(S(O), Q(v1, O, O))"


def test_format_hole_uses_display_name():
    v = VarId(3, "Nat", "x")
    assert format_term(Hole(v)) == "x"
    assert format_term(Hole(v), {v: "x_3"}) == "x_3"
    assert format_term(Hole(VarId(9, "Nat"))) == "v9"


def test_display_names_disambiguate_collisions():
    supply = VarSupply()
    a, b = supply.fresh("Nat", "x"), supply.fresh("Nat", "x")
    names = display_names((a, b))
    assert names == {a: "x_0", b: "x_1"}


def make_unify(name: str):
    return Unify(Hole(VarSupply().fresh("Nat", name)), nat(0))


def test_disjunction_inside_conjunction_is_parenthesized():
    a, b, c = make_unify("a"), make_unify("b"), make_unify("c")
    assert format_goal(Conj((Disj((a, b)), c))) == "(a == O | b == O), c == O"


def test_nested_disjunction_keeps_grouping():
    a, b, c = make_unify("a"), make_unify("b"), make_unify("c")
    assert format_goal(Disj((Disj((a, b)), c))) == "(a == O | b == O) | c == O"


def test_fresh_body_parenthesized_only_when_compound():
    supply = VarSupply()
    v = Hole(supply.fresh("Nat", "v"))
    w = Hole(supply.fresh("Nat", "w"))
    atom = Fresh((v.var,), Unify(v, nat(0)))
    assert format_goal(atom) == "fresh v . v == O"
    compound = Fresh((v.var, w.var), Conj((Unify(v, nat(0)), Unify(w, nat(1)))))
    assert format_goal(compound) == "fresh v, w . (v == O, w == S(O))"


def test_relation_rendering_matches_surface_syntax():
    rel = addo_program().relation("addo")
    assert format_relation(rel) == (
        "rel addo(x: Nat, y: Nat, z: Nat) =\n"
        "    x == O, y == z\n"
        "  | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2))."
    )


def test_program_rendering_includes_type_declarations():
    text = format_program(addo_program())
    assert text.startswith("type Nat = O | S(Nat).\n\nrel addo(")
    assert text.endswith(".\n")


def test_single_clause_relation_renders_on_one_line():
    v = Hole(VarSupply().fresh("Nat", "x"))
    rel = Relation("zeroo", (v.var,), Unify(v, nat(0)))
    assert format_relation(rel) == "rel zeroo(x: Nat) = x == O."
