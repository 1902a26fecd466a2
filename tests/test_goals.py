"""Goal AST construction checks, program well-formedness, and the fold hook."""

from __future__ import annotations

import pytest

from conftest import LIST_DECLS, NAT_DECLS, addo_program, schema_from
from kanrel.goals import (
    ArityMismatch,
    Call,
    Conj,
    Disj,
    Fresh,
    GoalBuilder,
    GoalInterpreter,
    Program,
    Relation,
    TypeMismatch,
    UnboundVariable,
    Unify,
    UnknownRelation,
    check_program,
    check_term,
    fold_goal,
    free_vars,
    goal_terms,
)
from kanrel.schema import DuplicateName, Hole, Node, VarSupply


def builder() -> GoalBuilder:
    return GoalBuilder(schema_from(LIST_DECLS), {"addo": ["Nat", "Nat", "Nat"]})


class TestBuilderChecks:
    def test_unify_rejects_type_mismatch(self):
        b = builder()
        with pytest.raises(TypeMismatch):
            b.unify(b.var("Nat"), Node("Nil"))

    def test_unify_accepts_matching_types(self):
        b = builder()
        g = b.unify(b.var("NatList"), b.ctor("Cons", b.var("Nat"), Node("Nil")))
        assert isinstance(g, Unify)

    def test_call_arity(self):
        b = builder()
        with pytest.raises(ArityMismatch):
            b.call("addo", b.var("Nat"), b.var("Nat"))

    def test_call_argument_types(self):
        b = builder()
        with pytest.raises(TypeMismatch):
            b.call("addo", b.var("Nat"), b.var("NatList"), b.var("Nat"))

    def test_call_unknown_relation(self):
        b = builder()
        with pytest.raises(UnknownRelation):
            b.call("mysteryo", b.var("Nat"))

    def test_ctor_arity(self):
        b = builder()
        with pytest.raises(ArityMismatch):
            b.ctor("S", b.var("Nat"), b.var("Nat"))

    def test_conj_and_disj_collapse_singletons(self):
        b = builder()
        g = b.unify(b.var("Nat"), Node("O"))
        assert b.conj(g) is g
        assert b.disj(g) is g
        assert isinstance(b.conj(g, g), Conj)
        assert isinstance(b.disj(g, g), Disj)


class TestCheckTerm:
    def test_infers_nested_types(self):
        schema = schema_from(LIST_DECLS)
        assert check_term(schema, Node("Cons", (Node("O"), Node("Nil")))) == "NatList"

    def test_rejects_badly_typed_slot(self):
        schema = schema_from(LIST_DECLS)
        with pytest.raises(TypeMismatch):
            check_term(schema, Node("Cons", (Node("Nil"), Node("Nil"))))

    def test_rejects_bad_arity(self):
        schema = schema_from(LIST_DECLS)
        with pytest.raises(ArityMismatch):
            check_term(schema, Node("S", (Node("O"), Node("O"))))


class TestProgramChecks:
    def test_addo_program_is_well_formed(self):
        check_program(addo_program())

    def test_duplicate_relation_names(self):
        schema = schema_from(NAT_DECLS)
        supply = VarSupply()
        x1, x2 = supply.fresh("Nat", "x"), supply.fresh("Nat", "x")
        mk = lambda v: Relation("r", (v,), Unify(Hole(v), Node("O")))
        with pytest.raises(DuplicateName):
            Program(schema, (mk(x1), mk(x2)))

    def test_unbound_variable_detected(self):
        schema = schema_from(NAT_DECLS)
        supply = VarSupply()
        x, ghost = supply.fresh("Nat", "x"), supply.fresh("Nat", "ghost")
        prog = Program(
            schema, (Relation("r", (x,), Unify(Hole(x), Hole(ghost))),)
        )
        with pytest.raises(UnboundVariable):
            check_program(prog)

    def test_fresh_shadowing_detected(self):
        schema = schema_from(NAT_DECLS)
        supply = VarSupply()
        x = supply.fresh("Nat", "x")
        prog = Program(
            schema,
            (Relation("r", (x,), Fresh((x,), Unify(Hole(x), Node("O")))),),
        )
        with pytest.raises(DuplicateName):
            check_program(prog)

    def test_call_checked_against_definition(self):
        schema = schema_from(NAT_DECLS)
        supply = VarSupply()
        x, y = supply.fresh("Nat", "x"), supply.fresh("Nat", "y")
        prog = Program(
            schema,
            (
                Relation("one", (x,), Unify(Hole(x), Node("O"))),
                Relation("two", (y,), Call("one", (Hole(y), Hole(y)))),
            ),
        )
        with pytest.raises(ArityMismatch):
            check_program(prog)

    def test_unknown_relation_lookup(self):
        with pytest.raises(UnknownRelation):
            addo_program().relation("mysteryo")


class TestTraversals:
    def test_free_vars_first_occurrence_and_fresh_binding(self):
        prog = addo_program()
        rel = prog.relation("addo")
        assert free_vars(rel.body) == rel.params

    def test_goal_terms_syntactic_order(self):
        prog = addo_program()
        rel = prog.relation("addo")
        first_two = list(goal_terms(rel.body))[:2]
        assert first_two == [Hole(rel.params[0]), Node("O")]

    def test_fold_goal_visits_every_node(self):
        class CountUnify(GoalInterpreter[int]):
            def on_unify(self, goal):
                return 1

            def on_conj(self, goal, parts):
                return sum(parts)

            def on_disj(self, goal, parts):
                return sum(parts)

            def on_call(self, goal):
                return 0

            def on_fresh(self, goal, body):
                return body

        assert fold_goal(CountUnify(), addo_program().relation("addo").body) == 4
