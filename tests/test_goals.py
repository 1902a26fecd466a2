"""Term typing, program construction, and the fold hook."""

from __future__ import annotations

import pytest

from conftest import LIST_DECLS, NAT_DECLS, addo_program, nat, schema_from
from kanrel.goals import (
    ArityMismatch,
    GoalInterpreter,
    Program,
    Relation,
    TypeMismatch,
    Unify,
    UnknownRelation,
    check_term,
    fold_goal,
)
from kanrel.schema import DuplicateName, Hole, Node, VarSupply


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

    def test_types_terms_deeper_than_the_stack(self):
        schema = schema_from(LIST_DECLS)
        assert check_term(schema, nat(50_000)) == "Nat"
        bad = Node("Nil")
        for _ in range(50_000):
            bad = Node("S", (bad,))
        with pytest.raises(TypeMismatch, match="argument of S has type NatList"):
            check_term(schema, bad)


class TestProgramChecks:
    def test_duplicate_relation_names(self):
        schema = schema_from(NAT_DECLS)
        supply = VarSupply()
        x1, x2 = supply.fresh("Nat", "x"), supply.fresh("Nat", "x")
        mk = lambda v: Relation("r", (v,), Unify(Hole(v), Node("O")))
        with pytest.raises(DuplicateName):
            Program(schema, (mk(x1), mk(x2)))

    def test_unknown_relation_lookup(self):
        with pytest.raises(UnknownRelation):
            addo_program().relation("mysteryo")


class TestTraversals:
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
