"""Flattening to base operations: shape, preservation, and the size bound."""

from __future__ import annotations

import pytest

from kanrel.goals import Conj, Program, Relation
from kanrel.interp import run
from kanrel.normal import (
    FlatCall,
    FlatClause,
    FlatCtor,
    FlatUnify,
    FlatVar,
    NormalProgram,
    NormalRelation,
    check_normal,
    count_base_ops,
    count_source_goals,
    embed,
    normalize_program,
)
from kanrel.parser import parse_program
from kanrel.schema import Hole, VarId

from conftest import corpus_program, nat

CORPUS = ("balance", "nat", "sort", "typecheck")


def qhole(i: int, type_name: str = "Nat") -> Hole:
    return Hole(VarId(900 + i, type_name, f"q{i}"))


def answers(program: Program, rel: str, args, n=None) -> list:
    return run(program, rel, tuple(args), n)


# --- well-formedness on the bundled corpus ---


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_normal_form_is_clean(name):
    nprog = normalize_program(corpus_program(name))
    assert check_normal(nprog) == []


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_size_bound(name):
    program = corpus_program(name)
    nprog = normalize_program(program)
    assert count_base_ops(nprog) <= 4 * count_source_goals(program)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_relation_names_preserved(name):
    program = corpus_program(name)
    nprog = normalize_program(program)
    # No nested disjunctions in the corpus, so no auxiliary relations.
    assert [r.name for r in nprog.relations] == [r.name for r in program.relations]


def test_addo_flat_shape():
    nprog = normalize_program(corpus_program("nat"))
    addo = nprog.relation("addo")
    x, y, z = addo.params
    c0, c1 = addo.clauses
    assert c0.locals == ()
    assert c0.ops == (
        FlatUnify(x, FlatCtor("O", ())),
        FlatUnify(y, FlatVar(z)),
    )
    x2, z2 = c1.locals
    assert c1.ops == (
        FlatUnify(x, FlatCtor("S", (x2,))),
        FlatUnify(z, FlatCtor("S", (z2,))),
        FlatCall("addo", (x2, y, z2)),
    )


def test_nested_constant_gets_a_local():
    nprog = normalize_program(corpus_program("sort"))
    inserto = nprog.relation("inserto")
    x, sorted_, out = inserto.params
    c0 = inserto.clauses[0]
    # out == Cons(x, Nil) splits the nested Nil into a fresh local.
    (local,) = c0.locals
    assert c0.ops == (
        FlatUnify(sorted_, FlatCtor("Nil", ())),
        FlatUnify(out, FlatCtor("Cons", (x, local))),
        FlatUnify(local, FlatCtor("Nil", ())),
    )


# --- auxiliary extraction for nested disjunction ---

NESTED = """
type Nat = O | S(Nat).
rel smallo(x: Nat) = fresh y . (y == O, (x == y | x == S(y))).
"""


def test_nested_disjunction_extracts_relation():
    program = parse_program(NESTED)
    nprog = normalize_program(program)
    assert check_normal(nprog) == []
    assert [r.name for r in nprog.relations] == ["smallo", "smallo$disj1"]

    main = nprog.relation("smallo")
    (x,) = main.params
    (clause,) = main.clauses
    (y,) = clause.locals
    assert clause.ops == (
        FlatUnify(y, FlatCtor("O", ())),
        FlatCall("smallo$disj1", (x, y)),
    )

    aux = nprog.relation("smallo$disj1")
    assert aux.params == (x, y)
    alt0, alt1 = aux.clauses
    assert alt0.ops == (FlatUnify(x, FlatVar(y)),)
    assert alt1.ops == (FlatUnify(x, FlatCtor("S", (y,))),)


def test_nested_disjunction_preserves_answers():
    program = parse_program(NESTED)
    flat = embed(normalize_program(program))
    got = answers(flat, "smallo", [qhole(0)])
    assert got == [(nat(0),), (nat(1),)]
    assert got == answers(program, "smallo", [qhole(0)])


def test_doubly_nested_disjunction():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        rel p(x: Nat, z: Nat) =
            z == O, (x == O | (x == S(O) | x == S(S(O))), z == z).
        """
    )
    nprog = normalize_program(program)
    assert check_normal(nprog) == []
    # The inner disjunction is extracted first, then the outer one.
    names = [r.name for r in nprog.relations]
    assert names == ["p", "p$disj1", "p$disj2"]
    inner = nprog.relation("p$disj1")
    outer = nprog.relation("p$disj2")
    assert len(inner.clauses) == 2
    assert len(outer.clauses) == 2
    assert any(
        isinstance(op, FlatCall) and op.rel == "p$disj1"
        for clause in outer.clauses
        for op in clause.ops
    )

    flat = embed(nprog)
    got = {t[0] for t in answers(flat, "p", [qhole(0), qhole(1)])}
    assert got == {nat(0), nat(1), nat(2)}
    assert got == {t[0] for t in answers(program, "p", [qhole(0), qhole(1)])}


# --- special unification shapes ---


def test_self_unification_and_constant_pair():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        rel t(x: Nat) = x == x, S(O) == S(O).
        """
    )
    nprog = normalize_program(program)
    assert check_normal(nprog) == []
    (clause,) = nprog.relation("t").clauses
    (x,) = nprog.relation("t").params
    assert clause.ops[0] == FlatUnify(x, FlatVar(x))
    # Constant against constant flattens both sides onto a shared local.
    shared = clause.ops[1].var
    assert clause.ops[1].term.ctor == "S"
    assert clause.ops[3].var == shared
    assert clause.ops[3].term.ctor == "S"

    flat = embed(nprog)
    assert answers(flat, "t", [qhole(0)], 3) == answers(program, "t", [qhole(0)], 3)


def test_failing_constant_pair_preserved():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        rel t(x: Nat) = x == O, S(O) == O.
        """
    )
    flat = embed(normalize_program(program))
    assert answers(program, "t", [qhole(0)]) == []
    assert answers(flat, "t", [qhole(0)]) == []


def test_repeated_call_argument_splits():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        rel addo(x: Nat, y: Nat, z: Nat) =
            x == O, y == z
          | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2)).
        rel doublo(x: Nat, z: Nat) = addo(x, x, z).
        """
    )
    nprog = normalize_program(program)
    assert check_normal(nprog) == []
    (clause,) = nprog.relation("doublo").clauses
    copy_op, call = clause.ops
    x, z = nprog.relation("doublo").params
    assert isinstance(call, FlatCall)
    assert len(set(call.args)) == 3
    assert copy_op == FlatUnify(call.args[1], FlatVar(x))
    assert call.args[0] == x and call.args[2] == z

    flat = embed(nprog)
    expect = [(nat(k), nat(2 * k)) for k in range(4)]
    assert answers(program, "doublo", [qhole(0), qhole(1)], 4) == expect
    assert answers(flat, "doublo", [qhole(0), qhole(1)], 4) == expect


def test_repeated_ctor_argument_splits():
    program = parse_program(
        """
        type Tree = Leaf | Node(Tree, Tree).
        rel mirror_pairo(t: Tree) = fresh l . t == Node(l, l).
        """
    )
    nprog = normalize_program(program)
    assert check_normal(nprog) == []
    (clause,) = nprog.relation("mirror_pairo").clauses
    first = clause.ops[0]
    assert isinstance(first.term, FlatCtor)
    a, b = first.term.args
    assert a != b
    assert FlatUnify(b, FlatVar(a)) in clause.ops

    flat = embed(nprog)
    got = answers(flat, "mirror_pairo", [qhole(0, "Tree")], 2)
    assert got == answers(program, "mirror_pairo", [qhole(0, "Tree")], 2)


def test_empty_conjunction_gets_trivial_op():
    schema = corpus_program("nat").schema
    x = VarId(500, "Nat", "x")
    program = Program(schema, (Relation("anyo", (x,), Conj(())),))
    nprog = normalize_program(program)
    assert check_normal(nprog) == []
    (clause,) = nprog.relation("anyo").clauses
    assert clause.ops == (FlatUnify(x, FlatVar(x)),)
    assert answers(embed(nprog), "anyo", [qhole(0)], 3) == [
        (nat(0),),
        (nat(1),),
        (nat(2),),
    ]


# --- answer preservation over the corpus ---


def test_preserves_addo_answers():
    program = corpus_program("nat")
    flat = embed(normalize_program(program))
    batteries = [
        ([qhole(0), qhole(1), nat(3)], None),
        ([nat(2), nat(3), qhole(0)], None),
        ([qhole(0), nat(2), nat(5)], None),
        ([qhole(0), qhole(1), qhole(2)], 15),
    ]
    for args, n in batteries:
        assert answers(program, "addo", args, n) == answers(flat, "addo", args, n)


def test_preserves_sort_answers():
    program = corpus_program("sort")
    flat = embed(normalize_program(program))
    three = qhole(0, "NatList")
    from conftest import natlist

    sorted3 = natlist([0, 1, 2])
    src = answers(program, "sorto", [three, sorted3])
    assert len(src) == 6
    assert src == answers(flat, "sorto", [three, sorted3])

    ins = [nat(2), qhole(1, "NatList"), qhole(2, "NatList")]
    assert answers(program, "inserto", ins, 8) == answers(flat, "inserto", ins, 8)


def test_preserves_typecheck_answers():
    program = corpus_program("typecheck")
    flat = embed(normalize_program(program))
    src = answers(program, "typo", [qhole(0, "Expr"), qhole(1, "Ty")], 12)
    assert src == answers(flat, "typo", [qhole(0, "Expr"), qhole(1, "Ty")], 12)


def test_preserves_balance_answers():
    program = corpus_program("balance")
    flat = embed(normalize_program(program))
    from kanrel.schema import Node

    tree = Node("Node", (Node("Leaf", ()), Node("Leaf", ())))
    src = answers(program, "balanceo", [tree, qhole(0, "Tree")], 1)
    assert src == answers(flat, "balanceo", [tree, qhole(0, "Tree")], 1)
    src = answers(program, "leaves", [qhole(0, "Tree"), nat(3)], 2)
    assert src == answers(flat, "leaves", [qhole(0, "Tree"), nat(3)], 2)


# --- idempotence ---


@pytest.mark.parametrize("name", CORPUS + ("nested",))
def test_normalize_is_idempotent(name):
    if name == "nested":
        program = parse_program(NESTED)
    else:
        program = corpus_program(name)
    once = normalize_program(program)
    again = normalize_program(embed(once))
    assert again == once


# --- violation reporting ---


def _nat_schema():
    return corpus_program("nat").schema


def test_check_normal_reports_repeated_args():
    schema = _nat_schema()
    t = VarId(0, "Tree", "t")
    # A Tree variable over a Nat-only schema: unknown constructor territory.
    x = VarId(1, "Nat", "x")
    rel = NormalRelation(
        "bad",
        (x,),
        (FlatClause((), (FlatUnify(x, FlatCtor("Pair", (x, x))),)),),
    )
    problems = check_normal(NormalProgram(schema, (rel,)))
    assert any("unknown constructor" in p for p in problems)
    del t


def test_check_normal_reports_undeclared_and_arity():
    schema = _nat_schema()
    x = VarId(1, "Nat", "x")
    ghost = VarId(2, "Nat", "ghost")
    rel = NormalRelation(
        "bad",
        (x,),
        (
            FlatClause(
                (),
                (
                    FlatUnify(x, FlatVar(ghost)),
                    FlatUnify(x, FlatCtor("S", ())),
                    FlatCall("missing", (x,)),
                ),
            ),
        ),
    )
    problems = check_normal(NormalProgram(schema, (rel,)))
    assert any("not declared" in p for p in problems)
    assert any("bad arity" in p for p in problems)
    assert any("unknown relation" in p for p in problems)


def test_check_normal_reports_call_shape():
    schema = _nat_schema()
    x = VarId(1, "Nat", "x")
    y = VarId(2, "Nat", "y")
    rel = NormalRelation(
        "p",
        (x, y),
        (FlatClause((), (FlatCall("p", (x, x)),)),),
    )
    problems = check_normal(NormalProgram(schema, (rel,)))
    assert any("repeated argument" in p for p in problems)

    rel2 = NormalRelation("p", (x,), (FlatClause((), (FlatCall("p", (x, y)),)),))
    problems = check_normal(NormalProgram(schema, (rel2,)))
    assert any("bad arity" in p or "not declared" in p for p in problems)


def test_check_normal_accepts_good_program():
    assert check_normal(normalize_program(corpus_program("sort"))) == []
