"""Shared builders and oracles for the test suite.

The oracles here are deliberately independent of the package internals: the
brute-force enumerator works off plain dicts, and the arithmetic/sorting
oracles use native Python ints and lists.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from kanrel.convert import DirectedEngine
from kanrel.goals import Call, Conj, Disj, Fresh, Program, Relation, Unify
from kanrel.modes import ModeTable, analyze
from kanrel.normal import normalize_program
from kanrel.parser import load_corpus
from kanrel.schema import (
    CtorDecl,
    Hole,
    Node,
    Term,
    TermSchema,
    TypeDecl,
    VarId,
    VarSupply,
)


@lru_cache(maxsize=None)
def corpus_program(name: str) -> Program:
    """Parse a bundled corpus file once per test session."""
    return load_corpus(name)


@lru_cache(maxsize=None)
def directed_engine(name: str, requests: tuple[tuple[str, str], ...]):
    """One directed engine per corpus program and request set."""
    nprog = normalize_program(corpus_program(name))
    return DirectedEngine(analyze(nprog, list(requests)))


@lru_cache(maxsize=None)
def schedulable_corpus_tables() -> tuple[tuple[tuple[str, str, str], ModeTable], ...]:
    """Each (corpus, relation, direction) that schedules, with its table."""
    out = []
    for name in ("nat", "sort", "balance", "typecheck"):
        nprog = normalize_program(corpus_program(name))
        for rel in nprog.relations:
            for chars in itertools.product("io", repeat=len(rel.params)):
                d = "".join(chars)
                out.append(((name, rel.name, d), analyze(nprog, [(rel.name, d)])))
    return tuple(out)


Decls = dict[str, list[tuple[str, list[str]]]]

NAT_DECLS: Decls = {"Nat": [("O", []), ("S", ["Nat"])]}

LIST_DECLS: Decls = {
    **NAT_DECLS,
    "NatList": [("Nil", []), ("Cons", ["Nat", "NatList"])],
}

TREE_DECLS: Decls = {
    **NAT_DECLS,
    "Tree": [("Leaf", []), ("Node", ["Tree", "Tree"])],
}

EXPR_DECLS: Decls = {
    **NAT_DECLS,
    "Ty": [("TInt", []), ("TBool", [])],
    "Boolean": [("True", []), ("False", [])],
    "Expr": [
        ("Lit", ["Nat"]),
        ("BLit", ["Boolean"]),
        ("Plus", ["Expr", "Expr"]),
        ("If", ["Expr", "Expr", "Expr"]),
    ],
}


def schema_from(decls: Decls) -> TermSchema:
    return TermSchema(
        tuple(
            TypeDecl(t, tuple(CtorDecl(c, tuple(args)) for c, args in ctors))
            for t, ctors in decls.items()
        )
    )


def nat(n: int) -> Node:
    out = Node("O")
    for _ in range(n):
        out = Node("S", (out,))
    return out


def unnat(term: Node) -> int:
    n = 0
    while term.ctor == "S":
        n += 1
        term = term.args[0]
    assert term.ctor == "O"
    return n


def natlist(xs: list[int]) -> Node:
    out = Node("Nil")
    for x in reversed(xs):
        out = Node("Cons", (nat(x), out))
    return out


def unnatlist(term: Node) -> list[int]:
    out: list[int] = []
    while term.ctor == "Cons":
        out.append(unnat(term.args[0]))
        term = term.args[1]
    assert term.ctor == "Nil"
    return out


def addo_program() -> Program:
    """x + y = z over unary naturals, built without the parser."""
    supply = VarSupply()
    names = ("x", "y", "z", "x2", "z2")
    x, y, z, x2, z2 = (Hole(supply.fresh("Nat", n)) for n in names)
    # z peels before the recursive call so that a ground third argument
    # bounds the recursion depth even when x is unknown.
    body = Disj(
        (
            Conj((Unify(x, Node("O")), Unify(y, z))),
            Fresh(
                (x2.var, z2.var),
                Conj(
                    (
                        Unify(x, Node("S", (x2,))),
                        Unify(z, Node("S", (z2,))),
                        Call("addo", (x2, y, z2)),
                    )
                ),
            ),
        )
    )
    return Program(
        schema_from(NAT_DECLS), (Relation("addo", (x.var, y.var, z.var), body),)
    )


def loop_program() -> Program:
    """A relation with one diverging disjunct and one immediate answer."""
    supply = VarSupply()
    lx, vx = Hole(supply.fresh("Nat", "x")), Hole(supply.fresh("Nat", "x"))
    return Program(
        schema_from(NAT_DECLS),
        (
            Relation("loopo", (lx.var,), Call("loopo", (lx,))),
            Relation(
                "valo",
                (vx.var,),
                Disj((Call("loopo", (vx,)), Unify(vx, Node("O")))),
            ),
        ),
    )


def deref_oracle(term: Term, subst: dict[VarId, Term]) -> Term:
    """Iterative re-implementation of substitution resolution (oracle only).

    Walks with an explicit worklist instead of recursion; assumes the
    substitution is acyclic.
    """
    if isinstance(term, Hole):
        seen = 0
        while isinstance(term, Hole) and term.var in subst:
            term = subst[term.var]
            seen += 1
            assert seen <= len(subst) + 1, "oracle given a cyclic substitution"
    if isinstance(term, Hole):
        return term
    return Node(term.ctor, tuple(deref_oracle(a, subst) for a in term.args))


def brute_values(decls: Decls, type_name: str, max_nodes: int) -> set[str]:
    """Every ground term of the type with at most max_nodes nodes, rendered.

    Plain dict-driven recursion, written without reference to TermSchema so
    it can serve as the completeness oracle for the generator.
    """
    memo: dict[tuple[str, int], list[str]] = {}

    def exactly(t: str, n: int) -> list[str]:
        key = (t, n)
        if key in memo:
            return memo[key]
        found: list[str] = []
        for ctor, args in decls[t]:
            if not args:
                if n == 1:
                    found.append(ctor)
                continue

            def fill(i: int, budget: int, acc: list[str]) -> None:
                if i == len(args):
                    if budget == 0:
                        found.append(f"{ctor}({', '.join(acc)})")
                    return
                for take in range(1, budget + 1):
                    for rendered in exactly(args[i], take):
                        fill(i + 1, budget - take, acc + [rendered])

            fill(0, n - 1, [])
        memo[key] = found
        return found

    out: set[str] = set()
    for n in range(1, max_nodes + 1):
        out.update(exactly(type_name, n))
    return out
