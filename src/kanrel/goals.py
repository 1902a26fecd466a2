"""Goal algebra for typed relations: AST, well-formedness, interpreter hook.

A program is a term schema plus named relations; a relation body is a goal
built from unification, conjunction, disjunction, relation calls, and fresh
variable introduction.  Every traversal (evaluation, normalization, pretty
printing) is a GoalInterpreter driven by fold_goal, so the dispatch lives in
one place.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Generic, Iterator, Mapping, Sequence, TypeVar

from .schema import (
    DuplicateName,
    Hole,
    Node,
    Term,
    TermSchema,
    VarId,
    VarSupply,
    holes,
)


class GoalError(Exception):
    """A goal or program is ill-formed."""


class ArityMismatch(GoalError):
    """A constructor or relation was applied to the wrong number of arguments."""


class TypeMismatch(GoalError):
    """Two sides of a unification or an argument slot disagree on type."""


class UnknownRelation(GoalError):
    """A call names a relation the program does not define."""


class UnboundVariable(GoalError):
    """A relation body mentions a variable that is neither a parameter nor fresh."""


@dataclass(frozen=True)
class Unify:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Conj:
    goals: tuple[Goal, ...]


@dataclass(frozen=True)
class Disj:
    goals: tuple[Goal, ...]


@dataclass(frozen=True)
class Call:
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Fresh:
    vars: tuple[VarId, ...]
    body: Goal


Goal = Unify | Conj | Disj | Call | Fresh


@dataclass(frozen=True)
class Relation:
    """A named relation: typed parameters and a goal body."""

    name: str
    params: tuple[VarId, ...]
    body: Goal


@dataclass(frozen=True)
class Program:
    schema: TermSchema
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        by_name: dict[str, Relation] = {}
        for rel in self.relations:
            if rel.name in by_name:
                raise DuplicateName(f"relation {rel.name} is declared twice")
            by_name[rel.name] = rel
        object.__setattr__(self, "_by_name", by_name)

    def relation(self, name: str) -> Relation:
        rel = self._by_name.get(name)  # type: ignore[attr-defined]
        if rel is None:
            raise UnknownRelation(f"no relation named {name}")
        return rel

    def has_relation(self, name: str) -> bool:
        return name in self._by_name  # type: ignore[attr-defined]


def check_term(schema: TermSchema, term: Term) -> str:
    """Infer a term's type, checking constructor arities and argument types."""
    if isinstance(term, Hole):
        if term.var.type not in schema.types_by_name:
            raise TypeMismatch(f"{term.var!r} ranges over undeclared type {term.var.type}")
        return term.var.type
    ctor, owner = schema.ctor(term.ctor)
    if len(term.args) != len(ctor.arg_types):
        raise ArityMismatch(
            f"constructor {term.ctor} takes {len(ctor.arg_types)} arguments,"
            f" got {len(term.args)}"
        )
    for arg, want in zip(term.args, ctor.arg_types):
        got = check_term(schema, arg)
        if got != want:
            raise TypeMismatch(
                f"argument of {term.ctor} has type {got}, expected {want}"
            )
    return owner


def goal_terms(goal: Goal) -> Iterator[Term]:
    """Every term appearing in a goal, in syntactic order."""
    if isinstance(goal, Unify):
        yield goal.lhs
        yield goal.rhs
    elif isinstance(goal, (Conj, Disj)):
        for g in goal.goals:
            yield from goal_terms(g)
    elif isinstance(goal, Call):
        yield from goal.args
    else:
        yield from goal_terms(goal.body)


def free_vars(goal: Goal) -> tuple[VarId, ...]:
    """Variables used but not bound by any enclosing fresh, first occurrence."""
    seen: dict[VarId, None] = {}

    def go(g: Goal, bound: frozenset[VarId]) -> None:
        if isinstance(g, Unify):
            for v in holes(g.lhs) + holes(g.rhs):
                if v not in bound:
                    seen.setdefault(v)
        elif isinstance(g, (Conj, Disj)):
            for part in g.goals:
                go(part, bound)
        elif isinstance(g, Call):
            for arg in g.args:
                for v in holes(arg):
                    if v not in bound:
                        seen.setdefault(v)
        else:
            go(g.body, bound | frozenset(g.vars))

    go(goal, frozenset())
    return tuple(seen)


def check_program(program: Program) -> None:
    """Raise the first well-formedness violation found, if any."""
    schema = program.schema
    for rel in program.relations:
        if len(set(rel.params)) != len(rel.params):
            raise DuplicateName(f"relation {rel.name} repeats a parameter")
        for p in rel.params:
            if p.type not in schema.types_by_name:
                raise TypeMismatch(
                    f"parameter {p!r} of {rel.name} has undeclared type {p.type}"
                )
        _check_goal(program, rel.body, frozenset(rel.params), rel.name)
        stray = [v for v in free_vars(rel.body) if v not in set(rel.params)]
        if stray:
            raise UnboundVariable(
                f"relation {rel.name} uses {stray[0]!r} without declaring it"
            )


def _check_goal(
    program: Program, goal: Goal, scope: frozenset[VarId], where: str
) -> None:
    schema = program.schema
    if isinstance(goal, Unify):
        lt = check_term(schema, goal.lhs)
        rt = check_term(schema, goal.rhs)
        if lt != rt:
            raise TypeMismatch(f"in {where}: cannot unify {lt} with {rt}")
    elif isinstance(goal, (Conj, Disj)):
        for part in goal.goals:
            _check_goal(program, part, scope, where)
    elif isinstance(goal, Call):
        if not program.has_relation(goal.rel):
            raise UnknownRelation(f"in {where}: no relation named {goal.rel}")
        callee = program.relation(goal.rel)
        if len(goal.args) != len(callee.params):
            raise ArityMismatch(
                f"in {where}: {goal.rel} takes {len(callee.params)} arguments,"
                f" got {len(goal.args)}"
            )
        for arg, param in zip(goal.args, callee.params):
            got = check_term(schema, arg)
            if got != param.type:
                raise TypeMismatch(
                    f"in {where}: argument for {param!r} of {goal.rel}"
                    f" has type {got}, expected {param.type}"
                )
    else:
        if len(set(goal.vars)) != len(goal.vars):
            raise DuplicateName(f"in {where}: fresh repeats a variable")
        clash = set(goal.vars) & scope
        if clash:
            raise DuplicateName(
                f"in {where}: fresh shadows {next(iter(clash))!r}"
            )
        for v in goal.vars:
            if v.type not in schema.types_by_name:
                raise TypeMismatch(
                    f"in {where}: fresh {v!r} has undeclared type {v.type}"
                )
        _check_goal(program, goal.body, scope | frozenset(goal.vars), where)


R = TypeVar("R")


class GoalInterpreter(ABC, Generic[R]):
    """One handler per goal form; fold_goal supplies child results bottom-up."""

    @abstractmethod
    def on_unify(self, goal: Unify) -> R: ...

    @abstractmethod
    def on_conj(self, goal: Conj, parts: tuple[R, ...]) -> R: ...

    @abstractmethod
    def on_disj(self, goal: Disj, parts: tuple[R, ...]) -> R: ...

    @abstractmethod
    def on_call(self, goal: Call) -> R: ...

    @abstractmethod
    def on_fresh(self, goal: Fresh, body: R) -> R: ...


def fold_goal(interp: GoalInterpreter[R], goal: Goal) -> R:
    if isinstance(goal, Unify):
        return interp.on_unify(goal)
    if isinstance(goal, Conj):
        return interp.on_conj(goal, tuple(fold_goal(interp, g) for g in goal.goals))
    if isinstance(goal, Disj):
        return interp.on_disj(goal, tuple(fold_goal(interp, g) for g in goal.goals))
    if isinstance(goal, Call):
        return interp.on_call(goal)
    return interp.on_fresh(goal, fold_goal(interp, goal.body))


class GoalBuilder:
    """Checked construction of goals against a schema and relation signatures.

    Signature map: relation name -> parameter types.  Errors surface at build
    time rather than at first use of the malformed goal.
    """

    def __init__(
        self,
        schema: TermSchema,
        signatures: Mapping[str, Sequence[str]] | None = None,
        supply: VarSupply | None = None,
    ) -> None:
        self.schema = schema
        self.signatures = {k: tuple(v) for k, v in (signatures or {}).items()}
        self.supply = supply if supply is not None else VarSupply()

    def var(self, type_name: str, name: str | None = None) -> Hole:
        if type_name not in self.schema.types_by_name:
            raise TypeMismatch(f"no type named {type_name}")
        return Hole(self.supply.fresh(type_name, name))

    def unify(self, lhs: Term, rhs: Term) -> Unify:
        lt = check_term(self.schema, lhs)
        rt = check_term(self.schema, rhs)
        if lt != rt:
            raise TypeMismatch(f"cannot unify {lt} with {rt}")
        return Unify(lhs, rhs)

    def call(self, rel: str, *args: Term) -> Call:
        sig = self.signatures.get(rel)
        if sig is None:
            raise UnknownRelation(f"no relation named {rel}")
        if len(args) != len(sig):
            raise ArityMismatch(
                f"{rel} takes {len(sig)} arguments, got {len(args)}"
            )
        for arg, want in zip(args, sig):
            got = check_term(self.schema, arg)
            if got != want:
                raise TypeMismatch(
                    f"argument of {rel} has type {got}, expected {want}"
                )
        return Call(rel, tuple(args))

    def conj(self, *goals: Goal) -> Goal:
        return goals[0] if len(goals) == 1 else Conj(tuple(goals))

    def disj(self, *goals: Goal) -> Goal:
        return goals[0] if len(goals) == 1 else Disj(tuple(goals))

    def fresh(self, vars: Sequence[Hole | VarId], body: Goal) -> Fresh:
        ids = tuple(v.var if isinstance(v, Hole) else v for v in vars)
        return Fresh(ids, body)

    def ctor(self, name: str, *args: Term) -> Node:
        decl, _ = self.schema.ctor(name)
        if len(args) != len(decl.arg_types):
            raise ArityMismatch(
                f"constructor {name} takes {len(decl.arg_types)} arguments,"
                f" got {len(args)}"
            )
        return Node(name, tuple(args))
