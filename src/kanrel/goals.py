"""Goal algebra for typed relations: AST, term typing, interpreter hook.

A program is a term schema plus named relations; a relation body is a goal
built from unification, conjunction, disjunction, relation calls, and fresh
variable introduction.  Programs are checked once, when the parser
elaborates them; ``check_term`` types the terms of a query.  Evaluation,
normalization and goal printing are GoalInterpreters driven by fold_goal;
traversals that collect variables or rebuild goals dispatch on the goal
forms themselves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Generic, TypeVar

from .schema import DuplicateName, Hole, Term, TermSchema, VarId


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
