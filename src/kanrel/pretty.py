"""Surface-syntax rendering for terms, goals, relations, and whole programs.

The printer emits text the parser reads back; parenthesization preserves the
goal tree exactly, so parse(format(x)) reproduces x up to variable numbering.
"""

from __future__ import annotations

from typing import Mapping

from .goals import (
    Call,
    Conj,
    Disj,
    Fresh,
    Goal,
    GoalInterpreter,
    Program,
    Relation,
    Unify,
    fold_goal,
)
from .schema import Hole, Term, TypeDecl, VarId, holes


def display_names(vars: tuple[VarId, ...]) -> dict[VarId, str]:
    """Stable, collision-free display names for a scope's variables."""
    tally: dict[str, int] = {}
    for v in vars:
        if v.name is not None:
            tally[v.name] = tally.get(v.name, 0) + 1
    out: dict[VarId, str] = {}
    for v in vars:
        if v.name is None:
            out[v] = f"v{v.id}"
        elif tally[v.name] > 1:
            out[v] = f"{v.name}_{v.id}"
        else:
            out[v] = v.name
    return out


def format_term(term: Term, names: Mapping[VarId, str] | None = None) -> str:
    """Surface syntax of a term.  Iterative, so any depth prints."""
    out: list[str] = []
    # Terms still to print, and the literal text between them.
    pending: list[Term | str] = [term]
    while pending:
        t = pending.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Hole):
            if names is not None and t.var in names:
                out.append(names[t.var])
            else:
                out.append(t.var.name if t.var.name is not None else f"v{t.var.id}")
        elif not t.args:
            out.append(t.ctor)
        else:
            out.append(f"{t.ctor}(")
            pending.append(")")
            for i in range(len(t.args) - 1, -1, -1):
                pending.append(t.args[i])
                if i:
                    pending.append(", ")
    return "".join(out)


class Pretty(GoalInterpreter[str]):
    """Renders a goal to one line of surface syntax."""

    def __init__(self, names: Mapping[VarId, str] | None = None) -> None:
        self.names = names

    def on_unify(self, goal: Unify) -> str:
        return f"{format_term(goal.lhs, self.names)} == {format_term(goal.rhs, self.names)}"

    def on_conj(self, goal: Conj, parts: tuple[str, ...]) -> str:
        rendered = [
            f"({p})" if isinstance(g, (Conj, Disj)) else p
            for g, p in zip(goal.goals, parts)
        ]
        return ", ".join(rendered)

    def on_disj(self, goal: Disj, parts: tuple[str, ...]) -> str:
        rendered = [
            f"({p})" if isinstance(g, Disj) else p
            for g, p in zip(goal.goals, parts)
        ]
        return " | ".join(rendered)

    def on_call(self, goal: Call) -> str:
        args = ", ".join(format_term(a, self.names) for a in goal.args)
        return f"{goal.rel}({args})"

    def on_fresh(self, goal: Fresh, body: str) -> str:
        bound = ", ".join(
            self.names[v] if self.names and v in self.names else (v.name or f"v{v.id}")
            for v in goal.vars
        )
        if isinstance(goal.body, (Unify, Call)):
            return f"fresh {bound} . {body}"
        return f"fresh {bound} . ({body})"


def relation_vars(rel: Relation) -> tuple[VarId, ...]:
    """Parameters, then body variables in first-occurrence order."""
    seen: dict[VarId, None] = {v: None for v in rel.params}

    def go(goal: Goal) -> None:
        if isinstance(goal, Unify):
            for v in holes(goal.lhs) + holes(goal.rhs):
                seen.setdefault(v)
        elif isinstance(goal, (Conj, Disj)):
            for g in goal.goals:
                go(g)
        elif isinstance(goal, Call):
            for a in goal.args:
                for v in holes(a):
                    seen.setdefault(v)
        else:
            for v in goal.vars:
                seen.setdefault(v)
            go(goal.body)

    go(rel.body)
    return tuple(seen)


def format_goal(goal: Goal, names: Mapping[VarId, str] | None = None) -> str:
    return fold_goal(Pretty(names), goal)


def format_relation(rel: Relation) -> str:
    names = display_names(relation_vars(rel))
    params = ", ".join(f"{names[p]}: {p.type}" for p in rel.params)
    head = f"rel {rel.name}({params}) ="
    printer = Pretty(names)
    if isinstance(rel.body, Disj) and len(rel.body.goals) > 1:
        clauses = []
        for g in rel.body.goals:
            line = fold_goal(printer, g)
            clauses.append(f"({line})" if isinstance(g, Disj) else line)
        joined = "\n  | ".join(clauses)
        return f"{head}\n    {joined}."
    return f"{head} {fold_goal(printer, rel.body)}."


def format_type_decl(decl: TypeDecl) -> str:
    alts = []
    for ctor in decl.ctors:
        if ctor.arg_types:
            alts.append(f"{ctor.name}({', '.join(ctor.arg_types)})")
        else:
            alts.append(ctor.name)
    return f"type {decl.name} = {' | '.join(alts)}."


def format_program(program: Program) -> str:
    chunks = [format_type_decl(d) for d in program.schema.types]
    chunks.extend(format_relation(r) for r in program.relations)
    return "\n\n".join(chunks) + "\n"
