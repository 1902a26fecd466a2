"""Reference engine: interleaving search over goals, answers via streams.

Goals compile (per relation, cached) to closures from an environment and a
search state to a stream of states.  The environment maps source variables
to runtime terms; parameters are bound by substitution at call time and
fresh variables draw new runtime holes from the state's counter, so every
invocation of a relation works on its own variables.

Each relation call contributes exactly one delay to its answer stream.
Combined with the swap-on-delay merge this makes the search complete: an
answer at finite depth in any branch appears after finitely many pulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Mapping

from .goals import (
    ArityMismatch,
    Call,
    Conj,
    Disj,
    Fresh,
    Goal,
    GoalInterpreter,
    Program,
    Relation,
    TypeMismatch,
    Unify,
    check_term,
    fold_goal,
)
from .schema import (
    Hole,
    Node,
    Term,
    TermSchema,
    VarId,
    deref,
    holes,
    is_ground,
    rebuild,
)
from .streams import Stream, bind, from_iterator, mplus_all, stream_iter, unit


@dataclass(frozen=True)
class State:
    """An immutable search state: bindings plus the next runtime variable id."""

    subst: Mapping[VarId, Term]
    counter: int


def walk(term: Term, subst: Mapping[VarId, Term]) -> Term:
    while isinstance(term, Hole):
        bound = subst.get(term.var)
        if bound is None:
            return term
        term = bound
    return term


def occurs(var: VarId, term: Term, subst: Mapping[VarId, Term]) -> bool:
    """True when var appears in term once the bindings of subst are followed.

    Iterative.  A walked node that ``is_ground`` finds hole-free cannot hold
    var under any substitution, so it is skipped.  ``is_ground`` marks it,
    and every hole-free node below it, the first time, so later checks skip
    it in O(1): binding a variable to the rest of a ground input costs O(1),
    not a rescan of the input.
    """
    pending = [term]
    while pending:
        t = walk(pending.pop(), subst)
        if isinstance(t, Hole):
            if t.var == var:
                return True
        elif not is_ground(t):
            # is_ground has marked every hole-free node below t, so an
            # unmarked node below it holds a hole: descend without asking
            # again, which keeps a deep chain of holed nodes linear.
            open_nodes = [t]
            while open_nodes:
                for a in open_nodes.pop().args:
                    if isinstance(a, Hole):
                        pending.append(a)
                    elif a.args and not a._ground:
                        open_nodes.append(a)
    return False


def _shallow_type(term: Term, schema: TermSchema) -> str:
    if isinstance(term, Hole):
        return term.var.type
    return schema.ctor(term.ctor)[1]


def unify(
    lhs: Term, rhs: Term, subst: Mapping[VarId, Term], schema: TermSchema
) -> Mapping[VarId, Term] | None:
    """Extend subst to make the terms equal, or None if they cannot be.

    Binding a hole to a term of a different type raises TypeMismatch: the
    static checks make that unreachable for checked programs, so hitting it
    means the caller built goals by hand and got them wrong.  The occurs
    check makes cyclic solutions plain failures.
    """
    l = walk(lhs, subst)
    r = walk(rhs, subst)
    if isinstance(l, Hole) and isinstance(r, Hole) and l.var == r.var:
        return subst
    if isinstance(l, Hole):
        return _bind_hole(l.var, r, subst, schema)
    if isinstance(r, Hole):
        return _bind_hole(r.var, l, subst, schema)
    if _shallow_type(l, schema) != _shallow_type(r, schema):
        raise TypeMismatch(
            f"cannot unify {_shallow_type(l, schema)} with {_shallow_type(r, schema)}"
        )
    if l.ctor != r.ctor or len(l.args) != len(r.args):
        return None
    out: Mapping[VarId, Term] | None = subst
    for a, b in zip(l.args, r.args):
        out = unify(a, b, out, schema)
        if out is None:
            return None
    return out


def _bind_hole(
    var: VarId, term: Term, subst: Mapping[VarId, Term], schema: TermSchema
) -> Mapping[VarId, Term] | None:
    if _shallow_type(term, schema) != var.type:
        raise TypeMismatch(
            f"cannot bind {var!r} : {var.type} to a {_shallow_type(term, schema)}"
        )
    if isinstance(term, Node) and occurs(var, term, subst):
        return None
    out = dict(subst)
    out[var] = term
    return out


Env = Mapping[VarId, Term]
GoalClosure = Callable[[Env, State], Stream]


class RefEval(GoalInterpreter[GoalClosure]):
    """Compiles goals to stream-producing closures; one instance per program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._bodies: dict[str, GoalClosure] = {}

    def compile(self, goal: Goal) -> GoalClosure:
        return fold_goal(self, goal)

    def body_closure(self, rel_name: str) -> GoalClosure:
        cached = self._bodies.get(rel_name)
        if cached is None:
            cached = self.compile(self.program.relation(rel_name).body)
            self._bodies[rel_name] = cached
        return cached

    def invoke(self, rel_name: str, args: tuple[Term, ...], st: State) -> Stream:
        relation = self.program.relation(rel_name)
        env = dict(zip(relation.params, args))
        return self.body_closure(rel_name)(env, st)

    def on_unify(self, goal: Unify) -> GoalClosure:
        def run(env: Env, st: State) -> Stream:
            subst = unify(
                rebuild(goal.lhs, env), rebuild(goal.rhs, env), st.subst, self.program.schema
            )
            if subst is None:
                return None
            return unit(State(subst, st.counter))

        return run

    def on_conj(self, goal: Conj, parts: tuple[GoalClosure, ...]) -> GoalClosure:
        def run(env: Env, st: State) -> Stream:
            out: Stream = unit(st)
            for part in parts:
                out = bind(out, lambda s, part=part: part(env, s))
            return out

        return run

    def on_disj(self, goal: Disj, parts: tuple[GoalClosure, ...]) -> GoalClosure:
        def run(env: Env, st: State) -> Stream:
            return mplus_all([part(env, st) for part in parts])

        return run

    def on_call(self, goal: Call) -> GoalClosure:
        def run(env: Env, st: State) -> Stream:
            args = tuple(rebuild(a, env) for a in goal.args)
            return lambda: self.invoke(goal.rel, args, st)

        return run

    def on_fresh(self, goal: Fresh, body: GoalClosure) -> GoalClosure:
        def run(env: Env, st: State) -> Stream:
            bumped = {**env}
            counter = st.counter
            for v in goal.vars:
                bumped[v] = Hole(VarId(counter, v.type, v.name))
                counter += 1
            return body(bumped, State(st.subst, counter))

        return run


def ground_answers(
    answer: tuple[Term, ...], schema: TermSchema
) -> Stream:
    """Enumerate all ground instances of an answer tuple, fairly.

    Holes are filled in first-occurrence order; each hole's candidates come
    from the schema generator with a delay per candidate, and bind dovetails
    across holes.  This is the reference grounding; the directed engine's
    grounding is a plug-compiled version of the same enumeration and must
    stay order-identical to it.
    """
    residual: tuple[VarId, ...] = ()
    seen: dict[VarId, None] = {}
    for term in answer:
        for v in holes(term):
            seen.setdefault(v)
    residual = tuple(seen)
    if not residual:
        return unit(answer)
    first = residual[0]
    candidates = from_iterator(schema.generate(first.type))

    def fill(value: Node) -> Stream:
        filled = tuple(rebuild(t, {first: value}) for t in answer)
        return ground_answers(filled, schema)

    return bind(candidates, fill)


def query_args(relation: Relation, direction: str, ins) -> tuple[Term, ...]:
    """Ground ins at the direction's 'i' positions, typed holes at its 'o's."""
    supply = iter(ins)
    return tuple(
        next(supply) if m == "i" else Hole(VarId(900 + pos, p.type))
        for pos, (p, m) in enumerate(zip(relation.params, direction))
    )


def query_stream(
    program: Program,
    rel_name: str,
    args: tuple[Term, ...],
) -> Stream:
    """Stream of answer tuples (the query arguments, instantiated and ground).

    Holes in the arguments are query variables.  Answers that leave a hole
    unconstrained are grounded by enumeration.
    """
    relation = program.relation(rel_name)
    if len(args) != len(relation.params):
        raise ArityMismatch(
            f"{rel_name} takes {len(relation.params)} arguments, got {len(args)}"
        )
    for arg, param in zip(args, relation.params):
        got = check_term(program.schema, arg)
        if got != param.type:
            raise TypeMismatch(
                f"argument for {param!r} of {rel_name} has type {got},"
                f" expected {param.type}"
            )
    query_vars: list[int] = [v.id for a in args for v in holes(a)]
    st0 = State({}, max(query_vars, default=-1) + 1)
    ev = RefEval(program)
    states: Stream = lambda: ev.invoke(rel_name, args, st0)

    def emit(st: State) -> Stream:
        answer = tuple(deref(a, st.subst) for a in args)
        return ground_answers(answer, program.schema)

    return bind(states, emit)


def run(
    program: Program,
    rel_name: str,
    args: tuple[Term, ...],
    n: int | None = None,
) -> list[tuple[Term, ...]]:
    """First n answers (all answers when n is None; diverges if infinite)."""
    answers = stream_iter(query_stream(program, rel_name, args))
    if n is None:
        return list(answers)
    return list(islice(answers, n))


def answer_iter(
    program: Program,
    rel_name: str,
    args: tuple[Term, ...],
) -> Iterator[tuple[Term, ...]]:
    return stream_iter(query_stream(program, rel_name, args))
