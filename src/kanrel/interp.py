"""Reference engine: interleaving search over goals, answers via streams.

Goals compile (per relation, cached) to closures from an environment and a
substitution to a stream of substitutions.  The environment maps source
variables to runtime terms; parameters are bound by substitution at call
time and fresh variables draw new runtime holes from the query's one id
supply, so every invocation of a relation works on its own variables.

Each relation call contributes exactly one delay to its answer stream.
Combined with the swap-on-delay merge this makes the search complete: an
answer at finite depth in any branch appears after finitely many pulls.
"""

from __future__ import annotations

from itertools import count
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
    check_args,
    check_input_count,
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
from .streams import (
    Stream,
    bind,
    from_iterator,
    mplus_all,
    share,
    smap,
    stream_iter,
    take,
    unit,
)


Subst = Mapping[VarId, Term]


def walk(term: Term, subst: Subst) -> Term:
    while isinstance(term, Hole):
        bound = subst.get(term.var)
        if bound is None:
            return term
        term = bound
    return term


def occurs(var: VarId, term: Term, subst: Subst) -> bool:
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


def unify(lhs: Term, rhs: Term, subst: Subst, schema: TermSchema) -> Subst | None:
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
    out: Subst | None = subst
    for a, b in zip(l.args, r.args):
        out = unify(a, b, out, schema)
        if out is None:
            return None
    return out


def _bind_hole(var: VarId, term: Term, subst: Subst, schema: TermSchema) -> Subst | None:
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
GoalClosure = Callable[[Env, Subst], Stream]


class RefEval(GoalInterpreter[GoalClosure]):
    """Compiles goals to stream-producing closures; one instance per query.

    Fresh variables take their ids from one supply that starts at
    ``first_id``, so ids are distinct within the query and never collide
    with its query variables when ``first_id`` is above their ids.
    """

    def __init__(self, program: Program, first_id: int) -> None:
        self.program = program
        self._ids = count(first_id)
        self._bodies: dict[str, GoalClosure] = {}

    def compile(self, goal: Goal) -> GoalClosure:
        return fold_goal(self, goal)

    def body_closure(self, rel_name: str) -> GoalClosure:
        cached = self._bodies.get(rel_name)
        if cached is None:
            cached = self.compile(self.program.relation(rel_name).body)
            self._bodies[rel_name] = cached
        return cached

    def invoke(self, rel_name: str, args: tuple[Term, ...], subst: Subst) -> Stream:
        relation = self.program.relation(rel_name)
        env = dict(zip(relation.params, args))
        return self.body_closure(rel_name)(env, subst)

    def on_unify(self, goal: Unify) -> GoalClosure:
        def run(env: Env, subst: Subst) -> Stream:
            out = unify(
                rebuild(goal.lhs, env), rebuild(goal.rhs, env), subst, self.program.schema
            )
            return None if out is None else unit(out)

        return run

    def on_conj(self, goal: Conj, parts: tuple[GoalClosure, ...]) -> GoalClosure:
        def run(env: Env, subst: Subst) -> Stream:
            out: Stream = unit(subst)
            for part in parts:
                out = bind(out, lambda s, part=part: part(env, s))
            return out

        return run

    def on_disj(self, goal: Disj, parts: tuple[GoalClosure, ...]) -> GoalClosure:
        def run(env: Env, subst: Subst) -> Stream:
            return mplus_all([part(env, subst) for part in parts])

        return run

    def on_call(self, goal: Call) -> GoalClosure:
        def run(env: Env, subst: Subst) -> Stream:
            args = tuple(rebuild(a, env) for a in goal.args)
            return lambda: self.invoke(goal.rel, args, subst)

        return run

    def on_fresh(self, goal: Fresh, body: GoalClosure) -> GoalClosure:
        ids = self._ids

        def run(env: Env, subst: Subst) -> Stream:
            bumped = {**env}
            for v in goal.vars:
                bumped[v] = Hole(VarId(next(ids), v.type, v.name))
            return body(bumped, subst)

        return run


def ground_answers(
    answer: tuple[Term, ...],
    schema: TermSchema,
    build: Callable[[tuple[Node, ...]], tuple[Term, ...]] | None = None,
    memo: dict[tuple[str, ...], Stream] | None = None,
) -> Stream:
    """Enumerate all ground instances of an answer tuple, fairly.

    The one grounding enumeration of both engines.  Holes are filled in
    first-occurrence order (``holes`` over the answer's terms, left to
    right), found once.  The values of one complete assignment, one per
    hole in that order, come as one tuple, and ``build`` maps it to a
    ground tuple.  By default each term is rebuilt with ``rebuild``,
    through one dict per answer; the directed engine passes compiled plugs
    that index the tuple.  Candidates come from ``schema.candidates``: one
    tuple per finite type, shared by every answer, and a new ``generate``
    stream per use for an infinite type.

    A one-hole answer maps its candidates with ``smap``, a delay per
    candidate.  An answer with more holes maps the assignments of its
    tuple of hole types, ``_assignments``, which depend on the types alone:
    one bind per hole over that hole's candidates, the last hole's values
    mapped with ``smap``, which has ``bind``'s shape for a continuation that
    never suspends, so bind dovetails across holes.  Each suffix of the
    type tuple is one shared (call-by-need) stream in ``memo``, so every
    value of an outer hole, and every answer with the same suffix of hole
    types, replays one inner enumeration instead of running it again.
    Since ``smap`` distributes over ``bind`` and ``mplus`` and ``share``
    keeps a stream's shape, each answer's stream forces and yields exactly
    as one nested enumeration of its own would.  A query passes one memo
    to all its answers; it holds every tuple drawn so far for the query's
    life.  Without one, the answer gets a memo of its own.
    """
    order: dict[VarId, None] = {}
    for term in answer:
        for v in holes(term):
            order.setdefault(v)
    residual = tuple(order)
    if not residual:
        return unit(answer)
    if build is None:

        def build(values: tuple[Node, ...]) -> tuple[Term, ...]:
            filling = dict(zip(residual, values))
            return tuple(rebuild(t, filling) for t in answer)

    if len(residual) == 1:
        source = from_iterator(iter(schema.candidates(residual[0].type)))
        return smap(source, lambda value: build((value,)))
    types = tuple(v.type for v in residual)
    return smap(_assignments(types, schema, {} if memo is None else memo), build)


def _assignments(
    types: tuple[str, ...], schema: TermSchema, memo: dict[tuple[str, ...], Stream]
) -> Stream:
    """The shared stream of value tuples for the hole types, from memo or
    built into it, with the stream of each suffix of ``types``."""
    shared = memo.get(types)
    if shared is None:
        source = from_iterator(iter(schema.candidates(types[0])))
        if len(types) == 1:
            shared = smap(source, lambda value: (value,))
        else:
            rest = _assignments(types[1:], schema, memo)
            shared = bind(source, lambda value: smap(rest, lambda t: (value, *t)))
        shared = memo[types] = share(shared)
    return shared


def query_args(relation: Relation, direction: str, ins) -> tuple[Term, ...]:
    """Ground ins at the direction's 'i' positions, typed holes at its 'o's."""
    ins = tuple(ins)
    check_input_count(relation.name, direction, ins)
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

    Holes in the arguments are query variables.  The search starts from the
    empty substitution, with one ``RefEval`` whose id supply begins above
    the query variables' ids.  Answers that leave a hole unconstrained are
    grounded by enumeration, all through one memo (see ``ground_answers``).
    """
    relation = program.relation(rel_name)
    if len(args) != len(relation.params):
        raise ArityMismatch(
            f"{rel_name} takes {len(relation.params)} arguments, got {len(args)}"
        )
    check_args(program.schema, rel_name, relation.params, args)
    query_vars = [v.id for a in args for v in holes(a)]
    ev = RefEval(program, max(query_vars, default=-1) + 1)
    substs: Stream = lambda: ev.invoke(rel_name, args, {})
    memo: dict[tuple[str, ...], Stream] = {}

    def emit(subst: Subst) -> Stream:
        answer = tuple(deref(a, subst) for a in args)
        return ground_answers(answer, program.schema, memo=memo)

    return bind(substs, emit)


def run(
    program: Program,
    rel_name: str,
    args: tuple[Term, ...],
    n: int | None = None,
) -> list[tuple[Term, ...]]:
    """First n answers (all answers when n is None; diverges if infinite)."""
    return take(query_stream(program, rel_name, args), n)


def answer_iter(
    program: Program,
    rel_name: str,
    args: tuple[Term, ...],
) -> Iterator[tuple[Term, ...]]:
    return stream_iter(query_stream(program, rel_name, args))
