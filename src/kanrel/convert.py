"""Execution of directed procedures.

Each clause of a procedure is compiled once into a step plan, and that plan
is the procedure's only executable form.  Procedures that can yield many
answers run it on the same interleaving stream algebra as the search
engine, with exactly one delay introduced per call, so that corpus programs
produce answers in the same order under both engines.  Procedures that are
at most semidet take the first answer of the same plan by walking its
steps directly, with no streams allocated.

A nondet procedure that calls itself on its own inputs, as ``addo^oio(y)``
does, reads its own stream for that call instead of running a copy of
itself: the stream is shared (call-by-need), so answer k follows from
answer k-1 in O(1) rather than through one layer per recursion level.  The
copy would yield exactly the same stream, so the answer order is unchanged.

Generation is deferred: a ``GenerateVar`` normally binds its variable to a
fresh symbolic hole instead of enumerating, and top-level grounding expands
whatever holes remain in an answer.  That is only sound while no operation
ever inspects the symbolic value, so a static pass taints every generated
variable, follows the taint through assignments, matches and calls, and
forces inline enumeration for any generator whose output can reach a
guard, a match subject, or an in-argument.
"""

from __future__ import annotations

import itertools
from functools import partial

from .goals import TypeMismatch, check_term
from .modes import (
    Assign,
    Det,
    DirCall,
    DirectedClause,
    DirectedProc,
    GenerateVar,
    Guard,
    GuardCtor,
    Match,
    ModeTable,
    ModedOp,
    op_binds,
)
from .normal import FlatVar
from .pretty import display_names
from .schema import Hole, InvalidValue, Node, Term, VarId, holes, is_ground
from .streams import (
    Stream,
    bind,
    from_iterator,
    mplus_all,
    share,
    smap,
    stream_iter,
    unit,
)


class ConvertError(Exception):
    """Directed execution was asked to do something impossible."""


class ResidualViolation(ConvertError):
    """A symbolic hole reached an operation that needs a concrete value."""


# --- residual planning ---

SourceId = tuple[str, str, int, int]


def _clause_taint(
    proc: DirectedProc,
    ci: int,
    inline: set[SourceId],
    out_res: dict[tuple[str, str], tuple[frozenset, ...]],
) -> tuple[set[SourceId], dict[VarId, frozenset]]:
    clause = proc.clauses[ci]
    taint: dict[VarId, frozenset] = {}
    violations: set[SourceId] = set()

    def t(v: VarId) -> frozenset:
        return taint.get(v, frozenset())

    for oi, op in enumerate(clause.ops):
        if isinstance(op, Guard):
            violations |= t(op.var) | t(op.other)
        elif isinstance(op, GuardCtor):
            violations |= t(op.var)
            for a in op.args:
                violations |= t(a)
        elif isinstance(op, Match):
            violations |= t(op.var)
            for a in op.args:
                taint[a] = t(op.var)
        elif isinstance(op, Assign):
            if isinstance(op.term, FlatVar):
                taint[op.var] = t(op.term.var)
            else:
                acc = frozenset()
                for a in op.term.args:
                    acc |= t(a)
                taint[op.var] = acc
        elif isinstance(op, GenerateVar):
            source: SourceId = (proc.rel, proc.direction, ci, oi)
            taint[op.var] = frozenset() if source in inline else frozenset({source})
        elif isinstance(op, DirCall):
            callee_res = out_res.get((op.rel, op.direction))
            for a, m in zip(op.args, op.direction):
                if m == "i":
                    violations |= t(a)
            for pos, (a, m) in enumerate(zip(op.args, op.direction)):
                if m == "o":
                    taint[a] = callee_res[pos] if callee_res else frozenset()
    return violations, taint


def _out_residuals(
    table: ModeTable, inline: set[SourceId]
) -> dict[tuple[str, str], tuple[frozenset, ...]]:
    res = {
        key: tuple(frozenset() for _ in proc.params)
        for key, proc in table.procs.items()
    }
    changed = True
    while changed:
        changed = False
        for key, proc in table.procs.items():
            per_param = [set(s) for s in res[key]]
            for ci in range(len(proc.clauses)):
                _, taint = _clause_taint(proc, ci, inline, res)
                for i, (p, m) in enumerate(zip(proc.params, proc.direction)):
                    if m == "o":
                        per_param[i] |= taint.get(p, frozenset())
            new = tuple(frozenset(s) for s in per_param)
            if new != res[key]:
                res[key] = new
                changed = True
    return res


def residual_plan(table: ModeTable) -> set[SourceId]:
    """Generators that must enumerate inline rather than stay symbolic."""
    inline: set[SourceId] = set()
    while True:
        out_res = _out_residuals(table, inline)
        violations: set[SourceId] = set()
        for proc in table.procs.values():
            for ci in range(len(proc.clauses)):
                v, _ = _clause_taint(proc, ci, inline, out_res)
                violations |= v
        fresh = violations - inline
        if not fresh:
            return inline
        inline |= fresh


# --- runtime ---

# Kinds of plan step.
_FUSED, _BIND, _SELF = "fused", "bind", "self"


def _check_equal(a: Term, b: Term) -> bool:
    if a == b:
        return True
    if is_ground(a) and is_ground(b):
        return False
    raise ResidualViolation(
        f"cannot compare partially symbolic values {a} and {b}"
    )


class DirectedEngine:
    """Runs the procedures of one mode table."""

    def __init__(self, table: ModeTable) -> None:
        self.table = table
        self.schema = table.nprog.schema
        self.inline = residual_plan(table)
        self._out_res = _out_residuals(table, self.inline)
        self._holes = itertools.count(10_000_000)
        # Procedures whose repeated calls may read their own stream: nondet
        # ones whose answers hold no symbolic hole (two uses of a shared
        # answer would be grounded together, and answers lost).
        self._shareable = {
            key
            for key in table.procs
            if table.dets[key] > Det.SEMIDET and not any(self._out_res[key])
        }
        self._plans = {
            key: [
                self._compile_clause(proc, ci, clause)
                for ci, clause in enumerate(proc.clauses)
            ]
            for key, proc in table.procs.items()
        }
        self._shared = {
            key
            for key, plans in self._plans.items()
            if any(kind is _SELF for plan in plans for kind, _, _ in plan)
        }

    # --- entry points ---

    def run(
        self, rel: str, direction: str, ins, n: int | None = None
    ) -> list[tuple[Term, ...]]:
        """First n answers (all answers when n is None; diverges if infinite)."""
        answers = self.answer_iter(rel, direction, ins)
        if n is None:
            return list(answers)
        return list(itertools.islice(answers, n))

    def answer_iter(self, rel: str, direction: str, ins):
        return stream_iter(self.answers_stream(rel, direction, ins))

    def answers_stream(self, rel: str, direction: str, ins) -> Stream:
        raw = self.raw_stream(rel, direction, ins)
        if not any(self._out_res[rel, direction]):
            # No generation source can reach an out param, so answers are
            # already ground and grounding would map each one to itself.
            return raw
        return bind(raw, self._ground_stream)

    def _ground_stream(self, answer: tuple[Term, ...]) -> Stream:
        """Ground a raw answer, in ground_answers' exact enumeration order.

        Same hole order (first occurrence), same per-type generators, same
        nested bind-over-candidates shape.  Only the rebuilding differs: each
        tuple position is compiled once into a plug function, so hole-free
        subterms are shared between answers instead of re-walked per answer.
        """
        order: dict[VarId, None] = {}
        for term in answer:
            for v in holes(term):
                order.setdefault(v)
        residual = tuple(order)
        if not residual:
            return unit(answer)
        pluggers = tuple(_compile_plug(t) for t in answer)
        generate = self.schema.generate
        last = len(residual) - 1

        def at(i: int, assignment: dict) -> Stream:
            var = residual[i]
            candidates = from_iterator(generate(var.type))
            if i == last:

                def fill(value: Term) -> Stream:
                    asg = {**assignment, var: value}
                    return unit(tuple(p(asg) for p in pluggers))

            else:

                def fill(value: Term) -> Stream:
                    return at(i + 1, {**assignment, var: value})

            return bind(candidates, fill)

        return at(0, {})

    def raw_stream(self, rel: str, direction: str, ins) -> Stream:
        """Answer tuples before grounding; symbolic holes may remain."""
        proc = self.table.proc(rel, direction)
        env = self._entry_env(proc, ins)

        def emit(e: dict) -> Stream:
            return unit(tuple(e[p] for p in proc.params))

        if self.table.det(rel, direction) <= Det.SEMIDET:
            final = self._proc_first(proc, env)
            return None if final is None else emit(final)
        return lambda: bind(self._proc_stream(proc, env), emit)

    def _entry_env(self, proc: DirectedProc, ins) -> dict[VarId, Term]:
        in_params = [p for p, m in zip(proc.params, proc.direction) if m == "i"]
        ins = tuple(ins)
        if len(ins) != len(in_params):
            raise ConvertError(
                f"{proc.rel}^{proc.direction} takes "
                f"{len(in_params)} inputs, got {len(ins)}"
            )
        env: dict[VarId, Term] = {}
        for p, value in zip(in_params, ins):
            if not is_ground(value):
                raise InvalidValue(f"input for {p!r} must be ground, got {value}")
            got = check_term(self.schema, value)
            if got != p.type:
                raise TypeMismatch(
                    f"input for {p!r} of {proc.rel} has type {got},"
                    f" expected {p.type}"
                )
            env[p] = value
        return env

    def _fresh_hole(self, type_name: str) -> Hole:
        return Hole(VarId(next(self._holes), type_name, "r"))

    # --- execution ---
    #
    # Each clause is compiled once into a step plan.  Maximal runs of ops
    # that never suspend (guards, matches, assigns, residual generation) are
    # fused into a single function applied with smap; only calls and inline
    # generation become bind steps.  smap keeps the stream shape of the
    # per-op bind chain, so answer order is unchanged.

    def _proc_stream(self, proc: DirectedProc, env: dict) -> Stream:
        key = proc.rel, proc.direction
        plans = self._plans[key]
        if key not in self._shared:
            return mplus_all([self._run_plan(plan, env) for plan in plans])
        # Self steps read the stream through `me` once it is built; the
        # call they make is delayed, so none of them reads it before that.
        me: list = []
        stream = share(mplus_all([self._run_plan(plan, env, me) for plan in plans]))
        me.append(stream)
        return stream

    def _run_plan(self, plan: list, env: dict, me: list | None = None) -> Stream:
        if not plan:
            return unit(env)
        kind, fn0, _ = plan[0]
        if kind is _FUSED:
            got = fn0(env)
            out = None if got is None else unit(got)
        elif kind is _SELF:
            out = fn0(me, env)
        else:
            out = fn0(env)
        for kind, fn, _ in plan[1:]:
            if kind is _FUSED:
                out = smap(out, fn)
            elif kind is _SELF:
                out = bind(out, partial(fn, me))
            else:
                out = bind(out, fn)
        return out

    def _proc_first(self, proc: DirectedProc, env: dict) -> dict | None:
        """First answer of the procedure's plans, without building streams.

        Only for procedures that are at most semidet.  Each of their steps
        yields at most one env (callees are at most semidet, and inline
        generation fills only singleton types), so walking the steps' first
        functions in order finds the one answer the stream would yield.
        """
        for plan in self._plans[proc.rel, proc.direction]:
            got = env
            for _, _, first in plan:
                got = first(got)
                if got is None:
                    break
            else:
                return got
        return None

    def _compile_clause(
        self, proc: DirectedProc, ci: int, clause: DirectedClause
    ) -> list:
        """Plan: list of (kind, fn, first); fused fns map env -> env | None.

        A bind step's fn maps an env to a stream of envs, and its first maps
        an env to the step's first surviving env or None; a fused step is
        its own first.  A self step is a bind step for a call that repeats
        the running one (same procedure, its own in-params passed straight
        on); its fn takes a holder of the running call's stream before the
        env.  A mature run that follows a call or an enumeration
        is absorbed into that step's per-element function, so each element
        pays one dict copy and one map call instead of a separate stream
        layer.
        """
        plan: list = []
        run: list = []
        pending = None

        def flush(nxt) -> None:
            nonlocal run, pending
            if pending is not None:
                plan.append(pending(run))
            elif run:
                fused = self._fuse(run)
                plan.append((_FUSED, fused, fused))
            run = []
            pending = nxt

        for oi, op in enumerate(clause.ops):
            if isinstance(op, DirCall):
                flush(partial(self._compile_call, proc, op))
            elif isinstance(op, GenerateVar) and (
                (proc.rel, proc.direction, ci, oi) in self.inline
            ):
                flush(partial(self._compile_enumerate, op))
            else:
                run.append(self._compile_mature(op))
        flush(None)
        return plan

    @staticmethod
    def _fuse(steps: list):
        steps = list(steps)
        if len(steps) == 1:
            single = steps[0]
            return lambda env: single(dict(env))

        def fused(env: dict) -> dict | None:
            env = dict(env)
            for step in steps:
                env = step(env)
                if env is None:
                    return None
            return env

        return fused

    def _compile_mature(self, op: ModedOp):
        """One op as a function mutating its (owned) env, None on failure."""
        if isinstance(op, Guard):
            var, other = op.var, op.other

            def step(env: dict) -> dict | None:
                return env if _check_equal(env[var], env[other]) else None

            return step
        if isinstance(op, GuardCtor):
            var, ctor, args = op.var, op.ctor, op.args

            def step(env: dict) -> dict | None:
                val = self._concrete(env[var])
                if val.ctor != ctor:
                    return None
                for sub, a in zip(val.args, args):
                    if not _check_equal(sub, env[a]):
                        return None
                return env

            return step
        if isinstance(op, Match):
            var, ctor, args = op.var, op.ctor, op.args

            def step(env: dict) -> dict | None:
                val = self._concrete(env[var])
                if val.ctor != ctor:
                    return None
                for sub, a in zip(val.args, args):
                    env[a] = sub
                return env

            return step
        if isinstance(op, Assign):
            var = op.var
            if isinstance(op.term, FlatVar):
                src = op.term.var

                def step(env: dict) -> dict:
                    env[var] = env[src]
                    return env

                return step
            ctor, args = op.term.ctor, op.term.args
            # Arity-specialized: these run once per element on hot paths.
            if not args:
                const = Node(ctor, ())

                def step(env: dict) -> dict:
                    env[var] = const
                    return env

                return step
            if len(args) == 1:
                (a0,) = args

                def step(env: dict) -> dict:
                    env[var] = Node(ctor, (env[a0],))
                    return env

                return step
            if len(args) == 2:
                a0, a1 = args

                def step(env: dict) -> dict:
                    env[var] = Node(ctor, (env[a0], env[a1]))
                    return env

                return step

            def step(env: dict) -> dict:
                env[var] = Node(ctor, tuple([env[a] for a in args]))
                return env

            return step
        assert isinstance(op, GenerateVar)
        var, type_name = op.var, op.var.type

        def step(env: dict) -> dict:
            env[var] = self._fresh_hole(type_name)
            return env

        return step

    def _compile_call(self, proc: DirectedProc, op: DirCall, post: list):
        callee = self.table.proc(op.rel, op.direction)
        ins = tuple(
            (p, a)
            for a, p, m in zip(op.args, callee.params, op.direction)
            if m == "i"
        )
        outs = tuple(
            (a, p)
            for a, p, m in zip(op.args, callee.params, op.direction)
            if m == "o"
        )
        post = tuple(post)
        proc_stream, proc_first = self._proc_stream, self._proc_first

        def leave(env: dict):
            """Per-call continuation: copy the callee's outs, run post."""

            def emit(callee_env: dict) -> dict | None:
                env2 = dict(env)
                for a, p in outs:
                    env2[a] = callee_env[p]
                for s in post:
                    env2 = s(env2)
                    if env2 is None:
                        return None
                return env2

            return emit

        def step(env: dict) -> Stream:
            sub_env = {p: env[a] for p, a in ins}
            emit = leave(env)
            # The single delay per call: same placement as the search engine.
            return lambda: smap(proc_stream(callee, sub_env), emit)

        def first(env: dict) -> dict | None:
            callee_env = proc_first(callee, {p: env[a] for p, a in ins})
            return None if callee_env is None else leave(env)(callee_env)

        same_call = (
            callee is proc
            and (proc.rel, proc.direction) in self._shareable
            and all(p == a for p, a in ins)
        )
        if not same_call:
            return _BIND, step, first

        def self_step(me: list, env: dict) -> Stream:
            # The running call's own stream, shared: no copy of the callee.
            emit = leave(env)
            return lambda: smap(me[0], emit)

        return _SELF, self_step, first

    def _compile_enumerate(self, op: GenerateVar, post: list):
        var, type_name = op.var, op.var.type
        post = tuple(post)
        generate = self.schema.generate

        def enter(env: dict):
            """Per-call continuation: bind the value, run post."""

            def fill(value: Term) -> dict | None:
                env2 = dict(env)
                env2[var] = value
                for s in post:
                    env2 = s(env2)
                    if env2 is None:
                        return None
                return env2

            return fill

        def step(env: dict) -> Stream:
            return smap(from_iterator(generate(type_name)), enter(env))

        def first(env: dict) -> dict | None:
            fill = enter(env)
            for value in generate(type_name):
                env2 = fill(value)
                if env2 is not None:
                    return env2
            return None

        return _BIND, step, first

    def _concrete(self, val: Term) -> Node:
        if isinstance(val, Hole):
            raise ResidualViolation(
                f"symbolic hole {val.var!r} reached a destructuring operation"
            )
        return val


def _compile_plug(term: Term):
    """term as a function of a hole assignment; hole-free parts are shared."""
    if isinstance(term, Hole):
        var = term.var
        return lambda asg: asg[var]
    if not holes(term):
        return lambda asg, term=term: term
    parts = tuple(_compile_plug(a) for a in term.args)
    ctor = term.ctor
    return lambda asg: Node(ctor, tuple(p(asg) for p in parts))


# --- textual emission ---


def transitive_procs(
    table: ModeTable, rel: str, direction: str
) -> list[DirectedProc]:
    """The requested procedure followed by everything it calls, in BFS order."""
    start = table.proc(rel, direction)
    seen = {(rel, direction)}
    order = [start]
    queue = [start]
    while queue:
        proc = queue.pop(0)
        for clause in proc.clauses:
            for op in clause.ops:
                if isinstance(op, DirCall):
                    key = (op.rel, op.direction)
                    if key not in seen:
                        seen.add(key)
                        callee = table.proc(op.rel, op.direction)
                        order.append(callee)
                        queue.append(callee)
    return order


def _proc_names(proc: DirectedProc) -> dict[VarId, str]:
    seen: dict[VarId, None] = dict.fromkeys(proc.params)
    for clause in proc.clauses:
        for v in clause.locals:
            seen.setdefault(v)
        for op in clause.ops:
            for v in op_binds(op):
                seen.setdefault(v)
    return display_names(tuple(seen))


def emit_proc(proc: DirectedProc, det: Det) -> str:
    names = _proc_names(proc)
    ins = [names[p] for p, m in zip(proc.params, proc.direction) if m == "i"]
    outs = [names[p] for p, m in zip(proc.params, proc.direction) if m == "o"]
    combinator = "firstOf" if det <= Det.SEMIDET else "interleaveOf"
    name = f"{proc.rel}_{proc.direction}"
    lines = [
        f"proc {name}({', '.join(ins)}) -> ({', '.join(outs)}):  # {det}",
        f"  {combinator}:",
    ]
    for clause in proc.clauses:
        lines.append("    allOf:")
        if not clause.ops:
            lines.append("      succeed")
        for op in clause.ops:
            lines.append(f"      {_emit_op(op, names)}")
    return "\n".join(lines)


def _emit_op(op: ModedOp, names: dict[VarId, str]) -> str:
    if isinstance(op, Guard):
        return f"guard {names[op.var]} == {names[op.other]}"
    if isinstance(op, GuardCtor):
        return f"guard {names[op.var]} == {_emit_ctor(op.ctor, op.args, names)}"
    if isinstance(op, Match):
        return f"match {_emit_ctor(op.ctor, op.args, names)} = {names[op.var]}"
    if isinstance(op, Assign):
        if isinstance(op.term, FlatVar):
            return f"{names[op.var]} := {names[op.term.var]}"
        return f"{names[op.var]} := {_emit_ctor(op.term.ctor, op.term.args, names)}"
    if isinstance(op, GenerateVar):
        return f"generate {names[op.var]} : {op.var.type}"
    ins = [names[a] for a, m in zip(op.args, op.direction) if m == "i"]
    outs = [names[a] for a, m in zip(op.args, op.direction) if m == "o"]
    call = f"{op.rel}_{op.direction}({', '.join(ins)})"
    if outs:
        return f"({', '.join(outs)}) := {call}"
    return f"check {call}"


def _emit_ctor(ctor: str, args: tuple[VarId, ...], names: dict[VarId, str]) -> str:
    if not args:
        return ctor
    return f"{ctor}({', '.join(names[a] for a in args)})"


def emit_text(table: ModeTable, rel: str, direction: str) -> str:
    procs = transitive_procs(table, rel, direction)
    chunks = [
        emit_proc(p, table.det(p.rel, p.direction)) for p in procs
    ]
    return "\n\n".join(chunks) + "\n"
