"""Execution of directed procedures.

Each clause of a procedure is compiled once into a plan ``(lead, steps,
tail)``, and that plan is the procedure's only executable form.  Each step
is one call or inline enumeration, with the ops after it fused into its
per-element function; ``lead`` fuses the ops before the first step, and is
None when there are none.  A step is a pair ``(fn, first)``; ``tail`` is
the clause's last call if ``tail_calls`` picks it.  Procedures that can
yield many answers run the ``fn``s on the same interleaving stream algebra
as the search engine, with exactly one delay introduced per call; a tail
call passes its continuation down as a frame instead of wrapping its
callee's stream, so answer k of a recursion does not come up through k
layers (Bour, Clément & Scherer, "Tail Modulo Cons", 2021).  Both engines
give the same answers.  Where the schedule keeps the source's call order they
give them in the same order, list for list; where it reorders calls, only
the answer multisets are sure to agree (converted ``sorto@oi`` orders its
answers differently from four values on).  Procedures that are at most
semidet take the first answer of the same plan in a loop over an explicit
stack, with no streams allocated.

A plan runs on envs: lists with one slot per variable of the procedure.
The slots are numbered once, when the procedure's clauses are compiled, in
the order of ``proc_vars``, the tuple ``kanrel convert`` names variables
by.  Ops read and write slots by index, a step copies an env with one
slice, and a call enters its callee with a new list, so running a plan
hashes no variable.

Each top-level query keeps a table of shared (call-by-need) streams, keyed
by relation, direction and ground in-values (call-variant tabling, as in
Chen & Warren, "Tabled Evaluation with Delaying for General Logic
Programs", 1996).  ``tabled_procs`` picks the procedures whose calls read
it: nondet ones with no residual outs that some call may repeat on equal
inputs, because it repeats the running call on its own inputs (as
``addo^oio(y)`` calls ``addo^oio(y)``) or because an in-argument was bound
by another call or an inline enumeration (as ``sorto^oi`` sorts the
sublist ``inserto^ooi`` proposes).  Equal calls then build one stream and
read it many times; a call that repeats the running one reads the running
stream, and answer k follows from answer k-1 in O(1) rather than through
one layer per recursion level.  A second build would yield exactly the
same stream, so the answer order is unchanged.  A procedure called only on
values taken apart from its caller's own inputs is not tabled: on the
usual recursion shapes it sees each value once, and an entry would only
keep every level alive.

Generation is deferred: a ``GenerateVar`` normally binds its variable to a
fresh symbolic hole instead of enumerating, and top-level grounding expands
whatever holes remain in an answer, through one memo per query in which
every suffix of hole types is one shared enumeration
(``interp.ground_answers``).  That is only sound while no operation
ever inspects the symbolic value.  ``static_plan`` decides, once per mode
table and in one pass, which generators enumerate inline instead; the
engine and ``kanrel convert`` both read its plan.  It taints each generated
variable with its generator and follows the taint through assignments,
matches and calls, with every generator deferred.  Taint is a union of
independent flows, one per generator, so enumerating a generator inline
removes exactly its own flow: the generators whose taint reaches a guard,
a match subject or an in-argument run inline, and the residuals of each
procedure's outs are the rest.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import itemgetter

from .goals import check_args, check_input_count
from .interp import ground_answers
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
    op_reads,
)
from .normal import FlatVar
from .schema import Hole, InvalidValue, Node, Term, VarId, is_ground
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


class ResidualViolation(Exception):
    """A symbolic hole reached an operation that needs a concrete value."""


# --- residual planning ---

SourceId = tuple[str, str, int, int]
OutResiduals = dict[tuple[str, str], tuple[frozenset, ...]]


def _clause_taint(
    proc: DirectedProc, ci: int, out_res: OutResiduals
) -> tuple[set[SourceId], dict[VarId, frozenset]]:
    """The generators that reach a guard, a match subject or an in-argument
    of clause ci, and the generators each variable may hold, with every
    generator deferred and ``out_res`` as the residuals of callees' outs."""
    taint: dict[VarId, frozenset] = {}
    violations: set[SourceId] = set()
    for oi, op in enumerate(proc.clauses[ci].ops):
        read = frozenset().union(*(taint.get(v, ()) for v in op_reads(op)))
        if isinstance(op, Assign):
            taint[op.var] = read
        elif isinstance(op, GenerateVar):
            taint[op.var] = frozenset({(proc.rel, proc.direction, ci, oi)})
        else:
            violations |= read
            if isinstance(op, Match):
                taint.update(dict.fromkeys(op.args, read))
            elif isinstance(op, DirCall):
                taint.update(zip(op.outs, out_res[op.rel, op.direction]))
    return violations, taint


def static_plan(
    table: ModeTable,
) -> tuple[set[SourceId], OutResiduals, set[tuple[str, str]]]:
    """The inline generators of a table, the residual generators of each
    procedure's outs, and the tabled procedures.

    One fixpoint finds the generators that reach each procedure's outs with
    every generator deferred.  Its last sweep, in which no out changes, sees
    every generator that reaches a guard, a match subject or an
    in-argument: those run inline and are dropped from the outs' residuals.
    """
    res: OutResiduals = {
        key: tuple(frozenset() for _ in proc.outs)
        for key, proc in table.procs.items()
    }
    changed = True
    while changed:
        changed = False
        inline: set[SourceId] = set()
        for key, proc in table.procs.items():
            per_out = [set(s) for s in res[key]]
            for ci in range(len(proc.clauses)):
                violations, taint = _clause_taint(proc, ci, res)
                inline |= violations
                for s, p in zip(per_out, proc.outs):
                    s |= taint.get(p, frozenset())
            new = tuple(map(frozenset, per_out))
            if new != res[key]:
                res[key] = new
                changed = True
    out_res = {key: tuple(s - inline for s in sets) for key, sets in res.items()}
    return inline, out_res, tabled_procs(table, out_res)


def residual_plan(table: ModeTable) -> set[SourceId]:
    """Generators that must enumerate inline rather than stay symbolic."""
    return static_plan(table)[0]


def tabled_procs(table: ModeTable, out_res: OutResiduals) -> set[tuple[str, str]]:
    """Procedures whose calls read the query's table of shared streams.

    ``out_res`` is ``static_plan``'s residuals of the table.  A procedure
    is tabled when it is nondet with no residual out (two uses of a shared
    answer that holds a symbolic hole would be grounded together, and
    answers lost) and some call of it may repeat on equal inputs: the call
    repeats the running call on its own in-params, or takes an in-argument
    bound earlier in its clause by a call's out or an inline enumeration,
    directly or through ``match`` and ``:=``.
    """
    shareable = {
        key
        for key in table.procs
        if table.dets[key] > Det.SEMIDET and not any(out_res[key])
    }
    tabled: set[tuple[str, str]] = set()
    for key, proc in table.procs.items():
        for clause in proc.clauses:
            derived: set[VarId] = set()
            for op in clause.ops:
                if isinstance(op, DirCall):
                    callee = (op.rel, op.direction)
                    if callee in shareable and (
                        (callee == key and op.ins == proc.ins)
                        or not derived.isdisjoint(op.ins)
                    ):
                        tabled.add(callee)
                    derived.update(op.outs)
                elif isinstance(op, GenerateVar) or not derived.isdisjoint(op_reads(op)):
                    derived.update(op_binds(op))
    return tabled


def tail_calls(
    table: ModeTable, inline: set[SourceId], tabled: set[tuple[str, str]]
) -> set[SourceId]:
    """Calls that pass their caller's remaining work down as a frame: the
    last step of a clause, followed only by ops that cannot fail (assigns,
    deferred generation), whose callee is not tabled.  A continuation that
    can drop an answer does not commute with ``mplus``, and a tabled stream
    must not depend on its caller.  ``inline``, ``tabled``: ``static_plan``'s."""
    tails: set[SourceId] = set()
    for (rel, direction), proc in table.procs.items():
        for ci, clause in enumerate(proc.clauses):
            for oi in reversed(range(len(clause.ops))):
                op, src = clause.ops[oi], (rel, direction, ci, oi)
                if isinstance(op, DirCall) and (op.rel, op.direction) not in tabled:
                    tails.add(src)
                if not isinstance(op, (Assign, GenerateVar)) or src in inline:
                    break
    return tails


# --- runtime ---


def _check_equal(a: Term, b: Term) -> bool:
    if a == b:
        return True
    if is_ground(a) and is_ground(b):
        return False
    raise ResidualViolation(f"cannot compare partially symbolic values {a} and {b}")


class DirectedEngine:
    """Runs the procedures of one mode table."""

    def __init__(self, table: ModeTable) -> None:
        self.table = table
        self.schema = table.nprog.schema
        self.inline, self._out_res, self._tabled = static_plan(table)
        self._tails = tail_calls(table, self.inline, self._tabled)
        self._holes = itertools.count(10_000_000)
        # An env is a list with one slot per variable of its procedure, the
        # variable's position in ``proc_vars``; params hold the first slots.
        self._slots, self._in_slots = {}, {}
        for key, proc in table.procs.items():
            slots = self._slots[key] = dict(zip(proc_vars(proc), itertools.count()))
            self._in_slots[key] = tuple(map(slots.__getitem__, proc.ins))
        self._plans = {key: [] for key in table.procs}  # a tail holds its callee's list
        for key, proc in table.procs.items():
            self._plans[key] += map(
                partial(self._compile_clause, proc), itertools.count(), proc.clauses
            )

    # --- entry points ---

    def run(
        self, rel: str, direction: str, ins, n: int | None = None
    ) -> list[tuple[Term, ...]]:
        """First n answers (all answers when n is None; diverges if infinite)."""
        return take(self.answers_stream(rel, direction, ins), n)

    def answer_iter(self, rel: str, direction: str, ins):
        return stream_iter(self.answers_stream(rel, direction, ins))

    def answers_stream(self, rel: str, direction: str, ins) -> Stream:
        raw = self.raw_stream(rel, direction, ins)
        if not any(self._out_res[rel, direction]):
            # No generation source can reach an out param, so answers are
            # already ground and grounding would map each one to itself.
            return raw
        memo: dict = {}
        return bind(raw, lambda answer: self._ground_stream(answer, memo))

    def _ground_stream(self, answer: tuple[Term, ...], memo: dict | None = None) -> Stream:
        """Ground a raw answer by ``interp.ground_answers``, with this
        engine's builder: each tuple position is compiled once into a plug
        that indexes the enumeration's tuple of values, so hole-free
        subterms are shared, not rebuilt per answer.  ``memo`` is the
        query's, shared by all its answers.
        """
        index: dict[VarId, int] = {}
        plugs = tuple(_compile_plug(t, index) for t in answer)
        return ground_answers(
            answer, self.schema, lambda values: tuple([p(values) for p in plugs]), memo
        )

    def raw_stream(self, rel: str, direction: str, ins) -> Stream:
        """Answer tuples before grounding; symbolic holes may remain.

        Each call is a new query, with a new table of shared streams.
        """
        proc = self.table.proc(rel, direction)
        env = self._entry_env(proc, ins)
        arity = len(proc.params)

        def emit(e: list) -> Stream:
            return unit(tuple(e[:arity]))

        if self.table.det(rel, direction) <= Det.SEMIDET:
            final = self._proc_first(proc, env)
            return None if final is None else emit(final)
        return lambda: bind(self._proc_stream(proc, env), emit)

    def _entry_env(self, proc: DirectedProc, ins) -> list:
        ins = tuple(ins)
        check_input_count(proc.rel, proc.direction, ins)
        for p, value in zip(proc.ins, ins):
            if not is_ground(value):
                raise InvalidValue(f"input for {p!r} must be ground, got {value}")
        check_args(self.schema, proc.rel, proc.ins, ins)
        key = proc.rel, proc.direction
        env = [None] * len(self._slots[key])
        for i, value in zip(self._in_slots[key], ins):
            env[i] = value
        return env

    # --- execution ---
    #
    # Only calls and inline generation can yield many envs or suspend, so
    # only they are steps; the ops fused around them (guards, matches,
    # assigns, deferred generation) never suspend.  smap keeps the per-op
    # bind chain's stream shape and answer order.

    def _proc_stream(
        self, proc: DirectedProc, env: list, table: dict | None = None
    ) -> Stream:
        """The procedure's answer envs; ``table`` is the running query's
        table of shared streams, and a new query's when None.

        A tabled procedure has at most one stream per in-values in a query:
        a call reads it from the table, or builds it and enters it there.
        Calls read the table inside their call's delay, so a call that
        repeats the running one reads the running stream, entered by then.
        """
        if table is None:
            table = {}
        key = proc.rel, proc.direction
        if key not in self._tabled:
            return self._build_stream(proc, env, table)
        entry = _table_key(key, [env[i] for i in self._in_slots[key]])
        stream = table.get(entry)
        if stream is None:
            stream = table[entry] = share(self._build_stream(proc, env, table))
        return stream

    def _build_stream(self, proc: DirectedProc, env: list, table: dict, frames=None):
        """The interleaved answer envs of the procedure's plans, mapped through
        ``frames``, None or a linked list ``(cont, env, rest)`` that tail calls
        push: a clause that ends in a tail call hands them on, and any other
        maps its answers once through ``_apply``.  ``bind(unit(env), f)`` is
        ``f(env)``, so the first step is applied to the lead's env directly.
        """
        streams = []
        for lead, steps, tail in self._plans[proc.rel, proc.direction]:
            got = env if lead is None else lead(env)
            if got is None:
                continue
            if not steps:
                out = tail[0](table, frames, got) if tail else unit(_apply(frames, got))
            else:
                out = steps[0][0](table, got)
                for fn, _ in steps[1:]:
                    out = bind(out, partial(fn, table))
                if tail is not None:
                    out = bind(out, partial(tail[0], table, frames))
                elif frames is not None:
                    out = smap(out, partial(_apply, frames))
            streams.append(out)
        return mplus_all(streams)

    def _proc_first(self, proc: DirectedProc, env: list) -> list | None:
        """First answer of the procedure's plans, without building streams.

        Only for procedures that are at most semidet.  Each of their steps
        yields at most one env (callees are at most semidet, and inline
        generation fills only singleton types), so walking the lead and the
        steps' first functions in order finds the one answer the stream
        would yield.  A tail call pushes the plans, the next clause, the entry
        env, its ``cont`` and its env, and descends: an answer is mapped up
        through the pushed ``cont``s, and a callee out of clauses resumes its
        caller at the caller's next clause.
        """
        plans, ci, stack = self._plans[proc.rel, proc.direction], 0, []
        while True:
            while ci == len(plans):
                if not stack:
                    return None
                plans, ci, env, _, _ = stack.pop()
            lead, steps, tail = plans[ci]
            ci += 1
            got = env if lead is None else lead(env)
            # step[1] is the step's first.  Unpacking each step here instead
            # made converted addo@iio at a=500 8% slower (Python 3.11).
            for step in steps:
                if got is None:
                    break
                got = step[1](got)
            if got is None:
                continue
            if tail is None:
                for _, _, _, cont, caller in reversed(stack):
                    got = cont(caller, got)
                return got
            _, callee_plans, enter, cont = tail
            stack.append((plans, ci, env, cont, got))
            plans, ci, env = callee_plans, 0, enter(got)

    def _compile_clause(self, proc: DirectedProc, ci: int, clause: DirectedClause):
        """Plan ``(lead, steps, tail)``; see ``_compile_step`` for a step and
        a tail.  ``lead`` maps the entry env to a new env or None, and is
        None when no op precedes the first step."""
        slots = self._slots[proc.rel, proc.direction]
        heads: list[ModedOp] = []
        runs: list[list] = [[]]
        for oi, op in enumerate(clause.ops):
            if isinstance(op, DirCall) or (
                isinstance(op, GenerateVar)
                and (proc.rel, proc.direction, ci, oi) in self.inline
            ):
                heads.append(op)
                runs.append([])
            else:
                runs[-1].append(self._compile_mature(slots, op))
        lead = self._fuse(runs[0]) if runs[0] else None
        tail, last = None, len(clause.ops) - 1 - len(runs[-1])  # the last step's op
        if (proc.rel, proc.direction, ci, last) in self._tails:
            tail = self._compile_step(slots, heads.pop(), runs.pop(), tail=True)
        steps = tuple(map(partial(self._compile_step, slots), heads, runs[1:]))
        return lead, steps, tail

    @staticmethod
    def _fuse(steps: list):
        """The ops ``steps`` as one function: it runs them on a copy of its
        env, which stays unchanged, and returns None on failure."""
        if len(steps) == 1:
            single = steps[0]
            return lambda env: single(env[:])

        def fused(env: list) -> list | None:
            env = env[:]
            for step in steps:
                env = step(env)
                if env is None:
                    return None
            return env

        return fused

    def _compile_mature(self, slots: dict[VarId, int], op: ModedOp):
        """One op as a function that writes into its env, a list it owns, by
        the slots of ``slots``; it returns the env, or None on failure."""
        if isinstance(op, Guard):
            var, other = slots[op.var], slots[op.other]

            def step(env: list) -> list | None:
                return env if _check_equal(env[var], env[other]) else None

            return step
        if isinstance(op, GuardCtor):
            var, ctor, args = slots[op.var], op.ctor, [slots[a] for a in op.args]

            def step(env: list) -> list | None:
                val = self._concrete(env[var])
                if val.ctor != ctor:
                    return None
                for sub, a in zip(val.args, args):
                    if not _check_equal(sub, env[a]):
                        return None
                return env

            return step
        if isinstance(op, Match):
            var, ctor, args = slots[op.var], op.ctor, [slots[a] for a in op.args]

            def step(env: list) -> list | None:
                val = self._concrete(env[var])
                if val.ctor != ctor:
                    return None
                for sub, a in zip(val.args, args):
                    env[a] = sub
                return env

            return step
        var = slots[op.var]
        if isinstance(op, Assign):
            if isinstance(op.term, FlatVar):
                src = slots[op.term.var]

                def step(env: list) -> list:
                    env[var] = env[src]
                    return env

                return step
            ctor, args = op.term.ctor, [slots[a] for a in op.term.args]
            # Arity-specialized: these run once per element on hot paths.  One
            # generic step for every arity (a list comprehension) made perfbench
            # nat_enum converted.query_s 0.113 -> 0.132 s (medians of 4 paired
            # runs, seeds 1-4, slower in all 4; Python 3.11, 2-vCPU Xeon).  From
            # arity 2 on, ``itemgetter`` builds the argument tuple in C.
            if not args:
                const = Node(ctor, ())

                def step(env: list) -> list:
                    env[var] = const
                    return env

                return step
            if len(args) == 1:
                (a0,) = args

                def step(env: list) -> list:
                    env[var] = Node(ctor, (env[a0],))
                    return env

                return step
            get = itemgetter(*args)

            def step(env: list) -> list:
                env[var] = Node(ctor, get(env))
                return env

            return step
        assert isinstance(op, GenerateVar)
        holes, type_name = self._holes, op.var.type

        def step(env: list) -> list:
            env[var] = Hole(VarId(next(holes), type_name, "r"))
            return env

        return step

    def _compile_step(self, slots, op: DirCall | GenerateVar, post: list, tail=False):
        """A call or an inline enumeration, then the fused ops ``post``.

        Returns ``(fn, first)``.  ``fn`` maps the query's table and an env to
        a stream of envs; ``first`` maps an env to the step's first
        surviving env, or None.  A call enters its callee with a new list
        that holds the in-values at the callee's slots.  Each element of a
        callee's stream is its env, and each enumerated value comes as a
        1-tuple, so one ``cont`` copies either kind's outs by slot into a
        slice of the env and runs ``post``: one list copy and one smap call
        per element.  A ``tail`` call returns ``(push, callee plans, enter,
        cont)``: ``push`` maps the table, the frames and an env to the
        callee's stream with ``(cont, env, frames)`` pushed, and ``enter``
        maps an env to the callee's entry env.
        """
        post = tuple(post)

        def cont(env: list, got) -> list | None:
            # ``outs``, (slot in env, index in got) pairs, is bound below.
            env2 = env[:]
            for a, p in outs:
                env2[a] = got[p]
            for s in post:
                env2 = s(env2)
                if env2 is None:
                    return None
            return env2

        if isinstance(op, GenerateVar):
            outs = ((slots[op.var], 0),)
            generate, type_name = self.schema.generate, op.var.type

            def step(table: dict, env: list) -> Stream:
                return smap(from_iterator(zip(generate(type_name))), partial(cont, env))

            def first(env: list) -> list | None:
                for value in zip(generate(type_name)):
                    env2 = cont(env, value)
                    if env2 is not None:
                        return env2
                return None

            return step, first

        key = op.rel, op.direction
        callee, callee_slots = self.table.proc(*key), self._slots[key]
        size = len(callee_slots)
        ins = tuple((callee_slots[p], slots[a]) for p, a in zip(callee.ins, op.ins))
        outs = tuple((slots[a], callee_slots[p]) for a, p in zip(op.outs, callee.outs))
        proc_stream, proc_first = self._proc_stream, self._proc_first

        def enter(env: list) -> list:
            sub = [None] * size
            for p, a in ins:
                sub[p] = env[a]
            return sub

        if tail:
            build = self._build_stream

            def push(table: dict, frames, env: list) -> Stream:
                # One delay, as in ``step``; the callee is not tabled.
                return lambda: build(callee, enter(env), table, (cont, env, frames))

            return push, self._plans[key], enter, cont

        def step(table: dict, env: list) -> Stream:
            sub, emit = enter(env), partial(cont, env)
            # The single delay per call: same placement as the search engine.
            return lambda: smap(proc_stream(callee, sub, table), emit)

        def first(env: list) -> list | None:
            got = proc_first(callee, enter(env))
            return None if got is None else cont(env, got)

        return step, first

    def _concrete(self, val: Term) -> Node:
        if isinstance(val, Hole):
            raise ResidualViolation(
                f"symbolic hole {val.var!r} reached a destructuring operation"
            )
        return val


def _apply(frames, got: list) -> list:
    """``got`` through pushed frames, innermost first; a tail's cont cannot fail."""
    while frames is not None:
        cont, env, frames = frames
        got = cont(env, got)
    return got


def _table_key(key: tuple[str, str], values: list[Node]) -> tuple[str, ...]:
    """A table entry: the procedure, then its ground in-values as one flat
    tuple of constructor names in preorder.

    Each constructor has a fixed arity, so the preorder names the values
    exactly; hashing and comparing it recurses on no term, however deep.
    """
    out = list(key)
    stack = values[::-1]
    while stack:
        term = stack.pop()
        out.append(term.ctor)
        stack.extend(term.args[::-1])
    return tuple(out)


def _compile_plug(term: Term, index: dict[VarId, int]):
    """term as a function of the values of a hole assignment; hole-free
    parts are shared.  See ``_plug_or_none`` for ``index``."""
    plug = _plug_or_none(term, index)
    return (lambda values: term) if plug is None else plug


def _plug_or_none(term: Term, index: dict[VarId, int]):
    """The plug of a term that holds a hole; None for a hole-free term.

    A plug maps the tuple of values that ``interp.ground_answers`` hands
    its builder to the filled term.  ``index`` gives each hole its position
    in that tuple: a hole not yet in it takes the next position.  Terms are
    walked left to right, so compiling an answer's terms in order numbers
    the holes in first-occurrence order, the enumeration's own.  A node is
    hole-free when all its parts are, so each node is visited once and
    compiling is linear in the size of the term.  The plug of a hole-free
    part returns that part itself, and a node's plug is specialized to its
    arity up to 3, so a filled term allocates only its holed nodes.
    """
    if isinstance(term, Hole):
        return itemgetter(index.setdefault(term.var, len(index)))
    plugs = [_plug_or_none(a, index) for a in term.args]
    if all(p is None for p in plugs):
        return None
    parts = [
        (lambda values, a=a: a) if p is None else p for a, p in zip(term.args, plugs)
    ]
    ctor = term.ctor
    if len(parts) == 1:
        (p0,) = parts
        return lambda values: Node(ctor, (p0(values),))
    if len(parts) == 2:
        p0, p1 = parts
        return lambda values: Node(ctor, (p0(values), p1(values)))
    if len(parts) == 3:
        p0, p1, p2 = parts
        return lambda values: Node(ctor, (p0(values), p1(values), p2(values)))
    return lambda values: Node(ctor, tuple([p(values) for p in parts]))


def proc_vars(proc: DirectedProc) -> tuple[VarId, ...]:
    """The procedure's variables, each once: its params in order, then each
    clause's locals, which hold every other variable its ops use.  The engine
    numbers env slots and ``emit.emit_proc`` names variables by this tuple."""
    clause_locals = (c.locals for c in proc.clauses)
    return tuple(dict.fromkeys(itertools.chain(proc.params, *clause_locals)))
