"""Direction analysis over flat clauses.

Given a relation in superhomogeneous form and a direction, a string of one
``i`` (in) or ``o`` (out) per parameter such as ``"iio"``, each clause is
rescheduled into a list of moded operations where every variable is bound
before it is consumed:

* ``Guard(v, w)``        -- both bound, succeeds when equal;
* ``GuardCtor(v, c, a)`` -- v and all argument variables bound;
* ``Match(v, c, a)``     -- v bound, argument variables fresh, destructures;
* ``Assign(v, t)``       -- v fresh, term fully bound, constructs;
* ``GenerateVar(v)``     -- v fresh, enumerates its type;
* ``DirCall(r, d, a)``   -- call in direction d, in-arguments bound.

Scheduling is greedy: at every step the runnable operation with the best
rank is emitted, with the source position breaking ties.  The ranks, best
first: guards, assignments, matches, checks (calls with every argument
bound, which only test, whether or not their direction is analyzed yet),
calls in an already-known or in-progress direction, calls requiring a fresh
direction inference, and operations that need generation.  So a check runs
as soon as its inputs are bound, ahead of any call that binds.  Out
parameters still unbound after the last operation are generated.  Every
operation is runnable at every step: a call runs in whatever direction its
bound arguments give, and generation binds whatever nothing else binds, so
every direction schedules.

A procedure's determinism is the least fixed point of: generation is
nondet (semidet for singleton types), guards and matches are semidet,
assignments are det, calls take the callee's determinism, and a
multi-clause procedure is nondet unless every clause pair tests some bound
parameter against distinct constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

from .normal import (
    BaseOp,
    FlatCall,
    FlatClause,
    FlatTerm,
    FlatVar,
    NormalProgram,
    op_vars,
)
from .schema import TermSchema, VarId, VarSupply


class ModeError(Exception):
    """Direction analysis failed."""


def check_direction(direction: str, arity: int) -> None:
    """Raise ModeError unless direction is arity characters of 'i'/'o'."""
    if len(direction) != arity or set(direction) - {"i", "o"}:
        raise ModeError(
            f"direction {direction!r} must be {arity} characters of 'i'/'o'"
        )


class Det(IntEnum):
    DET = 0
    SEMIDET = 1
    NONDET = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Guard:
    var: VarId
    other: VarId


@dataclass(frozen=True)
class GuardCtor:
    var: VarId
    ctor: str
    args: tuple[VarId, ...]


@dataclass(frozen=True)
class Match:
    var: VarId
    ctor: str
    args: tuple[VarId, ...]


@dataclass(frozen=True)
class Assign:
    var: VarId
    term: FlatTerm


@dataclass(frozen=True)
class GenerateVar:
    var: VarId


def moded(args: tuple[VarId, ...], direction: str, mode: str) -> tuple[VarId, ...]:
    """The args at the positions whose character in direction is mode."""
    return tuple(a for a, m in zip(args, direction) if m == mode)


@dataclass(frozen=True)
class DirCall:
    rel: str
    direction: str
    args: tuple[VarId, ...]

    @cached_property
    def ins(self) -> tuple[VarId, ...]:
        return moded(self.args, self.direction, "i")

    @cached_property
    def outs(self) -> tuple[VarId, ...]:
        return moded(self.args, self.direction, "o")


ModedOp = Guard | GuardCtor | Match | Assign | GenerateVar | DirCall


def op_binds(op: ModedOp) -> tuple[VarId, ...]:
    if isinstance(op, Match):
        return op.args
    if isinstance(op, (Assign, GenerateVar)):
        return (op.var,)
    if isinstance(op, DirCall):
        return op.outs
    return ()


def op_reads(op: ModedOp) -> tuple[VarId, ...]:
    """The variables an op reads; all are bound before it runs."""
    if isinstance(op, Guard):
        return (op.var, op.other)
    if isinstance(op, GuardCtor):
        return (op.var, *op.args)
    if isinstance(op, Match):
        return (op.var,)
    if isinstance(op, Assign):
        return (op.term.var,) if isinstance(op.term, FlatVar) else op.term.args
    if isinstance(op, DirCall):
        return op.ins
    return ()


@dataclass(frozen=True)
class DirectedClause:
    locals: tuple[VarId, ...]
    ops: tuple[ModedOp, ...]


@dataclass(frozen=True)
class DirectedProc:
    rel: str
    direction: str
    params: tuple[VarId, ...]
    clauses: tuple[DirectedClause, ...]

    @cached_property
    def ins(self) -> tuple[VarId, ...]:
        return moded(self.params, self.direction, "i")

    @cached_property
    def outs(self) -> tuple[VarId, ...]:
        return moded(self.params, self.direction, "o")


class _Analyzer:
    def __init__(self, nprog: NormalProgram) -> None:
        self.nprog = nprog
        # A direction maps to None while its clauses are being scheduled.
        self.memo: dict[tuple[str, str], DirectedProc | None] = {}
        top = 0
        for rel in nprog.relations:
            for v in rel.params:
                top = max(top, v.id + 1)
            for clause in rel.clauses:
                for v in clause.locals:
                    top = max(top, v.id + 1)
                for op in clause.ops:
                    for v in op_vars(op):
                        top = max(top, v.id + 1)
        self.supply = VarSupply(top)

    def infer(self, rel_name: str, direction: str) -> None:
        key = (rel_name, direction)
        if key in self.memo:
            return
        rel = self.nprog.relation(rel_name)
        check_direction(direction, len(rel.params))
        self.memo[key] = None
        clauses = tuple(
            self._schedule(direction, rel.params, clause) for clause in rel.clauses
        )
        self.memo[key] = DirectedProc(rel_name, direction, rel.params, clauses)

    def _schedule(
        self, direction: str, params: tuple[VarId, ...], clause: FlatClause
    ) -> DirectedClause:
        bound = set(moded(params, direction, "i"))
        remaining: list[BaseOp] = list(clause.ops)
        locals_out = list(clause.locals)
        ops: list[ModedOp] = []
        while remaining:
            # Every op has a choice (rank 7 generates whatever is unbound),
            # and min keeps the first, so source position breaks rank ties.
            choices = [self._classify(op, bound) for op in remaining]
            index = min(range(len(choices)), key=lambda i: choices[i][0])
            mops = choices[index][1]
            if mops is None:
                mops, new_locals = self._mixed_match(remaining[index], bound)
                locals_out.extend(new_locals)
            del remaining[index]
            ops.extend(mops)
            for mop in mops:
                if isinstance(mop, DirCall):
                    self.infer(mop.rel, mop.direction)
                bound.update(op_binds(mop))
        outs = moded(params, direction, "o")
        ops.extend(GenerateVar(p) for p in outs if p not in bound)
        return DirectedClause(tuple(locals_out), tuple(ops))

    def _classify(
        self, op: BaseOp, bound: set[VarId]
    ) -> tuple[int, tuple[ModedOp, ...] | None]:
        """(rank, moded ops) of running op next; lower ranks first.

        The ops of a mixed match are None: they draw fresh locals, so
        ``_mixed_match`` builds them only for the op that is chosen.
        """
        if isinstance(op, FlatCall):
            direction = "".join("i" if a in bound else "o" for a in op.args)
            call = DirCall(op.rel, direction, op.args)
            if "o" not in direction:
                return 4, (call,)
            return (5 if (op.rel, direction) in self.memo else 6), (call,)

        term = op.term
        if isinstance(term, FlatVar):
            v, w = op.var, term.var
            if v in bound and w in bound:
                return 1, (Guard(v, w),)
            if v in bound:
                return 2, (Assign(w, FlatVar(v)),)
            if w in bound:
                return 2, (Assign(v, FlatVar(w)),)
            return 7, (GenerateVar(v), Assign(w, FlatVar(v)))

        v = op.var
        have = [a in bound for a in term.args]
        if v in bound:
            if all(have):
                return 1, (GuardCtor(v, term.ctor, term.args),)
            if not any(have):
                return 3, (Match(v, term.ctor, term.args),)
            return 3, None
        if all(have):
            return 2, (Assign(v, term),)
        gens = tuple(GenerateVar(a) for a, known in zip(term.args, have) if not known)
        return 7, gens + (Assign(v, term),)

    def _mixed_match(
        self, op: BaseOp, bound: set[VarId]
    ) -> tuple[tuple[ModedOp, ...], list[VarId]]:
        """(moded ops, new locals) of a mixed match: destructure onto fresh
        locals, then check the bound arguments against them."""
        term = op.term
        args = [self.supply.fresh(a.type) if a in bound else a for a in term.args]
        checks = [Guard(f, a) for f, a in zip(args, term.args) if f is not a]
        mops = (Match(op.var, term.ctor, tuple(args)), *checks)
        return mops, [g.var for g in checks]


class ModeTable:
    """Scheduled procedures plus their determinism, for one flat program."""

    def __init__(
        self,
        nprog: NormalProgram,
        procs: dict[tuple[str, str], DirectedProc],
        dets: dict[tuple[str, str], Det],
    ) -> None:
        self.nprog = nprog
        self.procs = procs
        self.dets = dets

    def proc(self, rel: str, direction: str) -> DirectedProc:
        proc = self.procs.get((rel, direction))
        if proc is None:
            raise ModeError(f"{rel}^{direction} was not analyzed")
        return proc

    def det(self, rel: str, direction: str) -> Det:
        det = self.dets.get((rel, direction))
        if det is None:
            raise ModeError(f"{rel}^{direction} was not analyzed")
        return det


def analyze(
    nprog: NormalProgram,
    requests: list[tuple[str, str]],
) -> ModeTable:
    """Schedule the requested procedures (plus everything they call)."""
    analyzer = _Analyzer(nprog)
    for rel, direction in requests:
        analyzer.infer(rel, direction)
    procs = dict(analyzer.memo)
    dets = _det_fixpoint(procs, nprog.schema)
    return ModeTable(nprog, procs, dets)


# --- determinism ---


def _op_det(
    op: ModedOp, dets: dict[tuple[str, str], Det], schema: TermSchema
) -> Det:
    if isinstance(op, (Guard, GuardCtor, Match)):
        return Det.SEMIDET
    if isinstance(op, Assign):
        return Det.DET
    if isinstance(op, GenerateVar):
        # A singleton type has exactly one value, so generation can still
        # fail upstream but never multiplies answers.
        return Det.SEMIDET if schema.is_singleton(op.var.type) else Det.NONDET
    return dets.get((op.rel, op.direction), Det.DET)


def _first_test(clause: DirectedClause, var: VarId) -> str | None:
    for op in clause.ops:
        if isinstance(op, (Match, GuardCtor)) and op.var == var:
            return op.ctor
    return None


def _pair_exclusive(a: DirectedClause, b: DirectedClause, in_params) -> bool:
    for v in in_params:
        ta, tb = _first_test(a, v), _first_test(b, v)
        if ta is not None and tb is not None and ta != tb:
            return True
    return False


def _clauses_exclusive(proc: DirectedProc) -> bool:
    clauses = proc.clauses
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            if not _pair_exclusive(clauses[i], clauses[j], proc.ins):
                return False
    return True


def _proc_det(
    proc: DirectedProc, dets: dict[tuple[str, str], Det], schema: TermSchema
) -> Det:
    clause_dets = [
        max((_op_det(op, dets, schema) for op in c.ops), default=Det.DET)
        for c in proc.clauses
    ]
    if not clause_dets:
        return Det.DET
    if len(clause_dets) == 1:
        return clause_dets[0]
    if _clauses_exclusive(proc):
        return max(Det.SEMIDET, max(clause_dets))
    return Det.NONDET


def _det_fixpoint(
    procs: dict[tuple[str, str], DirectedProc], schema: TermSchema
) -> dict[tuple[str, str], Det]:
    dets = {key: Det.DET for key in procs}
    while True:
        nxt = {key: _proc_det(proc, dets, schema) for key, proc in procs.items()}
        if nxt == dets:
            return dets
        dets = nxt
