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
parameters still unbound after the last operation are generated.  A
procedure's determinism is the least fixed point of: generation is nondet
(semidet for singleton types), guards and matches are semidet, assignments
are det, calls take the callee's determinism, and a multi-clause procedure
is nondet unless every clause pair tests some bound parameter against
distinct constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

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


class SchedulingStuck(ModeError):
    """No runnable operation remains for some clause in this direction."""


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


@dataclass(frozen=True)
class DirCall:
    rel: str
    direction: str
    args: tuple[VarId, ...]

    @property
    def outs(self) -> tuple[VarId, ...]:
        return tuple(a for a, m in zip(self.args, self.direction) if m == "o")


ModedOp = Guard | GuardCtor | Match | Assign | GenerateVar | DirCall


def op_binds(op: ModedOp) -> tuple[VarId, ...]:
    if isinstance(op, Match):
        return op.args
    if isinstance(op, (Assign, GenerateVar)):
        return (op.var,)
    if isinstance(op, DirCall):
        return op.outs
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


_IN_PROGRESS = object()
_FAILED = object()


@dataclass(frozen=True)
class _Choice:
    rank: int
    pos: int
    index: int
    mops: tuple[ModedOp, ...]
    new_locals: tuple[VarId, ...]
    infer_key: tuple[str, str] | None


class _Analyzer:
    def __init__(self, nprog: NormalProgram) -> None:
        self.nprog = nprog
        self.memo: dict[tuple[str, str], object] = {}
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

    # --- public entry ---

    def infer(self, rel_name: str, direction: str) -> DirectedProc:
        key = (rel_name, direction)
        state = self.memo.get(key)
        if isinstance(state, DirectedProc):
            return state
        if state is _FAILED:
            raise SchedulingStuck(
                f"{rel_name}^{direction} is not schedulable"
            )
        if state is _IN_PROGRESS:
            raise ModeError(f"infer re-entered for {rel_name}")
        rel = self.nprog.relation(rel_name)
        check_direction(direction, len(rel.params))
        self.memo[key] = _IN_PROGRESS
        try:
            clauses = tuple(
                self._schedule(rel_name, direction, rel.params, clause)
                for clause in rel.clauses
            )
        except SchedulingStuck:
            self.memo[key] = _FAILED
            self._purge(key)
            raise
        proc = DirectedProc(rel_name, direction, rel.params, clauses)
        self.memo[key] = proc
        return proc

    def _purge(self, failed: tuple[str, str]) -> None:
        # Procedures scheduled against a direction that later failed must be
        # rebuilt from scratch, since they would now schedule differently.
        dropped = {failed}
        changed = True
        while changed:
            changed = False
            for key, value in list(self.memo.items()):
                if not isinstance(value, DirectedProc):
                    continue
                for clause in value.clauses:
                    if any(
                        isinstance(op, DirCall)
                        and (op.rel, op.direction) in dropped
                        for op in clause.ops
                    ):
                        del self.memo[key]
                        dropped.add(key)
                        changed = True
                        break

    # --- clause scheduling ---

    def _schedule(
        self,
        rel_name: str,
        direction: str,
        params: tuple[VarId, ...],
        clause: FlatClause,
    ) -> DirectedClause:
        bound = {p for p, m in zip(params, direction) if m == "i"}
        remaining: list[tuple[int, BaseOp]] = list(enumerate(clause.ops))
        locals_out = list(clause.locals)
        ops: list[ModedOp] = []
        while remaining:
            choice = self._pick(remaining, bound)
            if choice is None:
                stuck = ", ".join(str(op) for _, op in remaining)
                raise SchedulingStuck(
                    f"{rel_name}^{direction}: "
                    f"no runnable operation among {stuck}"
                )
            del remaining[choice.index]
            ops.extend(choice.mops)
            locals_out.extend(choice.new_locals)
            for mop in choice.mops:
                bound.update(op_binds(mop))
        for p, m in zip(params, direction):
            if m == "o" and p not in bound:
                ops.append(GenerateVar(p))
                bound.add(p)
        return DirectedClause(tuple(locals_out), tuple(ops))

    def _pick(
        self, remaining: list[tuple[int, BaseOp]], bound: set[VarId]
    ) -> _Choice | None:
        while True:
            best: _Choice | None = None
            for index, (pos, op) in enumerate(remaining):
                got = self._classify(op, bound)
                if got is None:
                    continue
                rank, mops, new_locals, infer_key = got
                if best is None or (rank, pos) < (best.rank, best.pos):
                    best = _Choice(rank, pos, index, mops, new_locals, infer_key)
            if best is None:
                return None
            if best.infer_key is not None:
                try:
                    self.infer(*best.infer_key)
                except SchedulingStuck:
                    continue
            return best

    def _classify(
        self, op: BaseOp, bound: set[VarId]
    ) -> tuple[int, tuple[ModedOp, ...], tuple[VarId, ...], tuple[str, str] | None] | None:
        if isinstance(op, FlatCall):
            direction = "".join("i" if a in bound else "o" for a in op.args)
            call = DirCall(op.rel, direction, op.args)
            state = self.memo.get((op.rel, direction))
            if state is _FAILED:
                return None
            analyzed = state is _IN_PROGRESS or isinstance(state, DirectedProc)
            infer_key = None if analyzed else (op.rel, direction)
            if "o" not in direction:
                return 4, (call,), (), infer_key
            return (5 if analyzed else 6), (call,), (), infer_key

        term = op.term
        if isinstance(term, FlatVar):
            v, w = op.var, term.var
            if v in bound and w in bound:
                return 1, (Guard(v, w),), (), None
            if v in bound:
                return 2, (Assign(w, FlatVar(v)),), (), None
            if w in bound:
                return 2, (Assign(v, FlatVar(w)),), (), None
            return 7, (GenerateVar(v), Assign(w, FlatVar(v))), (), None

        v = op.var
        have = [a in bound for a in term.args]
        if v in bound:
            if all(have):
                return 1, (GuardCtor(v, term.ctor, term.args),), (), None
            if not any(have):
                return 3, (Match(v, term.ctor, term.args),), (), None
            # Mixed: destructure onto fresh locals, then check the bound ones.
            fresh_args: list[VarId] = []
            checks: list[ModedOp] = []
            new_locals: list[VarId] = []
            for a, known in zip(term.args, have):
                if known:
                    f = self.supply.fresh(a.type)
                    fresh_args.append(f)
                    new_locals.append(f)
                    checks.append(Guard(f, a))
                else:
                    fresh_args.append(a)
            mops = (Match(v, term.ctor, tuple(fresh_args)), *checks)
            return 3, mops, tuple(new_locals), None
        if all(have):
            return 2, (Assign(v, term),), (), None
        gens = tuple(GenerateVar(a) for a, known in zip(term.args, have) if not known)
        return 7, gens + (Assign(v, term),), (), None


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
    procs = {
        key: value
        for key, value in analyzer.memo.items()
        if isinstance(value, DirectedProc)
    }
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
    in_params = [p for p, m in zip(proc.params, proc.direction) if m == "i"]
    clauses = proc.clauses
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            if not _pair_exclusive(clauses[i], clauses[j], in_params):
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
