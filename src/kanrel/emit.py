"""Directed procedures as text: what ``kanrel convert`` prints.

The text is read off the plan the engine runs: ``generate``/``defer`` and
the ``# tabled`` and ``# tail`` marks come from ``convert.static_plan`` and
``convert.tail_calls``, and variables are named in ``convert.proc_vars``
order, the order of the engine's env slots.
"""

from __future__ import annotations

from .convert import SourceId, proc_vars, static_plan, tail_calls
from .modes import (
    Assign,
    Det,
    DirCall,
    DirectedProc,
    GenerateVar,
    Guard,
    GuardCtor,
    Match,
    ModeTable,
    ModedOp,
)
from .normal import FlatVar
from .pretty import display_names
from .schema import VarId


def transitive_procs(table: ModeTable, rel: str, direction: str) -> list[DirectedProc]:
    """The requested procedure followed by everything it calls, in BFS order."""
    seen = {(rel, direction)}
    order = [table.proc(rel, direction)]
    for proc in order:  # order is the BFS queue: it grows as it is read
        for clause in proc.clauses:
            for op in clause.ops:
                if isinstance(op, DirCall) and (op.rel, op.direction) not in seen:
                    seen.add((op.rel, op.direction))
                    order.append(table.proc(op.rel, op.direction))
    return order


def emit_proc(
    proc: DirectedProc,
    det: Det,
    inline: set[SourceId],
    tabled: set[tuple[str, str]],
    tails: set[SourceId],
) -> str:
    """One procedure as text; ``inline`` and ``tabled`` are from its table's
    ``static_plan`` and ``tails`` from ``tail_calls``.  Calls of a tabled
    procedure are marked ``# tabled``, and tail calls ``# tail``."""
    names = display_names(proc_vars(proc))
    ins = [names[p] for p in proc.ins]
    outs = [names[p] for p in proc.outs]
    combinator = "firstOf" if det <= Det.SEMIDET else "interleaveOf"
    name = f"{proc.rel}_{proc.direction}"
    lines = [
        f"proc {name}({', '.join(ins)}) -> ({', '.join(outs)}):  # {det}",
        f"  {combinator}:",
    ]
    for ci, clause in enumerate(proc.clauses):
        lines.append("    allOf:")
        if not clause.ops:
            lines.append("      succeed")
        for oi, op in enumerate(clause.ops):
            src = proc.rel, proc.direction, ci, oi
            reads = isinstance(op, DirCall) and (op.rel, op.direction) in tabled
            mark = "  # tabled" if reads else "  # tail" if src in tails else ""
            lines.append(f"      {_emit_op(op, names, src in inline)}{mark}")
    return "\n".join(lines)


def _emit_op(op: ModedOp, names: dict[VarId, str], enumerates: bool) -> str:
    """An op as text; ``enumerates`` tells an inline generator from a deferred one."""
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
        verb = "generate" if enumerates else "defer"
        return f"{verb} {names[op.var]} : {op.var.type}"
    call = f"{op.rel}_{op.direction}({', '.join(names[a] for a in op.ins)})"
    if op.outs:
        return f"({', '.join(names[a] for a in op.outs)}) := {call}"
    return f"check {call}"


def _emit_ctor(ctor: str, args: tuple[VarId, ...], names: dict[VarId, str]) -> str:
    if not args:
        return ctor
    return f"{ctor}({', '.join(names[a] for a in args)})"


def emit_text(table: ModeTable, rel: str, direction: str) -> str:
    procs = transitive_procs(table, rel, direction)
    inline, _, tabled = static_plan(table)
    marks = inline, tabled, tail_calls(table, inline, tabled)
    chunks = [emit_proc(p, table.det(p.rel, p.direction), *marks) for p in procs]
    return "\n\n".join(chunks) + "\n"
