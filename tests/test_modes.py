"""Scheduling and determinism goldens, hand-derived from the greedy rules."""

from __future__ import annotations

import pytest

from kanrel.modes import (
    Assign,
    Det,
    DirCall,
    DirectedClause,
    DirectedProc,
    GenerateVar,
    Guard,
    GuardCtor,
    Match,
    ModeError,
    ModeTable,
    analyze,
    check_direction,
    op_binds,
)
from kanrel.normal import FlatCtor, FlatVar, normalize_program, op_vars
from kanrel.parser import parse_program

from conftest import corpus_program, schedulable_corpus_tables

ALL_ADDO_DIRS = ["iii", "iio", "ioi", "ioo", "oii", "oio", "ooi", "ooo"]


def table_for(name: str, requests) -> ModeTable:
    nprog = normalize_program(corpus_program(name))
    return analyze(nprog, requests)


def kinds(clause: DirectedClause) -> list[str]:
    return [type(op).__name__ for op in clause.ops]


def validate_proc(proc: DirectedProc) -> None:
    """Every op must consume only bound variables and bind fresh ones."""
    for clause in proc.clauses:
        bound = {p for p, m in zip(proc.params, proc.direction) if m == "i"}
        for op in clause.ops:
            if isinstance(op, Guard):
                assert op.var in bound and op.other in bound
            elif isinstance(op, GuardCtor):
                assert op.var in bound and set(op.args) <= bound
            elif isinstance(op, Match):
                assert op.var in bound
                assert not set(op.args) & bound
            elif isinstance(op, Assign):
                assert op.var not in bound
                if isinstance(op.term, FlatVar):
                    assert op.term.var in bound
                else:
                    assert set(op.term.args) <= bound
            elif isinstance(op, GenerateVar):
                assert op.var not in bound
            elif isinstance(op, DirCall):
                for a, m in zip(op.args, op.direction):
                    if m == "i":
                        assert a in bound
                    else:
                        assert a not in bound
            bound.update(op_binds(op))
        assert set(proc.params) <= bound
        assert set(clause.locals) <= bound


# --- direction plumbing ---


def test_check_direction():
    check_direction("iio", 3)
    check_direction("", 0)
    with pytest.raises(ModeError):
        check_direction("ix", 2)
    with pytest.raises(ModeError):
        check_direction("ii", 3)


def test_table_rejects_unknown_requests():
    table = table_for("nat", [("addo", "iio")])
    with pytest.raises(ModeError):
        table.proc("addo", "ooo")
    with pytest.raises(ModeError):
        table.det("addo", "ooo")


def test_infer_arity_mismatch():
    nprog = normalize_program(corpus_program("nat"))
    with pytest.raises(ModeError):
        analyze(nprog, [("addo", "ii")])


# --- addo schedules, all eight directions ---

ADDO_KINDS = {
    "iii": (["GuardCtor", "Guard"], ["Match", "Match", "DirCall"]),
    "iio": (["GuardCtor", "Assign"], ["Match", "DirCall", "Assign"]),
    "ioi": (["GuardCtor", "Assign"], ["Match", "Match", "DirCall"]),
    "ioo": (["GuardCtor", "GenerateVar", "Assign"], ["Match", "DirCall", "Assign"]),
    "oii": (["Guard", "Assign"], ["Match", "DirCall", "Assign"]),
    "oio": (["Assign", "Assign"], ["DirCall", "Assign", "Assign"]),
    "ooi": (["Assign", "Assign"], ["Match", "DirCall", "Assign"]),
    "ooo": (["Assign", "GenerateVar", "Assign"], ["DirCall", "Assign", "Assign"]),
}


@pytest.mark.parametrize("dir_text", ALL_ADDO_DIRS)
def test_addo_schedule_kinds(dir_text):
    table = table_for("nat", [("addo", dir_text)])
    proc = table.proc("addo", dir_text)
    want0, want1 = ADDO_KINDS[dir_text]
    assert kinds(proc.clauses[0]) == want0
    assert kinds(proc.clauses[1]) == want1
    # The recursive call always runs in the procedure's own direction.
    for clause in proc.clauses:
        for op in clause.ops:
            if isinstance(op, DirCall):
                assert op.rel == "addo"
                assert op.direction == proc.direction
    validate_proc(proc)


def test_addo_iio_exact():
    table = table_for("nat", [("addo", "iio")])
    proc = table.proc("addo", "iio")
    x, y, z = proc.params
    c0, c1 = proc.clauses
    assert c0.ops == (
        GuardCtor(x, "O", ()),
        Assign(z, FlatVar(y)),
    )
    x2, z2 = c1.locals
    assert c1.ops == (
        Match(x, "S", (x2,)),
        DirCall("addo", "iio", (x2, y, z2)),
        Assign(z, FlatCtor("S", (z2,))),
    )


def test_addo_ooi_exact():
    table = table_for("nat", [("addo", "ooi")])
    proc = table.proc("addo", "ooi")
    x, y, z = proc.params
    c0, c1 = proc.clauses
    assert c0.ops == (
        Assign(x, FlatCtor("O", ())),
        Assign(y, FlatVar(z)),
    )
    x2, z2 = c1.locals
    assert c1.ops == (
        Match(z, "S", (z2,)),
        DirCall("addo", "ooi", (x2, y, z2)),
        Assign(x, FlatCtor("S", (x2,))),
    )


def test_addo_ioo_exact():
    table = table_for("nat", [("addo", "ioo")])
    proc = table.proc("addo", "ioo")
    x, y, z = proc.params
    c0, c1 = proc.clauses
    assert c0.ops == (
        GuardCtor(x, "O", ()),
        GenerateVar(y),
        Assign(z, FlatVar(y)),
    )
    x2, z2 = c1.locals
    assert c1.ops == (
        Match(x, "S", (x2,)),
        DirCall("addo", "ioo", (x2, y, z2)),
        Assign(z, FlatCtor("S", (z2,))),
    )


# --- determinism ---


def test_addo_determinism():
    table = table_for("nat", [("addo", d) for d in ALL_ADDO_DIRS])
    want = {
        "iii": Det.SEMIDET,
        "iio": Det.SEMIDET,
        "ioi": Det.SEMIDET,
        "ioo": Det.NONDET,
        "oii": Det.NONDET,
        "oio": Det.NONDET,
        "ooi": Det.NONDET,
        "ooo": Det.NONDET,
    }
    got = {d: table.det("addo", d) for d in ALL_ADDO_DIRS}
    assert got == want


def test_sort_determinism():
    table = table_for("sort", [("sorto", "io"), ("sorto", "oi")])
    assert table.det("sorto", "io") is Det.NONDET
    assert table.det("sorto", "oi") is Det.NONDET
    assert table.det("inserto", "iio") is Det.NONDET
    assert table.det("inserto", "ooi") is Det.NONDET
    assert table.det("leo", "ii") is Det.SEMIDET
    assert table.det("gto", "ii") is Det.SEMIDET


def test_balance_determinism():
    table = table_for("balance", [("balanceo", "oo"), ("leaves", "io")])
    assert table.det("leaves", "io") is Det.SEMIDET
    assert table.det("near", "ii") is Det.NONDET
    assert table.det("balanceo", "oo") is Det.NONDET


def test_typecheck_determinism():
    table = table_for("typecheck", [("typo", "io"), ("typo", "oi")])
    assert table.det("typo", "io") is Det.SEMIDET
    assert table.det("typo", "oi") is Det.NONDET


def test_singleton_generation_is_semidet():
    program = parse_program(
        """
        type Unit = U.
        type Nat = O | S(Nat).
        rel uo(x: Unit, y: Nat) = y == O.
        """
    )
    table = analyze(normalize_program(program), [("uo", "oi")])
    proc = table.proc("uo", "oi")
    assert kinds(proc.clauses[0]) == ["GuardCtor", "GenerateVar"]
    assert table.det("uo", "oi") is Det.SEMIDET


# --- sort and balance schedules ---


def test_sorto_oi_schedule():
    table = table_for("sort", [("sorto", "oi")])
    proc = table.proc("sorto", "oi")
    assert kinds(proc.clauses[0]) == ["GuardCtor", "Assign"]
    c1 = proc.clauses[1]
    assert kinds(c1) == ["DirCall", "DirCall", "Assign"]
    first, second, _ = c1.ops
    assert (first.rel, first.direction) == ("inserto", "ooi")
    assert (second.rel, second.direction) == ("sorto", "oi")
    for key in [("inserto", "ooi"), ("leo", "ii"), ("gto", "ii")]:
        validate_proc(table.proc(*key))
    validate_proc(proc)


def test_sorto_io_schedule():
    table = table_for("sort", [("sorto", "io")])
    proc = table.proc("sorto", "io")
    c1 = proc.clauses[1]
    assert kinds(c1) == ["Match", "DirCall", "DirCall"]
    _, first, second = c1.ops
    assert (first.rel, first.direction) == ("sorto", "io")
    assert (second.rel, second.direction) == ("inserto", "iio")
    validate_proc(proc)


def test_inserto_ooi_schedule():
    table = table_for("sort", [("inserto", "ooi")])
    proc = table.proc("inserto", "ooi")
    assert kinds(proc.clauses[0]) == ["Assign", "Assign", "Match", "Guard"]
    assert kinds(proc.clauses[1]) == ["Match", "Match", "DirCall"]
    assert kinds(proc.clauses[2]) == ["Match", "DirCall", "Assign", "DirCall"]
    recursive = proc.clauses[2].ops[1]
    assert (recursive.rel, recursive.direction) == ("inserto", "ooi")
    validate_proc(proc)


def test_inserto_iio_schedule():
    table = table_for("sort", [("inserto", "iio")])
    proc = table.proc("inserto", "iio")
    assert kinds(proc.clauses[0]) == ["GuardCtor", "Assign", "Assign"]
    assert kinds(proc.clauses[1]) == ["Assign", "Match", "DirCall"]
    # The gto test reads only x and h, so it runs before the recursion.
    assert kinds(proc.clauses[2]) == ["Match", "DirCall", "DirCall", "Assign"]
    check, recurse = proc.clauses[2].ops[1:3]
    assert (check.rel, check.direction) == ("gto", "ii")
    assert (recurse.rel, recurse.direction) == ("inserto", "iio")
    validate_proc(proc)


def test_balanceo_oo_schedule():
    table = table_for("balance", [("balanceo", "oo")])
    proc = table.proc("balanceo", "oo")
    (clause,) = proc.clauses
    assert kinds(clause) == ["DirCall", "DirCall"]
    leaves, balanced = clause.ops
    assert (leaves.rel, leaves.direction) == ("leaves", "oo")
    assert (balanced.rel, balanced.direction) == ("balanced", "oi")
    for proc in table.procs.values():
        validate_proc(proc)


def test_balanced_oi_schedule():
    table = table_for("balance", [("balanced", "oi")])
    proc = table.proc("balanced", "oi")
    (n,) = (p for p, m in zip(proc.params, proc.direction) if m == "i")
    ops = proc.clauses[1].ops
    assert kinds(proc.clauses[1]) == [
        "DirCall", "Match", "Match", "DirCall", "DirCall", "DirCall", "Assign",
    ]
    split, _, _, near, left, right, _ = ops
    calls = [(op.rel, op.direction) for op in (split, near, left, right)]
    assert calls == [
        ("addo", "ooi"), ("near", "ii"), ("balanced", "oi"), ("balanced", "oi"),
    ]
    assert split.args[2] == n
    # near tests the split that addo just made, before either subtree exists.
    assert near.args == split.args[:2]
    assert (left.args[1], right.args[1]) == split.args[:2]
    validate_proc(proc)


def test_typo_oi_schedule():
    table = table_for("typecheck", [("typo", "oi")])
    proc = table.proc("typo", "oi")
    assert kinds(proc.clauses[0]) == ["GuardCtor", "GenerateVar", "Assign"]
    assert kinds(proc.clauses[2]) == [
        "GuardCtor",
        "Assign",
        "Assign",
        "DirCall",
        "DirCall",
        "Assign",
    ]
    validate_proc(proc)


# --- mixed destructuring, appended generation, stuck reporting ---


def test_mixed_match_splits_bound_argument():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        type NatList = Nil | Cons(Nat, NatList).
        rel heado(x: Nat, l: NatList) = fresh t . l == Cons(x, t).
        """
    )
    table = analyze(normalize_program(program), [("heado", "ii")])
    proc = table.proc("heado", "ii")
    (clause,) = proc.clauses
    assert kinds(clause) == ["Match", "Guard"]
    match, guard = clause.ops
    x, _ = proc.params
    assert match.args[0] != x
    assert guard == Guard(match.args[0], x)
    assert match.args[0] in clause.locals
    validate_proc(proc)


def test_unused_out_param_is_generated():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        rel anyo(x: Nat, y: Nat) = x == O.
        """
    )
    table = analyze(normalize_program(program), [("anyo", "io")])
    proc = table.proc("anyo", "io")
    (clause,) = proc.clauses
    assert clause.ops == (
        GuardCtor(proc.params[0], "O", ()),
        GenerateVar(proc.params[1]),
    )
    assert table.det("anyo", "io") is Det.NONDET


def test_subo_io_calls_addo_ooi():
    program = parse_program(
        """
        type Nat = O | S(Nat).
        rel addo(x: Nat, y: Nat, z: Nat) =
            x == O, y == z
          | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2)).
        rel subo(z: Nat, x: Nat) = fresh y . addo(x, y, z).
        """
    )
    table = analyze(normalize_program(program), [("subo", "io")])
    proc = table.proc("subo", "io")
    assert kinds(proc.clauses[0]) == ["DirCall"]
    assert proc.clauses[0].ops[0].direction == "ooi"


def test_corpus_wide_validation():
    requests = {
        "nat": [("addo", d) for d in ALL_ADDO_DIRS],
        "sort": [("sorto", "io"), ("sorto", "oi"), ("inserto", "iio")],
        "balance": [("balanceo", "oo"), ("leaves", "io"), ("leaves", "oi")],
        "typecheck": [("typo", "io"), ("typo", "oi"), ("typo", "ii")],
    }
    for name, reqs in requests.items():
        table = table_for(name, reqs)
        for proc in table.procs.values():
            validate_proc(proc)


def late_checks(proc: DirectedProc) -> list[tuple[int, int]]:
    """(clause, op) of each check scheduled after a binding call or a generate
    that followed the op binding the check's last argument."""
    late = []
    for ci, clause in enumerate(proc.clauses):
        bound_at = dict.fromkeys(proc.ins, -1)
        for i, op in enumerate(clause.ops):
            if isinstance(op, DirCall) and not op.outs:
                ready = max(bound_at[a] for a in op.args)
                between = clause.ops[ready + 1 : i]
                if any(
                    isinstance(b, GenerateVar) or (isinstance(b, DirCall) and b.outs)
                    for b in between
                ):
                    late.append((ci, i))
            for v in op_binds(op):
                bound_at[v] = i
    return late


def test_checks_run_as_soon_as_their_inputs_are_bound():
    pairs = schedulable_corpus_tables()
    assert len(pairs) == 72
    late = [
        (query, key, where)
        for query, table in pairs
        for key, proc in table.procs.items()
        for where in late_checks(proc)
    ]
    assert late == []


def test_the_analyzer_draws_only_the_locals_it_keeps():
    # Ranking an op must not draw: only the chosen mixed match adds fresh
    # locals, so the added ids run from the first free id with no gaps.
    for query, table in schedulable_corpus_tables():
        nprog = table.nprog
        source = {
            v
            for rel in nprog.relations
            for v in rel.params
            + tuple(v for c in rel.clauses for v in c.locals)
            + tuple(v for c in rel.clauses for op in c.ops for v in op_vars(op))
        }
        top = max(v.id for v in source) + 1
        added = sorted(
            v.id
            for proc in table.procs.values()
            for clause in proc.clauses
            for v in clause.locals
            if v not in source
        )
        assert added == list(range(top, top + len(added))), query
