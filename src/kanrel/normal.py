"""Flattening to superhomogeneous form.

A normalized relation is a set of flat clauses over base operations:

* ``FlatUnify(v, w)``            -- variable/variable;
* ``FlatUnify(v, C(v1..vk))``    -- variable/constructor, argument variables
  pairwise distinct;
* ``FlatCall(rel, (v1..vk))``    -- calls take variables only.

Nested terms get fresh clause-local variables, emitted parent first, then
children.  Disjunctions nested under a conjunction are extracted innermost
first into auxiliary relations named ``<parent>$disj<k>`` whose parameters
are the free variables of the extracted subgoal; a top-level disjunction
(possibly under fresh) just contributes clauses.  Flattening never throws
away or reorders user goals, so a clause's operation order follows the
source text.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    UnknownRelation,
    fold_goal,
)
from .schema import Hole, Node, Term, TermSchema, VarId, VarSupply
from .pretty import relation_vars


@dataclass(frozen=True)
class FlatVar:
    var: VarId


@dataclass(frozen=True)
class FlatCtor:
    ctor: str
    args: tuple[VarId, ...]


FlatTerm = FlatVar | FlatCtor


@dataclass(frozen=True)
class FlatUnify:
    var: VarId
    term: FlatTerm


@dataclass(frozen=True)
class FlatCall:
    rel: str
    args: tuple[VarId, ...]


BaseOp = FlatUnify | FlatCall


@dataclass(frozen=True)
class FlatClause:
    locals: tuple[VarId, ...]
    ops: tuple[BaseOp, ...]


@dataclass(frozen=True)
class NormalRelation:
    name: str
    params: tuple[VarId, ...]
    clauses: tuple[FlatClause, ...]


@dataclass(frozen=True)
class NormalProgram:
    schema: TermSchema
    relations: tuple[NormalRelation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", {r.name: r for r in self.relations})

    def relation(self, name: str) -> NormalRelation:
        rel = self._by_name.get(name)  # type: ignore[attr-defined]
        if rel is None:
            raise UnknownRelation(f"no relation named {name}")
        return rel


def op_vars(op: BaseOp) -> tuple[VarId, ...]:
    if isinstance(op, FlatCall):
        return op.args
    if isinstance(op.term, FlatVar):
        return (op.var, op.term.var)
    return (op.var,) + op.term.args


@dataclass
class _Clause:
    locals: list[VarId]
    ops: list[BaseOp]


class _Normalizer(GoalInterpreter[list[_Clause]]):
    """Bottom-up flattening; each goal folds to a list of alternative clauses."""

    def __init__(self, schema: TermSchema, supply: VarSupply, parent: str) -> None:
        self.schema = schema
        self.supply = supply
        self.parent = parent
        self.aux: list[NormalRelation] = []
        self._next_aux = 1

    def fresh_local(self, type_name: str) -> VarId:
        return self.supply.fresh(type_name)

    # --- term flattening ---

    def flatten_into(self, var: VarId, term: Term, clause: _Clause) -> None:
        """Emit ops making var equal to term; parent op first, children after."""
        if isinstance(term, Hole):
            clause.ops.append(FlatUnify(var, FlatVar(term.var)))
            return
        decl, _ = self.schema.ctor(term.ctor)
        used = {var}
        arg_vars: list[VarId] = []
        pending: list[tuple[VarId, Term]] = []
        for sub, slot in zip(term.args, decl.arg_types):
            if isinstance(sub, Hole) and sub.var not in used:
                used.add(sub.var)
                arg_vars.append(sub.var)
            else:
                local = self.fresh_local(slot)
                clause.locals.append(local)
                arg_vars.append(local)
                pending.append((local, sub))
        clause.ops.append(FlatUnify(var, FlatCtor(term.ctor, tuple(arg_vars))))
        for local, sub in pending:
            self.flatten_into(local, sub, clause)

    def flatten_unify(self, lhs: Term, rhs: Term, clause: _Clause) -> None:
        if isinstance(lhs, Hole):
            self.flatten_into(lhs.var, rhs, clause)
        elif isinstance(rhs, Hole):
            self.flatten_into(rhs.var, lhs, clause)
        else:
            # Constructor against constructor: a shared fresh variable is
            # flattened against both sides.
            _, owner = self.schema.ctor(lhs.ctor)
            shared = self.fresh_local(owner)
            clause.locals.append(shared)
            self.flatten_into(shared, lhs, clause)
            self.flatten_into(shared, rhs, clause)

    def flatten_arg(self, term: Term, clause: _Clause, slot: str) -> VarId:
        if isinstance(term, Hole):
            return term.var
        local = self.fresh_local(slot)
        clause.locals.append(local)
        self.flatten_into(local, term, clause)
        return local

    # --- goal folding ---

    def on_unify(self, goal: Unify) -> list[_Clause]:
        clause = _Clause([], [])
        self.flatten_unify(goal.lhs, goal.rhs, clause)
        return [clause]

    def on_call(self, goal: Call) -> list[_Clause]:
        clause = _Clause([], [])
        args: list[VarId] = []
        for arg in goal.args:
            slot = arg.var.type if isinstance(arg, Hole) else self.schema.ctor(arg.ctor)[1]
            v = self.flatten_arg(arg, clause, slot)
            if v in args:
                # A repeated argument splits so every call slot is distinct.
                local = self.fresh_local(slot)
                clause.locals.append(local)
                clause.ops.append(FlatUnify(local, FlatVar(v)))
                v = local
            args.append(v)
        clause.ops.append(FlatCall(goal.rel, tuple(args)))
        return [clause]

    def on_conj(self, goal: Conj, parts: tuple[list[_Clause], ...]) -> list[_Clause]:
        merged = _Clause([], [])
        for part in parts:
            if len(part) == 1:
                merged.locals.extend(part[0].locals)
                merged.ops.extend(part[0].ops)
            else:
                call = self.extract_aux(part)
                merged.ops.append(call)
        return [merged]

    def on_disj(self, goal: Disj, parts: tuple[list[_Clause], ...]) -> list[_Clause]:
        out: list[_Clause] = []
        for part in parts:
            out.extend(part)
        return out

    def on_fresh(self, goal: Fresh, body: list[_Clause]) -> list[_Clause]:
        for clause in body:
            used = {v for op in clause.ops for v in op_vars(op)}
            clause.locals = [v for v in goal.vars if v in used] + clause.locals
        return body

    def extract_aux(self, clauses: list[_Clause]) -> FlatCall:
        """Close a nested disjunction over its free variables as a relation."""
        params: dict[VarId, None] = {}
        for clause in clauses:
            local_set = set(clause.locals)
            for op in clause.ops:
                for v in op_vars(op):
                    if v not in local_set:
                        params.setdefault(v)
        name = f"{self.parent}$disj{self._next_aux}"
        self._next_aux += 1
        rel = NormalRelation(
            name,
            tuple(params),
            tuple(_freeze_clause(c, tuple(params)) for c in clauses),
        )
        self.aux.append(rel)
        return FlatCall(name, tuple(params))


def _freeze_clause(clause: _Clause, params: tuple[VarId, ...]) -> FlatClause:
    if not clause.ops and params:
        # A clause with no operations still needs to succeed explicitly.
        p = params[0]
        return FlatClause((), (FlatUnify(p, FlatVar(p)),))
    return FlatClause(tuple(dict.fromkeys(clause.locals)), tuple(clause.ops))


def normalize_relation(
    relation: Relation, schema: TermSchema, supply: VarSupply
) -> tuple[NormalRelation, list[NormalRelation]]:
    norm = _Normalizer(schema, supply, relation.name)
    clauses = fold_goal(norm, relation.body)
    frozen = tuple(_freeze_clause(c, relation.params) for c in clauses)
    return NormalRelation(relation.name, relation.params, frozen), norm.aux


def normalize_program(program: Program) -> NormalProgram:
    """Flatten every relation; auxiliary relations follow their parent."""
    top = 0
    for rel in program.relations:
        ids = [v.id for v in relation_vars(rel)]
        top = max(top, max(ids, default=-1) + 1)
    supply = VarSupply(top)
    out: list[NormalRelation] = []
    for rel in program.relations:
        main, aux = normalize_relation(rel, program.schema, supply)
        out.append(main)
        out.extend(aux)
    return NormalProgram(program.schema, tuple(out))


def check_normal(nprog: NormalProgram) -> list[str]:
    """All violations of superhomogeneous form, as human-readable strings."""
    problems: list[str] = []
    schema = nprog.schema
    names = {r.name for r in nprog.relations}
    for rel in nprog.relations:
        if len(set(rel.params)) != len(rel.params):
            problems.append(f"{rel.name}: repeated parameter")
        for ci, clause in enumerate(rel.clauses):
            where = f"{rel.name} clause {ci}"
            scope = set(rel.params) | set(clause.locals)
            if set(rel.params) & set(clause.locals):
                problems.append(f"{where}: a local shadows a parameter")
            for op in clause.ops:
                for v in op_vars(op):
                    if v not in scope:
                        problems.append(f"{where}: {v!r} is not declared")
                if isinstance(op, FlatCall):
                    if op.rel not in names:
                        problems.append(f"{where}: unknown relation {op.rel}")
                    else:
                        callee = nprog.relation(op.rel)
                        if len(op.args) != len(callee.params):
                            problems.append(f"{where}: bad arity calling {op.rel}")
                        elif any(
                            a.type != p.type for a, p in zip(op.args, callee.params)
                        ):
                            problems.append(f"{where}: argument type mismatch in {op}")
                    if len(set(op.args)) != len(op.args):
                        problems.append(f"{where}: repeated argument variable in {op}")
                    continue
                if isinstance(op.term, FlatVar):
                    if op.term.var.type != op.var.type:
                        problems.append(f"{where}: type mismatch in {op}")
                    continue
                try:
                    decl, owner = schema.ctor(op.term.ctor)
                except Exception:
                    problems.append(f"{where}: unknown constructor {op.term.ctor}")
                    continue
                if owner != op.var.type:
                    problems.append(f"{where}: {op.var!r} cannot hold {op.term.ctor}")
                if len(op.term.args) != len(decl.arg_types):
                    problems.append(f"{where}: bad arity for {op.term.ctor}")
                elif any(
                    a.type != slot for a, slot in zip(op.term.args, decl.arg_types)
                ):
                    problems.append(f"{where}: argument type mismatch in {op}")
                if len(set(op.term.args)) != len(op.term.args):
                    problems.append(f"{where}: repeated argument variable in {op}")
    return problems


def embed_op(op: BaseOp) -> Goal:
    if isinstance(op, FlatCall):
        return Call(op.rel, tuple(Hole(v) for v in op.args))
    if isinstance(op.term, FlatVar):
        return Unify(Hole(op.var), Hole(op.term.var))
    return Unify(Hole(op.var), Node(op.term.ctor, tuple(Hole(v) for v in op.term.args)))


def embed_clause(clause: FlatClause) -> Goal:
    body: Goal
    if not clause.ops:
        body = Conj(())
    elif len(clause.ops) == 1:
        body = embed_op(clause.ops[0])
    else:
        body = Conj(tuple(embed_op(op) for op in clause.ops))
    if clause.locals:
        return Fresh(clause.locals, body)
    return body


def embed(nprog: NormalProgram) -> Program:
    """Normalized program as a plain goal program (for reuse of the engine)."""
    rels = []
    for rel in nprog.relations:
        clauses = [embed_clause(c) for c in rel.clauses]
        body = clauses[0] if len(clauses) == 1 else Disj(tuple(clauses))
        rels.append(Relation(rel.name, rel.params, body))
    return Program(nprog.schema, tuple(rels))


def count_base_ops(nprog: NormalProgram) -> int:
    return sum(len(c.ops) for r in nprog.relations for c in r.clauses)


def count_source_goals(program: Program) -> int:
    """Number of unification and call goals across all relation bodies."""

    class CountAtoms(GoalInterpreter[int]):
        def on_unify(self, goal):
            return 1

        def on_conj(self, goal, parts):
            return sum(parts)

        def on_disj(self, goal, parts):
            return sum(parts)

        def on_call(self, goal):
            return 1

        def on_fresh(self, goal, body):
            return body

    counter = CountAtoms()
    return sum(fold_goal(counter, rel.body) for rel in program.relations)
