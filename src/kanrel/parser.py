"""Surface syntax: tokenizer, recursive-descent parser, and elaboration.

The grammar (``#`` starts a line comment; declarations end with ``.``):

    type Nat = O | S(Nat).
    rel addo(x: Nat, y: Nat, z: Nat) =
        x == O, y == z
      | fresh x2, z2 . (x == S(x2), z == S(z2), addo(x2, y, z2)).

Constructor and type names start uppercase, variable and relation names
start lowercase.  ``|`` separates disjuncts, ``,`` conjuncts; a fresh body
is a single atom, usually parenthesized.  Fresh variables carry no type
annotation: elaboration infers their types from constructor slots, call
signatures, and variable-variable unifications, and rejects relations that
leave a variable's type undetermined.

Elaboration is the one well-formedness check of a program: it rejects
unknown names, arity and type errors, unbound and shadowing variables, and
parameters of undeclared type.  Later stages take the ``Program`` it
returns as well-formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .goals import (
    ArityMismatch,
    Call,
    Conj,
    Disj,
    Fresh,
    Goal,
    Program,
    Relation,
    TypeMismatch,
    UnboundVariable,
    Unify,
    UnknownRelation,
)
from .schema import (
    CtorDecl,
    DuplicateName,
    Hole,
    Node,
    Term,
    TermSchema,
    TypeDecl,
    VarSupply,
)


class ParseError(Exception):
    """Input text does not match the grammar."""


class UnresolvedType(ParseError):
    """No use of a fresh variable pins down its type."""


KEYWORDS = frozenset({"type", "rel", "fresh"})

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<eqeq>==)
    | (?P<sym>[(),.|:=])
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "sym" | "eqeq" | "eof"
    text: str
    line: int
    col: int

    def at(self) -> str:
        return f"line {self.line}, column {self.col}"


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        piece = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {piece!r} at line {line}, column {col}")
        if kind not in ("ws", "comment"):
            out.append(Token(kind, piece, line, col))  # type: ignore[arg-type]
        newlines = piece.count("\n")
        if newlines:
            line += newlines
            col = len(piece) - piece.rfind("\n")
        else:
            col += len(piece)
    out.append(Token("eof", "", line, col))
    return out


# Surface AST: names only; elaboration resolves scoping and types.


@dataclass(frozen=True)
class SVar:
    name: str


@dataclass(frozen=True)
class SCtor:
    name: str
    args: tuple[STerm, ...]


STerm = SVar | SCtor


@dataclass(frozen=True)
class SUnify:
    lhs: STerm
    rhs: STerm


@dataclass(frozen=True)
class SCall:
    rel: str
    args: tuple[STerm, ...]


@dataclass(frozen=True)
class SConj:
    parts: tuple[SGoal, ...]


@dataclass(frozen=True)
class SDisj:
    parts: tuple[SGoal, ...]


@dataclass(frozen=True)
class SFresh:
    names: tuple[str, ...]
    body: SGoal


SGoal = SUnify | SCall | SConj | SDisj | SFresh


@dataclass(frozen=True)
class SRel:
    name: str
    params: tuple[tuple[str, str], ...]  # (name, type)
    body: SGoal


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_sym(self, text: str) -> Token:
        tok = self.advance()
        if tok.kind != "sym" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r} at {tok.at()}")
        return tok

    def expect_ident(self, what: str, upper: bool | None = None) -> Token:
        tok = self.advance()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text!r} at {tok.at()}")
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a keyword ({tok.at()})")
        if upper is True and not tok.text[0].isupper():
            raise ParseError(
                f"{what} must start uppercase, found {tok.text!r} at {tok.at()}"
            )
        if upper is False and not tok.text[0].islower():
            raise ParseError(
                f"{what} must start lowercase, found {tok.text!r} at {tok.at()}"
            )
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    # --- declarations ---

    def parse_program_decls(self) -> tuple[list[TypeDecl], list[SRel]]:
        types: list[TypeDecl] = []
        rels: list[SRel] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "type":
                types.append(self.parse_type_decl())
            elif tok.kind == "ident" and tok.text == "rel":
                rels.append(self.parse_rel_decl())
            else:
                raise ParseError(
                    f"expected a declaration, found {tok.text!r} at {tok.at()}"
                )
        return types, rels

    def parse_type_decl(self) -> TypeDecl:
        self.advance()  # 'type'
        name = self.expect_ident("type name", upper=True).text
        self.expect_sym("=")
        ctors = [self.parse_ctor_decl()]
        while self.at_sym("|"):
            self.advance()
            ctors.append(self.parse_ctor_decl())
        self.expect_sym(".")
        return TypeDecl(name, tuple(ctors))

    def parse_ctor_decl(self) -> CtorDecl:
        name = self.expect_ident("constructor name", upper=True).text
        args: list[str] = []
        if self.at_sym("("):
            self.advance()
            args.append(self.expect_ident("type name", upper=True).text)
            while self.at_sym(","):
                self.advance()
                args.append(self.expect_ident("type name", upper=True).text)
            self.expect_sym(")")
        return CtorDecl(name, tuple(args))

    def parse_rel_decl(self) -> SRel:
        self.advance()  # 'rel'
        name = self.expect_ident("relation name", upper=False).text
        self.expect_sym("(")
        params = [self.parse_param()]
        while self.at_sym(","):
            self.advance()
            params.append(self.parse_param())
        self.expect_sym(")")
        self.expect_sym("=")
        body = self.parse_goal()
        self.expect_sym(".")
        return SRel(name, tuple(params), body)

    def parse_param(self) -> tuple[str, str]:
        name = self.expect_ident("parameter name", upper=False).text
        self.expect_sym(":")
        type_name = self.expect_ident("type name", upper=True).text
        return name, type_name

    # --- goals ---

    def parse_goal(self) -> SGoal:
        parts = [self.parse_conj()]
        while self.at_sym("|"):
            self.advance()
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else SDisj(tuple(parts))

    def parse_conj(self) -> SGoal:
        parts = [self.parse_atom()]
        while self.at_sym(","):
            self.advance()
            parts.append(self.parse_atom())
        return parts[0] if len(parts) == 1 else SConj(tuple(parts))

    def parse_atom(self) -> SGoal:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "fresh":
            self.advance()
            names = [self.expect_ident("variable name", upper=False).text]
            while self.at_sym(","):
                self.advance()
                names.append(self.expect_ident("variable name", upper=False).text)
            self.expect_sym(".")
            body = self.parse_atom()
            return SFresh(tuple(names), body)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.parse_goal()
            self.expect_sym(")")
            return inner
        if (
            tok.kind == "ident"
            and tok.text[0].islower()
            and self.peek(1).kind == "sym"
            and self.peek(1).text == "("
        ):
            rel = self.advance().text
            self.advance()  # '('
            args = [self.parse_term()]
            while self.at_sym(","):
                self.advance()
                args.append(self.parse_term())
            self.expect_sym(")")
            return SCall(rel, tuple(args))
        lhs = self.parse_term()
        eq = self.advance()
        if eq.kind != "eqeq":
            raise ParseError(f"expected '==', found {eq.text!r} at {eq.at()}")
        rhs = self.parse_term()
        return SUnify(lhs, rhs)

    def parse_term(self) -> STerm:
        tok = self.advance()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise ParseError(f"expected a term, found {tok.text!r} at {tok.at()}")
        if tok.text[0].islower():
            return SVar(tok.text)
        args: list[STerm] = []
        if self.at_sym("("):
            self.advance()
            args.append(self.parse_term())
            while self.at_sym(","):
                self.advance()
                args.append(self.parse_term())
            self.expect_sym(")")
        return SCtor(tok.text, tuple(args))


# --- type inference for fresh variables ---


class _TypeSolver:
    """Union-find over variable ids, each class tagged with at most one type."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.tag: dict[int, str] = {}

    def add(self, uid: int) -> None:
        self.parent.setdefault(uid, uid)

    def find(self, uid: int) -> int:
        root = uid
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[uid] != root:
            self.parent[uid], uid = root, self.parent[uid]
        return root

    def set_type(self, uid: int, type_name: str, context: str) -> None:
        root = self.find(uid)
        have = self.tag.get(root)
        if have is not None and have != type_name:
            raise TypeMismatch(
                f"{context}: conflicting types {have} and {type_name}"
            )
        self.tag[root] = type_name

    def union(self, a: int, b: int, context: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        ta, tb = self.tag.get(ra), self.tag.get(rb)
        if ta is not None and tb is not None and ta != tb:
            raise TypeMismatch(f"{context}: conflicting types {ta} and {tb}")
        self.parent[rb] = ra
        if ta is None and tb is not None:
            self.tag[ra] = tb

    def solved(self, uid: int) -> str | None:
        return self.tag.get(self.find(uid))


@dataclass(frozen=True)
class _Binder:
    uid: int
    name: str


class _Elaborator:
    """Resolves names to scoped variables and infers fresh-variable types."""

    def __init__(
        self,
        schema: TermSchema,
        signatures: dict[str, tuple[str, ...]],
        supply: VarSupply,
    ) -> None:
        self.schema = schema
        self.signatures = signatures
        self.supply = supply
        self.solver = _TypeSolver()
        self.next_uid = 0
        self.binders: list[_Binder] = []

    def new_binder(self, name: str) -> _Binder:
        b = _Binder(self.next_uid, name)
        self.next_uid += 1
        self.solver.add(b.uid)
        self.binders.append(b)
        return b

    def elaborate(self, srel: SRel) -> Relation:
        scope: dict[str, _Binder] = {}
        for pname, ptype in srel.params:
            if pname in scope:
                raise DuplicateName(f"relation {srel.name} repeats parameter {pname}")
            if ptype not in self.schema.types_by_name:
                raise TypeMismatch(
                    f"parameter {pname} of {srel.name} has undeclared type {ptype}"
                )
            b = self.new_binder(pname)
            self.solver.set_type(b.uid, ptype, f"parameter {pname} of {srel.name}")
            scope[pname] = b
        skeleton = self.walk_goal(srel.body, scope, srel.name)
        ids = {}
        for b in self.binders:
            solved = self.solver.solved(b.uid)
            if solved is None:
                raise UnresolvedType(
                    f"in {srel.name}: cannot infer the type of variable {b.name}"
                )
            ids[b.uid] = self.supply.fresh(solved, b.name)
        body = _instantiate(skeleton, ids)
        params = tuple(ids[scope_entry.uid] for scope_entry in (scope[p] for p, _ in srel.params))
        return Relation(srel.name, params, body)

    def walk_goal(self, goal: SGoal, scope: dict[str, _Binder], where: str):
        if isinstance(goal, SUnify):
            lhs, lt = self.walk_term(goal.lhs, scope, where)
            rhs, rt = self.walk_term(goal.rhs, scope, where)
            self.constrain_equal(lt, rt, f"in {where}: unification")
            return ("unify", lhs, rhs)
        if isinstance(goal, SConj):
            return ("conj", tuple(self.walk_goal(g, scope, where) for g in goal.parts))
        if isinstance(goal, SDisj):
            return ("disj", tuple(self.walk_goal(g, scope, where) for g in goal.parts))
        if isinstance(goal, SCall):
            sig = self.signatures.get(goal.rel)
            if sig is None:
                raise UnknownRelation(f"in {where}: no relation named {goal.rel}")
            if len(goal.args) != len(sig):
                raise ArityMismatch(
                    f"in {where}: {goal.rel} takes {len(sig)} arguments,"
                    f" got {len(goal.args)}"
                )
            args = []
            for arg, want in zip(goal.args, sig):
                walked, got = self.walk_term(arg, scope, where)
                self.constrain_equal(got, ("type", want), f"in {where}: call to {goal.rel}")
                args.append(walked)
            return ("call", goal.rel, tuple(args))
        # fresh
        inner = dict(scope)
        binders = []
        for name in goal.names:
            if name in inner:
                raise DuplicateName(f"in {where}: fresh shadows {name}")
            b = self.new_binder(name)
            inner[name] = b
            binders.append(b)
        return ("fresh", tuple(binders), self.walk_goal(goal.body, inner, where))

    def walk_term(self, term: STerm, scope: dict[str, _Binder], where: str):
        if isinstance(term, SVar):
            binder = scope.get(term.name)
            if binder is None:
                raise UnboundVariable(
                    f"in {where}: variable {term.name} is not in scope"
                )
            return ("var", binder), ("uid", binder.uid)
        decl, owner = self.schema.ctor(term.name)
        if len(term.args) != len(decl.arg_types):
            raise ArityMismatch(
                f"in {where}: constructor {term.name} takes"
                f" {len(decl.arg_types)} arguments, got {len(term.args)}"
            )
        args = []
        for arg, slot in zip(term.args, decl.arg_types):
            walked, got = self.walk_term(arg, scope, where)
            self.constrain_equal(got, ("type", slot), f"in {where}: {term.name}(...)")
            args.append(walked)
        return ("ctor", term.name, tuple(args)), ("type", owner)

    def constrain_equal(self, a, b, context: str) -> None:
        akind, aval = a
        bkind, bval = b
        if akind == "type" and bkind == "type":
            if aval != bval:
                raise TypeMismatch(f"{context}: {aval} does not match {bval}")
        elif akind == "uid" and bkind == "uid":
            self.solver.union(aval, bval, context)
        elif akind == "uid":
            self.solver.set_type(aval, bval, context)
        else:
            self.solver.set_type(bval, aval, context)


def _instantiate(skeleton, ids) -> Goal:
    kind = skeleton[0]
    if kind == "unify":
        return Unify(_term_from(skeleton[1], ids), _term_from(skeleton[2], ids))
    if kind == "conj":
        return Conj(tuple(_instantiate(g, ids) for g in skeleton[1]))
    if kind == "disj":
        return Disj(tuple(_instantiate(g, ids) for g in skeleton[1]))
    if kind == "call":
        return Call(skeleton[1], tuple(_term_from(t, ids) for t in skeleton[2]))
    binders, body = skeleton[1], skeleton[2]
    return Fresh(tuple(ids[b.uid] for b in binders), _instantiate(body, ids))


def _term_from(walked, ids) -> Term:
    if walked[0] == "var":
        return Hole(ids[walked[1].uid])
    return Node(walked[1], tuple(_term_from(a, ids) for a in walked[2]))


def parse_program(text: str) -> Program:
    """Parse and elaborate a full program; raises on any malformation."""
    parser = _Parser(text)
    type_decls, srels = parser.parse_program_decls()
    schema = TermSchema(tuple(type_decls))
    signatures = {}
    for srel in srels:
        if srel.name in signatures:
            raise DuplicateName(f"relation {srel.name} is declared twice")
        signatures[srel.name] = tuple(ptype for _, ptype in srel.params)
    elab = _Elaborator(schema, signatures, VarSupply())
    relations = tuple(elab.elaborate(srel) for srel in srels)
    return Program(schema, relations)


def parse_ground_term(text: str) -> Node:
    """Parse one ground term, such as a query input; variables are rejected.

    The term is not typed here: the engines type their inputs.  The Node is
    built without recursion, in post-order over the surface term.
    """
    parser = _Parser(text)
    sterm = parser.parse_term()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r} at {trailing.at()}")
    built: list[Node] = []
    # Surface terms still to build; True once their arguments are built.
    pending: list[tuple[STerm, bool]] = [(sterm, False)]
    while pending:
        s, args_built = pending.pop()
        if isinstance(s, SVar):
            raise ParseError(f"variable {s.name!r} is not allowed in a ground term")
        if args_built:
            cut = len(built) - len(s.args)
            node = Node(s.name, tuple(built[cut:]))
            del built[cut:]
            built.append(node)
        else:
            pending.append((s, True))
            pending.extend((a, False) for a in reversed(s.args))
    return built[0]


def corpus_names() -> tuple[str, ...]:
    files = resources.files("kanrel.corpus")
    return tuple(
        sorted(
            p.name[: -len(".kan")]
            for p in files.iterdir()
            if p.name.endswith(".kan")
        )
    )


def load_corpus_text(name: str) -> str:
    path = resources.files("kanrel.corpus").joinpath(f"{name}.kan")
    try:
        return path.read_text()
    except FileNotFoundError:
        raise ParseError(
            f"no bundled corpus file named {name!r}; available: {', '.join(corpus_names())}"
        ) from None


def load_corpus(name: str) -> Program:
    return parse_program(load_corpus_text(name))
