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

The parser resolves names as it reads them, since a relation's parameters
and each ``fresh`` name are declared before their uses: it rejects unbound
and shadowing variables and repeated parameters, and builds the final
``Goal`` tree over untyped placeholder variables.  Elaboration then takes
one relation at a time: it rejects unknown names, arity and type errors and
parameters of undeclared type, infers every variable's type, draws each
variable's id once, in declaration order, and maps the goal onto the typed
variables.  Together they are the one well-formedness check of a program;
later stages take the ``Program`` they return as well-formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable, TypeVar

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
    VarId,
    VarSupply,
    deref,
)


class ParseError(Exception):
    """Input text does not match the grammar."""


class UnresolvedType(ParseError):
    """No use of a fresh variable pins down its type."""


KEYWORDS = frozenset({"type", "rel", "fresh"})

# The type of a placeholder variable.  No type name is empty, so no
# placeholder equals a typed variable.
_UNTYPED = ""

T = TypeVar("T")

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


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        # The relation being read: its name, and each name in scope as the
        # hole of its placeholder variable.
        self.rel = ""
        self.scope: dict[str, Hole] = {}
        self.placeholders = VarSupply()

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

    def separated(self, sym: str, read: Callable[[], T]) -> list[T]:
        """One or more items, each read by ``read``, separated by ``sym``."""
        items = [read()]
        while self.at_sym(sym):
            self.advance()
            items.append(read())
        return items

    # --- scope ---

    def declare(self, what: str, clash: str) -> VarId:
        """Read a variable name and bring it into scope as a placeholder,
        numbered in declaration order; ``clash`` starts the error raised if
        the name is in scope already."""
        name = self.expect_ident(what, upper=False).text
        if name in self.scope:
            raise DuplicateName(f"{clash} {name}")
        var = self.placeholders.fresh(_UNTYPED, name)
        self.scope[name] = Hole(var)
        return var

    def resolve(self, name: str) -> Hole:
        hole = self.scope.get(name)
        if hole is None:
            raise UnboundVariable(f"in {self.rel}: variable {name} is not in scope")
        return hole

    # --- declarations ---

    def parse_program_decls(
        self,
    ) -> tuple[list[TypeDecl], list[tuple[Relation, tuple[str, ...]]]]:
        types: list[TypeDecl] = []
        rels: list[tuple[Relation, tuple[str, ...]]] = []
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
        ctors = self.separated("|", self.parse_ctor_decl)
        self.expect_sym(".")
        return TypeDecl(name, tuple(ctors))

    def parse_ctor_decl(self) -> CtorDecl:
        name = self.expect_ident("constructor name", upper=True).text
        args: list[str] = []
        if self.at_sym("("):
            self.advance()
            args = self.separated(
                ",", lambda: self.expect_ident("type name", upper=True).text
            )
            self.expect_sym(")")
        return CtorDecl(name, tuple(args))

    def parse_rel_decl(self) -> tuple[Relation, tuple[str, ...]]:
        """A relation over placeholder variables, and its parameter types."""
        self.advance()  # 'rel'
        self.rel = self.expect_ident("relation name", upper=False).text
        self.scope = {}
        self.expect_sym("(")
        params, types = zip(*self.separated(",", self.parse_param))
        self.expect_sym(")")
        self.expect_sym("=")
        body = self.parse_goal()
        self.expect_sym(".")
        return Relation(self.rel, params, body), types

    def parse_param(self) -> tuple[VarId, str]:
        var = self.declare("parameter name", f"relation {self.rel} repeats parameter")
        self.expect_sym(":")
        return var, self.expect_ident("type name", upper=True).text

    # --- goals ---

    def parse_goal(self) -> Goal:
        parts = self.separated("|", self.parse_conj)
        return parts[0] if len(parts) == 1 else Disj(tuple(parts))

    def parse_conj(self) -> Goal:
        parts = self.separated(",", self.parse_atom)
        return parts[0] if len(parts) == 1 else Conj(tuple(parts))

    def parse_atom(self) -> Goal:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "fresh":
            self.advance()
            outer = self.scope
            self.scope = dict(outer)
            shadows = f"in {self.rel}: fresh shadows"
            names = self.separated(",", lambda: self.declare("variable name", shadows))
            self.expect_sym(".")
            body = self.parse_atom()
            self.scope = outer
            return Fresh(tuple(names), body)
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
            args = self.separated(",", lambda: self.parse_term(self.resolve))
            self.expect_sym(")")
            return Call(rel, tuple(args))
        lhs = self.parse_term(self.resolve)
        eq = self.advance()
        if eq.kind != "eqeq":
            raise ParseError(f"expected '==', found {eq.text!r} at {eq.at()}")
        return Unify(lhs, self.parse_term(self.resolve))

    def parse_term(self, var):
        """One term, of ``Node``s and ``var(name)`` for each variable.

        Iterative, so a term's depth is not bounded by the stack; tokens are
        read and errors raised as by recursive descent.
        """
        # One frame per constructor whose ')' is still to come: its name and
        # the arguments built so far.
        open_ctors: list[tuple[str, list]] = []
        while True:
            tok = self.advance()
            if tok.kind != "ident" or tok.text in KEYWORDS:
                raise ParseError(f"expected a term, found {tok.text!r} at {tok.at()}")
            if tok.text[0].islower():
                term = var(tok.text)
            elif self.at_sym("("):
                self.advance()
                open_ctors.append((tok.text, []))
                continue
            else:
                term = Node(tok.text)
            # term is complete: add it to the innermost open constructor,
            # and close each constructor whose last argument it completes.
            while open_ctors:
                name, args = open_ctors[-1]
                args.append(term)
                if self.at_sym(","):
                    self.advance()
                    break
                self.expect_sym(")")
                open_ctors.pop()
                term = Node(name, tuple(args))
            else:
                return term


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


class _Elaborator:
    """Types one relation read over placeholders, and rebuilds its goal over
    variables drawn from the program's supply."""

    def __init__(self, schema: TermSchema, signatures: dict[str, tuple[str, ...]]) -> None:
        self.schema = schema
        self.signatures = signatures
        self.where = ""
        self.solver = _TypeSolver()
        self.declared: list[VarId] = []

    def declare(self, var: VarId) -> None:
        self.solver.add(var.id)
        self.declared.append(var)

    def elaborate(self, rel: Relation, supply: VarSupply) -> Relation:
        self.where = rel.name
        for p, ptype in zip(rel.params, self.signatures[rel.name]):
            if ptype not in self.schema.types_by_name:
                raise TypeMismatch(
                    f"parameter {p.name} of {rel.name} has undeclared type {ptype}"
                )
            self.declare(p)
            self.solver.set_type(p.id, ptype, f"parameter {p.name} of {rel.name}")
        self.check_goal(rel.body)
        typed: dict[VarId, Hole] = {}
        for v in self.declared:
            solved = self.solver.solved(v.id)
            if solved is None:
                raise UnresolvedType(
                    f"in {rel.name}: cannot infer the type of variable {v.name}"
                )
            typed[v] = Hole(supply.fresh(solved, v.name))
        params = tuple(typed[p].var for p in rel.params)
        return Relation(rel.name, params, _retarget(rel.body, typed))

    def check_goal(self, goal: Goal) -> None:
        where = self.where
        if isinstance(goal, Unify):
            lhs = self.term_type(goal.lhs)
            rhs = self.term_type(goal.rhs)
            self.constrain_equal(lhs, rhs, f"in {where}: unification")
        elif isinstance(goal, (Conj, Disj)):
            for g in goal.goals:
                self.check_goal(g)
        elif isinstance(goal, Call):
            sig = self.signatures.get(goal.rel)
            if sig is None:
                raise UnknownRelation(f"in {where}: no relation named {goal.rel}")
            if len(goal.args) != len(sig):
                raise ArityMismatch(
                    f"in {where}: {goal.rel} takes {len(sig)} arguments,"
                    f" got {len(goal.args)}"
                )
            for arg, want in zip(goal.args, sig):
                got = self.term_type(arg)
                self.constrain_equal(got, want, f"in {where}: call to {goal.rel}")
        else:
            for v in goal.vars:
                self.declare(v)
            self.check_goal(goal.body)

    def term_type(self, term: Term) -> int | str:
        """A term's type: its placeholder's id for a variable, else its
        type name.  Iterative; checks arguments left to right, depth first."""
        # One frame per node above the term under check: [node, its argument
        # types, its own type, index of the argument under check].
        stack: list[list] = []
        while True:
            if isinstance(term, Hole):
                got: int | str = term.var.id
            else:
                decl, got = self.schema.ctor(term.ctor)
                if len(term.args) != len(decl.arg_types):
                    raise ArityMismatch(
                        f"in {self.where}: constructor {term.ctor} takes"
                        f" {len(decl.arg_types)} arguments, got {len(term.args)}"
                    )
                if term.args:
                    stack.append([term, decl.arg_types, got, 0])
                    term = term.args[0]
                    continue
            # got is the type of the argument under check in the top frame.
            while stack:
                frame = stack[-1]
                node, wants, owner, i = frame
                self.constrain_equal(got, wants[i], f"in {self.where}: {node.ctor}(...)")
                if i + 1 < len(node.args):
                    frame[3] = i + 1
                    term = node.args[i + 1]
                    break
                stack.pop()
                got = owner
            else:
                return got

    def constrain_equal(self, a: int | str, b: int | str, context: str) -> None:
        """Equate two types, each a placeholder's id or a type name."""
        if isinstance(a, str) and isinstance(b, str):
            if a != b:
                raise TypeMismatch(f"{context}: {a} does not match {b}")
        elif isinstance(a, int) and isinstance(b, int):
            self.solver.union(a, b, context)
        elif isinstance(a, int):
            self.solver.set_type(a, b, context)
        else:
            self.solver.set_type(b, a, context)


def _retarget(goal: Goal, typed: dict[VarId, Hole]) -> Goal:
    """The goal with each placeholder replaced by its typed variable."""
    if isinstance(goal, Unify):
        return Unify(deref(goal.lhs, typed), deref(goal.rhs, typed))
    if isinstance(goal, Conj):
        return Conj(tuple(_retarget(g, typed) for g in goal.goals))
    if isinstance(goal, Disj):
        return Disj(tuple(_retarget(g, typed) for g in goal.goals))
    if isinstance(goal, Call):
        return Call(goal.rel, tuple(deref(a, typed) for a in goal.args))
    return Fresh(tuple(typed[v].var for v in goal.vars), _retarget(goal.body, typed))


def parse_program(text: str) -> Program:
    """Parse and elaborate a full program; raises on any malformation."""
    parser = _Parser(text)
    type_decls, rels = parser.parse_program_decls()
    schema = TermSchema(tuple(type_decls))
    signatures: dict[str, tuple[str, ...]] = {}
    for rel, param_types in rels:
        if rel.name in signatures:
            raise DuplicateName(f"relation {rel.name} is declared twice")
        signatures[rel.name] = param_types
    supply = VarSupply()
    elaborated = (_Elaborator(schema, signatures).elaborate(rel, supply) for rel, _ in rels)
    return Program(schema, tuple(elaborated))


def parse_ground_term(text: str) -> Node:
    """Parse one ground term, such as a query input; variables are rejected.

    The term is not typed here: the engines type their inputs.  Nodes are
    built as the term is parsed; a variable is reported only once the whole
    text has parsed, so a syntax error is reported first.
    """
    parser = _Parser(text)
    variables: list[str] = []
    term = parser.parse_term(variables.append)
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r} at {trailing.at()}")
    if variables:
        raise ParseError(f"variable {variables[0]!r} is not allowed in a ground term")
    return term


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
