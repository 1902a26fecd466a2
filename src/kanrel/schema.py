"""Algebraic term schemas: declarations, validation, and value generation.

A schema declares first-order algebraic data types (constructors with typed
argument slots).  Terms are constructor trees whose leaves are either nullary
constructors or holes (logic variables tagged with the type they range over).
The generator enumerates every ground value of a type in size-lexicographic
order; downstream search relies on that order being deterministic and, for
finite types, exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping


class SchemaError(Exception):
    """A schema declaration or a term against it is malformed."""


class DuplicateName(SchemaError):
    """Two types or two constructors share a name."""


class UnknownType(SchemaError):
    """A constructor argument names a type the schema does not declare."""


class UnknownCtor(SchemaError):
    """A term uses a constructor the schema does not declare."""


class InvalidValue(SchemaError):
    """A term does not fit the type it was checked against."""


class UninhabitedType(SchemaError):
    """A declared type has no finite values."""


class CyclicBindingError(Exception):
    """A substitution resolves a variable through itself."""


class VarId:
    """A logic variable: globally numbered, tagged with the type it ranges over.

    The display name is cosmetic: excluded from equality and hashing, shown
    only by repr.  Variables key every substitution and environment lookup,
    so the hash, ``hash((id, type))``, is computed once, in the constructor.

    A slotted class with a hand-written constructor, not a frozen
    dataclass: a frozen dataclass pays one ``object.__setattr__`` per field
    on every construction.  Nothing enforces immutability; by convention no
    code assigns to a ``VarId`` after construction.
    """

    __slots__ = ("id", "type", "name", "_hash")

    id: int
    type: str
    name: str | None

    def __init__(self, id: int, type: str, name: str | None = None) -> None:
        self.id = id
        self.type = type
        self.name = name
        self._hash = hash((id, type))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VarId:
            return NotImplemented
        return self.id == other.id and self.type == other.type

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "_"
        return f"?{label}{self.id}"


class Hole:
    """An unfilled position in a term.

    Equal holes hold equal variables; the hash is ``hash((var,))``.
    Slotted and immutable by convention, as ``VarId`` is.
    """

    __slots__ = ("var",)

    var: VarId

    def __init__(self, var: VarId) -> None:
        self.var = var

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Hole:
            return NotImplemented
        return self.var == other.var

    def __hash__(self) -> int:
        return hash((self.var,))

    def __repr__(self) -> str:
        return f"Hole(var={self.var!r})"

    def __str__(self) -> str:
        return repr(self.var)


class Node:
    """A constructor application.  Ground terms are nests of these.

    Equal nodes have equal constructors and equal argument tuples; the hash
    is ``hash((ctor, args))``.  Slotted and immutable by convention, as
    ``VarId`` is, with one exception: ``_ground`` starts False and is set
    to True on an instance, after construction, once ``is_ground`` finds it
    hole-free.  False means "not known": an unmarked node may still be
    ground.  The mark takes no part in equality, hashing or repr.
    """

    __slots__ = ("ctor", "args", "_ground")

    ctor: str
    args: tuple[Term, ...]

    def __init__(self, ctor: str, args: tuple[Term, ...] = ()) -> None:
        self.ctor = ctor
        self.args = args
        self._ground = False

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Node:
            return NotImplemented
        return self.ctor == other.ctor and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.ctor, self.args))

    def __repr__(self) -> str:
        return f"Node(ctor={self.ctor!r}, args={self.args!r})"

    def __str__(self) -> str:
        return term_text(self)


Term = Hole | Node


@dataclass(frozen=True)
class CtorDecl:
    name: str
    arg_types: tuple[str, ...] = ()


@dataclass(frozen=True)
class TypeDecl:
    name: str
    ctors: tuple[CtorDecl, ...]


class VarSupply:
    """Hands out fresh, globally distinct variable ids."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def fresh(self, type_name: str, name: str | None = None) -> VarId:
        v = VarId(self._next, type_name, name)
        self._next += 1
        return v


class TermSchema:
    """A validated set of type declarations plus derived facts about them.

    Validation rejects duplicate type or constructor names, references to
    undeclared types, and types with no finite inhabitant.  Derived facts
    (finiteness, value counts, maximum term size) are computed on demand and
    memoized per schema instance.
    """

    def __init__(self, types: tuple[TypeDecl, ...]) -> None:
        self.types = types
        self.types_by_name: dict[str, TypeDecl] = {}
        self.ctors_by_name: dict[str, tuple[CtorDecl, str]] = {}
        for decl in types:
            if decl.name in self.types_by_name:
                raise DuplicateName(f"type {decl.name} is declared twice")
            self.types_by_name[decl.name] = decl
        for decl in types:
            for ctor in decl.ctors:
                if ctor.name in self.ctors_by_name:
                    raise DuplicateName(f"constructor {ctor.name} is declared twice")
                self.ctors_by_name[ctor.name] = (ctor, decl.name)
                for arg in ctor.arg_types:
                    if arg not in self.types_by_name:
                        raise UnknownType(
                            f"constructor {ctor.name} refers to undeclared type {arg}"
                        )
        self._check_inhabited()
        self._reachable: dict[str, frozenset[str]] = {}
        self._cycle_types = self._types_on_cycles()
        self._max_size: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._by_size: dict[tuple[str, int], tuple[Node, ...]] = {}
        self._finite_values: dict[str, tuple[Node, ...]] = {}

    def _check_inhabited(self) -> None:
        # Least fixpoint: a type is inhabited once some ctor has all
        # argument types already known inhabited.
        inhabited: set[str] = set()
        changed = True
        while changed:
            changed = False
            for decl in self.types:
                if decl.name in inhabited:
                    continue
                for ctor in decl.ctors:
                    if all(a in inhabited for a in ctor.arg_types):
                        inhabited.add(decl.name)
                        changed = True
                        break
        for decl in self.types:
            if decl.name not in inhabited:
                raise UninhabitedType(f"type {decl.name} has no finite values")

    def _edges(self, type_name: str) -> set[str]:
        out: set[str] = set()
        for ctor in self.types_by_name[type_name].ctors:
            out.update(ctor.arg_types)
        return out

    def _types_on_cycles(self) -> frozenset[str]:
        # A type is on a cycle when one of its argument types reaches it.
        return frozenset(
            name
            for name in self.types_by_name
            if any(name in self.reachable_types(t) for t in self._edges(name))
        )

    def _require_type(self, type_name: str) -> TypeDecl:
        decl = self.types_by_name.get(type_name)
        if decl is None:
            raise UnknownType(f"no type named {type_name}")
        return decl

    def ctor(self, name: str) -> tuple[CtorDecl, str]:
        """Return (declaration, owning type name) for a constructor."""
        entry = self.ctors_by_name.get(name)
        if entry is None:
            raise UnknownCtor(f"no constructor named {name}")
        return entry

    def reachable_types(self, type_name: str) -> frozenset[str]:
        """All types reachable from type_name through argument slots, inclusive."""
        cached = self._reachable.get(type_name)
        if cached is not None:
            return cached
        self._require_type(type_name)
        seen = {type_name}
        frontier = self._edges(type_name)
        while frontier - seen:
            nxt = frontier - seen
            seen |= nxt
            frontier = set().union(*(self._edges(t) for t in nxt))
        result = frozenset(seen)
        self._reachable[type_name] = result
        return result

    def is_finite(self, type_name: str) -> bool:
        """True when the type has finitely many ground values."""
        return not (self.reachable_types(type_name) & self._cycle_types)

    def max_size(self, type_name: str) -> int:
        """Largest node count of any value of a finite type."""
        cached = self._max_size.get(type_name)
        if cached is not None:
            return cached
        decl = self._require_type(type_name)
        if not self.is_finite(type_name):
            raise InvalidValue(f"type {type_name} is infinite")
        result = max(
            1 + sum(self.max_size(a) for a in ctor.arg_types) for ctor in decl.ctors
        )
        self._max_size[type_name] = result
        return result

    def count_values(self, type_name: str) -> int:
        """Number of distinct ground values of a finite type."""
        cached = self._counts.get(type_name)
        if cached is not None:
            return cached
        decl = self._require_type(type_name)
        if not self.is_finite(type_name):
            raise InvalidValue(f"type {type_name} is infinite")
        total = 0
        for ctor in decl.ctors:
            n = 1
            for a in ctor.arg_types:
                n *= self.count_values(a)
            total += n
        self._counts[type_name] = total
        return total

    def is_singleton(self, type_name: str) -> bool:
        return self.is_finite(type_name) and self.count_values(type_name) == 1

    def values_of_size(self, type_name: str, size: int) -> tuple[Node, ...]:
        """All ground values with exactly `size` constructor nodes.

        Order within a size: constructor declaration order, then argument
        size splits in ascending lexicographic order, then argument values
        with the rightmost position varying fastest.
        """
        key = (type_name, size)
        cached = self._by_size.get(key)
        if cached is not None:
            return cached
        decl = self._require_type(type_name)
        out: list[Node] = []
        for ctor in decl.ctors:
            k = len(ctor.arg_types)
            if k == 0:
                if size == 1:
                    out.append(Node(ctor.name))
                continue
            for split in _compositions(size - 1, k):
                pools = [
                    self.values_of_size(t, s) for t, s in zip(ctor.arg_types, split)
                ]
                for combo in product(*pools):
                    out.append(Node(ctor.name, combo))
        result = tuple(out)
        self._by_size[key] = result
        return result

    def generate(self, type_name: str) -> Iterator[Node]:
        """Enumerate every ground value of the type, small terms first.

        Terminates for finite types; otherwise the stream is infinite.
        """
        self._require_type(type_name)
        bound = self.max_size(type_name) if self.is_finite(type_name) else None
        size = 1
        while bound is None or size <= bound:
            yield from self.values_of_size(type_name, size)
            size += 1

    def candidates(self, type_name: str) -> Iterable[Node]:
        """The values ``generate`` yields, in its order, for one more pass.

        A finite type gives one tuple, built on first use and kept for the
        schema's life; an infinite type gives a new ``generate`` stream,
        never materialized.
        """
        cached = self._finite_values.get(type_name)
        if cached is not None:
            return cached
        if not self.is_finite(type_name):
            return self.generate(type_name)
        values = tuple(self.generate(type_name))
        self._finite_values[type_name] = values
        return values


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """Tuples of k positive ints summing to total, ascending lexicographic."""
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - k + 2):
        for rest in _compositions(total - head, k - 1):
            yield (head, *rest)


def is_ground(term: Term) -> bool:
    """True when the term holds no hole.

    Every hole-free node below the term, the term included, is marked by a
    plain assignment to its ``_ground`` slot, after construction: the one
    write to a built ``Node`` the code makes.  A marked node is not entered
    again, so asking about a term costs its unmarked part only.  Only
    hole-free nodes are marked; nullary nodes are ground without a mark.
    Nodes are immutable by convention, so the mark is a fact about the term
    alone, never about a substitution, and it takes no part in equality,
    hashing or repr.
    """
    if isinstance(term, Hole):
        return False
    if not term.args or term._ground:
        return True
    # Unmarked nodes, parents before children (the list grows as the loop
    # reads it); reversed, every child precedes its parent.
    order = [term]
    for node in order:
        for a in node.args:
            if isinstance(a, Node) and a.args and not a._ground:
                order.append(a)
    for node in reversed(order):
        for a in node.args:
            if isinstance(a, Hole) or (a.args and not a._ground):
                break
        else:
            node._ground = True
    return term._ground


def term_size(term: Term) -> int:
    """Node count; a hole counts as one node."""
    if isinstance(term, Hole):
        return 1
    return 1 + sum(term_size(a) for a in term.args)


def holes(term: Term) -> tuple[VarId, ...]:
    """Variables of a term in first-occurrence (leftmost, outermost) order.

    A node that ``is_ground`` has marked holds none and is not entered.
    """
    seen: dict[VarId, None] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        # Descend into the first argument directly; the rest wait on the
        # stack, rightmost deepest.
        while True:
            if isinstance(t, Hole):
                seen.setdefault(t.var)
                break
            args = t.args
            if not args or t._ground:
                break
            if len(args) > 1:
                stack += args[:0:-1]
            t = args[0]
    return tuple(seen)


def term_text(term: Term, hole_text: Callable[[Hole], str] = str) -> str:
    """A term as text, ``C(a, b)``, with each hole as ``hole_text`` renders it.

    Iterative, so any depth prints.
    """
    out: list[str] = []
    # Terms still to print, and the literal text between them.
    pending: list[Term | str] = [term]
    while pending:
        t = pending.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Hole):
            out.append(hole_text(t))
        elif not t.args:
            out.append(t.ctor)
        else:
            out.append(f"{t.ctor}(")
            pending.append(")")
            for i in range(len(t.args) - 1, -1, -1):
                pending.append(t.args[i])
                if i:
                    pending.append(", ")
    return "".join(out)


def rebuild(term: Term, filling: Mapping[VarId, Term]) -> Term:
    """Replace holes by the given terms; unmapped holes stay put.

    A node that ``is_ground`` has marked holds no hole, so it is returned
    as is, as ``deref`` returns it: the result shares it, not a copy.
    """
    if isinstance(term, Hole):
        return filling.get(term.var, term)
    if not term.args or term._ground:
        return term
    return Node(term.ctor, tuple(rebuild(a, filling) for a in term.args))


def deref(term: Term, subst: Mapping[VarId, Term]) -> Term:
    """Resolve a term through a substitution as far as bindings allow.

    Unbound holes remain in the result.  Only what the bindings change is
    built anew.  A node that ``is_ground`` has marked is returned as is,
    without a walk, so a hole-free input, or a binding to the rest of one,
    costs O(1) however large it is.  Any other node whose resolved parts
    are the very objects it holds is returned as is after its walk.  A node
    built anew whose parts are all nullary or marked is hole-free, and is
    marked as ``is_ground`` would mark it, so ``holes``, ``rebuild`` and
    ``is_ground`` do not enter it later.

    Raises CyclicBindingError when the substitution resolves a variable
    through itself.  The walk counts the bindings followed on the path from
    the root to the current position and fails once that count exceeds
    ``len(subst)``: such a path follows some binding twice (pigeonhole),
    and a cyclic binding reached once is followed without end, so every
    cycle the term reaches is reported, at O(1) cost per binding and with
    no hashing.  Iterative, so the depth of the result is not bounded by
    the stack; unary spines (``S(S(...))``) push no frame per level.
    """
    lookup = subst.get
    limit = len(subst)
    # Frames of nodes of two or more arguments still being rebuilt: [node,
    # resolved args, bindings followed on the path to the node, length of
    # ``spine`` at the node].
    stack: list[list] = []
    # Unary nodes on the path, outermost first; the innermost frame owns
    # those from its own length of ``spine`` (``base``) on.
    spine: list[Node] = []
    t, followed, base = term, 0, 0
    while True:
        while True:
            if isinstance(t, Hole):
                bound = lookup(t.var)
                if bound is None:
                    break
                followed += 1
                if followed > limit:
                    raise CyclicBindingError(f"{t.var!r} resolves through itself")
                t = bound
                continue
            args = t.args
            if not args or t._ground:
                break
            if len(args) == 1:
                spine.append(t)
            else:
                base = len(spine)
                stack.append([t, [], followed, base])
            t = args[0]
        out = t
        while True:
            if len(spine) > base:
                # The unary nodes above ``out``, rebuilt innermost first.  The
                # nodes built are the lowest ones, and hole-free with ``out``.
                ground = out.__class__ is Node and (not out.args or out._ground)
                for node in reversed(spine[base:]):
                    if out is node.args[0]:
                        out = node
                    else:
                        out = Node(node.ctor, (out,))
                        out._ground = ground
                del spine[base:]
            if not stack:
                return out
            frame = stack[-1]
            done = frame[1]
            done.append(out)
            node = frame[0]
            args = node.args
            if len(done) < len(args):
                followed = frame[2]
                t = args[len(done)]
                break
            stack.pop()
            base = stack[-1][3] if stack else 0
            for a, b in zip(done, args):
                if a is not b:
                    out = Node(node.ctor, tuple(done))
                    for part in done:
                        if part.__class__ is not Node or (part.args and not part._ground):
                            break
                    else:
                        out._ground = True
                    break
            else:
                out = node
