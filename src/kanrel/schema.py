"""Algebraic term schemas: declarations, validation, and value generation.

A schema declares first-order algebraic data types (constructors with typed
argument slots).  Terms are constructor trees whose leaves are either nullary
constructors or holes (logic variables tagged with the type they range over).
The generator enumerates every ground value of a type in size-lexicographic
order; downstream search relies on that order being deterministic and, for
finite types, exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping


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


@dataclass(frozen=True)
class VarId:
    """A logic variable: globally numbered, tagged with the type it ranges over.

    The display name is cosmetic and excluded from equality.
    """

    id: int
    type: str
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Variables key every substitution and environment lookup, so the
        # hash is computed once instead of per lookup.
        object.__setattr__(self, "_hash", hash((self.id, self.type)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "_"
        return f"?{label}{self.id}"


@dataclass(frozen=True)
class Hole:
    """An unfilled position in a term."""

    var: VarId

    def __str__(self) -> str:
        return repr(self.var)


@dataclass(frozen=True)
class Node:
    """A constructor application.  Ground terms are nests of these."""

    ctor: str
    args: tuple[Term, ...] = ()
    # Set to True on an instance, outside the constructor, once is_ground
    # finds it hole-free.  Not a field, so no part of eq, hash or repr.
    # False means "not known": an unmarked node may still be ground.
    _ground = False

    def __str__(self) -> str:
        if not self.args:
            return self.ctor
        return f"{self.ctor}({', '.join(str(a) for a in self.args)})"


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

    Every hole-free node below the term, the term included, is marked with
    ``_ground`` (set outside the constructor, as ``VarId`` caches its hash),
    and a marked node is not entered again, so asking about a term costs
    its unmarked part only.  Only hole-free nodes are marked; nullary nodes
    are ground without a mark.  Nodes are immutable, so the mark is a fact
    about the term alone, never about a substitution, and it takes no part
    in equality, hashing or repr.
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
            object.__setattr__(node, "_ground", True)
    return term._ground


def term_size(term: Term) -> int:
    """Node count; a hole counts as one node."""
    if isinstance(term, Hole):
        return 1
    return 1 + sum(term_size(a) for a in term.args)


def holes(term: Term) -> tuple[VarId, ...]:
    """Variables of a term in first-occurrence (leftmost, outermost) order."""
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
            if not args:
                break
            if len(args) > 1:
                stack += args[:0:-1]
            t = args[0]
    return tuple(seen)


def rebuild(term: Term, filling: Mapping[VarId, Term]) -> Term:
    """Replace holes by the given terms; unmapped holes stay put."""
    if isinstance(term, Hole):
        return filling.get(term.var, term)
    if not term.args:
        return term
    return Node(term.ctor, tuple(rebuild(a, filling) for a in term.args))


def deref(term: Term, subst: Mapping[VarId, Term]) -> Term:
    """Resolve a term through a substitution as far as bindings allow.

    Raises CyclicBindingError when a variable is reached again while its own
    binding is still being resolved.  Unbound holes remain in the result.
    Iterative, so the depth of the result is not bounded by the stack.
    """
    lookup = subst.get
    # One shared set, stack-disciplined: a variable is active exactly while
    # the subtree of its own binding resolves, so membership here means
    # "reached again along the current path".
    active: set[VarId] = set()
    # Frames of nodes still being rebuilt: [node, resolved args, variables
    # made active on the way to the node].
    stack: list[list] = []
    t = term
    while True:
        added: list[VarId] = []
        while isinstance(t, Hole):
            var = t.var
            if var in active:
                raise CyclicBindingError(f"{var!r} resolves through itself")
            bound = lookup(var)
            if bound is None:
                break
            active.add(var)
            added.append(var)
            t = bound
        if isinstance(t, Node) and t.args:
            stack.append([t, [], added])
        else:
            out = t
            active.difference_update(added)
            while True:
                if not stack:
                    return out
                frame = stack[-1]
                done = frame[1]
                done.append(out)
                node = frame[0]
                if len(done) < len(node.args):
                    break
                stack.pop()
                out = Node(node.ctor, tuple(done))
                active.difference_update(frame[2])
        frame = stack[-1]
        t = frame[0].args[len(frame[1])]
