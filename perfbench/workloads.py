"""The benchmark's workloads and the oracles that check their answers.

A workload is a list of queries over one bundled corpus.  The seed draws
input values only (the ``oio`` y, the sort list elements, the balance tree
shape, the typecheck context); sizes and limits are fixed, so every seed
asks for the same amount of work.  The program receives only the generated
terms.

Each query carries its own oracle, written against plain Python values
decoded from the answer terms, so answers are checked independently of
both engines: ``valid`` judges one decoded answer, ``total`` is the exact
answer count (the limit for first-k queries), and ``exact``, where given, is
the full answer set of an exhaustive query.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from kanrel.schema import Node, Term

WORKLOADS = ("nat_det", "nat_enum", "search", "balance")


@dataclass(frozen=True)
class Query:
    name: str  # "<rel>@<dir> <param>", unique within its workload
    corpus: str
    rel: str
    direction: str
    ins: tuple[Term, ...]
    limit: int | None  # first-k queries; None drains to exhaustion
    total: int
    valid: Callable[[tuple], bool]
    exact: frozenset | None = None


# --- plain values <-> terms ---

_LISTS = {"Cons": "Nil", "CCons": "CNil"}


def decode(term: Term) -> Any:
    """Nat -> int, lists and contexts -> tuples, other nodes -> nested tuples."""
    if term.ctor in ("O", "S"):
        n = 0
        while term.ctor == "S":
            n += 1
            (term,) = term.args
        if term.ctor != "O":
            raise ValueError(f"not a Nat: {term}")
        return n
    if term.ctor in _LISTS.values() or term.ctor in _LISTS:
        items = []
        while term.ctor in _LISTS:
            head, term = term.args
            items.append(decode(head))
        return tuple(items)
    if not term.args:
        return term.ctor
    return (term.ctor, *(decode(a) for a in term.args))


def nat(n: int) -> Node:
    out = Node("O")
    for _ in range(n):
        out = Node("S", (out,))
    return out


def _cons_list(items: list[Node], cons: str) -> Node:
    out = Node(_LISTS[cons])
    for item in reversed(items):
        out = Node(cons, (item, out))
    return out


def _tree(shape) -> Node:
    if shape == "Leaf":
        return Node("Leaf")
    return Node("Node", (_tree(shape[1]), _tree(shape[2])))


# --- oracles ---


def _leaves(t) -> int:
    return 1 if t == "Leaf" else _leaves(t[1]) + _leaves(t[2])


def _balanced(t) -> bool:
    if t == "Leaf":
        return True
    _, l, r = t
    return abs(_leaves(l) - _leaves(r)) <= 1 and _balanced(l) and _balanced(r)


@lru_cache(maxsize=None)
def balanced_count(n: int) -> int:
    """Number of trees with n leaves whose every node splits them within one."""
    if n == 1:
        return 1
    return sum(
        balanced_count(nl) * balanced_count(n - nl)
        for nl in range(1, n)
        if abs(2 * nl - n) <= 1
    )


def typeof(e, ctx: tuple) -> str | None:
    """The type of an expression under a de Bruijn context, or None."""
    tag = e[0]
    if tag == "Lit":
        return "TInt"
    if tag == "BLit":
        return "TBool"
    if tag == "Plus":
        ok = typeof(e[1], ctx) == typeof(e[2], ctx) == "TInt"
        return "TInt" if ok else None
    if tag == "If":
        if typeof(e[1], ctx) != "TBool":
            return None
        then = typeof(e[2], ctx)
        return then if then is not None and then == typeof(e[3], ctx) else None
    if tag == "Var":
        return ctx[e[1]] if e[1] < len(ctx) else None
    raise ValueError(f"not an Expr: {e!r}")


def _random_tree(rng: random.Random, leaves: int):
    if leaves == 1:
        return "Leaf"
    left = rng.randint(1, leaves - 1)
    return ("Node", _random_tree(rng, left), _random_tree(rng, leaves - left))


# --- workloads ---


def _nat_det(rng: random.Random) -> list[Query]:
    out = []
    for a in (125, 250, 500):
        answer = frozenset({(a, a, 2 * a)})
        for direction, ins in (
            ("iii", (nat(a), nat(a), nat(2 * a))),
            ("iio", (nat(a), nat(a))),
            ("ioi", (nat(a), nat(2 * a))),
        ):
            out.append(
                Query(
                    f"addo@{direction} a={a}", "nat", "addo", direction, ins, None,
                    1, answer.__contains__, answer,
                )
            )
    return out


def _nat_enum(rng: random.Random) -> list[Query]:
    y = rng.randrange(4, 13)
    x = rng.randrange(4, 13)
    out = [
        Query(
            f"addo@oio n={n}", "nat", "addo", "oio", (nat(y),), n, n,
            lambda a: a[1] == y and a[0] + y == a[2],
        )
        for n in (128, 256, 512)
    ]
    out.append(
        Query(
            "addo@ioo n=1024", "nat", "addo", "ioo", (nat(x),), 1024, 1024,
            lambda a: a[0] == x and x + a[1] == a[2],
        )
    )
    z = 256
    exact = frozenset((i, z - i, z) for i in range(z + 1))
    out.append(
        Query(
            f"addo@ooi z={z}", "nat", "addo", "ooi", (nat(z),), None,
            len(exact), exact.__contains__, exact,
        )
    )
    return out


def _search(rng: random.Random) -> list[Query]:
    out = []
    for k in (5, 6):
        # k distinct values out of 0..k: the values vary, their magnitude
        # (which sets the cost of the unary comparisons) hardly does.
        ys = tuple(sorted(rng.sample(range(k + 1), k)))
        exact = frozenset((p, ys) for p in itertools.permutations(ys))
        out.append(
            Query(
                f"sorto@oi len={k}", "sort", "sorto", "oi",
                (_cons_list([nat(v) for v in ys], "Cons"),), None,
                len(exact), exact.__contains__, exact,
            )
        )
    ctx = tuple(rng.choice(("TInt", "TBool")) for _ in range(2))
    out.append(
        Query(
            "typov@ioi n=2000", "typecheck", "typov", "ioi",
            (_cons_list([Node(t) for t in ctx], "CCons"), Node("TInt")), 2000, 2000,
            lambda a: a[0] == ctx and a[2] == "TInt" and typeof(a[1], ctx) == "TInt",
        )
    )
    out.append(
        Query(
            "typo@oi n=2000", "typecheck", "typo", "oi", (Node("TBool"),), 2000, 2000,
            lambda a: a[1] == "TBool" and typeof(a[0], ()) == "TBool",
        )
    )
    return out


def _balance(rng: random.Random) -> list[Query]:
    n = 8
    shape = _random_tree(rng, n)
    return [
        Query(
            f"balanced@oi n={n}", "balance", "balanced", "oi", (nat(n),), None,
            balanced_count(n), lambda a: a[1] == n and _leaves(a[0]) == n and _balanced(a[0]),
        ),
        Query(
            f"balanceo@io leaves={n}", "balance", "balanceo", "io", (_tree(shape),), None,
            balanced_count(n),
            lambda a: a[0] == shape and _leaves(a[1]) == n and _balanced(a[1]),
        ),
        Query(
            "balanceo@oo n=100", "balance", "balanceo", "oo", (), 100, 100,
            lambda a: _leaves(a[0]) == _leaves(a[1]) and _balanced(a[1]),
        ),
    ]


_MAKERS = {
    "nat_det": _nat_det,
    "nat_enum": _nat_enum,
    "search": _search,
    "balance": _balance,
}


def build(workload: str, seed: int) -> list[Query]:
    # Each workload draws from its own stream, so adding a draw to one
    # workload leaves the inputs of the others unchanged.
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
