"""Lazy answer streams with interleaving choice and fair conjunction.

A stream is one of:

* ``None``             -- no answers;
* ``(head, tail)``     -- an answer followed by another stream;
* a zero-arg callable  -- a delayed stream (a "step" of pending work).

``mplus`` swaps its arguments both after yielding an element and after
passing through a delay, so no branch can starve another: a branch that
loops without producing only costs the merged stream one step per loop.
``bind`` feeds each answer to the continuation and merges the results with
``mplus``, giving the same fairness for conjunctions.

Both execution engines build their streams from these four combinators and
nothing else, which is what keeps their answer orders in lockstep.
``share`` changes no stream's shape: it makes each delay of a stream run at
most once (a shared delay is still a zero-arg callable), so that several
consumers can read one stream.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

# Stream pulls are not what needs this: under the default limit of 1000
# every add_nondet, sort, typecheck and balance bench row runs.  What
# overflows is recursion per level of a deep term, first on add_det rows:
# the converter's semidet path (``convert._proc_first`` plus the ``first``
# of a ``_compile_step`` call step, two frames per level, from addo@iio
# a=512), the equality of two terms in a base-case guard (converted
# addo@iii a=256: ``schema.Node.__eq__`` compares the argument tuples,
# which calls it again one level down), and the search engine's recursive
# ``interp.unify`` (ref addo@iii a=1024).  Grounding recurses too:
# ``convert._plug_or_none`` two frames per level (itself and its list
# comprehension), the plugs it builds one per level of holed nodes, and
# ``schema.rebuild``, ref's default builder, two per level of unmarked
# nodes; ``schema.deref`` does not.  Tests that overflow without it: the
# two deep-answer CLI tests, and in test_convert the past-the-limit
# ``addo@iio``, the ``addo@oio`` own-stream and the chain-grounding tests.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

Stream = Any  # None | tuple[Any, "Stream"] | Callable[[], "Stream"]


def unit(value: Any) -> Stream:
    return (value, None)


def mplus(a: Stream, b: Stream) -> Stream:
    if a is None:
        return b
    if b is None:
        # Identity: with b empty the swaps below only shuffle a with None,
        # which forces and yields exactly like a itself.
        return a
    if callable(a):
        return lambda: mplus(b, a())
    head, tail = a
    return (head, mplus(b, tail))


def bind(s: Stream, f: Callable[[Any], Stream]) -> Stream:
    if s is None:
        return None
    if callable(s):
        return lambda: bind(s(), f)
    head, tail = s
    return mplus(f(head), bind(tail, f))


def smap(s: Stream, f: Callable[[Any], Any]) -> Stream:
    """Fused form of binding with goals that never suspend.

    ``f`` maps an answer to a new answer, or to None to drop it.  For such
    continuations ``bind`` is shape-transparent (elements map one to one or
    disappear, delays pass through one to one), so ``smap(s, f)`` forces and
    yields exactly like a ``bind`` chain while doing one call per element.
    """
    while True:
        if s is None:
            return None
        if callable(s):
            return lambda s=s: smap(s(), f)
        head, tail = s
        mapped = f(head)
        if mapped is not None:
            return (mapped, smap(tail, f))
        s = tail


def mplus_all(streams: Sequence[Stream]) -> Stream:
    out: Stream = None
    for s in reversed(streams):
        out = mplus(s, out)
    return out


class _Shared:
    """A delay that runs its step once and keeps the (shared) result."""

    __slots__ = ("step", "value")

    def __init__(self, step: Callable[[], Stream]) -> None:
        self.step = step

    def __call__(self) -> Stream:
        step = self.step
        if step is None:
            return self.value
        self.step = _reentered
        try:
            value = share(step())
        except BaseException:
            self.step = step
            raise
        self.value = value
        self.step = None
        return value


def _reentered() -> Stream:
    raise RecursionError("a shared stream needs its own pending step")


def share(s: Stream) -> Stream:
    """The same stream, call-by-need: every delay in it is forced at most once.

    Reading a shared stream again costs O(1) per element, so a stream may
    be defined through itself, as in ``xs = a : map f xs``.  Its steps must
    not depend on who forces them first.  A step that needs its own result
    while it runs would recurse without end unshared; here it raises
    RecursionError at once.
    """
    heads = []
    while type(s) is tuple:
        head, s = s
        heads.append(head)
    if s is not None and type(s) is not _Shared:
        s = _Shared(s)
    for head in reversed(heads):
        s = (head, s)
    return s


def from_iterator(it: Iterator[Any]) -> Stream:
    """A stream that yields the iterator's items with a delay before each.

    The per-item delay keeps infinite iterators (value generators) from
    monopolizing any merge they participate in.
    """

    def step() -> Stream:
        try:
            value = next(it)
        except StopIteration:
            return None
        return (value, step)

    return step


def stream_iter(s: Stream) -> Iterator[Any]:
    """Pull answers; the trampoline keeps long delay chains off the stack."""
    while s is not None:
        while callable(s):
            s = s()
        if s is None:
            return
        head, s = s
        yield head


def take(s: Stream, n: int | None) -> list[Any]:
    """The first n answers of s; all of them when n is None."""
    return list(islice(stream_iter(s), n))
