"""Stream combinator laws: laziness, fairness, and element preservation."""

from __future__ import annotations

from collections import Counter
from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kanrel.streams import (
    bind,
    from_iterator,
    mplus,
    mplus_all,
    share,
    smap,
    stream_iter,
    take,
    unit,
)


def labelled(prefix: str):
    return from_iterator((prefix, i) for i in count())


def finite(xs: list) -> object:
    return from_iterator(iter(xs))


class TestBasics:
    def test_unit_is_a_single_answer(self):
        assert take(unit(7), 5) == [7]

    def test_empty_stream(self):
        assert take(None, 5) == []

    def test_from_iterator_preserves_order(self):
        assert take(finite([1, 2, 3]), 10) == [1, 2, 3]

    def test_from_iterator_is_lazy(self):
        pulled = []

        def spy():
            for i in count():
                pulled.append(i)
                yield i

        s = from_iterator(spy())
        assert pulled == []
        assert take(s, 3) == [0, 1, 2]
        assert pulled == [0, 1, 2]

    def test_mature_streams_concatenate_in_order(self):
        assert take(mplus_all([unit(1), unit(2), unit(3)]), 9) == [1, 2, 3]


class TestFairness:
    def test_mplus_alternates_between_delayed_streams(self):
        merged = mplus(labelled("a"), labelled("b"))
        assert take(merged, 6) == [
            ("a", 0),
            ("b", 0),
            ("a", 1),
            ("b", 1),
            ("a", 2),
            ("b", 2),
        ]

    def test_unproductive_branch_cannot_starve_the_other(self):
        def spin():
            return spin

        assert take(mplus(spin, unit(1)), 1) == [1]
        assert take(mplus(unit(1), spin), 1) == [1]

    def test_bind_dovetails_across_an_infinite_outer_stream(self):
        pairs = take(
            bind(from_iterator(count()), lambda n: from_iterator((n, k) for k in count())),
            60,
        )
        for wanted in [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 3)]:
            assert wanted in pairs
        assert len(set(pairs)) == len(pairs)

    def test_deep_delay_chain_does_not_overflow(self):
        s = unit("x")
        for _ in range(50_000):
            s = (lambda s=s: s)
        assert list(stream_iter(s)) == ["x"]


class TestElementPreservation:
    @given(st.lists(st.integers()), st.lists(st.integers()))
    def test_mplus_preserves_the_multiset(self, xs, ys):
        merged = take(mplus(finite(xs), finite(ys)), len(xs) + len(ys) + 1)
        assert Counter(merged) == Counter(xs) + Counter(ys)

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
    def test_bind_emits_every_continuation_answer(self, xs):
        out = take(bind(finite(xs), lambda n: finite(list(range(n)))), 100)
        expected = Counter(k for n in xs for k in range(n))
        assert Counter(out) == expected


class TestShare:
    @given(st.lists(st.integers()), st.lists(st.integers()))
    def test_share_keeps_elements_and_order(self, xs, ys):
        plain = take(mplus(finite(xs), unit(ys)), 100)
        shared = share(mplus(finite(xs), unit(ys)))
        assert take(shared, 100) == plain
        # A second reader sees the same stream again.
        assert take(shared, 100) == plain

    def test_each_delay_runs_once(self):
        runs = []

        def delayed(i):
            def step():
                runs.append(i)
                return (i, delayed(i + 1) if i < 4 else None)

            return step

        s = share(delayed(0))
        assert take(s, 10) == [0, 1, 2, 3, 4]
        assert take(s, 10) == [0, 1, 2, 3, 4]
        assert runs == [0, 1, 2, 3, 4]

    def test_self_referential_stream_is_linear(self):
        # nats = 0 : map (+1) nats, with a delay per element.
        calls = 0

        def succ(n):
            nonlocal calls
            calls += 1
            return n + 1

        me = []
        nats = share(mplus(unit(0), lambda: smap(me[0], succ)))
        me.append(nats)
        assert take(nats, 1000) == list(range(1000))
        assert calls < 1000

    def test_a_step_that_needs_its_own_result_raises(self):
        me = []
        s = share(lambda: me[0]())
        me.append(s)
        with pytest.raises(RecursionError):
            take(s, 1)
