"""The benchmark's own arithmetic: latency percentiles, fastest-of-passes
times and span self times.

Kept free of vmkit and of the clock so that selftest() can check it on
synthetic data.  Run `python3 bench/arith.py` to run the self-test alone;
run.py also runs it at the start of every benchmark run.
"""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
# A reported tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """(value, samples strictly beyond it) at percentile pct, nearest rank."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(pct / 100.0 * n)))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """(value, percentile, samples beyond) for the decision-latency tail.

    The highest percentile of LADDER that still has MIN_BEYOND samples
    beyond it.  With too few samples for any rung (fewer than 20) the tail
    is the maximum, reported as percentile 100 with no samples beyond.
    """
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    best = (s[-1], 100.0, 0)
    for pct in LADDER:
        value, beyond = nearest_rank(s, pct)
        if beyond < MIN_BEYOND:
            break
        best = (value, pct, beyond)
    return best


def median(values):
    return statistics.median(values)


def fastest(runs):
    """Position by position, the smallest value over equally long runs.

    runs holds one list per pass, each with one time per item in the same
    order; the result is the fastest time of each item over the passes.
    """
    if not runs or len({len(r) for r in runs}) != 1:
        raise ValueError("runs must be one or more lists of equal length")
    return [min(v) for v in zip(*runs)]


def self_times(spans, wall):
    """Offline self-time arithmetic for the spans of one timeline.

    spans is a list of (name, start, end, parent) where parent is the index
    of the enclosing span or None.  A span's self time is its duration
    minus the durations of its direct children.  Returns ({name: [calls,
    seconds, self seconds]}, other) where other is the part of `wall` that
    no outermost span covers.
    """
    child = [0.0] * len(spans)
    root = 0.0
    for name, start, end, parent in spans:
        if parent is None:
            root += end - start
        else:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child[i]
    return totals, wall - root


def close(a, b, rel=1e-9, abs_=1e-9):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _check_percentiles():
    # 26,588 samples: p99.9 leaves 26 beyond, p99.99 only 2
    v, pct, beyond = tail(list(range(26588)))
    assert (pct, beyond) == (99.9, 26), (pct, beyond)
    assert v == 26588 - 27
    # exactly ten beyond is enough: 1000 samples at p99 leave 10
    v, pct, beyond = tail([float(i) for i in range(1000)])
    assert (v, pct, beyond) == (989.0, 99.0, 10), (v, pct, beyond)
    # 20 samples: p50 leaves 10, p90 leaves 2
    assert tail(list(range(20)))[1:] == (50.0, 10)
    # too few samples for any rung: the maximum, flagged as percentile 100
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail(list(range(19)))[1:] == (100.0, 0)
    # order of the input does not matter
    assert tail([5, 1, 4, 2, 3] * 10) == tail(sorted([5, 1, 4, 2, 3] * 10))
    assert nearest_rank([1, 2, 3, 4], 50.0) == (2, 2)


def _check_fastest():
    assert fastest([[3.0, 1.0, 2.0]]) == [3.0, 1.0, 2.0]
    assert fastest([[3.0, 1.0, 2.0], [2.0, 4.0, 2.5], [5.0, 1.5, 0.5]]) == [2.0, 1.0, 0.5]
    for bad in ([], [[1.0], [1.0, 2.0]]):
        try:
            fastest(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"fastest({bad!r}) did not raise")


def _check_self_times():
    from spans import Recorder

    # a(0..10) { b(1..4) { c(2..3) }  b(5..6) }   d(12..13)   wall 15
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("d", 12.0, 13.0, None),
    ]
    totals, other = self_times(spans, 15.0)
    assert totals == {
        "a": [1, 10.0, 6.0],
        "b": [2, 4.0, 3.0],
        "c": [1, 1.0, 1.0],
        "d": [1, 1.0, 1.0],
    }, totals
    assert other == 4.0
    assert close(sum(t[2] for t in totals.values()) + other, 15.0)

    # the online recorder must agree when driven through the same tree
    clock = _FakeClock()
    rec = Recorder(clock=clock)

    def leaf(dt):
        clock.now += dt

    def mid(pre, inner, post):
        clock.now += pre
        c(inner)
        clock.now += post

    def top():
        clock.now += 1.0
        b(1.0, 1.0, 1.0)
        clock.now += 1.0
        b2(1.0)
        clock.now += 4.0

    a = rec.wrap("a", top)
    b = rec.wrap("b", mid)
    b2 = rec.wrap("b", leaf)
    c = rec.wrap("c", leaf)
    d = rec.wrap("d", leaf)
    start = clock()
    a()
    clock.now += 2.0
    d(1.0)
    clock.now += 2.0
    got, other_online = rec.summary(clock() - start)
    assert got == totals, got
    assert close(other_online, other)

    # a span that raises still closes and charges its parent
    def boom():
        clock.now += 2.0
        raise KeyError("x")

    def guarded():
        clock.now += 1.0
        try:
            e()
        except KeyError:
            pass

    e = rec.wrap("e", boom)
    g = rec.wrap("g", guarded)
    rec.reset()
    start = clock()
    g()
    got, other_online = rec.summary(clock() - start)
    assert got == {"e": [1, 2.0, 2.0], "g": [1, 3.0, 1.0]}, got
    assert other_online == 0.0
    assert rec.open == []


def selftest():
    """Raise AssertionError when any of the arithmetic above is wrong."""
    _check_percentiles()
    _check_fastest()
    _check_self_times()


if __name__ == "__main__":
    selftest()
    print("arith self-test: ok")
