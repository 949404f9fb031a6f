"""Tests of the benchmark's own arithmetic: percentile reporting, time
normalization, self time from nested spans, and the dominance oracle.

    python3 -m pytest bench/test_bench.py
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import CheckFailed, check_frontier, dominance_frontier  # noqa: E402
from spans import Span, Target, Tracer, self_times  # noqa: E402
from stats import relative_spread, summarize, tail_percentile  # noqa: E402
from timing import REFERENCE_SECONDS, Yardstick  # noqa: E402

from fairpost.mitigate import pareto_extract  # noqa: E402


@pytest.mark.parametrize("n, expected_q", [(19, None), (20, 50.0), (99, 50.0),
                                           (100, 90.0), (999, 90.0), (1000, 99.0),
                                           (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected_q):
    tail = tail_percentile(list(range(n)))
    assert (tail and tail[0]) == expected_q
    if tail:
        q, value = tail
        assert sum(v > value for v in range(n)) >= 10


def test_tail_percentile_uses_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert tail_percentile(values[::-1]) == (90.0, 90.0)


def test_summarize_reports_count_median_and_tail():
    out = summarize([3.0, 1.0, 2.0, 10.0])
    assert out == {"count": 4, "p50": 2.5, "tail": None}
    with pytest.raises(ValueError):
        summarize([])


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert relative_spread(values) == pytest.approx((11.5 - 8.5) / 10.0)


def test_yardstick_normalizes_by_faster_adjacent_reference_sample():
    now = [0.0]
    # three kernel runs per sample; a sample is the fastest of them
    reference_times = iter([0.05, 0.02, 0.03, 0.04, 0.06, 0.05, 0.07, 0.03, 0.08])

    def kernel():
        now[0] += next(reference_times)

    def step():
        now[0] += 1.5
        return "out"

    ys = Yardstick(kernel=kernel, clock=lambda: now[0])
    result, raw, seconds = ys.timed(step)
    assert (result, raw) == ("out", pytest.approx(1.5))
    assert seconds == pytest.approx(1.5 * REFERENCE_SECONDS / 0.02)
    with pytest.raises(ZeroDivisionError):
        ys.timed(lambda: 1 / 0)
    assert ys.samples == pytest.approx([0.02, 0.04, 0.03])


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("bench.op", 0.0, 10.0, None, 0),
        Span("learn.a", 1.0, 4.0, 0, 0),
        Span("learn.b", 3.0, 6.0, 0, 0),     # overlaps a: union is [1, 6]
        Span("bias.c", 2.0, 3.0, 1, 0),
        Span("bias.d", 9.0, 12.0, 0, 0),     # clipped to the parent at 10
        Span("bench.op", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_nested_spans_counts_and_restores():
    mod = types.SimpleNamespace()

    class Model:
        def __call__(self, rows):
            return [mod.score(r) for r in rows]

    def score(r):
        if r < 0:
            raise ArithmeticError("negative row")
        return 2 * r

    mod.score = score
    original_call = Model.__dict__["__call__"]
    targets = [Target(Model, "__call__", "learn.predict",
                      lambda a, k, r: {"learn.predict_rows": len(a[1])}),
               Target(mod, "score", "bias.score")]
    tracer = Tracer()
    with tracer.installed(targets):
        tracer.op = 7
        with tracer.span("bench.op"):
            assert Model()([1, 2, 3]) == [2, 4, 6]
            with pytest.raises(ArithmeticError):
                Model()([-1])
    assert Model.__dict__["__call__"] is original_call and mod.score is score

    names = [s.name for s in tracer.spans]
    assert names == ["bench.op", "learn.predict"] + ["bias.score"] * 3 + [
        "learn.predict", "bias.score"]
    assert all(s.op == 7 for s in tracer.spans)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 1, 0, 5]
    assert tracer.counts["learn.predict_rows"] == 3
    assert tracer.counts["learn.predict.raised"] == 1
    assert tracer.counts["bias.score.raised"] == 1
    by_name, by_layer = tracer.totals({7: 1.0})
    root = tracer.spans[0]
    assert sum(by_layer.values()) == pytest.approx(root.end - root.start)
    assert set(by_name) == {"bench.op", "learn.predict", "bias.score"}
    assert tracer.totals({8: 1.0}) == ({}, {})
    doubled, _ = tracer.totals({7: 2.0})
    assert doubled == pytest.approx({k: 2 * v for k, v in by_name.items()})


def test_tracer_wraps_staticmethods():
    class Reader:
        @staticmethod
        def load(n):
            return list(range(n))

    tracer = Tracer()
    with tracer.installed([Target(Reader, "load", "cli.read",
                                  lambda a, k, r: {"cli.rows_read": len(r)})]):
        assert Reader.load(4) == [0, 1, 2, 3]
    assert isinstance(Reader.__dict__["load"], staticmethod)
    assert tracer.counts["cli.rows_read"] == 4


@pytest.mark.parametrize("seed", range(25))
def test_dominance_oracle_matches_pareto_extract(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    if seed % 2:  # small integer grid: many ties in either coordinate
        pts = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        pts = rng.random((n, 2))
    oracle = dominance_frontier(list(pts[:, 0]), list(pts[:, 1]))
    assert oracle == pareto_extract(pts)


def test_check_frontier_rejects_wrong_outputs():
    bias, loss = [0.1, 0.2, 0.3], [0.3, 0.1, 0.2]
    check_frontier(bias, loss, (0, 1), 3)
    for args in (((0,), 3), ((0, 1), 4)):
        with pytest.raises(CheckFailed):
            check_frontier(bias, loss, *args)
    with pytest.raises(CheckFailed):
        check_frontier([-0.1, 0.2, 0.3], loss, (0, 1), 3)
    with pytest.raises(CheckFailed):
        check_frontier(bias, [0.3, float("nan"), 0.2], (0,), 3)
