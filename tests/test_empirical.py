from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm, wasserstein_distance

from fairpost.empirical import (
    ClassLabels,
    _ks,
    build_distribution,
    signed_transport,
    wasserstein1_signed,
)
from fairpost.transform import focal_point

from helpers import (
    FINITE_VALUES,
    argsort_signed_transport,
    assert_value_error,
    grid_ks,
    ks_distance,
    labelled,
    quantile_w1,
    quantile_w1_signed,
    riemann_w1,
    same_bits,
    wasserstein1,
)


def random_samples(seed, count, decimals, max_size=60):
    """``count`` normal samples of 1 to ``max_size`` values with random
    locations and scales, rounded to ``decimals`` places (None: no rounding)
    to force ties within and across samples."""
    rng = np.random.default_rng(seed)
    samples = [rng.normal(rng.normal(), rng.uniform(0.5, 2.0), rng.integers(1, max_size + 1))
               for _ in range(count)]
    return samples if decimals is None else [np.round(s, decimals) for s in samples]


# a seed for the samples and the rounding that makes ties
SAMPLES = dict(seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([None, 0, 1, 2]))


def exact_cdf_gap(a, b, t) -> Fraction:
    """``|F0(t) - F1(t)|`` of samples ``a`` and ``b`` in exact arithmetic."""
    return abs(Fraction(int(np.count_nonzero(a <= t)), a.size)
               - Fraction(int(np.count_nonzero(b <= t)), b.size))


class TestBuildDistribution:
    def test_sorts_and_uniform_weights(self):
        d = build_distribution([1.0, 3.0, 2.0])
        np.testing.assert_array_equal(d.values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.diff(d.cum_weights, prepend=0), 1.0 / 3.0)

    def test_point_mass_quantiles(self):
        d = build_distribution([5.0])
        for p in (0.01, 0.3, 0.5, 1.0):
            assert d.quantile(p) == 5.0

    def test_median_of_normal_draws(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(10_000)
        d = build_distribution(samples)
        med = float(np.median(samples))
        assert abs(d.quantile(0.5) - med) <= 0.05
        assert abs(d.quantile(0.5)) <= 0.05

    def test_ties_merged(self):
        d = build_distribution([1.0, 1.0, 2.0])
        np.testing.assert_array_equal(d.values, [1.0, 2.0])
        np.testing.assert_allclose(np.diff(d.cum_weights, prepend=0), [2.0 / 3.0, 1.0 / 3.0])

    def test_quantile_zero_is_minimum(self):
        d = build_distribution([4.0, 2.0, 9.0])
        assert d.quantile(0.0) == 2.0

    def test_errors(self):
        with pytest.raises(ValueError):
            build_distribution([])
        with pytest.raises(ValueError):
            build_distribution([1.0, np.nan])


class TestWasserstein1:
    def test_point_masses(self):
        assert wasserstein1([0.1], [-0.1]) == pytest.approx(0.2, abs=1e-15)

    def test_identical_samples(self):
        assert wasserstein1([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 0.0

    def test_gaussian_shift(self):
        rng = np.random.default_rng(11)
        a = rng.normal(5.0, 1.0, 50_000)
        b = rng.normal(5.5, 1.0, 50_000)
        w = wasserstein1(a, b)
        assert abs(w - 0.5) <= 0.02
        assert w == pytest.approx(wasserstein_distance(a, b), rel=1e-9)

    def test_unequal_sizes_against_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 701)
        b = rng.normal(0.3, 2.0, 397)
        w = wasserstein1(a, b)
        assert w == pytest.approx(wasserstein_distance(a, b), rel=1e-9)

    def test_errors(self):
        for a, b in (([], [1.0]), ([1.0], []), ([1.0, np.nan], [2.0])):
            with pytest.raises(ValueError):
                wasserstein1(a, b)
            with pytest.raises(ValueError):
                ks_distance(a, b)


class TestSignedTransport:
    def test_one_directional(self):
        st_ = wasserstein1_signed([1.0], [0.0], 1)
        assert (st_.total, st_.positive_part, st_.negative_part) == (1.0, 1.0, 0.0)

    def test_swap_arguments(self):
        st_ = wasserstein1_signed([0.0], [1.0], 1)
        assert (st_.total, st_.positive_part, st_.negative_part) == (1.0, 0.0, 1.0)

    def test_symmetric_crossing(self):
        rng = np.random.default_rng(19)
        a = rng.normal(0.0, np.sqrt(2.0), 50_000)
        b = rng.normal(0.0, 1.0, 50_000)
        st_ = wasserstein1_signed(a, b, 1)
        assert abs(st_.positive_part - st_.negative_part) <= 0.05 * max(
            st_.positive_part, st_.negative_part)

    def test_sign_flip_swaps_parts(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(0, 1, 300), rng.normal(0.4, 1.5, 220)
        plus = wasserstein1_signed(a, b, 1)
        minus = wasserstein1_signed(a, b, -1)
        assert plus.positive_part == pytest.approx(minus.negative_part, abs=1e-12)
        assert plus.negative_part == pytest.approx(minus.positive_part, abs=1e-12)

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            wasserstein1_signed([1.0], [1.0], 2)


class TestKsDistance:
    def test_identical(self):
        assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_separated_point_masses(self):
        for eps in (1e-6, 0.1, 3.0):
            assert ks_distance([eps], [-eps]) == 1.0

    def test_gaussian_shift_against_normal_cdf(self):
        rng = np.random.default_rng(23)
        a = rng.normal(0.0, 1.0, 50_000)
        b = rng.normal(0.5, 1.0, 50_000)
        ks = ks_distance(a, b)
        grid = np.linspace(-4, 4, 20_001)
        truth = np.max(np.abs(norm.cdf(grid) - norm.cdf(grid - 0.5)))
        assert abs(ks - truth) <= 0.02


class TestAgainstOracles:
    """The CDF form against the quantile-form W1 and the union-grid KS scan
    of ``helpers``."""

    @settings(max_examples=200, deadline=None)
    @given(favorable_sign=st.sampled_from([-1, 1]), **SAMPLES)
    def test_w1_and_ks_match(self, seed, decimals, favorable_sign):
        a, b = random_samples(seed, 2, decimals, max_size=200)
        got, want = wasserstein1_signed(a, b, favorable_sign), quantile_w1_signed(
            a, b, favorable_sign)
        # a part is within 1e-12 of the total: a small part of a large total
        # carries the rounding of the oracle's float probability breakpoints
        assert got.total == pytest.approx(want.total, rel=1e-12, abs=0)
        for part in ("positive_part", "negative_part"):
            assert getattr(got, part) == pytest.approx(getattr(want, part), rel=0,
                                                       abs=1e-12 * want.total)
        assert wasserstein1(a, b) == pytest.approx(quantile_w1(a, b), rel=1e-12, abs=0)
        assert ks_distance(a, b) == pytest.approx(grid_ks(a, b)[0], rel=0, abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(**SAMPLES)
    @example(seed=88, decimals=None)  # exact ties the scan resolves otherwise
    @example(seed=910, decimals=0)
    def test_ks_location_matches_scan_except_at_exact_ties(self, seed, decimals):
        """The ks_argmax focal point is the scan's, except where the exact
        gaps of two pooled values tie: the scan's float gaps may then pick
        either, and the smallest value wins."""
        a, b = random_samples(seed, 2, decimals, max_size=200)
        found = focal_point(np.concatenate((a, b)), 0, "ks_argmax",
                            g=np.repeat([0, 1], (a.size, b.size)))
        scanned = grid_ks(a, b)[1]
        if found != scanned:
            assert exact_cdf_gap(a, b, found) == exact_cdf_gap(a, b, scanned)
            assert found < scanned
        gaps = {t: exact_cdf_gap(a, b, t) for t in np.unique(np.concatenate((a, b)))}
        assert gaps[found] == max(gaps.values())
        assert all(gap < gaps[found] for t, gap in gaps.items() if t < found)


@st.composite
def two_class_sample(draw):
    """A shuffled pooled sample of two nonempty classes and its 0/1 labels."""
    return labelled(draw, *(draw(st.lists(FINITE_VALUES, min_size=1, max_size=40))
                            for _ in range(2)))


class TestKeySort:
    """The uint64 key sort against the argsort form it replaced, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(sample=two_class_sample(), favorable_sign=st.sampled_from([-1, 1]))
    @example(sample=(np.array([0.0, -0.0]), np.array([0, 1])), favorable_sign=1)
    @example(sample=(np.array([-0.0, 5e-324, -5e-324, 0.0]), np.array([1, 0, 0, 0])),
             favorable_sign=-1)
    @example(sample=(np.array([-2.0, -2.0, -1.0, 3.0, -2.0]), np.array([0, 1, 1, 0, 0])),
             favorable_sign=1)
    def test_matches_argsort_form(self, sample, favorable_sign):
        values, labels = sample
        want, want_ks, want_at = argsort_signed_transport(values, labels, favorable_sign)
        a, b = values[labels == 0], values[labels == 1]
        for got in (signed_transport(values, ClassLabels.of(labels), favorable_sign),
                    wasserstein1_signed(a, b, favorable_sign)):
            for part in ("total", "positive_part", "negative_part"):
                assert same_bits(getattr(got, part), getattr(want, part)), part
        got_ks, got_at = _ks(a, b)
        assert same_bits(got_ks, want_ks) and same_bits(got_at, want_at)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(**SAMPLES)
    def test_scaling_exact(self, seed, decimals):
        rng = np.random.default_rng([seed, 1])
        a, b = random_samples(seed, 2, decimals)
        base = wasserstein1(a, b)
        c = float(rng.uniform(0, 4))
        off = float(rng.normal())
        scaled = wasserstein1(c * a + off, c * b + off)
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(**SAMPLES)
    def test_symmetry_exact(self, seed, decimals):
        a, b = random_samples(seed, 2, decimals)
        assert wasserstein1(a, b) == wasserstein1(b, a)

    @settings(max_examples=100, deadline=None)
    @given(**SAMPLES)
    def test_triangle_inequality(self, seed, decimals):
        a, b, c = random_samples(seed, 3, decimals, max_size=40)
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12

    def test_matches_riemann_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = rng.normal(0, 1, rng.integers(50, 400))
            b = rng.normal(1, 0.5, rng.integers(50, 400))
            exact = wasserstein1(a, b)
            approx = riemann_w1(a, b)
            spread = max(a.max(), b.max()) - min(a.min(), b.min())
            assert abs(exact - approx) <= 1e-3 * spread

    @settings(max_examples=100, deadline=None)
    @given(**SAMPLES)
    def test_ks_invariant_under_increasing_map(self, seed, decimals):
        a, b = random_samples(seed, 2, decimals, max_size=200)
        assert ks_distance(np.exp(a) + a, np.exp(b) + b) == ks_distance(a, b)

    def test_signed_parts_recombine(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            a = rng.normal(0, 1, rng.integers(3, 80))
            b = rng.normal(0.2, 1.5, rng.integers(3, 80))
            st_ = wasserstein1_signed(a, b, 1)
            assert abs(st_.total - (st_.positive_part + st_.negative_part)) <= 1e-10
            assert st_.total == pytest.approx(quantile_w1(a, b), abs=1e-12)


# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    f"quantile at {p}": (lambda p=p: build_distribution([1.0, 2.0]).quantile(p),
                         "quantile argument must lie in [0, 1]")
    for p in (-0.5, 1.5)
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])
