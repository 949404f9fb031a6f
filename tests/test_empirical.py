import numpy as np
import pytest
from scipy.stats import norm, wasserstein_distance

from fairpost.empirical import (
    build_distribution,
    ks_distance,
    wasserstein1,
    wasserstein1_signed,
)

from helpers import riemann_w1


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
        d0 = build_distribution([0.1])
        d1 = build_distribution([-0.1])
        assert wasserstein1(d0, d1) == pytest.approx(0.2, abs=1e-15)

    def test_identical_samples(self):
        d = build_distribution([1.0, 2.0, 5.0])
        assert wasserstein1(d, d) == 0.0

    def test_gaussian_shift(self):
        rng = np.random.default_rng(11)
        a = rng.normal(5.0, 1.0, 50_000)
        b = rng.normal(5.5, 1.0, 50_000)
        w = wasserstein1(build_distribution(a), build_distribution(b))
        assert abs(w - 0.5) <= 0.02
        assert w == pytest.approx(wasserstein_distance(a, b), rel=1e-9)

    def test_unequal_sizes_against_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 701)
        b = rng.normal(0.3, 2.0, 397)
        w = wasserstein1(build_distribution(a), build_distribution(b))
        assert w == pytest.approx(wasserstein_distance(a, b), rel=1e-9)


class TestSignedTransport:
    def test_one_directional(self):
        st = wasserstein1_signed(build_distribution([1.0]), build_distribution([0.0]), 1)
        assert (st.total, st.positive_part, st.negative_part) == (1.0, 1.0, 0.0)

    def test_swap_arguments(self):
        st = wasserstein1_signed(build_distribution([0.0]), build_distribution([1.0]), 1)
        assert (st.total, st.positive_part, st.negative_part) == (1.0, 0.0, 1.0)

    def test_symmetric_crossing(self):
        rng = np.random.default_rng(19)
        a = rng.normal(0.0, np.sqrt(2.0), 50_000)
        b = rng.normal(0.0, 1.0, 50_000)
        st = wasserstein1_signed(build_distribution(a), build_distribution(b), 1)
        assert abs(st.positive_part - st.negative_part) <= 0.05 * max(
            st.positive_part, st.negative_part)

    def test_sign_flip_swaps_parts(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(0, 1, 300), rng.normal(0.4, 1.5, 220)
        d0, d1 = build_distribution(a), build_distribution(b)
        plus = wasserstein1_signed(d0, d1, 1)
        minus = wasserstein1_signed(d0, d1, -1)
        assert plus.positive_part == pytest.approx(minus.negative_part, abs=1e-12)
        assert plus.negative_part == pytest.approx(minus.positive_part, abs=1e-12)

    def test_invalid_sign(self):
        d = build_distribution([1.0])
        with pytest.raises(ValueError):
            wasserstein1_signed(d, d, 2)


class TestKsDistance:
    def test_identical(self):
        d = build_distribution([1.0, 2.0, 3.0])
        assert ks_distance(d, d) == 0.0

    def test_separated_point_masses(self):
        for eps in (1e-6, 0.1, 3.0):
            d0 = build_distribution([eps])
            d1 = build_distribution([-eps])
            assert ks_distance(d0, d1) == 1.0

    def test_gaussian_shift_against_normal_cdf(self):
        rng = np.random.default_rng(23)
        a = rng.normal(0.0, 1.0, 50_000)
        b = rng.normal(0.5, 1.0, 50_000)
        ks = ks_distance(build_distribution(a), build_distribution(b))
        grid = np.linspace(-4, 4, 20_001)
        truth = np.max(np.abs(norm.cdf(grid) - norm.cdf(grid - 0.5)))
        assert abs(ks - truth) <= 0.02


class TestProperties:
    def test_scaling_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(0, 1, rng.integers(5, 60))
            b = rng.normal(0.5, 2, rng.integers(5, 60))
            base = wasserstein1(build_distribution(a), build_distribution(b))
            c = float(rng.uniform(0, 4))
            off = float(rng.normal())
            scaled = wasserstein1(build_distribution(c * a + off),
                                  build_distribution(c * b + off))
            assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            ds = [build_distribution(rng.normal(rng.normal(), rng.uniform(0.5, 2),
                                                rng.integers(3, 40)))
                  for _ in range(3)]
            w01 = wasserstein1(ds[0], ds[1])
            w12 = wasserstein1(ds[1], ds[2])
            w02 = wasserstein1(ds[0], ds[2])
            assert w02 <= w01 + w12 + 1e-12

    def test_matches_riemann_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = rng.normal(0, 1, rng.integers(50, 400))
            b = rng.normal(1, 0.5, rng.integers(50, 400))
            exact = wasserstein1(build_distribution(a), build_distribution(b))
            approx = riemann_w1(a, b)
            spread = max(a.max(), b.max()) - min(a.min(), b.min())
            assert abs(exact - approx) <= 1e-3 * spread

    def test_ks_invariant_under_increasing_map(self):
        rng = np.random.default_rng(40)
        a, b = rng.normal(0, 1, 500), rng.normal(0.7, 1.3, 400)
        base = ks_distance(build_distribution(a), build_distribution(b))
        mapped = ks_distance(build_distribution(np.exp(a) + a),
                             build_distribution(np.exp(b) + b))
        assert mapped == pytest.approx(base, abs=1e-15)

    def test_signed_parts_recombine(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            d0 = build_distribution(rng.normal(0, 1, rng.integers(3, 80)))
            d1 = build_distribution(rng.normal(0.2, 1.5, rng.integers(3, 80)))
            st = wasserstein1_signed(d0, d1, 1)
            assert abs(st.total - (st.positive_part + st.negative_part)) <= 1e-10
            assert st.total == pytest.approx(wasserstein1(d0, d1), abs=1e-12)
