import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from fairpost import calibrate
from fairpost.calibrate import (
    NEWTON_MAX_ITER,
    SEPARATION_BOUND,
    CalibrationError,
    CalibrationMap,
    auc,
    link_linear_calibrate,
    logistic_refit,
    logit,
    newton_logistic,
    pava_isotonic,
    sigmoid,
)

from fairpost.learn import train_logistic

from helpers import assert_value_error, brute_force_isotonic, sigmoid_masked

SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 745.2, -745.2, 709.8,
                 -709.8, 36.8, -36.8, np.nan]


class TestPavaIsotonic:
    def test_monotone_input_interpolated_exactly(self):
        x = np.array([0.0, 1.0, 2.5, 4.0])
        y = np.array([-1.0, 0.5, 0.5, 3.0])
        cal = pava_isotonic(x, y)
        np.testing.assert_allclose(cal(x), y, atol=1e-14)

    def test_three_point_violation_pools_to_mean(self):
        cal = pava_isotonic([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        np.testing.assert_allclose(cal(np.array([1.0, 2.0, 3.0])), 2.0, atol=1e-14)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            x = rng.normal(0, 1, n)
            y = rng.normal(0, 1, n)
            cal = pava_isotonic(x, y)
            fitted = cal(np.sort(x))
            oracle = brute_force_isotonic(x, y)
            oracle_sorted = oracle[np.argsort(x, kind="stable")]
            np.testing.assert_allclose(fitted, oracle_sorted, atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(st.integers(0, 11), st.floats(-4.0, 4.0)),
                           min_size=1, max_size=12))
    def test_matches_brute_force_with_ties(self, points):
        """Exact ties in x share one fitted value, so the fit at the knots is
        the brute-force isotonic fit of the tie-pooled means, each weighted by
        its tie group's row count."""
        x, y = (np.array(column, dtype=float) for column in zip(*points))
        knots = np.unique(x)
        ties = [x == k for k in knots]
        pooled_y = np.array([y[t].mean() for t in ties])
        pooled_w = np.array([t.sum() for t in ties], dtype=float)
        cal = pava_isotonic(x, y)
        np.testing.assert_allclose(cal(knots), brute_force_isotonic(knots, pooled_y, pooled_w),
                                   rtol=0, atol=1e-9)

    def test_step_interpolation_between_knots(self):
        cal = pava_isotonic([0.0, 1.0], [0.0, 1.0])
        assert cal(0.5) == 0.0   # right-continuous step
        assert cal(-5.0) == 0.0  # clamped below
        assert cal(5.0) == 1.0   # clamped above

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pava_isotonic([1.0, 2.0], [1.0])

    def test_nondecreasing_everywhere(self):
        rng = np.random.default_rng(1)
        cal = pava_isotonic(rng.normal(0, 1, 200), rng.normal(0, 1, 200))
        grid = np.linspace(-4, 4, 1001)
        assert np.all(np.diff(cal(grid)) >= 0)


class TestLinkLinearCalibrate:
    def test_identity_postprocessing(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(0.05, 0.95, 2000)
        cal = link_linear_calibrate(s, s)
        b0, b1 = cal.coef
        assert abs(b0) <= 1e-8 and abs(b1 - 1.0) <= 1e-8
        np.testing.assert_allclose(cal(s), s, atol=1e-10)

    def test_recovers_halved_logit_slope(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.02, 0.98, 5000)
        post = sigmoid(0.5 * logit(base))
        cal = link_linear_calibrate(post, base)
        b0, b1 = cal.coef
        assert abs(b1 - 2.0) <= 1e-6
        assert abs(b0) <= 1e-6

    def test_clamps_boundary_scores(self):
        cal = link_linear_calibrate(np.array([0.2, 0.5, 1.0, 0.8]),
                                    np.array([0.25, 0.5, 0.9, 0.75]))
        out = cal(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(out))

    def test_negative_slope_is_failure(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.1, 0.9, 500)
        post = sigmoid(-logit(base))
        with pytest.raises(CalibrationError):
            link_linear_calibrate(post, base)

    def test_degenerate_post_scores_fail(self):
        base = np.random.default_rng(5).uniform(0.2, 0.8, 100)
        post = np.full(100, 0.42)
        with pytest.raises(CalibrationError):
            link_linear_calibrate(post, base)

    def test_positive_slope_preserves_ranking(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.05, 0.95, 1000)
        post = sigmoid(1.7 * logit(base) + 0.3)
        cal = link_linear_calibrate(post, base)
        out = cal(post)
        np.testing.assert_array_equal(np.argsort(out, kind="stable"),
                                      np.argsort(post, kind="stable"))


class TestLogisticRefit:
    def test_independent_labels(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0.1, 0.9, 10_000)
        y = (rng.random(10_000) < 0.37).astype(int)
        cal = logistic_refit(s, y)
        b0, b1 = cal.coef
        assert abs(b1) <= 0.1
        intercept_only = logit(np.mean(y))
        assert abs(cal(np.array([0.5]))[0] - sigmoid(intercept_only)) <= 1e-3 or \
            abs(b0 - intercept_only) <= 0.1

    def test_calibrated_scores_recover_unit_slope(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(0.02, 0.98, 100_000)
        y = (rng.random(100_000) < s).astype(int)
        cal = logistic_refit(s, y)
        assert abs(cal.coef[1] - 1.0) <= 0.05

    def test_single_class_fallback_warns(self):
        s = np.linspace(0.1, 0.9, 50)
        with pytest.warns(UserWarning, match="single-class"):
            cal = logistic_refit(s, np.ones(50, dtype=int))
        assert np.all(np.isfinite(cal(s)))

    def test_separation_fallback_warns(self):
        s = np.concatenate([np.linspace(0.01, 0.49, 50), np.linspace(0.51, 0.99, 50)])
        y = np.array([0] * 50 + [1] * 50)
        with pytest.warns(UserWarning, match="separation"):
            cal = logistic_refit(s, y)
        assert np.all(np.isfinite(cal(s)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_newton_solver_as_train_logistic(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.05, 0.95, 500)
        y = (rng.random(500) < s).astype(int)
        model = train_logistic(logit(s)[:, None], y)
        assert (model.intercept, model.coef[0]) == logistic_refit(s, y).coef


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
                        elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                           st.sampled_from(SIGMOID_EDGES))))
    def test_bit_identical_to_masked_form(self, z):
        """Every non-NaN float64, infinities, subnormals and the exp under-
        and overflow edges included, maps to the bits of the masked form, in
        an array of the input's shape (0-d included); NaN maps to NaN."""
        out = sigmoid(z)
        assert isinstance(out, np.ndarray) and out.shape == z.shape
        nan = np.isnan(z)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == sigmoid_masked(z)[~nan].tobytes()

    def test_scalar_input_gives_zero_dim_array(self):
        out = sigmoid(2.0)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out.tobytes() == sigmoid_masked(2.0).tobytes()

    @pytest.mark.parametrize("layout", ["strided", "negative-stride", "fortran"])
    def test_non_contiguous_layouts(self, layout):
        base = np.random.default_rng(13).normal(0.0, 30.0, (60, 50))
        z = {"strided": base[::3, 1::2], "negative-stride": base[::-2, ::-1],
             "fortran": np.asfortranarray(base)}[layout]
        out = sigmoid(z)
        assert out.shape == z.shape
        assert np.ascontiguousarray(out).tobytes() == sigmoid_masked(
            np.ascontiguousarray(z)).tobytes()

    @pytest.mark.parametrize("z", [np.arange(-800, 801, 7, dtype=np.int64),
                                   np.arange(-100, 101, dtype=np.int8),
                                   np.array([True, False, True])],
                             ids=["int64", "int8", "bool"])
    def test_integer_and_bool_inputs(self, z):
        out = sigmoid(z)
        assert out.dtype == np.float64 and out.shape == z.shape
        assert out.tobytes() == sigmoid_masked(z.astype(float)).tobytes()

    def test_input_unchanged_and_not_aliased(self):
        z = np.random.default_rng(14).normal(0.0, 10.0, 1000)
        z[:len(SIGMOID_EDGES)] = SIGMOID_EDGES
        before = z.copy()
        out = sigmoid(z)
        assert z.tobytes() == before.tobytes()
        assert not np.shares_memory(out, z)

    def test_large_mixed_sign_vector(self):
        rng = np.random.default_rng(15)
        # scales where exp(-|z|) rounds to 1, falls just below it, and under- or overflows
        z = rng.normal(0.0, 20.0, 150_000) * rng.choice([1e-300, 1e-14, 1.0, 40.0], 150_000)
        z[::1000] = 0.0
        z[1::1000] = -0.0
        assert (z < 0).sum() > 70_000 and (z > 0).sum() > 70_000
        assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()


class TestAuc:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           distinct=st.integers(1, 12), special=st.booleans())
    def test_matches_rankdata_oracle(self, seed, n, distinct, special):
        """Heavy ties: the AUC equals, exactly, the Mann-Whitney statistic
        from scipy's average ranks."""
        rng = np.random.default_rng(seed)
        pool = rng.normal(0.0, 1.0, distinct)
        if special:
            pool[: min(3, distinct)] = [-np.inf, np.inf, -0.0][: min(3, distinct)]
        s = rng.choice(pool, n)
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        n_pos = int(y.sum())
        ranks = rankdata(s, method="average")
        expected = ((float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0)
                    / (n_pos * (n - n_pos)))
        assert auc(s, y) == expected
        assert auc(list(s), list(y)) == expected

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc(np.array([0.2, np.nan, 0.7]), np.array([0, 1, 1])))

    @pytest.mark.parametrize("scores, labels, message", [
        ([0.1, 0.9], [1, 1], "both label values"),
        ([0.1, 0.9], [0, 0], "both label values"),
        ([0.1, 0.9, 0.5], [0, 1], "same length"),
        ([0.1, 0.9], [0, 2], "binary"),
        ([0.1, 0.9], [0, 0.5], "binary"),
    ])
    def test_errors(self, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            auc(np.array(scores), np.array(labels))

    def test_perfect_scores(self):
        y = np.array([0, 0, 1, 1, 1])
        assert auc(y.astype(float), y) == 1.0

    def test_independent_scores_near_half(self):
        rng = np.random.default_rng(9)
        s = rng.random(100_000)
        y = (rng.random(100_000) < 0.4).astype(int)
        assert abs(auc(s, y) - 0.5) <= 0.01

    def test_monotone_invariance_exact(self):
        rng = np.random.default_rng(10)
        s = rng.normal(0, 1, 5000)
        y = (rng.random(5000) < sigmoid(s)).astype(int)
        base = auc(s, y)
        assert auc(np.exp(s), y) == base
        assert auc(3.0 * s - 7.0, y) == base

    def test_tie_handling(self):
        s = np.array([0.5, 0.5, 0.5, 0.5])
        y = np.array([0, 1, 0, 1])
        assert auc(s, y) == 0.5

    def test_single_class_error(self):
        with pytest.raises(ValueError):
            auc(np.array([0.1, 0.9]), np.array([1, 1]))


class TestCalibrationComposition:
    def test_strictly_increasing_map_preserves_auc(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.01, 0.99, 4000)
        y = (rng.random(4000) < s).astype(int)
        base = auc(s, y)
        for cal in (link_linear_calibrate(s, sigmoid(1.3 * logit(s) - 0.2)),
                    logistic_refit(s, y)):
            assert abs(auc(cal(s), y) - base) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           coef=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_json_roundtrip_random(self, seed, n, coef):
        """Every kind restores with exactly equal fields, and the restored
        map's outputs have the same bits."""
        rng = np.random.default_rng(seed)
        x = rng.choice(rng.normal(0, 1, n), n)  # ties pooled by the fit
        y = rng.normal(0, 1, n) * rng.choice([1e-12, 1.0, 1e6], n)
        grid = np.concatenate([rng.normal(0, 2, 50), [-np.inf, 0.0, np.inf]])
        probs = np.concatenate([rng.random(50), [0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0]])
        for cal, at in ((pava_isotonic(x, y), grid),
                        (CalibrationMap(kind="link_linear", coef=coef), probs),
                        (CalibrationMap(kind="logistic_refit", coef=coef), probs)):
            restored = CalibrationMap.from_json(cal.to_json())
            assert restored.kind == cal.kind and restored.coef == cal.coef
            for field in ("knots", "levels"):
                a, b = getattr(restored, field), getattr(cal, field)
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert restored(at).tobytes() == cal(at).tobytes()

    def test_json_roundtrip(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0, 1, 30)
        for cal in (pava_isotonic(x, y),
                    CalibrationMap(kind="link_linear", coef=(0.2, 1.5)),
                    CalibrationMap(kind="logistic_refit", coef=(-0.1, 0.9))):
            restored = CalibrationMap.from_json(cal.to_json())
            grid = np.linspace(-2, 2, 41) if cal.kind == "pava" else np.linspace(0.05, 0.95, 41)
            np.testing.assert_allclose(restored(grid), cal(grid), atol=1e-12)


# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "unknown kind": (lambda: CalibrationMap(kind="bogus"), "unknown calibration kind 'bogus'"),
    "pava of nothing": (lambda: pava_isotonic([], []), "empty input"),
    "link-linear lengths": (lambda: link_linear_calibrate([0.2, 0.3], [0.2]),
                            "score vectors must have the same length"),
    "refit lengths": (lambda: logistic_refit([0.2], [0, 1]),
                      "scores and labels must have the same length"),
    "refit NaN score": (lambda: logistic_refit([np.nan, 0.2], [0, 1]), "scores must be finite"),
    "refit labels": (lambda: logistic_refit([0.2, 0.3], [0, 2]), "labels must be binary 0/1"),
    "string coef": (lambda: CalibrationMap.from_json('{"kind": "link_linear", "coef": "ab"}'),
                    "malformed calibration map: could not convert string to list: 'ab' in "
                    "calibration field 'coef'"),
    "string in coef": (lambda: CalibrationMap.from_json(
        '{"kind": "link_linear", "coef": [1, "b"]}'),
        "malformed calibration map: could not convert string to float: 'b' in "
        "calibration field 'coef'"),
    "one coef": (lambda: CalibrationMap.from_json('{"kind": "logistic_refit", "coef": [1.5]}'),
                 "malformed calibration map: calibration field 'coef' must hold 2 numbers, got 1"),
    "boolean knot": (lambda: CalibrationMap.from_json(
        '{"kind": "pava", "knots": [true], "levels": [0.5]}'),
        "malformed calibration map: could not convert boolean to float: True in "
        "calibration field 'knots'"),
    "numeric kind": (lambda: CalibrationMap.from_json('{"kind": 3}'),
                     "malformed calibration map: could not convert int to str: 3 in "
                     "calibration field 'kind'"),
    "calibration list": (lambda: CalibrationMap.from_json("[]"),
                         "a calibration map must be a JSON object"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])

    def test_newton_stops_at_the_first_iterate_past_the_separation_bound(self, monkeypatch):
        """On separable labels the solver returns the first iterate whose norm
        exceeds SEPARATION_BOUND, well before NEWTON_MAX_ITER steps."""
        x = np.linspace(-0.01, 0.01, 10)
        design, y = np.column_stack([np.ones(x.size), x]), (x > 0).astype(float)
        beta = newton_logistic(design, y)
        assert np.linalg.norm(beta) > SEPARATION_BOUND
        for steps in range(1, NEWTON_MAX_ITER):
            monkeypatch.setattr(calibrate, "NEWTON_MAX_ITER", steps)
            capped = newton_logistic(design, y)
            if np.linalg.norm(capped) > SEPARATION_BOUND:
                break
        assert steps < NEWTON_MAX_ITER - 1
        assert capped.tobytes() == beta.tobytes()
