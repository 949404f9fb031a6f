import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpost import learn
from fairpost.bias import model_bias
from fairpost.calibrate import sigmoid
from fairpost.empirical import build_distribution
from fairpost.learn import TrainedModel
from fairpost.transform import (
    LOCAL_A_MIN,
    TRANSFORMS,
    CompressiveParams,
    PredictorTransform,
    build_postprocessed,
    focal_point,
    post_scorer,
    transform_asymmetric,
    transform_global,
    transform_local,
    transform_params,
)

from helpers import (assert_value_error, asymmetric_one_line, ks_distance, random_tree,
                     wasserstein1)


def true_m1_model(z):
    return sigmoid(2.0 * (z.sum(axis=1) - 24.5))


def m1_like_data(rng, n_per_class=4000):
    a = np.array([10.0, -4.0, 16.0, 1.0, -3.0]) / 20.0
    var = np.array([[0.5, 1.0, 1.0, 1.0, 1.0], [1.5, 1.0, 1.0, 0.5, 0.25]])
    rng = np.random.default_rng(rng)
    x0 = np.column_stack([5.0 - a[i] + np.sqrt(var[0, i]) * rng.standard_normal(n_per_class)
                          for i in range(5)])
    x1 = np.column_stack([5.0 + np.sqrt(var[1, i]) * rng.standard_normal(n_per_class)
                          for i in range(5)])
    x = np.vstack([x0, x1])
    g = np.array([0] * n_per_class + [1] * n_per_class)
    return x, g


class TestGlobalTransform:
    def test_identity_at_a_one(self):
        grid = np.linspace(-5, 5, 21)
        np.testing.assert_array_equal(transform_global(grid, 1.0, 2.3), grid)

    def test_linear_arithmetic(self):
        assert transform_global(7.0, 2.0, 5.0) == 6.0

    def test_contraction_rate(self):
        t, t_star = 9.0, 5.0
        for a in (10.0, 100.0, 1e6):
            assert abs(transform_global(t, a, t_star) - t_star) == pytest.approx(
                abs(t - t_star) / a, rel=1e-12)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            transform_global(1.0, 0.0, 0.0)


class TestAsymmetricTransform:
    def test_reduces_to_global_when_equal(self):
        grid = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(transform_asymmetric(grid, 3.0, 3.0, 1.0),
                                   transform_global(grid, 3.0, 1.0), atol=1e-14)

    def test_negative_branch(self):
        assert transform_asymmetric(4.0, 2.0, 10.0, 5.0) == 4.5

    def test_positive_branch(self):
        assert transform_asymmetric(6.0, 2.0, 10.0, 5.0) == pytest.approx(5.1, abs=1e-14)

    def test_continuous_at_focal_point(self):
        eps = 1e-9
        lo = transform_asymmetric(5.0 - eps, 2.0, 7.0, 5.0)
        hi = transform_asymmetric(5.0 + eps, 2.0, 7.0, 5.0)
        assert abs(hi - lo) < 1e-8

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            transform_asymmetric(1.0, -1.0, 2.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(t=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, 2.2e-308])),
                      min_size=1, max_size=16),
           a_minus=st.floats(1e-3, 1e3), a_plus=st.floats(1e-3, 1e3),
           t_star=st.sampled_from([0.0, -0.0, 5e-324, 1.5, -2.5]))
    def test_same_bits_as_the_one_line_formula(self, t, a_minus, a_plus, t_star):
        """±0.0, subnormals and ties at t* on both branches, as an array and
        as a scalar, which comes back as a Python float.  Overflow to
        infinity is compared too."""
        t = np.array(t + [t_star], dtype=float)
        with np.errstate(over="ignore"):
            want = asymmetric_one_line(t, a_minus, a_plus, t_star)
            assert transform_asymmetric(t, a_minus, a_plus, t_star).tobytes() == want.tobytes()
            for value in t[:3]:
                got = transform_asymmetric(value, a_minus, a_plus, t_star)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(
                    asymmetric_one_line(value, a_minus, a_plus, t_star)).tobytes()


class TestLocalTransform:
    def test_fixed_point(self):
        for a, sigma in ((0.5, 1.0), (2.0, 0.3), (10.0, 4.0)):
            assert transform_local(5.0, a, sigma, 5.0) == 5.0

    def test_identity_at_a_one(self):
        grid = np.linspace(-3, 3, 31)
        np.testing.assert_allclose(transform_local(grid, 1.0, 1.0, 0.0), grid,
                                   atol=1e-15)

    def test_tail_identity(self):
        sigma, a, t_star = 1.0, 4.0, 0.0
        t = 5.0 * sigma
        out = transform_local(t, a, sigma, t_star)
        assert abs(out - t) <= 1e-4 * abs(t - t_star)

    def test_rejects_uncertified_a(self):
        with pytest.raises(ValueError):
            transform_local(1.0, 0.2, 1.0, 0.0)


class TestMonotonicity:
    @pytest.mark.parametrize("kind", ["global", "asymmetric", "local"])
    def test_strictly_increasing(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(40):
            t_star = float(rng.normal(0, 2))
            grid = np.sort(rng.normal(t_star, 3, 200))
            grid = grid[np.diff(grid, prepend=-np.inf) > 0]
            if kind == "global":
                out = transform_global(grid, float(rng.uniform(0.05, 20)), t_star)
            elif kind == "asymmetric":
                out = transform_asymmetric(grid, float(rng.uniform(0.05, 20)),
                                           float(rng.uniform(0.05, 20)), t_star)
            else:
                out = transform_local(grid, float(rng.uniform(0.4, 20)),
                                      float(rng.uniform(0.2, 3)), t_star)
            assert np.all(np.diff(out) > 0)

    def test_compressive_family_limits(self):
        # (i) contraction toward the focal point, (ii) identity at a=1,
        # (iii) unbounded growth as a -> 0+
        t, t_star = 3.0, 1.0
        for a in (2.0, 8.0, 64.0):
            for out in (transform_global(t, a, t_star),
                        transform_asymmetric(t, a, a, t_star)):
                assert abs(out - t_star) <= abs(t - t_star) / a + 1e-12
        assert transform_global(t, 1.0, t_star) == t
        assert transform_asymmetric(t, 1.0, 1.0, t_star) == t
        seq = [transform_global(t, a, t_star) for a in (1e-1, 1e-3, 1e-6)]
        assert seq[0] < seq[1] < seq[2]
        assert seq[2] > 1e6


class TestBuildPostprocessed:
    def _params(self, indices, kind, values, focals):
        return CompressiveParams(tuple(
            PredictorTransform(predictor=i, kind=kind, params=values[k],
                               focal=focals[k])
            for k, i in enumerate(indices)))

    def test_identity_parameters_reproduce_base_model(self):
        rng = np.random.default_rng(1)
        x = rng.normal(5, 1, (200, 5))
        model = true_m1_model
        params = CompressiveParams((
            PredictorTransform(0, "global", (1.0,), 5.0),
            PredictorTransform(1, "asymmetric", (1.0, 1.0), 4.0),
            PredictorTransform(2, "local", (1.0, 1.0), 5.0),
        ))
        post = build_postprocessed(model, params)
        np.testing.assert_array_equal(post(x), model(x))

    def test_u_shaped_bias_curve(self):
        x, g = m1_like_data(3)
        focals = [float(x[:, i].mean()) for i in (0, 2)]
        totals, positives, negatives = [], [], []
        for a in (1.0, 15.0):
            params = self._params((0, 2), "global", [(a,), (a,)], focals)
            post = build_postprocessed(true_m1_model, params)
            report = model_bias(post(x), g, favorable_sign=-1)
            totals.append(report.total)
            positives.append(report.positive)
            negatives.append(report.negative)
        assert positives[1] < positives[0]
        assert negatives[1] > negatives[0]

    def test_point_compression_kills_bias(self):
        x, g = m1_like_data(4)
        focals = [float(x[:, i].mean()) for i in range(5)]
        params = self._params(tuple(range(5)), "global", [(1000.0,)] * 5, focals)
        post = build_postprocessed(true_m1_model, params)
        base = model_bias(true_m1_model(x), g).total
        compressed = model_bias(post(x), g).total
        assert compressed <= 0.01 * base

    def test_rank_preservation_per_coordinate(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 2, (300, 3))
        params = CompressiveParams((
            PredictorTransform(0, "global", (3.0,), 0.5),
            PredictorTransform(1, "asymmetric", (0.6, 4.0), -1.0),
            PredictorTransform(2, "local", (2.0, 1.0), 0.0),
        ))
        post = build_postprocessed(lambda z: z.sum(axis=1), params)
        transformed = post.params.apply(x)
        for i in range(3):
            orig_order = np.argsort(x[:, i], kind="stable")
            new_order = np.argsort(transformed[:, i], kind="stable")
            np.testing.assert_array_equal(orig_order, new_order)

    def test_doubling_compression_drives_bias_down_monotonically(self):
        rng = np.random.default_rng(10)
        col0 = rng.normal(0.0, 1.0, 500)
        col1 = rng.normal(0.8, 1.5, 500)
        biases = []
        for n in range(8):
            a = 2.0 ** n
            t0 = transform_global(col0, a, 0.4)
            t1 = transform_global(col1, a, 0.4)
            biases.append(wasserstein1(t0, t1))
        assert all(b2 < b1 for b1, b2 in zip(biases[:-1], biases[1:]))
        assert biases[-1] < 0.01 * biases[0]

    def test_local_monotonicity_certificate(self):
        x = np.random.default_rng(11).normal(0, 1, (100, 1))
        with pytest.raises(ValueError):
            PredictorTransform(0, "local", (0.1, 1.0), 0.0).apply(x[:, 0])

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(LOCAL_A_MIN, 1e3), sigma=st.floats(1e-2, 1e2),
           z=st.floats(-50.0, 50.0), focal=st.floats(-10.0, 10.0))
    def test_local_slope_bound(self, a, sigma, z, focal):
        """The local map's slope is at least 1/a for a >= 1 and at least
        1 - 2 e^-1.5 (1/a - 1) below that (0.33 at a = LOCAL_A_MIN), at any
        distance ``d = z * sigma`` from the focal point."""
        t = focal + z * sigma
        h = 1e-4 * sigma
        slope = (transform_local(t + h, a, sigma, focal) - transform_local(t, a, sigma, focal)) / h
        bound = 1.0 / a if a >= 1.0 else 1.0 - 2.0 * np.exp(-1.5) * (1.0 / a - 1.0)
        assert bound >= min(1.0 / a, 0.33)
        assert slope >= bound - 1e-7  # rounding in the difference quotient


class TestPostScorer:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(TRANSFORMS)),
           n_trees=st.integers(1, 4), n_features=st.integers(1, 4),
           extra_columns=st.integers(0, 2),
           n_rows=st.sampled_from([0, 1, 37, 511, 512, 513, 1100]),
           pass_rows=st.integers(1, 1200))
    def test_gbm_matches_transformed_rows(self, seed, kind, n_trees, n_features,
                                          extra_columns, n_rows, pass_rows):
        """One scorer per input, called with several parameter draws, gives the
        bits of the model on the transformed rows.  The impact list may hold
        columns no tree splits on and columns past the model's width, and the
        inputs hit thresholds, NaN and +-inf."""
        rng = np.random.default_rng(seed)
        pool = np.concatenate([np.round(rng.normal(0.0, 2.0, 10), 1),
                               [-np.inf, np.inf, -0.0]])
        trees = tuple(random_tree(rng, int(rng.integers(1, 9)), 4, n_features,
                                  lambda: float(rng.choice(pool)))
                      for _ in range(n_trees))
        model = TrainedModel(kind="gbm", init_score=float(rng.normal()),
                             learning_rate=float(rng.uniform(0.01, 1.0)), trees=trees)
        p = n_features + extra_columns
        x = rng.normal(0.0, 2.0, (n_rows, p))
        tie = rng.random(x.shape) < 0.3
        x[tie] = rng.choice(pool, int(tie.sum()))
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
        indices = tuple(rng.choice(p, int(rng.integers(1, p + 1)), replace=False).tolist())

        def draw(i):
            if kind == "local":
                values = (rng.uniform(LOCAL_A_MIN, 3.0), rng.uniform(0.2, 3.0))
            else:
                values = tuple(rng.uniform(0.2, 3.0, len(TRANSFORMS[kind][0])))
            return PredictorTransform(predictor=i, kind=kind, params=values,
                                      focal=float(rng.normal(0.0, 2.0)))

        # passes, and the node-bit OR blocks inside them, end inside the rows
        with mock.patch.object(learn, "PASS_ROWS", pass_rows):
            score = post_scorer(model, x, indices)
            for _ in range(3):  # transforms listed in any order
                params = CompressiveParams(tuple(draw(i) for i in rng.permutation(indices)))
                post = build_postprocessed(model, params)
                with np.errstate(invalid="ignore"):  # the local map of +-inf is NaN
                    got, want = score(params), model(post.params.apply(x))
                assert np.array_equal(got, want)

    def test_other_models_score_transformed_rows(self):
        x = np.random.default_rng(7).normal(5.0, 1.0, (300, 5))
        params = CompressiveParams((PredictorTransform(2, "global", (1.7,), 5.0),
                                    PredictorTransform(0, "local", (0.8, 1.2), 4.5)))
        want = true_m1_model(params.apply(x))
        assert np.array_equal(post_scorer(true_m1_model, x, (0, 2))(params), want)

    def test_params_must_cover_the_impact_list(self):
        model = TrainedModel(kind="gbm", trees=(random_tree(
            np.random.default_rng(8), 4, 3, 3, lambda: 0.5),), learning_rate=0.1)
        x = np.zeros((10, 3))
        params = CompressiveParams((PredictorTransform(0, "global", (2.0,), 0.0),))
        for scorer in (model, lambda z: model(z)):
            with pytest.raises(ValueError, match="impact list is"):
                post_scorer(scorer, x, (0, 1))(params)
            with pytest.raises(ValueError, match="duplicate"):
                post_scorer(scorer, x, (0, 0))(CompressiveParams(params.transforms * 2))


class TestFocalPoint:
    def test_constant_column(self):
        x = np.full((20, 1), 3.7)
        g = np.array([0, 1] * 10)
        for rule in ("mean", "median", "ks_argmax"):
            assert focal_point(x, 0, rule, g=g) == pytest.approx(3.7, abs=1e-12)

    def test_median_rule(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        assert focal_point(x, 0, "median") == 3.0

    def test_ks_argmax_matches_exhaustive_scan(self):
        rng = np.random.default_rng(12)
        col = np.concatenate([rng.normal(0, 1, 400),
                              rng.normal(0.3, 2.0, 300)])
        g = np.array([0] * 400 + [1] * 300)
        x = col[:, None]
        found = focal_point(x, 0, "ks_argmax", g=g)
        d0 = build_distribution(col[g == 0])
        d1 = build_distribution(col[g == 1])
        best_gap, best_t = -1.0, None
        for t in np.sort(col):
            gap = abs(d0.cdf(t) - d1.cdf(t))
            if gap > best_gap + 1e-15:
                best_gap, best_t = gap, t
        assert found == best_t
        assert abs(d0.cdf(found) - d1.cdf(found)) == pytest.approx(
            ks_distance(col[g == 0], col[g == 1]), abs=1e-12)

    def test_requires_g_for_ks(self):
        with pytest.raises(ValueError):
            focal_point(np.zeros((5, 1)), 0, "ks_argmax")

    def test_empty_column(self):
        with pytest.raises(ValueError):
            focal_point(np.zeros((0, 1)), 0, "mean")

    def test_unknown_rule_is_rejected_before_any_work(self):
        """An empty column would raise its own error; the rule is checked first."""
        for x in (np.zeros((5, 1)), np.zeros((0, 1))):
            with pytest.raises(ValueError, match="unknown focal rule 'mode'"):
                focal_point(x, 0, "mode")


class TestTransformTable:
    def test_unknown_kind_names_family_and_kind(self):
        with pytest.raises(ValueError, match="unknown transform kind 'power'"):
            transform_params("power")
        with pytest.raises(ValueError, match="unknown transform kind 'power'"):
            PredictorTransform(0, "power", (1.0,), 0.0)

    @pytest.mark.parametrize("kind, params", [
        ("global", (1.7,)), ("asymmetric", (0.6, 2.5)), ("local", (1.8, 0.7))])
    def test_apply_is_the_family_map(self, kind, params):
        t = np.linspace(-3.0, 5.0, 17)
        expected = {"global": transform_global, "asymmetric": transform_asymmetric,
                    "local": transform_local}[kind](t, *params, 0.5)
        assert np.array_equal(PredictorTransform(0, kind, params, 0.5).apply(t), expected)


class TestParamsSerialization:
    @settings(max_examples=150, deadline=None)
    @given(specs=st.lists(st.tuples(
        st.sampled_from(sorted(TRANSFORMS)),
        st.tuples(st.floats(LOCAL_A_MIN, 1e6), st.floats(1e-6, 1e6)),
        st.floats(-1e6, 1e6), st.sampled_from(["mean", "median", "ks_argmax", "fixed"]),
        st.text(max_size=8)), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
    def test_json_roundtrip_random(self, specs, seed):
        """Exactly equal fields after the round trip, and transformed rows
        with the same bits."""
        params = CompressiveParams(tuple(
            PredictorTransform(j, kind, values[:len(TRANSFORMS[kind][0])], focal, rule, name)
            for j, (kind, values, focal, rule, name) in enumerate(specs)))
        restored = CompressiveParams.from_json(params.to_json())
        assert restored == params
        for a, b in zip(restored.transforms, params.transforms):
            assert all(type(getattr(a, f)) is type(getattr(b, f))
                       for f in ("predictor", "focal", "focal_rule", "name"))
        x = np.random.default_rng(seed).normal(0.0, 100.0, (64, len(specs)))
        assert restored.apply(x).tobytes() == params.apply(x).tobytes()

    def test_json_roundtrip(self):
        params = CompressiveParams((
            PredictorTransform(0, "global", (2.0,), 5.0, "mean", "x1"),
            PredictorTransform(3, "asymmetric", (0.7, 1.4), 4.2, "median", "x4"),
            PredictorTransform(2, "local", (1.5, 0.8), 5.1, "ks_argmax", "x3"),
        ))
        restored = CompressiveParams.from_json(params.to_json())
        assert restored == params
        payload = json.loads(params.to_json())
        assert payload[0]["kind"] == "global"
        assert payload[1]["params"] == [0.7, 1.4]

    def test_repeated_predictor_is_rejected(self):
        """Two transforms of one column would apply one after the other; the
        constructor and from_json refuse them and name the repeat by its name,
        or by its index when it has none."""
        first = PredictorTransform(3, "global", (2.0,), 5.0, "mean", "x4")
        second = PredictorTransform(3, "local", (1.5, 0.8), 5.1)
        for pair, name in (((second, first), "x4"), ((first, second), "3")):
            message = f"duplicate transform for predictor {name}"
            with pytest.raises(ValueError, match=message):
                CompressiveParams((PredictorTransform(0, "global", (1.0,), 0.0), *pair))
            text = json.dumps([json.loads(CompressiveParams((t,)).to_json())[0] for t in pair])
            with pytest.raises(ValueError, match=message):
                CompressiveParams.from_json(text)


# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "parameter count": (lambda: PredictorTransform(0, "global", (1.0, 2.0), 0.0),
                        "global transform takes 1 parameter(s)"),
    "one protected class": (lambda: focal_point(np.zeros((3, 1)), 0, rule="ks_argmax",
                                                g=[0, 0, 0]),
                            "ks_argmax requires both protected classes"),
    "fractional protected labels": (lambda: focal_point(np.zeros((3, 1)), 0, rule="ks_argmax",
                                                        g=[0, 1, 0.5]),
                                    "g must be binary 0/1"),
    "NaN focal point": (lambda: PredictorTransform(0, "global", (1.0,), np.nan, name="x1"),
                        "the focal point of predictor x1 must be finite, got nan"),
    "infinite focal point": (lambda: PredictorTransform(2, "global", (1.0,), -np.inf),
                             "the focal point of predictor 2 must be finite, got -inf"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])
