import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpost import learn
from fairpost.explain import (
    default_background,
    exact_shapley,
    marginal_game_values,
    marginal_shapley,
    pdp_explainer,
    pdp_output,
    sampled_shapley,
)

from fairpost.calibrate import sigmoid
from fairpost.learn import (
    MAX_LEAVES,
    PRED_CLAMP,
    GbmConfig,
    SyntheticSpec,
    TrainedModel,
    generate,
    train_gbm,
)

from helpers import (
    additive_shapley,
    assert_value_error,
    ice_explainer,
    pdp_direct,
    random_tree,
    shapley_by_orderings,
    tree_scores_direct,
)


def product_model(x):
    return x[:, 0] * x[:, 1]


def additive_model(x):
    return 0.5 * x[:, 0] + np.sin(x[:, 1]) - 2.0 * x[:, 2]


ADDITIVE_PARTS = (lambda t: 0.5 * t, np.sin, lambda t: -2.0 * t)


class TestPdpExplainer:
    def test_additive_depends_only_on_own_column(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (40, 3))
        bg = rng.normal(0, 1, (25, 3))
        vals = pdp_explainer(additive_model, x, 0, bg)
        expected_diffs = 0.5 * (x[:, 0] - x[0, 0])
        np.testing.assert_allclose(vals - vals[0], expected_diffs, atol=1e-12)

    def test_interaction_vanishes_with_centered_background(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (30, 2))
        bg = rng.normal(0, 1, (20, 2))
        bg -= bg.mean(axis=0)  # exact zero means
        vals = pdp_explainer(product_model, x, 0, bg)
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)

    def test_constant_model(self):
        x = np.random.default_rng(2).normal(0, 1, (10, 2))
        vals = pdp_explainer(lambda z: np.full(z.shape[0], 3.25), x, 1, x)
        np.testing.assert_allclose(vals, 3.25, atol=1e-15)

    def test_matches_direct_double_loop(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (12, 3))
        bg = rng.normal(0, 1, (7, 3))
        model = lambda z: z[:, 0] * z[:, 2] + z[:, 1] ** 2
        for i in range(3):
            np.testing.assert_allclose(pdp_explainer(model, x, i, bg),
                                       pdp_direct(model, x, bg, i), atol=1e-12)

    def test_index_out_of_range(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            pdp_explainer(product_model, x, 5, x)




class TestMarginalShapley:
    def test_product_model_half_interaction(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (400, 2))
        x -= x.mean(axis=0)
        phi = marginal_shapley(product_model, x, x, mode="exact")
        target = 0.5 * x[:, 0] * x[:, 1]
        for i in (0, 1):
            err = np.max(np.abs(phi[:, i] - target))
            assert err <= 0.15  # Monte Carlo-level slack from E[b1 b2] != 0

    def test_additive_exact_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (50, 3))
        bg = rng.normal(0, 1, (30, 3))
        out = marginal_shapley(additive_model, x, bg, mode="exact")
        expected = additive_shapley(ADDITIVE_PARTS, x, bg)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_constant_model_null_player(self):
        x = np.random.default_rng(6).normal(0, 1, (20, 4))
        out = marginal_shapley(lambda z: np.full(z.shape[0], 1.5), x, x, mode="exact")
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (100, 6))
        bg = rng.normal(0, 1, (40, 6))
        model = lambda z: z[:, 0] * z[:, 1] + np.abs(z[:, 2]) - z[:, 3] * z[:, 4] ** 2 + z[:, 5]
        out = marginal_shapley(model, x, bg, mode="exact")
        lhs = out.sum(axis=1) + np.mean(model(bg))
        np.testing.assert_allclose(lhs, model(x), atol=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        base = rng.normal(0, 1, (60, 1))
        x = np.column_stack([base, base])  # identical symmetric columns
        model = lambda z: z[:, 0] + z[:, 1] + z[:, 0] * z[:, 1]
        phi = marginal_shapley(model, x, x, mode="exact")
        np.testing.assert_allclose(phi[:, 0], phi[:, 1], atol=1e-10)

    def test_sampled_converges_to_exact(self):
        # three-way interaction so permutation order genuinely matters
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (25, 4))
        bg = rng.normal(0, 1, (20, 4))
        model = lambda z: z[:, 0] * z[:, 1] * z[:, 2] + np.abs(z[:, 1]) * z[:, 3] - z[:, 2]
        exact = marginal_shapley(model, x, bg, mode="exact")

        counts = (8, 32, 128)
        errors = []
        for n_perm in counts:
            reps = []
            for seed in range(12):
                sampled = marginal_shapley(model, x, bg, mode="sampled",
                                           n_permutations=n_perm,
                                           seed=seed)
                reps.append(np.sqrt(np.mean((sampled - exact) ** 2)))
            errors.append(np.mean(reps))
        assert errors[0] > errors[1] > errors[2]
        # roughly 1/sqrt(n): quadrupling permutations should near-halve error
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.6)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.6)

    def test_pdp_equals_shapley_for_additive_up_to_constant(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (30, 3))
        bg = rng.normal(0, 1, (25, 3))
        shap = marginal_shapley(additive_model, x, bg, mode="exact")
        pdp = pdp_output(additive_model, x, bg)
        for i in range(3):
            diff = pdp[:, i] - shap[:, i]
            np.testing.assert_allclose(diff, diff[0], atol=1e-10)

    def test_exact_mode_bound(self):
        x = np.zeros((4, 13))
        with pytest.raises(ValueError):
            marginal_shapley(lambda z: z.sum(axis=1), x, x, mode="exact")

    def test_sampled_needs_permutations(self):
        x = np.zeros((4, 3))
        with pytest.raises(ValueError):
            marginal_shapley(lambda z: z.sum(axis=1), x, x, mode="sampled")


class TestGbmCoalitionScores:
    """GBM game values come from the coalition kernel; the same call through
    a plain callable takes the tiled black-box path, the oracle here, and
    ICE sections are held to a per-row, per-node walk."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_leaves=st.integers(2, MAX_LEAVES),
           max_depth=st.integers(1, 8), n_trees=st.integers(0, 8),
           n_features=st.integers(1, 4), extra_columns=st.integers(0, 2),
           n_rows=st.integers(1, 90), n_background=st.integers(1, 40),
           pairs_per_pass=st.integers(1, 300))
    def test_matches_tiled_black_box(self, seed, max_leaves, max_depth, n_trees,
                                     n_features, extra_columns, n_rows,
                                     n_background, pairs_per_pass):
        rng = np.random.default_rng(seed)
        pool = np.concatenate([np.round(rng.normal(0.0, 2.0, 10), 1),
                               [-np.inf, np.inf, -0.0]])
        trees = tuple(random_tree(rng, int(rng.integers(1, max_leaves + 1)),
                                  max_depth, n_features,
                                  lambda: float(rng.choice(pool)))
                      for _ in range(n_trees))
        model = TrainedModel(kind="gbm", init_score=float(rng.normal()),
                             learning_rate=float(rng.uniform(0.01, 1.0)),
                             trees=trees)
        p = n_features + extra_columns

        def draw(n):
            # values hit thresholds exactly, fall between them, or are NaN/+-inf
            z = rng.normal(0.0, 2.0, (n, p))
            tie = rng.random(z.shape) < 0.4
            z[tie] = rng.choice(pool, int(tie.sum()))
            special = rng.random(z.shape) < 0.1
            z[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
            return z

        x = draw(n_rows)
        x = x[rng.integers(0, n_rows, n_rows)]  # duplicate rows
        background = draw(n_background)
        oracle = lambda z: model(z)  # noqa: E731

        def walk(z):
            raw = tree_scores_direct(model, z)[:, -1]
            return np.clip(sigmoid(raw), PRED_CLAMP, 1.0 - PRED_CLAMP)

        # at most pairs_per_pass pairs or rows per pass and rows per node-bit
        # OR, so passes end inside x and blocks inside a side
        with mock.patch.object(learn, "PASS_ROWS", pairs_per_pass):
            for size in range(p + 1):
                subset = sorted(rng.choice(p, size, replace=False).tolist())
                got = marginal_game_values(model, x, background, subset)
                want = marginal_game_values(oracle, x, background, subset)
                assert got.tobytes() == want.tobytes()
                perm = rng.permutation(n_rows)
                assert (marginal_game_values(model, x[perm], background, subset).tobytes()
                        == got[perm].tobytes())
            # the tiled path sums leaves with the same code as the kernel, so
            # the sections are held to a per-row, per-node walk instead
            i = int(rng.integers(p))
            section = ice_explainer(model, x, i, background[0])
            section_oracle = ice_explainer(walk, x, i, background[0])
            assert section(x[:, i]).tobytes() == section_oracle(x[:, i]).tobytes()
            assert section(x[0, i]) == section_oracle(x[0, i])

    def test_trained_model_every_coalition(self):
        data = generate(SyntheticSpec("M1", 1500, seed=31))
        model = train_gbm(data.x[:600], data.y[:600])
        x, background = data.x[600:], data.x[:25]  # more pairs than one pass holds
        oracle = lambda z: model(z)  # noqa: E731
        for size in range(6):
            for subset in itertools.combinations(range(5), size):
                got = marginal_game_values(model, x, background, subset)
                want = marginal_game_values(oracle, x, background, subset)
                assert got.tobytes() == want.tobytes()

    def test_one_representative_per_code_key(self):
        data = generate(SyntheticSpec("M1", 700, seed=32))
        model = train_gbm(data.x[:500], data.y[:500], GbmConfig(n_estimators=20))
        x = data.x[:300]
        inverse, blocks = model.coalition_scores(x, data.x[500:530], [2])
        codes = np.searchsorted(model._packed.thresholds[2], x[:, 2])
        assert sum(block.shape[0] for block in blocks) == np.unique(codes).size
        assert np.array_equal(inverse, np.unique(codes, return_inverse=True)[1])

    def test_logistic_model_has_no_coalition_scores(self):
        data = generate(SyntheticSpec("M1", 300, seed=33))
        model = learn.train_logistic(data.x, data.y)
        with pytest.raises(ValueError, match="gbm"):
            model.coalition_scores(data.x, data.x[:5], [0])


class TestShapleyHelpers:
    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), array=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_against_all_orderings(self, p, array, seed):
        rng = np.random.default_rng(seed)
        table = rng.uniform(-1.0, 1.0, (1 << p, 3) if array else 1 << p)
        calls = []

        def game(subset):
            calls.append(frozenset(subset))
            worth = table[sum(1 << j for j in subset)]
            return worth if array else float(worth)

        reference = shapley_by_orderings(
            lambda coalition: table[sum(1 << j for j in coalition)], p)
        phi = exact_shapley(game, p)
        assert phi.shape == reference.shape == ((3, p) if array else (p,))
        np.testing.assert_allclose(phi, reference, rtol=0.0, atol=1e-12)

        for n_permutations in range(1, 10):
            calls.clear()
            phi = sampled_shapley(game, p, n_permutations, seed)
            np.testing.assert_allclose(phi.sum(axis=-1), table[-1] - table[0],
                                       rtol=0.0, atol=1e-12)
            assert len(calls) == len(set(calls))


class TestIceExplainer:
    def test_additive_section(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (10, 3))
        section = ice_explainer(additive_model, x, 1, x[4])
        grid = np.linspace(-2, 2, 9)
        expected = np.sin(grid) + 0.5 * x[4, 0] - 2.0 * x[4, 2]
        np.testing.assert_allclose(section(grid), expected, atol=1e-12)

    def test_product_section_slope(self):
        x = np.array([[1.0, 3.0], [2.0, -1.0]])
        section = ice_explainer(product_model, x, 0, np.array([0.0, 3.0]))
        grid = np.array([-1.0, 0.0, 2.5])
        np.testing.assert_allclose(section(grid), 3.0 * grid, atol=1e-14)

    def test_threshold_interaction_section(self):
        def model(z):
            return 0.2 * z[:, 0] - 5.0 * z[:, 1] + 10.0 * z[:, 1] * (z[:, 2] >= 0)

        x = np.zeros((5, 3))
        anchor = np.array([0.0, 1.0, 1.0])
        section = ice_explainer(model, x, 0, anchor)
        grid = np.array([-2.0, 0.0, 1.0, 4.0])
        np.testing.assert_allclose(section(grid), 0.2 * grid + 5.0, atol=1e-13)

    def test_index_out_of_range(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            ice_explainer(product_model, x, 2, x[0])


class TestDefaultBackground:
    def test_small_data_passthrough(self):
        x = np.arange(12.0).reshape(6, 2)
        bg = default_background(x, seed=0, max_rows=10)
        np.testing.assert_array_equal(bg, x)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (1000, 2))
        a = default_background(x, seed=3, max_rows=100)
        b = default_background(x, seed=3, max_rows=100)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100, 2)


def _sum_model(z):
    return z.sum(axis=1)


# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "unknown mode": (lambda: marginal_shapley(_sum_model, np.zeros((2, 2)), np.zeros((1, 2)),
                                              mode="bogus"),
                     "unknown mode 'bogus'"),
    "anchor width": (lambda: ice_explainer(_sum_model, np.zeros((2, 3)), 0, [1.0, 2.0]),
                     "anchor row has wrong number of predictors"),
    "no background rows": (lambda: default_background(np.zeros((3, 2)), max_rows=0),
                           "background must hold at least one row, got 0"),
    "negative background rows": (lambda: default_background(np.zeros((3, 2)), max_rows=-1),
                                 "background must hold at least one row, got -1"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])
