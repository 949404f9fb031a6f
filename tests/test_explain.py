import numpy as np
import pytest

from fairpost import explain
from fairpost.explain import (
    default_background,
    ice_explainer,
    marginal_shapley,
    pdp_explainer,
    pdp_output,
)

from fairpost.learn import GbmConfig, SyntheticSpec, TrainedModel, generate, train_gbm

from helpers import additive_shapley, pdp_direct


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


    def test_gbm_identical_at_any_thread_count(self, monkeypatch):
        data = generate(SyntheticSpec("M1", 600, seed=27))
        saved = train_gbm(data.x, data.y, GbmConfig(n_estimators=25)).to_json()
        x, bg = data.x[:90], data.x[100:130]
        monkeypatch.setattr(explain, "_EVAL_CHUNK", 10 * bg.shape[0])  # 9 chunks
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("FAIRPOST_THREADS", threads)
            # a fresh model, so worker threads build its packed trees
            model = TrainedModel.from_json(saved)
            outputs.append(pdp_output(model, x, bg).per_row_per_predictor)
        assert outputs[0].tobytes() == outputs[1].tobytes()


class TestMarginalShapley:
    def test_product_model_half_interaction(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (400, 2))
        x -= x.mean(axis=0)
        out = marginal_shapley(product_model, x, x, mode="exact")
        phi = out.per_row_per_predictor
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
        np.testing.assert_allclose(out.per_row_per_predictor, expected, atol=1e-10)

    def test_constant_model_null_player(self):
        x = np.random.default_rng(6).normal(0, 1, (20, 4))
        out = marginal_shapley(lambda z: np.full(z.shape[0], 1.5), x, x, mode="exact")
        np.testing.assert_allclose(out.per_row_per_predictor, 0.0, atol=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (100, 6))
        bg = rng.normal(0, 1, (40, 6))
        model = lambda z: z[:, 0] * z[:, 1] + np.abs(z[:, 2]) - z[:, 3] * z[:, 4] ** 2 + z[:, 5]
        out = marginal_shapley(model, x, bg, mode="exact")
        lhs = out.per_row_per_predictor.sum(axis=1) + np.mean(model(bg))
        np.testing.assert_allclose(lhs, model(x), atol=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        base = rng.normal(0, 1, (60, 1))
        x = np.column_stack([base, base])  # identical symmetric columns
        model = lambda z: z[:, 0] + z[:, 1] + z[:, 0] * z[:, 1]
        out = marginal_shapley(model, x, x, mode="exact")
        phi = out.per_row_per_predictor
        np.testing.assert_allclose(phi[:, 0], phi[:, 1], atol=1e-10)

    def test_sampled_converges_to_exact(self):
        # three-way interaction so permutation order genuinely matters
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (25, 4))
        bg = rng.normal(0, 1, (20, 4))
        model = lambda z: z[:, 0] * z[:, 1] * z[:, 2] + np.abs(z[:, 1]) * z[:, 3] - z[:, 2]
        exact = marginal_shapley(model, x, bg, mode="exact").per_row_per_predictor

        counts = (8, 32, 128)
        errors = []
        for n_perm in counts:
            reps = []
            for seed in range(12):
                sampled = marginal_shapley(model, x, bg, mode="sampled",
                                           n_permutations=n_perm,
                                           seed=seed).per_row_per_predictor
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
        shap = marginal_shapley(additive_model, x, bg, mode="exact").per_row_per_predictor
        pdp = pdp_output(additive_model, x, bg).per_row_per_predictor
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

    def test_materialize_matches_call(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (15, 2))
        section = ice_explainer(product_model, x, 1, x[0])
        np.testing.assert_array_equal(section.materialize(x[:, 1]), section(x[:, 1]))

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
