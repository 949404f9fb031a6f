import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpost import attribution, explain, learn
from fairpost.attribution import (
    AttributionTable,
    basic_bias_explanations,
    expected_ibe,
    ibe_table,
    select_impactful,
    shapley_bias_game,
)
from fairpost.bias import PartitionSpec, model_bias
from fairpost.explain import marginal_shapley, pdp_output
from fairpost.learn import MAX_LEAVES, TrainedModel

from helpers import assert_value_error, conditional_shapley, quantile_w1, random_tree


def two_class_frame(rng, n_per_class, shifts, scales=None):
    """Independent normal predictors with per-class mean shifts."""
    p = len(shifts)
    scales = scales if scales is not None else [1.0] * p
    x0 = np.column_stack([rng.normal(0.0, scales[i], n_per_class) for i in range(p)])
    x1 = np.column_stack([rng.normal(shifts[i], scales[i], n_per_class) for i in range(p)])
    x = np.vstack([x0, x1])
    g = np.array([0] * n_per_class + [1] * n_per_class)
    return x, g


def predictor_bias(col, g):
    return quantile_w1(col[g == 0], col[g == 1])


class TestBasicBiasExplanations:
    def test_additive_model_recovers_component_bias(self):
        rng = np.random.default_rng(0)
        x, g = two_class_frame(rng, 600, shifts=(0.8, 0.0, -0.4))
        parts = (lambda t: 2.0 * t, lambda t: t ** 3, lambda t: np.sin(t))
        model = lambda z: parts[0](z[:, 0]) + parts[1](z[:, 1]) + parts[2](z[:, 2])
        bg = x[::4]
        table = basic_bias_explanations(pdp_output(model, x, bg), g)
        for i, part in enumerate(parts):
            expected = predictor_bias(part(x[:, i]), g)
            assert table.beta[i] == pytest.approx(expected, abs=1e-10)

    def test_independent_predictor_gets_zero(self):
        rng = np.random.default_rng(1)
        x, g = two_class_frame(rng, 400, shifts=(1.0, 0.0))
        # make column 1 literally class-independent (same values both classes)
        x[400:, 1] = x[:400, 1]
        model = lambda z: z[:, 0] + 0.5 * z[:, 1] ** 2
        table = basic_bias_explanations(pdp_output(model, x, x[::3]), g)
        assert table.beta[1] == 0.0
        assert table.beta_pos[1] == 0.0 and table.beta_neg[1] == 0.0
        assert table.beta[0] > 0.1

    def test_product_model_equal_explanations(self):
        rng = np.random.default_rng(2)
        x, g = two_class_frame(rng, 500, shifts=(0.0, 1.0))
        x[500:, 0] = x[:500, 0]  # X1 unbiased
        model = lambda z: z[:, 0] * z[:, 1]
        out = marginal_shapley(model, x, x - x.mean(axis=0), mode="exact")
        table = basic_bias_explanations(out, g)
        assert table.beta[0] == pytest.approx(table.beta[1], rel=1e-9)

    def test_parts_sum_to_beta(self):
        rng = np.random.default_rng(3)
        x, g = two_class_frame(rng, 200, shifts=(0.5, -0.7), scales=(1.0, 2.0))
        model = lambda z: z[:, 0] + z[:, 1]
        table = basic_bias_explanations(pdp_output(model, x, x[::2]), g)
        np.testing.assert_allclose(table.beta, table.beta_pos + table.beta_neg,
                                   atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        matrix = np.ones((6, 2))
        matrix[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            basic_bias_explanations(matrix, np.array([0, 1] * 3))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("partition", ["sp", "eo"])
    def test_one_column_is_model_bias(self, partition, sign):
        rng = np.random.default_rng(4)
        x, g = two_class_frame(rng, 150, shifts=(0.6,), scales=(1.5,))
        columns = {"y": (rng.random(g.size) < 0.4).astype(int)}
        spec = PartitionSpec.all_rows() if partition == "sp" else PartitionSpec.by_label()
        table = basic_bias_explanations(x, g, spec, sign, columns=columns)
        report = model_bias(x[:, 0], g, spec, sign, columns=columns)
        assert (table.beta_pos[0], table.beta_neg[0]) == (report.positive, report.negative)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_non_binary_g_rejected(self, bad):
        rng = np.random.default_rng(5)
        x, g = two_class_frame(rng, 40, shifts=(0.3, 0.0))
        g = g.astype(float)
        g[7] = bad
        with pytest.raises(ValueError, match="binary"):
            basic_bias_explanations(x, g)


class TestShapleyBiasGame:
    def test_unbiased_dataset_all_atoms_zero(self):
        rng = np.random.default_rng(4)
        half = rng.normal(0, 1, (300, 3))
        x = np.vstack([half, half])
        g = np.array([0] * 300 + [1] * 300)
        model = lambda z: z[:, 0] * z[:, 1] + z[:, 2] ** 2
        table = shapley_bias_game(model, x, g, mode="exact")
        for atoms in (table.bpp, table.bpm, table.bmp, table.bmm):
            np.testing.assert_allclose(atoms, 0.0, atol=1e-12)

    @pytest.mark.parametrize("group_explainer", ["shapley_sum", "game"])
    def test_superposition_identity(self, group_explainer):
        rng = np.random.default_rng(5)
        x, g = two_class_frame(rng, 400, shifts=(0.6, -0.5, 0.2, 0.0))
        model = lambda z: z[:, 0] * z[:, 1] + z[:, 2] - 0.5 * z[:, 3]
        table = shapley_bias_game(model, x, g, group_explainer=group_explainer,
                                  mode="exact", background=x[::2])
        reconstructed = float(np.sum(table.bpp + table.bmp - table.bpm - table.bmm))
        total = model_bias(model(x), g).total
        assert abs(reconstructed - total) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 4), n_trees=st.integers(1, 5),
           by_label=st.booleans(), sign=st.sampled_from([1, -1]),
           group_explainer=st.sampled_from(["shapley_sum", "game"]))
    def test_superposition_identity_on_random_gbms(self, seed, p, n_trees, by_label, sign,
                                                   group_explainer):
        """Each game's Shapley values sum to its grand-coalition worth, which
        is the model bias's positive (resp. negative) part.  The worths are
        transport parts of probabilities in [0, 1]; the sum telescopes 2^p
        worth differences, and the shapley_sum explainer shifts every row by
        the background mean.  Each step rounds at about 1e-16 of a value at
        most 1, so 1e-12 leaves a wide margin for p <= 4."""
        rng = np.random.default_rng(seed)
        pool = np.round(rng.normal(0.0, 1.0, 8), 1)
        trees = tuple(random_tree(rng, int(rng.integers(1, 9)), 4, p,
                                  lambda: float(rng.choice(pool)))
                      for _ in range(n_trees))
        model = TrainedModel(kind="gbm", init_score=float(rng.normal()),
                             learning_rate=float(rng.uniform(0.05, 1.0)), trees=trees)
        # every (label, group) cell is nonempty, and group 1 is shifted
        g = np.concatenate([[0, 1, 0, 1], rng.integers(0, 2, 56)])
        y = np.concatenate([[0, 0, 1, 1], rng.integers(0, 2, 56)])
        x = rng.normal(0.0, 1.0, (60, p)) + 0.5 * g[:, None]
        partition = PartitionSpec.by_label() if by_label else PartitionSpec.all_rows()
        table = shapley_bias_game(model, x, g, group_explainer=group_explainer,
                                  mode="exact", background=x[::3], partition=partition,
                                  columns={"y": y}, favorable_sign=sign)
        report = model_bias(model(x), g, partition, sign, {"y": y})
        assert abs(float(np.sum(table.bpp - table.bpm)) - report.positive) <= 1e-12
        assert abs(float(np.sum(table.bmp - table.bmm)) - report.negative) <= 1e-12

    def test_net_identity(self):
        rng = np.random.default_rng(6)
        x, g = two_class_frame(rng, 350, shifts=(0.4, -0.8, 0.0))
        model = lambda z: z[:, 0] + z[:, 1] * z[:, 2]
        table = shapley_bias_game(model, x, g, mode="exact", background=x[::2])
        report = model_bias(model(x), g)
        assert float(np.sum(table.beta_pos - table.beta_neg)) == pytest.approx(
            report.net, abs=1e-8)

    def test_symmetric_players_get_equal_values(self):
        rng = np.random.default_rng(7)
        base0 = rng.normal(0, 1, 300)
        base2 = rng.normal(0, 1, 300)
        x0 = np.column_stack([base0, base0, base2])
        base0b = rng.normal(0.5, 1, 300)
        base2b = rng.normal(0.3, 1, 300)
        x1 = np.column_stack([base0b, base0b, base2b])
        x = np.vstack([x0, x1])
        g = np.array([0] * 300 + [1] * 300)
        model = lambda z: z[:, 0] * z[:, 1] + z[:, 2]
        table = shapley_bias_game(model, x, g, mode="exact", background=x[::2])
        assert table.beta[0] == pytest.approx(table.beta[1], abs=1e-9)

    def test_sign_indicator_atoms_mutually_exclusive(self):
        rng = np.random.default_rng(8)
        x, g = two_class_frame(rng, 250, shifts=(0.5, -0.3, 0.1))
        model = lambda z: z.sum(axis=1) + 0.4 * z[:, 0] * z[:, 2]
        table = shapley_bias_game(model, x, g, mode="exact", background=x[::2])
        assert np.all(np.minimum(table.bpp, table.bpm) == 0.0)
        assert np.all(np.minimum(table.bmp, table.bmm) == 0.0)

    def test_sampled_mode_approximates_exact(self):
        rng = np.random.default_rng(9)
        x, g = two_class_frame(rng, 300, shifts=(0.7, -0.4, 0.2))
        model = lambda z: z[:, 0] * z[:, 1] + z[:, 2]
        exact = shapley_bias_game(model, x, g, mode="exact", background=x[::2])
        sampled = shapley_bias_game(model, x, g, mode="sampled", n_permutations=64,
                                    background=x[::2], seed=3)
        np.testing.assert_allclose(sampled.beta, exact.beta, atol=0.05)

    def test_exact_mode_bound(self):
        x = np.zeros((10, 11))
        g = np.array([0, 1] * 5)
        with pytest.raises(ValueError):
            shapley_bias_game(lambda z: z.sum(axis=1), x, g, mode="exact")


class TestPaperSplitInteractionExample:
    def test_shapley_explainer_splits_interaction_bias(self):
        # f = x1*x2 + x3 with Bias(X1)=0 and X2, X3 shifted by 1 across classes
        rng = np.random.default_rng(10)
        n = 800
        x1 = rng.normal(0, 1, n)
        x2 = rng.normal(0, 1, n)
        x3 = rng.normal(0, 1, n)
        x = np.vstack([
            np.column_stack([x1, x2, x3]),
            np.column_stack([x1, x2 + 1.0, x3 + 1.0]),
        ])
        g = np.array([0] * n + [1] * n)
        model = lambda z: z[:, 0] * z[:, 1] + z[:, 2]
        bg = x - x.mean(axis=0)
        out = marginal_shapley(model, x, bg, mode="exact")
        table = basic_bias_explanations(out, g)
        interaction_bias = predictor_bias(x[:, 0] * x[:, 1], g)
        assert table.beta[0] == pytest.approx(table.beta[1], rel=1e-9)
        assert table.beta[0] == pytest.approx(0.5 * interaction_bias, rel=0.08)
        assert table.beta[2] == pytest.approx(predictor_bias(x[:, 2], g), rel=0.05)


class TestLemma44Direction:
    def test_zero_explanations_imply_zero_model_bias(self):
        rng = np.random.default_rng(11)
        half = rng.normal(0, 1, (240, 3))
        x = np.vstack([half, half])
        g = np.array([0] * 240 + [1] * 240)
        model = lambda z: np.tanh(z[:, 0]) + z[:, 1] * z[:, 2]

        marginal = basic_bias_explanations(
            marginal_shapley(model, x, x[::2], mode="exact"), g)
        conditional = basic_bias_explanations(conditional_shapley(model, x), g)
        assert np.all(marginal.beta == 0.0)
        assert np.all(conditional.beta == 0.0)
        assert model_bias(model(x), g).total <= 1e-8


class TestExpectedIbe:
    def test_product_model_formula_exact_anchors(self):
        rng = np.random.default_rng(12)
        x, g = two_class_frame(rng, 500, shifts=(0.9, 0.0))
        f1 = lambda t: np.tanh(t)
        f2 = lambda t: t ** 2 - 0.3
        model = lambda z: f1(z[:, 0]) * f2(z[:, 1])
        beta, _, _ = expected_ibe(model, x, g, 0, n_anchors=10 ** 9)
        expected = float(np.mean(np.abs(f2(x[:, 1])))) * predictor_bias(f1(x[:, 0]), g)
        assert beta == pytest.approx(expected, rel=1e-10)

    def test_product_model_formula_sampled_anchors(self):
        rng = np.random.default_rng(13)
        x, g = two_class_frame(rng, 1500, shifts=(0.6, 0.0))
        f1 = lambda t: t
        f2 = lambda t: np.abs(t) + 0.5
        model = lambda z: f1(z[:, 0]) * f2(z[:, 1])
        beta, _, _ = expected_ibe(model, x, g, 0, n_anchors=400, seed=5)
        expected = float(np.mean(np.abs(f2(x[:, 1])))) * predictor_bias(f1(x[:, 0]), g)
        assert beta == pytest.approx(expected, rel=0.05)

    def test_threshold_interaction_formulas(self):
        rng = np.random.default_rng(14)
        n = 4000
        shifts = (0.7, 0.4, 0.5)
        x, g = two_class_frame(rng, n, shifts=shifts)

        def model(z):
            return 0.2 * z[:, 0] - 5.0 * z[:, 1] + 10.0 * z[:, 1] * (z[:, 2] >= 0)

        b1, _, _ = expected_ibe(model, x, g, 0, n_anchors=10 ** 9)
        b2, _, _ = expected_ibe(model, x, g, 1, n_anchors=10 ** 9)
        b3, _, _ = expected_ibe(model, x, g, 2, n_anchors=10 ** 9)
        assert b1 == pytest.approx(0.2 * predictor_bias(x[:, 0], g), rel=1e-9)
        assert b2 == pytest.approx(5.0 * predictor_bias(x[:, 1], g), rel=1e-9)
        indicator_bias = predictor_bias((x[:, 2] >= 0).astype(float), g)
        expected3 = 10.0 * float(np.mean(np.abs(x[:, 1]))) * indicator_bias
        assert b3 == pytest.approx(expected3, rel=1e-9)

    def test_additive_model_matches_pdp_explanations(self):
        rng = np.random.default_rng(15)
        x, g = two_class_frame(rng, 700, shifts=(0.5, -0.6, 0.2))
        parts = (lambda t: t, lambda t: np.exp(t / 2.0), lambda t: -t ** 2)
        model = lambda z: parts[0](z[:, 0]) + parts[1](z[:, 1]) + parts[2](z[:, 2])
        pdp_table = basic_bias_explanations(pdp_output(model, x, x[::2]), g)
        ibe = ibe_table(model, x, g, n_anchors=150, seed=2)
        np.testing.assert_allclose(ibe.beta, pdp_table.beta, rtol=0.02)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_leaves=st.integers(2, MAX_LEAVES),
           n_trees=st.integers(0, 6), n_rows=st.integers(4, 40),
           anchors_per_chunk=st.integers(1, 5), pairs_per_pass=st.integers(1, 200),
           sign=st.sampled_from([1, -1]))
    def test_gbm_kernel_matches_tiled_path(self, seed, max_leaves, n_trees, n_rows,
                                           anchors_per_chunk, pairs_per_pass, sign):
        # anchor counts below and above one chunk of anchors, and GBM passes
        # that end inside a chunk; every bit must match the tiled path
        rng = np.random.default_rng(seed)
        p = 3
        pool = np.round(rng.normal(0.0, 2.0, 8), 1)
        trees = tuple(random_tree(rng, int(rng.integers(1, max_leaves + 1)), 4, p,
                                  lambda: float(rng.choice(pool)))
                      for _ in range(n_trees))
        model = TrainedModel(kind="gbm", init_score=float(rng.normal()),
                             learning_rate=float(rng.uniform(0.01, 1.0)), trees=trees)
        x = rng.normal(0.0, 2.0, (n_rows, p))
        tie = rng.random(x.shape) < 0.4
        x[tie] = rng.choice(pool, int(tie.sum()))
        # every (label, group) cell is nonempty
        g = np.concatenate([[0, 1, 0, 1], rng.integers(0, 2, n_rows - 4)])
        y = np.concatenate([[0, 0, 1, 1], rng.integers(0, 2, n_rows - 4)])
        columns = {"y": y}
        oracle = lambda z: model(z)  # noqa: E731
        with mock.patch.object(attribution, "_EVAL_CHUNK", n_rows * anchors_per_chunk), \
                mock.patch.object(explain, "_EVAL_CHUNK", n_rows * anchors_per_chunk), \
                mock.patch.object(learn, "PASS_ROWS", pairs_per_pass):
            for n_anchors in (max(1, anchors_per_chunk - 1), 2 * anchors_per_chunk + 1):
                for partition in (PartitionSpec.all_rows(), PartitionSpec.by_label()):
                    i = int(rng.integers(p))
                    got = expected_ibe(model, x, g, i, n_anchors, partition, columns,
                                       sign, seed)
                    want = expected_ibe(oracle, x, g, i, n_anchors, partition, columns,
                                        sign, seed)
                    assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_one_pair_pass_per_chunk_of_anchors(self):
        rng = np.random.default_rng(17)
        x, g = two_class_frame(rng, 10, shifts=(0.5, 0.0))
        model = lambda z: z[:, 0] * z[:, 1]  # noqa: E731
        calls = []

        def counted(*args):
            calls.append(args[2].shape[0])
            return explain.pair_scores(*args)

        with mock.patch.object(attribution, "_EVAL_CHUNK", 20 * 3), \
                mock.patch.object(attribution, "pair_scores", counted):
            expected_ibe(model, x, g, 0, n_anchors=7, seed=1)
        assert calls == [3, 3, 1]

    def test_matches_one_section_per_anchor(self):
        rng = np.random.default_rng(18)
        x, g = two_class_frame(rng, 30, shifts=(0.4, -0.3))
        model = lambda z: np.tanh(z[:, 0]) * z[:, 1] + z[:, 1] ** 2  # noqa: E731
        anchors = np.random.default_rng(3).choice(60, size=9, replace=False)
        pos = neg = 0.0
        for a in anchors:
            section = explain.ice_explainer(model, x, 1, x[a])
            report = model_bias(section(x[:, 1]), g)
            pos += report.positive
            neg += report.negative
        with mock.patch.object(attribution, "_EVAL_CHUNK", 60 * 4):
            beta, beta_pos, beta_neg = expected_ibe(model, x, g, 1, n_anchors=9, seed=3)
        assert (beta_pos, beta_neg) == (pos / 9, neg / 9)
        assert beta == beta_pos + beta_neg

    def test_anchor_validation(self):
        x = np.zeros((5, 2))
        g = np.array([0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            expected_ibe(lambda z: z.sum(axis=1), x, g, 0, n_anchors=0)


class TestSelectImpactful:
    def _table(self, beta_pos, beta_neg):
        from fairpost.attribution import AttributionTable
        beta_pos = np.asarray(beta_pos, dtype=float)
        beta_neg = np.asarray(beta_neg, dtype=float)
        return AttributionTable(
            predictors=tuple(f"x{i + 1}" for i in range(beta_pos.size)),
            kind="pdp", beta_pos=beta_pos, beta_neg=beta_neg)

    def test_threshold_selection_and_partition(self):
        table = self._table([0.5, 0.01, 0.3, 0.0], [0.02, 0.2, 0.25, 0.0])
        out = select_impactful(table, eps_plus=0.1, eps_minus=0.1)
        assert out.M == (0, 1, 2)
        assert out.N_plus == (0, 2) and out.N_minus == (1, 2)
        assert out.M_plus == (0,) and out.M_minus == (1,) and out.M_zero == (2,)

    def test_top_m_star_truncation(self):
        table = self._table([0.5, 0.4, 0.3, 0.0], [0.0, 0.0, 0.1, 0.45])
        out = select_impactful(table, eps_plus=0.05, eps_minus=0.05, m_star=2)
        assert out.N_plus == (0, 1)
        assert out.N_minus == (2, 3)
        assert out.M == (0, 1, 2, 3)

    def test_negative_m_star_rejected(self):
        table = self._table([0.5, 0.4, 0.3], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="m_star"):
            select_impactful(table, eps_plus=0.05, eps_minus=0.05, m_star=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_impactful(table, eps_plus=0.05, eps_minus=0.05, m_star=0).M == ()

    def test_all_zero_gives_empty_list_without_warning(self):
        """An empty M is a result, not a fault: the caller decides what to do."""
        table = self._table([0.0, 0.0], [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = select_impactful(table, eps_plus=0.1, eps_minus=0.1)
        assert out.M == () and out.N_plus == () and out.N_minus == ()

    def test_raising_threshold_never_grows_list(self):
        rng = np.random.default_rng(16)
        table = self._table(rng.random(8), rng.random(8))
        sizes = []
        for eps in np.linspace(0.0, 1.0, 11):
            out = select_impactful(table, eps_plus=eps, eps_minus=0.05)
            sizes.append(len(out.N_plus))
        assert all(a >= b for a, b in zip(sizes[:-1], sizes[1:]))

    def test_default_thresholds_are_relative(self):
        table = self._table([1.0, 0.02], [0.0, 0.02])
        out = select_impactful(table)
        scaled = self._table([10.0, 0.2], [0.0, 0.2])
        out_scaled = select_impactful(scaled)
        assert out.M == out_scaled.M


class TestTruncationBound:
    def test_residual_within_epsilon_budget(self):
        rng = np.random.default_rng(17)
        x, g = two_class_frame(rng, 300, shifts=(0.8, -0.5, 0.05, 0.02))
        model = lambda z: z[:, 0] + z[:, 1] + 0.3 * z[:, 2] * z[:, 3]
        table = shapley_bias_game(model, x, g, mode="exact", background=x[::2])
        eps = 0.1 * float(np.sum(table.beta))
        selected = select_impactful(table, eps_plus=eps, eps_minus=eps)
        kept = np.array(selected.M, dtype=int)
        partial = float(np.sum(table.bpp[kept] + table.bmp[kept]
                               - table.bpm[kept] - table.bmm[kept]))
        total = model_bias(model(x), g).total
        n = table.n_predictors
        assert abs(total - partial) <= n * eps


class TestTableSerialization:
    def test_csv_roundtrip_columns(self, tmp_path):
        rng = np.random.default_rng(18)
        x, g = two_class_frame(rng, 120, shifts=(0.5, -0.2))
        model = lambda z: z.sum(axis=1)
        table = shapley_bias_game(model, x, g, mode="exact", background=x[::2])
        path = tmp_path / "table.csv"
        table.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "predictor,kind,beta,beta_pos,beta_neg,net,bpp,bpm,bmp,bmm"

    @pytest.mark.parametrize("kind", ["pdp", "shapley", "shapley_game", "ibe", "shapley_sum",
                                      ""])
    def test_kind_is_one_of_the_table_kinds(self, kind):
        """Each explainer's label constructs; any other raises."""
        beta = np.array([0.25])
        if kind in ("pdp", "shapley", "shapley_game", "ibe"):
            assert AttributionTable(("x1",), kind, beta, beta).kind == kind
        else:
            with pytest.raises(ValueError, match=f"unknown attribution kind '{kind}'"):
                AttributionTable(("x1",), kind, beta, beta)


def _sum_model(z):
    return z.sum(axis=1)


_X, _G = np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])
# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "g length": (lambda: basic_bias_explanations(np.zeros((3, 2)), [0, 1]),
                 "g length does not match explainer rows"),
    "unknown group explainer": (lambda: shapley_bias_game(_sum_model, _X, _G,
                                                          group_explainer="bogus"),
                                "unknown group explainer 'bogus'"),
    "predictor index": (lambda: expected_ibe(_sum_model, _X, _G, 5, 3),
                        "predictor index 5 out of range"),
    "negative threshold": (lambda: select_impactful(basic_bias_explanations(_X, _G),
                                                    eps_plus=-1.0),
                           "thresholds must be nonnegative"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])
