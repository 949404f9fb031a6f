import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpost import learn
from fairpost.calibrate import auc, sigmoid
from fairpost.learn import (
    MAX_LEAVES,
    PRED_CLAMP,
    Dataset,
    GbmConfig,
    SyntheticSpec,
    TrainedModel,
    _sample_skew_normal,
    _Tree,
    generate,
    log_loss,
    split_dataset,
    train_gbm,
    train_logistic,
)

from helpers import chain_gbm_json, tree_scores_direct


class TestGenerators:
    def test_m1_column_means(self):
        data = generate(SyntheticSpec("M1", 1_000_000, seed=1))
        x3_g0 = data.x[data.g == 0, 2]
        assert abs(x3_g0.mean() - 4.2) <= 0.01

    def test_m3_all_mean_gaps(self):
        data = generate(SyntheticSpec("M3", 1_000_000, seed=2))
        a = np.array([2.5, 1.0, 4.0, 0.25, 0.75]) / 10.0
        for i in range(5):
            gap = (data.x[data.g == 1, i].mean() - data.x[data.g == 0, i].mean())
            assert abs(gap - a[i]) <= 0.01

    def test_m2_stated_variances(self):
        data = generate(SyntheticSpec("M2", 1_000_000, seed=3))
        x1 = data.x[:, 0]
        assert abs(x1[data.g == 0].var() - 0.5) <= 0.01
        assert abs(x1[data.g == 1].var() - 1.25) <= 0.02
        x4 = data.x[:, 3]
        assert abs(x4[data.g == 1].var() - 0.25) <= 0.01

    def test_m4_x2_variance(self):
        data = generate(SyntheticSpec("M4", 1_000_000, seed=4))
        for k in (0, 1):
            assert abs(data.x[data.g == k, 1].var() - 1.0) <= 0.02

    def test_m4_skew_components_match_moments(self):
        rng = np.random.default_rng(5)
        n = 1_000_000
        for xi, omega, alpha in ((3.5, 2.4, 8.0), (6.5, 2.4, -1.0)):
            draws = _sample_skew_normal(rng, xi, omega, alpha, n)
            delta = alpha / np.hypot(1.0, alpha)
            mean = xi + omega * delta * np.sqrt(2.0 / np.pi)
            var = omega ** 2 * (1.0 - 2.0 * delta ** 2 / np.pi)
            assert abs(draws.mean() - mean) <= 0.01 * max(1.0, abs(mean))
            assert abs(draws.var() - var) <= 0.02 * var

    def test_m4_local_mixture_touches_only_nonprotected(self):
        data = generate(SyntheticSpec("M4", 200_000, seed=6))
        # G=1 rows of X1 and X3 are plain normal draws with variance 2
        for col in (0, 2):
            v = data.x[data.g == 1, col].var()
            assert abs(v - 2.0) <= 0.05
        # G=0 rows include replacement draws, so the distributions differ
        from fairpost.empirical import build_distribution, ks_distance
        ks = ks_distance(build_distribution(data.x[data.g == 0, 0]),
                         build_distribution(data.x[data.g == 1, 0]))
        assert ks > 0.01

    def test_seed_determinism(self):
        a = generate(SyntheticSpec("M1", 500, seed=7))
        b = generate(SyntheticSpec("M1", 500, seed=7))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.g, b.g)
        np.testing.assert_array_equal(a.y, b.y)

    def test_both_classes_always_present(self):
        for seed in range(30):
            data = generate(SyntheticSpec("M1", 100, p_protected=0.01, seed=seed))
            assert set(np.unique(data.g)) == {0, 1}

    def test_unknown_model_id(self):
        with pytest.raises(ValueError):
            SyntheticSpec("M9", 100)

    def test_response_rate_matches_logistic(self):
        data = generate(SyntheticSpec("M1", 400_000, seed=8))
        probs = sigmoid(2.0 * (data.x.sum(axis=1) - 24.5))
        assert abs(data.y.mean() - probs.mean()) <= 0.005


class TestDatasetIO:
    def test_csv_roundtrip(self, tmp_path):
        data = generate(SyntheticSpec("M2", 200, seed=9))
        path = tmp_path / "data.csv"
        data.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,g,y"
        restored = Dataset.from_csv(path)
        np.testing.assert_array_equal(restored.x, data.x)
        np.testing.assert_array_equal(restored.g, data.g)
        np.testing.assert_array_equal(restored.y, data.y)

    def test_split_disjoint_and_exhaustive(self):
        data = generate(SyntheticSpec("M1", 1000, seed=10))
        tr, ho, te = split_dataset(data, (0.5, 0.25, 0.25), seed=4)
        assert tr.n_rows + ho.n_rows + te.n_rows == 1000
        tr2, _, _ = split_dataset(data, (0.5, 0.25, 0.25), seed=4)
        np.testing.assert_array_equal(tr.x, tr2.x)


class TestGbm:
    def test_pure_signal_auc(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (10_000, 3))
        y = (x[:, 0] > 0).astype(int)
        model = train_gbm(x, y, GbmConfig(n_estimators=30, max_depth=2))
        assert auc(model(x), y) >= 0.99

    def test_m1_close_to_logistic_baseline(self):
        data = generate(SyntheticSpec("M1", 10_000, seed=12))
        tr, _, te = split_dataset(data, (0.6, 0.0, 0.4), seed=1)
        gbm = train_gbm(tr.x, tr.y, GbmConfig())
        logi = train_logistic(tr.x, tr.y)
        gbm_auc = auc(gbm(te.x), te.y)
        logi_auc = auc(logi(te.x), te.y)
        assert abs(gbm_auc - logi_auc) <= 0.03

    def test_constant_labels_error(self):
        x = np.random.default_rng(13).normal(0, 1, (50, 2))
        with pytest.raises(ValueError):
            train_gbm(x, np.ones(50, dtype=int))

    def test_training_loss_monotone_in_rounds(self):
        data = generate(SyntheticSpec("M2", 3000, seed=14))
        model = train_gbm(data.x, data.y, GbmConfig(n_estimators=40))
        losses = [log_loss(data.y, s) for s in model.staged_scores(data.x)]
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_deterministic_given_config(self):
        data = generate(SyntheticSpec("M3", 2000, seed=15))
        cfg = GbmConfig(n_estimators=20)
        a = train_gbm(data.x, data.y, cfg)
        b = train_gbm(data.x, data.y, cfg)
        np.testing.assert_array_equal(a(data.x), b(data.x))

    def test_predictions_in_open_interval(self):
        rng = np.random.default_rng(16)
        x = rng.normal(0, 1, (2000, 2))
        y = (x[:, 0] + 0.3 * rng.standard_normal(2000) > 0).astype(int)
        model = train_gbm(x, y, GbmConfig(n_estimators=60, max_depth=2))
        s = model(x)
        assert np.all(s > 0) and np.all(s < 1)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, (500, 2))
        y = (x[:, 0] > 0).astype(int)
        model = train_gbm(x, y, GbmConfig(n_estimators=5, min_samples_leaf=100))
        # count rows reaching each leaf of the first tree
        tree = model.trees[0]
        node = np.zeros(x.shape[0], dtype=int)
        active = tree.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            nd = node[idx]
            go_left = x[idx, tree.feature[nd]] <= tree.threshold[nd]
            node[idx] = np.where(go_left, tree.left[nd], tree.right[nd])
            active = tree.feature[node] >= 0
        _, counts = np.unique(node, return_counts=True)
        assert counts.min() >= 100

    def test_json_roundtrip(self):
        data = generate(SyntheticSpec("M1", 1500, seed=18))
        model = train_gbm(data.x, data.y, GbmConfig(n_estimators=10))
        restored = TrainedModel.from_json(model.to_json())
        np.testing.assert_allclose(restored(data.x), model(data.x), atol=1e-15)


def _random_tree(rng, n_leaves, max_depth, n_features, next_threshold):
    """A tree grown by splitting random leaves shallower than ``max_depth``
    until it has ``n_leaves`` leaves or none can split."""
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    depth, leaves = [0], [0]
    while len(leaves) < n_leaves:
        open_leaves = [nd for nd in leaves if depth[nd] < max_depth]
        if not open_leaves:
            break
        node = open_leaves[rng.integers(len(open_leaves))]
        leaves.remove(node)
        feature[node] = int(rng.integers(n_features))
        threshold[node] = next_threshold()
        for side in (left, right):
            side[node] = len(feature)
            leaves.append(len(feature))
            depth.append(depth[node] + 1)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
    return _Tree(feature=np.array(feature), threshold=np.array(threshold),
                 left=np.array(left), right=np.array(right),
                 value=rng.normal(0.0, 1.0, len(feature)))


def _assert_matches_direct(model, x):
    direct = tree_scores_direct(model, x)
    assert model.raw_score(x).tobytes() == direct[:, -1].tobytes()
    restored = TrainedModel.from_json(model.to_json())
    assert restored.raw_score(x).tobytes() == direct[:, -1].tobytes()
    stages = list(model.staged_scores(x))
    assert len(stages) == len(model.trees)
    for t, stage in enumerate(stages, start=1):
        expected = np.clip(sigmoid(direct[:, t]), PRED_CLAMP, 1.0 - PRED_CLAMP)
        assert stage.tobytes() == expected.tobytes()


class TestTreeKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_leaves=st.integers(2, MAX_LEAVES),
           max_depth=st.integers(1, 8), n_trees=st.integers(1, 4),
           n_features=st.integers(1, 4),
           n_rows=st.sampled_from([0, 1, 2, 37, 511, 512, 513, 1025]))
    def test_matches_direct_walk(self, seed, max_leaves, max_depth, n_trees,
                                 n_features, n_rows):
        rng = np.random.default_rng(seed)
        pool = np.concatenate([np.round(rng.normal(0.0, 2.0, 10), 1),
                               [-np.inf, np.inf, -0.0]])
        trees = tuple(_random_tree(rng, int(rng.integers(1, max_leaves + 1)),
                                   max_depth, n_features,
                                   lambda: float(rng.choice(pool)))
                      for _ in range(n_trees))
        model = TrainedModel(kind="gbm", init_score=float(rng.normal()),
                             learning_rate=float(rng.uniform(0.01, 1.0)),
                             trees=trees)
        # inputs hit thresholds exactly, fall between them, or are NaN/+-inf
        x = rng.normal(0.0, 2.0, (n_rows, n_features))
        tie = rng.random(x.shape) < 0.4
        x[tie] = rng.choice(pool, int(tie.sum()))
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
        _assert_matches_direct(model, x)

    def test_more_thresholds_than_uint16_codes(self):
        rng = np.random.default_rng(24)
        thresholds = iter(rng.permutation(70_000).astype(float))
        trees = tuple(_random_tree(rng, MAX_LEAVES, 8, 1, lambda: next(thresholds))
                      for _ in range(1_100))
        model = TrainedModel(kind="gbm", init_score=0.25, learning_rate=0.1,
                             trees=trees)
        assert model._packed.thresholds[0].size > np.iinfo(np.uint16).max
        x = np.concatenate([rng.uniform(-1.0, 70_000.0, (60, 1)),
                            [[65_535.0], [65_536.0], [69_999.0], [np.nan]]])
        _assert_matches_direct(model, x)

    def test_training_scores_equal_prediction(self, monkeypatch):
        """The scores that train_gbm updates leaf by leaf while growing equal
        the kernel's prediction of the trees grown so far, exactly."""
        data = generate(SyntheticSpec("M4", 1500, seed=25))
        seen = []

        def spy(z):
            seen.append(np.array(z))
            return sigmoid(z)

        monkeypatch.setattr(learn, "sigmoid", spy)
        model = train_gbm(data.x, data.y, GbmConfig(n_estimators=12, max_leaves=12,
                                                    max_depth=4, min_samples_leaf=20))
        monkeypatch.undo()
        assert len(seen) == len(model.trees)
        for k, z in enumerate(seen):
            prefix = TrainedModel(kind="gbm", init_score=model.init_score,
                                  learning_rate=model.learning_rate,
                                  trees=model.trees[:k])
            assert z.tobytes() == prefix.raw_score(data.x).tobytes()

    def test_leaf_bound(self):
        with pytest.raises(ValueError, match="max_leaves"):
            GbmConfig(max_leaves=MAX_LEAVES + 1)
        model = TrainedModel.from_json(chain_gbm_json(MAX_LEAVES))
        _assert_matches_direct(model, np.arange(-1.0, MAX_LEAVES + 1.0, 0.5)[:, None])
        with pytest.raises(ValueError, match="leaves"):
            TrainedModel.from_json(chain_gbm_json(MAX_LEAVES + 1))


class TestLogistic:
    def test_m1_coefficient_recovery(self):
        data = generate(SyntheticSpec("M1", 100_000, seed=19))
        model = train_logistic(data.x, data.y)
        np.testing.assert_allclose(model.coef, 2.0, rtol=0.10)

    def test_independent_labels_slopes_near_zero(self):
        rng = np.random.default_rng(20)
        n = 20_000
        x = rng.normal(0, 1, (n, 3))
        y = (rng.random(n) < 0.5).astype(int)
        model = train_logistic(x, y)
        # asymptotic standard error for standardized predictors: 2/sqrt(n)
        se = 2.0 / np.sqrt(n)
        assert np.all(np.abs(model.coef) <= 3 * se)

    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(21)
        n = 5000
        x = np.zeros((n, 1))
        y = (rng.random(n) < 0.3).astype(int)
        model = train_logistic(x, y)
        p = y.mean()
        assert abs(model.intercept - np.log(p / (1 - p))) <= 1e-6

    def test_json_roundtrip(self):
        data = generate(SyntheticSpec("M3", 3000, seed=22))
        model = train_logistic(data.x, data.y)
        restored = TrainedModel.from_json(model.to_json())
        np.testing.assert_allclose(restored(data.x), model(data.x), atol=1e-15)


class TestLogLoss:
    def test_half_scores_give_log_two(self):
        y = np.array([0, 1, 1, 0])
        assert log_loss(y, np.full(4, 0.5)) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_perfect_scores_clamp_level(self):
        y = np.array([0, 1] * 10)
        loss = log_loss(y, y.astype(float))
        assert 0 < loss < 2e-6

    def test_bernoulli_entropy(self):
        rng = np.random.default_rng(23)
        n = 1_000_000
        y = (rng.random(n) < 0.3).astype(int)
        loss = log_loss(y, np.full(n, 0.3))
        entropy = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert abs(loss - entropy) <= 0.002
