import warnings
from dataclasses import replace
from unittest import mock

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
    generate,
    log_loss,
    split_dataset,
    train_gbm,
    train_logistic,
)

from helpers import (
    assert_value_error,
    chain_gbm_json,
    pack_direct,
    random_tree,
    read_csv_direct,
    train_gbm_direct,
    tree_scores_direct,
    two_log_loss,
)

# cells that to_csv writes as repr() and a parser must read back bit for bit
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
                   1.7976931348623157e308, np.nan, np.inf, -np.inf]


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _packed_fields(model):
    packed = model._packed
    return packed.thresholds, packed.columns, (packed.feature, packed.rank, packed.clear,
                                               packed.leaf)


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
        from fairpost.empirical import ks_distance
        ks = ks_distance(data.x[data.g == 0, 0], data.x[data.g == 1, 0])
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 6), n_features=st.integers(0, 3))
    def test_roundtrip_matches_direct_reader(self, tmp_path_factory, data, n_rows,
                                             n_features):
        """to_csv then from_csv gives the direct reader's arrays, bit for bit,
        for any finite, subnormal, huge, NaN or infinite cell and for names
        that need quoting."""
        names = tuple(data.draw(st.lists(st.text(st.sampled_from('ab1 ,"\n\r#_'), max_size=4),
                                         min_size=n_features, max_size=n_features)))
        cell = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
        x = np.array(data.draw(st.lists(st.lists(cell, min_size=n_features,
                                                 max_size=n_features),
                                        min_size=n_rows, max_size=n_rows)),
                     dtype=float).reshape(n_rows, n_features)
        g, y = (np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_rows,
                                             max_size=n_rows))) for _ in range(2))
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        Dataset(x=x, g=g, y=y, feature_names=names).to_csv(path)
        got, want = Dataset.from_csv(path), read_csv_direct(path)
        assert got.feature_names == want.feature_names == names
        _assert_same_arrays((got.x, got.g, got.y), (want.x, want.g, want.y))
        number = ~np.isnan(x)  # NaN payloads and signs are not written
        assert got.x[number].tobytes() == x[number].tobytes() and np.isnan(got.x[~number]).all()

    @pytest.mark.parametrize("text", [
        "x1,x2,g,y\r\n1.5,-2e-3,0,1\r\n3,4,1,0\r\n",
        '"x1","x,2","g","y"\n"1.5","-2e-3","0","1"\n',
        "x1,x2,g,y\n\n1.5,-2e-3,0,1\n\n\n3,4,1,0\n\n",
        "x1,x2,g,y\n 1.5 ,\t-2e-3\t, 0,1 \n\" 3 \",4 ,1,0\n",
        "x1,x2,g,y\r1.5,2,0,1\r3,4,1,0",
        '"x\n1",x2,g,y\n1.5,2,0,1\n',
    ], ids=["crlf", "quoted", "blank-lines", "padded", "cr-no-final-newline",
            "header-with-newline"])
    def test_edge_files_match_direct_reader(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        got, want = Dataset.from_csv(path), read_csv_direct(path)
        assert got.feature_names == want.feature_names
        _assert_same_arrays((got.x, got.g, got.y), (want.x, want.g, want.y))

    @pytest.mark.parametrize("row, direct_x1", [
        ("1.5,2,0,1,\n", None),  # a trailing comma adds an empty cell
        ("1,2,0,1\n#1.5,2,0,1\n", None),  # '#' starts no comment
        ("1.5,0,1\n", None),  # ragged
        ("1_5,2,0,1\n", 15.0),  # float() reads digit groups; the bulk parser does not
    ], ids=["trailing-comma", "hash-cell", "ragged", "digit-underscore"])
    def test_rejected_cells(self, tmp_path, row, direct_x1):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,g,y\n" + row)
        with pytest.raises(ValueError):
            Dataset.from_csv(path)
        if direct_x1 is None:
            with pytest.raises(ValueError):
                read_csv_direct(path)
        else:
            assert read_csv_direct(path).x[0, 0] == direct_x1

    @pytest.mark.parametrize("text", ["x1,g,y\n", "x1,g,y\n\n\r\n"], ids=["header", "blank"])
    def test_no_rows_is_an_error_not_a_warning(self, tmp_path, text):
        """The CLI prints the error alone, with no warning from the parser."""
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no rows"):
                Dataset.from_csv(path)

    @pytest.mark.parametrize("tail, message", [
        ("5,yes,1,0\n", "could not convert string 'yes' to float64 at line 7, column 2."),
        ("5,1,0\n", "the number of columns changed from 4 to 3 at line 7"),
        ("5,6,1,0\n\n8,9,1,0,2\n", "the number of columns changed from 4 to 5 at line 9"),
    ], ids=["non-numeric", "ragged", "ragged-after-blank"])
    def test_errors_name_the_file_line(self, tmp_path, tail, message):
        # the header spans lines 1-2 and blank lines 4-5 hold no row, so the
        # data rows on lines 3 and 6 are rows 0 and 1 of the body
        path = tmp_path / "bad.csv"
        path.write_bytes(('"x\n1",x2,g,y\r\n1,2,0,1\r\n\r\n\n3,4,1,0\n' + tail).encode())
        with pytest.raises(ValueError) as info:
            Dataset.from_csv(path)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("rate", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_learning_rate_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            GbmConfig(learning_rate=rate)

    def test_training_loss_monotone_in_rounds(self):
        data = generate(SyntheticSpec("M2", 3000, seed=14))
        model = train_gbm(data.x, data.y, GbmConfig(n_estimators=40))
        losses = [log_loss(data.y, replace(model, trees=model.trees[:k])(data.x))
                  for k in range(1, len(model.trees) + 1)]
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

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_estimators=st.integers(1, 6),
           max_leaves=st.integers(2, 16), max_depth=st.integers(1, 5),
           learning_rate=st.floats(0.01, 1.0), min_samples_leaf=st.integers(1, 20),
           n_features=st.integers(1, 3))
    def test_json_roundtrip_packs_alike(self, seed, n_estimators, max_leaves, max_depth,
                                        learning_rate, min_samples_leaf, n_features):
        """from_json(to_json()) packs the same arrays, of the same dtypes, as
        the fitted model and the per-node layout, and scores the same bits."""
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(0.0, 1.0, (120, n_features)), 1)
        y = (x.sum(axis=1) + rng.normal(0.0, 1.0, 120) > 0).astype(int)
        y[:2] = (0, 1)
        model = train_gbm(x, y, GbmConfig(n_estimators, max_leaves, max_depth,
                                          learning_rate, min_samples_leaf))
        restored = TrainedModel.from_json(model.to_json())
        assert restored.to_json() == model.to_json()
        want = pack_direct(model.trees, model.learning_rate)
        for fitted in (model, restored):
            thresholds, columns, arrays = _packed_fields(fitted)
            _assert_same_arrays(thresholds, want[0])
            assert columns == want[1]
            _assert_same_arrays(arrays, want[2:])
        probe = np.concatenate([x, rng.choice([np.nan, np.inf, -np.inf, 0.0], (8, n_features))])
        assert restored(probe).tobytes() == model(probe).tobytes()

    def test_json_roundtrip(self):
        data = generate(SyntheticSpec("M1", 1500, seed=18))
        model = train_gbm(data.x, data.y, GbmConfig(n_estimators=10))
        restored = TrainedModel.from_json(model.to_json())
        np.testing.assert_allclose(restored(data.x), model(data.x), atol=1e-15)


def _assert_matches_direct(model, x, stages=None):
    """The kernel scores ``x`` with the direct walk's bits: the whole model,
    its JSON round trip, its first k trees for each k in ``stages`` (every k
    when None), and with every node or none re-tested per call."""
    direct = tree_scores_direct(model, x)
    assert model.raw_score(x).tobytes() == direct[:, -1].tobytes()
    restored = TrainedModel.from_json(model.to_json())
    assert restored.raw_score(x).tobytes() == direct[:, -1].tobytes()
    for k in range(1, len(model.trees) + 1) if stages is None else stages:
        expected = np.clip(sigmoid(direct[:, k]), PRED_CLAMP, 1.0 - PRED_CLAMP)
        assert replace(model, trees=model.trees[:k])(x).tobytes() == expected.tobytes()
    expected = np.clip(sigmoid(direct[:, -1]), PRED_CLAMP, 1.0 - PRED_CLAMP)
    for columns in (range(x.shape[1]), ()):
        assert model.replaced_scores(x, columns)(x).tobytes() == expected.tobytes()


class TestTreeKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_leaves=st.integers(2, MAX_LEAVES),
           max_depth=st.integers(1, 8), n_trees=st.integers(1, 4),
           n_features=st.integers(1, 4),
           n_rows=st.sampled_from([0, 1, 2, 37, 511, 512, 513, 1025]),
           pass_rows=st.integers(1, 1100))
    def test_matches_direct_walk(self, seed, max_leaves, max_depth, n_trees,
                                 n_features, n_rows, pass_rows):
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
        # inputs hit thresholds exactly, fall between them, or are NaN/+-inf
        x = rng.normal(0.0, 2.0, (n_rows, n_features))
        tie = rng.random(x.shape) < 0.4
        x[tie] = rng.choice(pool, int(tie.sum()))
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
        # passes, and the node-bit OR blocks inside them, end inside the rows
        with mock.patch.object(learn, "PASS_ROWS", pass_rows):
            _assert_matches_direct(model, x)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_leaves=st.integers(2, MAX_LEAVES),
           max_depth=st.integers(1, 8), n_trees=st.integers(0, 4),
           n_features=st.integers(1, 4))
    def test_pack_matches_direct(self, seed, max_leaves, max_depth, n_trees, n_features):
        """The bulk layout equals the per-node one, field by field and dtype by
        dtype, with ties, signed zeros and infinite thresholds across trees."""
        rng = np.random.default_rng(seed)
        pool = np.concatenate([np.round(rng.normal(0.0, 2.0, 6), 1),
                               [-np.inf, np.inf, -0.0, 0.0]])
        trees = tuple(random_tree(rng, int(rng.integers(1, max_leaves + 1)),
                                   max_depth, n_features,
                                   lambda: float(rng.choice(pool)))
                      for _ in range(n_trees))
        model = TrainedModel(kind="gbm", learning_rate=float(rng.uniform(0.01, 1.0)),
                             trees=trees)
        thresholds, columns, arrays = _packed_fields(model)
        want = pack_direct(trees, model.learning_rate)
        _assert_same_arrays(thresholds, want[0])
        assert columns == want[1]
        _assert_same_arrays(arrays, want[2:])

    def test_more_thresholds_than_uint16_codes(self):
        rng = np.random.default_rng(24)
        thresholds = iter(rng.permutation(70_000).astype(float))
        trees = tuple(random_tree(rng, MAX_LEAVES, 8, 1, lambda: next(thresholds))
                      for _ in range(1_100))
        model = TrainedModel(kind="gbm", init_score=0.25, learning_rate=0.1,
                             trees=trees)
        assert model._packed.thresholds[0].size > np.iinfo(np.uint16).max
        x = np.concatenate([rng.uniform(-1.0, 70_000.0, (60, 1)),
                            [[65_535.0], [65_536.0], [69_999.0], [np.nan]]])
        # a truncated model packs its trees anew, so a few stages stand for all 1,100
        _assert_matches_direct(model, x, stages=(1, 2, 550, 1_099))

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


class TestExitLeaf:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]),
           n_trees=st.integers(0, 23), shape=st.sampled_from([(1,), (7,), (3, 5)]),
           exit_bytes=st.integers(1, 300), ones_share=st.floats(0.0, 1.0))
    def test_in_place_matches_trailing_ones(self, seed, dtype, n_trees, shape,
                                            exit_bytes, ones_share):
        """The exit leaf, written over the masks slice by slice, is the count
        of trailing ones, for every mask width, slice size and tree count."""
        rng = np.random.default_rng(seed)
        top = np.iinfo(dtype).max
        masks = rng.integers(0, top, (n_trees, *shape), dtype=dtype, endpoint=True)
        # all-ones masks, and masks with a run of low ones below a zero bit
        masks[rng.random(masks.shape) < ones_share] = top
        runs = rng.integers(0, 8 * masks.itemsize, masks.shape).astype(dtype)
        masks = np.where(rng.random(masks.shape) < 0.3, (dtype(1) << runs) - dtype(1), masks)
        expected = np.bitwise_count(masks & ~(masks + 1))
        given_masks = masks.copy()
        with mock.patch.object(learn, "EXIT_BYTES", exit_bytes):
            out = learn._exit_leaf(given_masks)
        assert out is given_masks
        assert np.array_equal(out, expected)


class TestSplitSearch:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(2, 900),
           n_features=st.integers(1, 6), max_leaves=st.integers(2, MAX_LEAVES),
           max_depth=st.integers(1, 8), n_trees=st.integers(1, 3),
           leaf_share=st.floats(0.0, 0.6))
    def test_matches_per_node_sort(self, seed, n_rows, n_features, max_leaves,
                                   max_depth, n_trees, leaf_share):
        """Trees from the presorted search equal, byte for byte, those of a
        grower that sorts every node's rows afresh, and every node's slice of
        the presorted order is the stable sort of its own rows."""
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (n_rows, n_features))
        for j in range(n_features):
            kind = rng.integers(5)
            if kind == 1:  # ties
                x[:, j] = np.round(x[:, j], int(rng.integers(0, 2)))
            elif kind == 2:  # NaN and +-inf
                special = rng.random(n_rows) < rng.uniform(0.0, 0.4)
                x[special, j] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
            elif kind == 3:  # few distinct values
                x[:, j] = rng.integers(0, 3, n_rows)
            elif kind == 4 and j > 0:  # mirrors an earlier column: equal gains up to rounding
                x[:, j] = -x[:, rng.integers(j)]
        y = (rng.random(n_rows) < sigmoid(np.nan_to_num(x[:, 0]))).astype(int)
        y[:2] = (0, 1)
        config = GbmConfig(n_estimators=n_trees, max_leaves=max_leaves,
                           max_depth=max_depth, learning_rate=0.3,
                           min_samples_leaf=max(1, int(leaf_share * n_rows)))
        search = learn._best_split

        def checked_search(xt, grad, hess, rows, order, min_leaf, work):
            assert np.array_equal(order, rows[np.argsort(xt[:, rows], axis=1, kind="stable")])
            return search(xt, grad, hess, rows, order, min_leaf, work)

        with mock.patch.object(learn, "_best_split", checked_search):
            model = train_gbm(x, y, config)
        assert model.to_json() == train_gbm_direct(x, y, config)

    @pytest.mark.parametrize("lower, upper", [
        (0.0, np.inf),
        (1e308, 1.7e308),  # the midpoint overflows
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # the midpoint rounds up to upper
    ], ids=["inf", "huge", "adjacent"])
    def test_threshold_inside_split(self, lower, upper):
        """The threshold sends each row the way the search counted it."""
        x = np.r_[np.full(300, lower), np.full(100, upper)][:, None]
        y = (x[:, 0] == upper).astype(int)
        config = GbmConfig(n_estimators=1, max_leaves=2, max_depth=1,
                           min_samples_leaf=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tree = train_gbm(x, y, config).trees[0]
        assert tree.feature[0] == 0
        np.testing.assert_array_equal(x[:, 0] <= tree.threshold[0], x[:, 0] == lower)


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

    @pytest.mark.parametrize("kind", ["tree", "", "GBM"])
    def test_unknown_kind_is_rejected(self, kind):
        """Only MODEL_KINDS construct; an unknown kind is not scored as a
        logistic model."""
        with pytest.raises(ValueError, match=f"unknown model kind '{kind}'"):
            TrainedModel(kind=kind, coef=np.ones(5))
        assert learn.MODEL_KINDS == ("gbm", "logistic")


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

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from([0, 1]), st.one_of(
        st.floats(-1.0, 2.0),
        st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-16, 1.0]))),
        min_size=1, max_size=60),
        label_type=st.sampled_from([int, float, bool]))
    def test_one_log_matches_two_log_formula(self, rows, label_type):
        """Bit for bit, scores outside the clamp and at its edges included."""
        y, scores = (np.array(column) for column in zip(*rows))
        labels = y.astype(label_type)
        got = log_loss(labels, scores)
        assert np.float64(got).tobytes() == np.float64(two_log_loss(y, scores)).tobytes()
        assert (labels == y).all()  # the caller's labels are not written to

    def test_labels_must_be_binary(self):
        assert_value_error(lambda: log_loss([0, 0.5], [0.2, 0.4]), "labels must be binary 0/1")


# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "no rows": (lambda: SyntheticSpec("M1", 0), "n_rows must be >= 1"),
    "protected share": (lambda: SyntheticSpec("M1", 10, p_protected=1.0),
                        "p_protected must lie in (0, 1)"),
    "split fractions": (lambda: split_dataset(generate(SyntheticSpec("M1", 10)), (0.5, 0.5, 0.5)),
                        "fractions must sum to 1"),
    "leaf size": (lambda: GbmConfig(min_samples_leaf=0), "min_samples_leaf must be >= 1"),
    "replaced columns of a logistic model": (
        lambda: TrainedModel(kind="logistic", coef=np.ones(2)).replaced_scores(np.zeros((3, 2)),
                                                                               [0]),
        "replaced-column scores are defined for gbm models only"),
    "non-binary labels": (lambda: train_gbm(np.zeros((2, 1)), [0, 2]), "y must be binary 0/1"),
    "fractional labels": (lambda: train_gbm(np.zeros((3, 1)), [0, 1, 0.5]),
                          "y must be binary 0/1"),
    "fractional logistic labels": (lambda: train_logistic(np.zeros((3, 1)), [0, 1, 0.5]),
                                   "y must be binary 0/1"),
    "loss lengths": (lambda: log_loss([0, 1], [0.5]),
                     "labels and scores must have the same length"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])

    def test_separable_logistic_fit_is_bounded(self):
        """Perfectly separable labels drive the Newton iterates past the
        separation bound; the fit warns and scales them back onto it."""
        x = np.linspace(-0.01, 0.01, 10)[:, None]
        with pytest.warns(UserWarning, match="^logistic training diverged"):
            model = train_logistic(x, (x[:, 0] > 0).astype(int))
        assert np.linalg.norm(np.r_[model.intercept, model.coef]) == pytest.approx(1e4, rel=1e-12)
