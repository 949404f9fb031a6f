import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpost.bias import (
    MIN_CELL_CLASS_ROWS,
    PartitionSpec,
    bias_cells,
    classifier_bias,
    is_fair,
    model_bias,
    quantile_bias,
)

from helpers import (
    FINITE_VALUES,
    argsort_signed_transport,
    assert_value_error,
    labelled,
    quantile_w1,
    quantile_w1_signed,
    same_bits,
)


def interleaved_scores(rng, n_per_class):
    """Same score multiset for both classes: bias must vanish."""
    base = rng.normal(0, 1, n_per_class)
    scores = np.concatenate([base, base])
    g = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return scores, g


class TestModelBias:
    def test_class_independent_scores(self):
        scores, g = interleaved_scores(np.random.default_rng(0), 200)
        report = model_bias(scores, g)
        assert report.total == 0.0

    def test_scores_equal_group(self):
        g = np.array([0] * 50 + [1] * 50)
        report = model_bias(g.astype(float), g, favorable_sign=1)
        assert report.total == pytest.approx(1.0, abs=1e-15)
        assert report.negative == pytest.approx(1.0, abs=1e-15)
        assert report.positive == 0.0
        assert report.net == pytest.approx(-1.0, abs=1e-15)

    def test_against_quantile_grid_oracle(self):
        rng = np.random.default_rng(5)
        scores = np.concatenate([rng.beta(2, 3, 4000), rng.beta(3, 2, 4000)])
        g = np.array([0] * 4000 + [1] * 4000)
        report = model_bias(scores, g)
        p = (np.arange(100_000) + 0.5) / 100_000
        q0 = np.quantile(scores[g == 0], p, method="inverted_cdf")
        q1 = np.quantile(scores[g == 1], p, method="inverted_cdf")
        oracle = float(np.mean(np.abs(q0 - q1)))
        assert report.total == pytest.approx(oracle, rel=0.10)

    def test_missing_class_names_cell(self):
        scores = np.array([0.1, 0.2, 0.7, 0.9])
        g = np.array([0, 0, 1, 1])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="y=0.*G=1"):
            model_bias(scores, g, PartitionSpec.by_label(), columns={"y": y})

    def test_small_cell_warning_attached(self):
        scores = np.array([0.1, 0.2, 0.7, 0.9, 0.3, 0.8])
        g = np.array([0, 1, 0, 1, 0, 1])
        report = model_bias(scores, g)
        assert report.warnings and "fewer than" in report.warnings[0]

    def test_per_cell_weighting(self):
        rng = np.random.default_rng(9)
        n = 1200
        g = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        scores = rng.random(n) + 0.2 * g
        report = model_bias(scores, g, PartitionSpec.by_label(), columns={"y": y})
        cells = []
        for label in (0, 1):
            mask = y == label
            cells.append(quantile_w1(scores[mask & (g == 0)], scores[mask & (g == 1)]))
        assert report.total == pytest.approx(0.5 * cells[0] + 0.5 * cells[1], abs=1e-12)
        assert abs(report.total - (report.positive + report.negative)) <= 1e-10


def random_cells(rng, sizes, decimals):
    """Rows whose (y, g) cell sizes are ``sizes[y][g]``, shuffled, with scores
    rounded to ``decimals`` places (None: no rounding) to force ties."""
    y = np.repeat([0, 0, 1, 1], [sizes[0][0], sizes[0][1], sizes[1][0], sizes[1][1]])
    g = np.repeat([0, 1, 0, 1], [sizes[0][0], sizes[0][1], sizes[1][0], sizes[1][1]])
    scores = rng.normal(0.0, 1.0, y.size) * rng.uniform(0.3, 2.0, 4)[2 * y + g]
    scores += rng.normal(0.0, 0.5, 4)[2 * y + g]
    if decimals is not None:
        scores = np.round(scores, decimals)
    perm = rng.permutation(y.size)
    return scores[perm], g[perm], y[perm]


def quantile_form_report(scores, g, partition, favorable_sign, y):
    """The model bias from the quantile-form oracle, cell by cell."""
    masks = partition.masks({"y": y}, scores.size)
    cells = [quantile_w1_signed(scores[m & (g == 0)], scores[m & (g == 1)], favorable_sign)
             for m in masks]
    weighted = [sum(w * getattr(c, part) for w, c in zip(partition.weights, cells))
                for part in ("total", "positive_part", "negative_part")]
    return cells, weighted


class TestCdfFormAgainstQuantileForm:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 250), min_size=4, max_size=4),
           decimals=st.sampled_from([None, 0, 1, 2]),
           favorable_sign=st.sampled_from([-1, 1]),
           by_label=st.booleans())
    def test_matches_oracle(self, seed, sizes, decimals, favorable_sign, by_label):
        rng = np.random.default_rng(seed)
        scores, g, y = random_cells(rng, [sizes[:2], sizes[2:]], decimals)
        partition = PartitionSpec.by_label() if by_label else PartitionSpec.all_rows()
        report = model_bias(scores, g, partition, favorable_sign, columns={"y": y})
        cells, (total, pos, neg) = quantile_form_report(scores, g, partition,
                                                        favorable_sign, y)
        tol = dict(rel=1e-9, abs=1e-12)
        assert report.total == pytest.approx(total, **tol)
        assert report.positive == pytest.approx(pos, **tol)
        assert report.negative == pytest.approx(neg, **tol)
        for got, want in zip(report.per_cell, cells):
            assert got.total == pytest.approx(want.total, **tol)
            assert got.positive_part == pytest.approx(want.positive_part, **tol)
            assert got.negative_part == pytest.approx(want.negative_part, **tol)

    def test_one_row_per_class(self):
        for favorable_sign in (-1, 1):
            report = model_bias([0.75, 0.25], [0, 1], favorable_sign=favorable_sign)
            assert report.total == 0.5
            assert (report.positive, report.negative) == ((0.5, 0.0) if favorable_sign == 1
                                                          else (0.0, 0.5))

    def test_row_permutation_is_bit_identical(self):
        rng = np.random.default_rng(60)
        for decimals in (None, 1):
            scores, g, y = random_cells(rng, [[700, 450], [300, 900]], decimals)
            for partition in (PartitionSpec.all_rows(), PartitionSpec.by_label()):
                for favorable_sign in (-1, 1):
                    base = model_bias(scores, g, partition, favorable_sign, {"y": y})
                    for _ in range(5):
                        perm = rng.permutation(scores.size)
                        other = model_bias(scores[perm], g[perm], partition,
                                           favorable_sign, {"y": y[perm]})
                        assert (other.total, other.positive, other.negative) == (
                            base.total, base.positive, base.negative)
                        assert other.per_cell == base.per_cell


@st.composite
def label_cells(draw):
    """Shuffled scores of the four (y, g) groups, each nonempty, with their g
    and y labels."""
    scores, group = labelled(draw, *(draw(st.lists(FINITE_VALUES, min_size=1, max_size=25))
                                     for _ in range(4)))
    return scores, group % 2, group // 2


class TestPreparedCells:
    @settings(max_examples=300, deadline=None)
    @given(cells=label_cells(), favorable_sign=st.sampled_from([-1, 1]))
    def test_by_label_matches_per_cell_argsort_form(self, cells, favorable_sign):
        """Each cell's transport and the weighted sums, bit for bit."""
        scores, g, y = cells
        partition = PartitionSpec.by_label()
        report = model_bias(scores, g, partition, favorable_sign, {"y": y})
        total = pos = neg = 0.0
        for cell, w, got in zip((0, 1), partition.weights, report.per_cell):
            want = argsort_signed_transport(scores[y == cell], g[y == cell], favorable_sign)[0]
            for part in ("total", "positive_part", "negative_part"):
                assert same_bits(getattr(got, part), getattr(want, part)), part
            total += w * want.total
            pos += w * want.positive_part
            neg += w * want.negative_part
        assert all(same_bits(a, b) for a, b in ((report.total, total), (report.positive, pos),
                                                (report.negative, neg), (report.net, pos - neg)))

    def test_prepared_once_measures_like_model_bias(self):
        rng = np.random.default_rng(70)
        scores, g, y = random_cells(rng, [[30, 8], [40, 50]], 1)
        cells = bias_cells(g, PartitionSpec.by_label(), {"y": y})
        for favorable_sign in (-1, 1):
            for _ in range(3):
                s = rng.permutation(scores)
                assert cells.measure(s, favorable_sign) == model_bias(
                    s, g, PartitionSpec.by_label(), favorable_sign, {"y": y})
        assert cells.measure(scores).warnings == (
            f"cell 'y=0' has a class with fewer than {MIN_CELL_CLASS_ROWS} rows; "
            "its W1 estimate is unreliable",)
        with pytest.raises(ValueError, match="same length"):
            cells.measure(scores[1:])


class TestModelBiasErrors:
    def test_every_error_path_raises(self):
        scores = np.array([0.1, 0.4, 0.3, 0.9])
        g = np.array([0, 1, 0, 1])
        y = np.array([0, 0, 1, 1])
        cases = [
            (dict(scores=[0.1, np.inf, 0.3, 0.9]), "finite"),
            (dict(scores=[0.1, np.nan, 0.3, 0.9]), "finite"),
            (dict(g=[0, 2, 0, 1]), "binary"),
            (dict(g=[0, -1, 0, 1]), "binary"),
            (dict(g=[0.0, 0.5, 0.0, 1.0]), "binary"),
            (dict(g=["0", "1", "0", "1"]), "binary"),
            (dict(g=[0, 1, 0]), "same length"),
            (dict(favorable_sign=0), "favorable_sign"),
            (dict(partition=PartitionSpec.by_label(), columns={"y": np.ones(4)}),
             "cell 'y=0' is empty"),
            (dict(g=[0, 0, 0, 0]), "missing class G=1"),
            (dict(g=[1, 1, 1, 1]), "missing class G=0"),
            (dict(partition=PartitionSpec.by_label(), columns={"y": y},
                  g=[0, 0, 1, 1]), "cell 'y=0': missing class G=1"),
            (dict(partition=PartitionSpec.by_label()), "requires a 'y' column"),
            (dict(partition=PartitionSpec(("a", "b"), (lambda c, n: np.ones(n, bool),) * 2,
                                          (0.5, 0.5))), "overlap"),
            (dict(partition=PartitionSpec(("a",), (lambda c, n: np.ones(n + 1, bool),),
                                          (1.0,))), "wrong shape"),
        ]
        for change, message in cases:
            kwargs = dict(scores=scores, g=g, partition=None, favorable_sign=1, columns=None)
            kwargs.update(change)
            with pytest.raises(ValueError, match=message):
                model_bias(**kwargs)
        # bool and float 0/1 labels are binary
        base = model_bias(scores, g)
        for same in (g.astype(bool), g.astype(float)):
            assert model_bias(scores, same) == base

    def test_small_cell_warning_text(self):
        n = MIN_CELL_CLASS_ROWS
        g = np.array([0] * n + [1] * (n - 1))
        report = model_bias(np.arange(g.size, dtype=float), g)
        assert report.warnings == (
            f"cell 'all' has a class with fewer than {n} rows; "
            "its W1 estimate is unreliable",)
        assert model_bias(np.arange(2 * n, dtype=float), [0, 1] * n).warnings == ()


class TestClassifierBias:
    def test_identical_subpopulations(self):
        scores, g = interleaved_scores(np.random.default_rng(1), 150)
        for t in (-1.0, 0.0, 0.5):
            assert classifier_bias(scores, g, t) == 0.0

    def test_uniform_shift_grids(self):
        grid = (np.arange(1000) + 0.5) / 1000
        scores = np.concatenate([grid, grid + 0.2])
        g = np.array([0] * 1000 + [1] * 1000)
        assert classifier_bias(scores, g, 0.5, 1) == pytest.approx(-0.2, abs=0.01)

    def test_integrated_classifier_bias_equals_model_bias(self):
        rng = np.random.default_rng(17)
        scores = np.concatenate([rng.normal(0, 1, 300), rng.normal(0.4, 1.3, 200)])
        g = np.array([0] * 300 + [1] * 200)
        grid = np.unique(scores)
        total = 0.0
        for left, right in zip(grid[:-1], grid[1:]):
            total += abs(classifier_bias(scores, g, left)) * (right - left)
        report = model_bias(scores, g)
        assert total == pytest.approx(report.total, abs=1e-6)


class TestQuantileBias:
    def test_identical_subpopulations(self):
        scores, g = interleaved_scores(np.random.default_rng(2), 100)
        for p in (0.1, 0.5, 0.9):
            assert quantile_bias(scores, g, p) == 0.0

    def test_hand_computed_quantiles(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 5.0])
        g = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert quantile_bias(scores, g, 0.5, 1) == -1.0

    def test_integrated_quantile_bias_equals_model_bias(self):
        rng = np.random.default_rng(21)
        scores = np.concatenate([rng.normal(0, 1, 128), rng.normal(1, 2, 256)])
        g = np.array([0] * 128 + [1] * 256)
        # integrate |quantile bias| over the pooled probability breakpoints
        c0 = np.arange(1, 129) / 128
        c1 = np.arange(1, 257) / 256
        breaks = np.union1d(c0, c1)
        mids = (np.concatenate(([0.0], breaks[:-1])) + breaks) / 2
        total = sum(abs(quantile_bias(scores, g, p)) * w
                    for p, w in zip(mids, np.diff(np.concatenate(([0.0], breaks)))))
        report = model_bias(scores, g)
        assert total == pytest.approx(report.total, abs=1e-6)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_bias([1.0, 2.0], [0, 1], 1.0)


class TestIsFair:
    def test_zero_bias_zero_epsilon(self):
        scores, g = interleaved_scores(np.random.default_rng(3), 50)
        assert is_fair(model_bias(scores, g), 0.0)

    def test_above_threshold(self):
        g = np.array([0] * 30 + [1] * 30)
        report = model_bias(g * 0.3, g)
        assert not is_fair(report, 0.1)

    def test_boundary_inclusive(self):
        g = np.array([0] * 30 + [1] * 30)
        report = model_bias(g * 0.1, g)
        assert report.total == pytest.approx(0.1, abs=1e-15)
        assert is_fair(report, 0.1)


class TestPartitionSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PartitionSpec.by_label(weights=(0.6, 0.6))

    def test_refinement_with_independent_cells(self):
        rng = np.random.default_rng(11)
        base = rng.normal(0, 1, 400)
        scores = np.concatenate([base, base])
        g = np.array([0] * 400 + [1] * 400)
        y = np.concatenate([np.arange(400) % 2, np.arange(400) % 2])
        report = model_bias(scores, g, PartitionSpec.by_label(), columns={"y": y})
        assert report.total == 0.0

    def test_affine_scaling_of_scores(self):
        rng = np.random.default_rng(12)
        scores = np.concatenate([rng.normal(0, 1, 300), rng.normal(0.5, 1.4, 300)])
        g = np.array([0] * 300 + [1] * 300)
        base = model_bias(scores, g).total
        scaled = model_bias(2.5 * scores + 3.0, g).total
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)
        # a non-affine increasing map changes the total in general
        mapped = model_bias(np.exp(scores), g).total
        assert abs(mapped - base) > 1e-6

    def test_group_swap_mirrors_parts(self):
        rng = np.random.default_rng(13)
        scores = np.concatenate([rng.normal(0, 1, 250), rng.normal(0.3, 2.0, 350)])
        g = np.array([0] * 250 + [1] * 350)
        a = model_bias(scores, g, favorable_sign=1)
        b = model_bias(scores, 1 - g, favorable_sign=1)
        assert a.positive == pytest.approx(b.negative, abs=1e-12)
        assert a.negative == pytest.approx(b.positive, abs=1e-12)


# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "ragged partition": (lambda: PartitionSpec(names=("a",), predicates=(), weights=(1.0,)),
                         "names, predicates and weights must have equal length"),
    "zero cell weight": (lambda: PartitionSpec(names=("a", "b"), predicates=(None, None),
                                               weights=(1.0, 0.0)),
                         "cell weights must be positive"),
    "negative epsilon": (lambda: is_fair(model_bias(np.array([0.2, 0.4, 0.3, 0.5]),
                                                    np.array([0, 0, 1, 1])), -1.0),
                         "epsilon must be nonnegative"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])
