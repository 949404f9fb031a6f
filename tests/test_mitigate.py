import contextlib
import csv
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpost.bias import PartitionSpec, model_bias
from fairpost.cli import main
from fairpost.learn import (Dataset, GbmConfig, SyntheticSpec, generate, log_loss, split_dataset,
                            train_gbm, train_logistic)
from fairpost.mitigate import (
    Frontier,
    FrontierPoint,
    SearchSpace,
    best_gamma_at_omega,
    build_calibrated,
    pareto_extract,
    run_algorithm1,
    run_hyperparam_baseline,
    transform_search_space,
)
from fairpost.transform import (LOCAL_A_MIN, CompressiveParams, PredictorTransform,
                                focal_point, post_scorer)

from helpers import assert_value_error, brute_force_pareto, gp_expected_improvement_scipy


@pytest.fixture(scope="module")
def m1_setup():
    train = generate(SyntheticSpec("M1", 3000, seed=1))
    holdout = generate(SyntheticSpec("M1", 2000, seed=2))
    test = generate(SyntheticSpec("M1", 2000, seed=3))
    model = train_gbm(train.x, train.y, GbmConfig(n_estimators=50))
    return model, train, holdout, test


def global_params(indices, a_values, data):
    return CompressiveParams(tuple(
        PredictorTransform(predictor=i, kind="global", params=(float(a),),
                           focal=focal_point(data.x, i, "mean"))
        for i, a in zip(indices, a_values)))


class TestBuildCalibrated:
    def test_identity_gamma_matches_base_model(self, m1_setup):
        model, train, holdout, _ = m1_setup
        params = global_params((0, 2), (1.0, 1.0), train)
        fitted, _ = build_calibrated(model, params, holdout)
        scores = fitted(holdout.x)
        base = model(holdout.x)
        assert log_loss(holdout.y, scores) == pytest.approx(log_loss(holdout.y, base),
                                                            abs=1e-9)
        assert (model_bias(scores, holdout.g, favorable_sign=-1).total
                == pytest.approx(model_bias(base, holdout.g, favorable_sign=-1).total,
                                 abs=1e-9))

    def test_point_compression_regime(self):
        # compressing every predictor to a point wipes out essentially all
        # bias; the calibration fit degenerates on the collapsed scores and
        # the flagged fallback keeps the uncalibrated (near-constant) model
        train = generate(SyntheticSpec("M1", 3000, seed=11))
        holdout = generate(SyntheticSpec("M1", 2000, seed=12))
        model = train_gbm(train.x, train.y, GbmConfig(n_estimators=50))
        indices = tuple(range(5))
        params = global_params(indices, (1000.0,) * 5, train)
        base_bias = model_bias(model(holdout.x), holdout.g, favorable_sign=-1).total
        fitted, failed = build_calibrated(model, params, holdout)
        bias = model_bias(fitted(holdout.x), holdout.g, favorable_sign=-1).total
        assert bias <= 0.01 * base_bias

    @pytest.mark.parametrize("indices,a", [((0, 2), 1.5), (tuple(range(5)), 1e12)],
                             ids=["calibrated", "failed-fit"])
    def test_reused_base_scores_and_returned_scores(self, m1_setup, indices, a):
        # the second case collapses the scores, so the calibration fit fails
        model, train, holdout, _ = m1_setup
        params = global_params(indices, (a,) * len(indices), train)
        fitted, failed = build_calibrated(model, params, holdout)
        post_scores = model(params.apply(holdout.x))
        reused, reused_failed = build_calibrated(
            model, params, holdout, base_scores=model(holdout.x),
            post_scores=post_scores)
        assert reused_failed == failed == (a == 1e12)
        assert np.array_equal(reused.calibrate(post_scores), fitted(holdout.x))
        assert np.array_equal(reused(holdout.x), fitted(holdout.x))

    @pytest.mark.parametrize("kind", ["gbm", "logistic"])
    @pytest.mark.parametrize("calibration", ["link_linear", "pava", "logistic_refit", None])
    def test_model_calls_for_each_calibration(self, m1_setup, kind, calibration):
        """One call for the post-processed rows and one for the base scores,
        which only a calibration fit reads; no calibration makes no call."""
        gbm, train, holdout, _ = m1_setup
        base = gbm if kind == "gbm" else train_logistic(train.x, train.y)

        class Counting:
            calls = 0

            def __call__(self, x):
                self.calls += 1
                return base(x)

        counting = Counting()
        params = global_params((0, 2), (1.5, 0.8), train)
        build_calibrated(counting, params, holdout, calibration)
        assert counting.calls == (0 if calibration is None else 2)

    @pytest.mark.parametrize("calibration", ["isotonic", "none"])
    def test_unknown_calibration_rejected_before_any_model_call(self, m1_setup,
                                                                calibration):
        _, train, holdout, _ = m1_setup
        calls = []

        def counting(x):
            calls.append(len(x))
            return np.full(len(x), 0.5)

        params = global_params((0,), (1.5,), train)
        with pytest.raises(ValueError, match=f"unknown calibration method '{calibration}'"):
            build_calibrated(counting, params, holdout, calibration=calibration)
        assert calls == []


class TestParetoExtract:
    def test_strict_dominance(self):
        assert pareto_extract([(1.0, 1.0), (2.0, 2.0)]) == (0,)

    def test_incomparable_pair(self):
        assert pareto_extract([(1.0, 2.0), (2.0, 1.0)]) == (0, 1)

    def test_duplicates_survive_together(self):
        out = pareto_extract([(1.0, 1.0), (1.0, 1.0), (2.0, 0.5)])
        assert out == (0, 1, 2)

    def test_equal_bias_keeps_only_min_loss(self):
        out = pareto_extract([(1.0, 2.0), (1.0, 1.0), (3.0, 0.5)])
        assert out == (1, 2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        points = rng.random((1000, 2))
        assert pareto_extract(points) == brute_force_pareto(points)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(6)
        points = rng.integers(0, 8, size=(300, 2)).astype(float)
        assert pareto_extract(points) == brute_force_pareto(points)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           levels=st.integers(1, 10), special=st.booleans())
    def test_matches_oracle_random_ties(self, seed, n, levels, special):
        """Few distinct values per coordinate, so ties in bias, in loss and
        whole duplicate points are common."""
        rng = np.random.default_rng(seed)
        pool = rng.normal(0.0, 1.0, levels)
        if special:  # signed zeros tie; an infinite coordinate
            pool[: min(3, levels)] = [0.0, -0.0, np.inf][: min(3, levels)]
        points = rng.choice(pool, (n, 2))
        assert pareto_extract(points) == brute_force_pareto(points)

    def test_no_points(self):
        for points in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="no points"):
                pareto_extract(points)

    @pytest.mark.parametrize("points", [[(1.0, 2.0, 3.0)], [(1.0, 2.0, 3.0, 4.0)], [1.0, 2.0]],
                             ids=["triple", "two-pairs-in-one-row", "flat"])
    def test_rejects_anything_but_pairs(self, points):
        with pytest.raises(ValueError):
            pareto_extract(points)


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(bounds=(), omegas=(0.0,), n_prior=5, n_bo=1)
        with pytest.raises(ValueError):
            SearchSpace(bounds=(("a", 0.0, np.inf),), omegas=(0.0,), n_prior=5, n_bo=1)
        for omega in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="omega"):
                SearchSpace(bounds=(("a", 0.0, 1.0),), omegas=(0.0, omega), n_prior=5, n_bo=1)
        with pytest.raises(ValueError):
            SearchSpace(bounds=(("a", 0.0, 1.0),), omegas=(0.0,), n_prior=0, n_bo=1)
        with pytest.raises(ValueError, match="no omega values"):
            SearchSpace(bounds=(("a", 0.0, 1.0),), omegas=(), n_prior=5, n_bo=1)

    def test_transform_space_dimensions(self):
        for kind, dims in (("global", 3), ("asymmetric", 6), ("local", 6)):
            space = transform_search_space((0, 1, 4), kind, omegas=(0.0,),
                                           n_prior=5, n_bo=1)
            assert len(space.bounds) == dims

    @pytest.mark.parametrize("kind, bounds, message", [
        ("global", {"a_bounds": (0.0, 2.0)}, "a must be positive"),
        ("global", {"a_bounds": (-1.0, 2.0)}, "a must be positive"),
        ("asymmetric", {"a_bounds": (0.0, 2.0)}, "a_minus and a_plus must be positive"),
        ("local", {"a_bounds": (0.3, 2.0)}, "outside the certified-monotone region"),
        ("local", {"sigma_bounds": (0.0, 2.0)}, "sigma must be positive"),
    ], ids=["global-zero", "global-negative", "asymmetric-zero", "local-a", "local-sigma"])
    def test_box_outside_family_domain(self, kind, bounds, message):
        with pytest.raises(ValueError, match=message):
            transform_search_space((0, 2), kind, omegas=(0.0,), n_prior=5, n_bo=1, **bounds)

    def test_unknown_kind_names_family_and_kind(self):
        with pytest.raises(ValueError, match="unknown transform kind 'power'"):
            transform_search_space((0,), "power")

    def test_box_at_family_domain_edge(self):
        space = transform_search_space((0,), "local", a_bounds=(LOCAL_A_MIN, 2.0),
                                       omegas=(0.0,), n_prior=5, n_bo=1)
        assert space.lo[0] == LOCAL_A_MIN


class TestRunAlgorithm1:
    @pytest.fixture(scope="class")
    def frontier(self, m1_setup):
        model, train, holdout, test = m1_setup
        space = transform_search_space((0, 1, 2, 4), "global", a_bounds=(0.5, 2.0),
                                       omegas=(0.0, 0.7, 1.4), n_prior=40, n_bo=6,
                                       seed=9)
        return run_algorithm1(model, train, holdout, test, (0, 1, 2, 4), space,
                              favorable_sign=-1)

    def test_expected_point_count(self, frontier):
        assert len(frontier.points) == 40 + 6 * 3
        assert len(frontier.holdout_points) == len(frontier.points)

    def test_weakly_dominates_prior_frontier(self, frontier):
        prior = [p for p in frontier.points if p.omega is None]
        prior_front = pareto_extract([(p.bias, p.loss) for p in prior])
        for j in prior_front:
            q = prior[j]
            assert any(frontier.points[i].bias <= q.bias
                       and frontier.points[i].loss <= q.loss
                       for i in frontier.frontier_indices)

    def test_frontier_is_nondominated(self, frontier):
        pts = [(p.bias, p.loss) for p in frontier.points]
        assert frontier.frontier_indices == pareto_extract(pts)

    def test_determinism(self, m1_setup):
        model, train, holdout, test = m1_setup
        space = transform_search_space((0, 2), "global", omegas=(0.0, 1.0),
                                       n_prior=10, n_bo=3, seed=4)
        a = run_algorithm1(model, train, holdout, test, (0, 2), space,
                           favorable_sign=-1)
        b = run_algorithm1(model, train, holdout, test, (0, 2), space,
                           favorable_sign=-1)
        assert [p.gamma for p in a.points] == [p.gamma for p in b.points]
        assert a.frontier_indices == b.frontier_indices

    @pytest.mark.parametrize("kind", ["global", "asymmetric", "local"])
    def test_gbm_scorer_matches_assembled_rows(self, m1_setup, tmp_path, kind):
        """The same GBM wrapped in a plain callable scores the transformed rows;
        both searches write the same bytes."""
        model, train, holdout, test = m1_setup
        space = transform_search_space((0, 2), kind, omegas=(0.0, 1.0), n_prior=6,
                                       n_bo=2, seed=5)
        paths = [tmp_path / "gbm.csv", tmp_path / "callable.csv"]
        for scorer, path in zip((model, lambda z: model(z)), paths):
            run_algorithm1(scorer, train, holdout, test, (0, 2), space, transform_kind=kind,
                           favorable_sign=-1).to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nbo_zero_equals_prior_pareto(self, m1_setup):
        model, train, holdout, test = m1_setup
        space = transform_search_space((0, 2), "global", omegas=(0.0, 1.0),
                                       n_prior=15, n_bo=0, seed=12)
        fr = run_algorithm1(model, train, holdout, test, (0, 2), space,
                            favorable_sign=-1)
        assert len(fr.points) == 15
        assert all(p.omega is None for p in fr.points)
        assert fr.frontier_indices == pareto_extract([(p.bias, p.loss)
                                                      for p in fr.points])

    def test_empty_impact_list_rejected(self, m1_setup):
        model, train, holdout, test = m1_setup
        space = transform_search_space((0,), "global", omegas=(0.0,), n_prior=5,
                                       n_bo=0)
        with pytest.raises(ValueError):
            run_algorithm1(model, train, holdout, test, (), space)

    def test_dimension_mismatch_rejected(self, m1_setup):
        model, train, holdout, test = m1_setup
        space = transform_search_space((0,), "global", omegas=(0.0,), n_prior=5,
                                       n_bo=0)
        with pytest.raises(ValueError):
            run_algorithm1(model, train, holdout, test, (0, 1), space)

    def test_surrogate_failure_falls_back_to_random(self, monkeypatch):
        import fairpost.mitigate as mit

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular surrogate")

        monkeypatch.setattr(mit, "_tpe_propose", broken)
        rng = np.random.default_rng(0)
        xs = rng.random((6, 2))
        ys = rng.random(6)
        with pytest.warns(UserWarning, match="falling back"):
            vec = mit._propose("tpe", rng, np.zeros(2), np.ones(2), xs, ys)
        assert vec.shape == (2,) and np.all((vec >= 0) & (vec <= 1))

    @pytest.mark.parametrize("surrogate", ["gp", "random"])
    def test_alternative_surrogates(self, m1_setup, surrogate):
        model, train, holdout, test = m1_setup
        space = transform_search_space((0, 2), "global", omegas=(0.0, 1.0),
                                       n_prior=8, n_bo=3, seed=2)
        fr = run_algorithm1(model, train, holdout, test, (0, 2), space,
                            favorable_sign=-1, surrogate=surrogate)
        assert len(fr.points) == 8 + 6

    def test_omega_path_soft_monotone(self, m1_setup):
        model, train, holdout, test = m1_setup
        omegas = (0.0, 0.5, 1.0, 1.5, 2.0)
        space = transform_search_space((0, 1, 2, 4), "global", omegas=omegas,
                                       n_prior=60, n_bo=8, seed=21)
        fr = run_algorithm1(model, train, holdout, test, (0, 1, 2, 4), space,
                            favorable_sign=-1)
        best_bias = []
        for omega in omegas:
            candidates = [p for p in fr.holdout_points
                          if p.omega is None or p.omega == omega]
            scores = [p.loss + omega * p.bias for p in candidates]
            best_bias.append(candidates[int(np.argmin(scores))].bias)
        from scipy.stats import spearmanr
        rho = spearmanr(omegas, best_bias).statistic
        print(f"omega-path rank correlation: {rho:.3f}")
        assert rho <= 0.3  # soft property: bias should trend down as omega grows

    def test_csv_and_manifest(self, frontier, tmp_path):
        path = tmp_path / "frontier.csv"
        frontier.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,bias,loss,dominated_flag,gamma_json"
        assert len(lines) == len(frontier.points) + 1
        assert frontier.manifest["n_prior"] == 40 and frontier.manifest["surrogate"] == "tpe"


class TestGpPropose:
    @pytest.mark.parametrize("seed", range(8))
    def test_maximizes_scipy_expected_improvement(self, seed):
        """Every candidate's expected improvement matches scipy's triangular
        solves and normal cdf/pdf to within 1e-7 of the largest, and the
        proposal is the candidate with the largest.  The numpy solves and
        ``math.erfc`` move the improvements by at most 1.1e-9 of the largest
        on 200 random designs of up to 60 points."""
        from unittest import mock

        import fairpost.mitigate as mit

        rng = np.random.default_rng(seed)
        dim, n = 1 + seed % 4, 4 + 7 * seed
        lo = rng.uniform(-2.0, 0.0, dim)
        hi = lo + rng.uniform(0.5, 3.0, dim)
        xs = rng.uniform(lo, hi, (n, dim))
        ys = rng.normal(0.0, 1.0, n)
        seen, argmax = [], np.argmax

        def spy(a, *args, **kwargs):  # the improvements the proposal is picked from
            seen.append(np.array(a))
            return argmax(a, *args, **kwargs)

        with mock.patch.object(mit.np, "argmax", spy):
            proposal = mit._gp_propose(np.random.default_rng(seed + 100), lo, hi, xs, ys)
        cands, ei = gp_expected_improvement_scipy(np.random.default_rng(seed + 100), lo,
                                                  hi, xs, ys, mit.GP_CANDIDATES)
        assert len(seen) == 1 and ei.max() > 0.0
        np.testing.assert_allclose(seen[0], ei, rtol=0.0, atol=1e-7 * ei.max())
        hit = np.flatnonzero((cands == proposal).all(axis=1))
        assert hit.size == 1 and ei[hit[0]] >= ei.max() * (1.0 - 1e-7)


class TestHyperparamBaseline:
    def test_degenerate_box_single_point(self):
        train = generate(SyntheticSpec("M1", 1500, seed=31))
        holdout = generate(SyntheticSpec("M1", 1000, seed=32))
        test = generate(SyntheticSpec("M1", 1000, seed=33))
        space = SearchSpace(bounds=(("n_estimators", 30.0, 30.0),
                                    ("max_leaves", 8.0, 8.0),
                                    ("max_depth", 3.0, 3.0),
                                    ("learning_rate", 0.1, 0.1)),
                            omegas=(0.0,), n_prior=3, n_bo=0, seed=1)
        fr = run_hyperparam_baseline(train, holdout, test, space=space,
                                     favorable_sign=-1)
        biases = {round(p.bias, 12) for p in fr.points}
        losses = {round(p.loss, 12) for p in fr.points}
        assert len(biases) == 1 and len(losses) == 1
        assert len(fr.frontier_indices) == len(fr.points)  # identical points

    def test_narrower_bias_range_than_postprocessing(self, m1_setup):
        model, train, holdout, test = m1_setup
        omegas = (0.0, 1.0, 2.0)
        base_space = SearchSpace(bounds=(("n_estimators", 40.0, 100.0),
                                         ("max_leaves", 4.0, 12.0),
                                         ("max_depth", 2.0, 6.0),
                                         ("learning_rate", 0.05, 0.5)),
                                 omegas=omegas, n_prior=12, n_bo=3, seed=2)
        baseline = run_hyperparam_baseline(train, holdout, test, space=base_space,
                                           favorable_sign=-1)
        post_space = transform_search_space((0, 1, 2, 4), "global",
                                            omegas=omegas, n_prior=40, n_bo=6,
                                            seed=2)
        post = run_algorithm1(model, train, holdout, test, (0, 1, 2, 4),
                              post_space, favorable_sign=-1)
        base_span = (max(p.bias for p in baseline.points)
                     - min(p.bias for p in baseline.points))
        post_span = (max(p.bias for p in post.points)
                     - min(p.bias for p in post.points))
        print(f"bias-axis span: baseline {base_span:.4f} vs post-processing {post_span:.4f}")
        assert base_span < post_span

    def test_best_omega_zero_gamma(self):
        train = generate(SyntheticSpec("M1", 1200, seed=41))
        holdout = generate(SyntheticSpec("M1", 800, seed=42))
        test = generate(SyntheticSpec("M1", 800, seed=43))
        space = SearchSpace(bounds=(("n_estimators", 20.0, 60.0),
                                    ("max_leaves", 4.0, 8.0),
                                    ("max_depth", 2.0, 4.0),
                                    ("learning_rate", 0.05, 0.3)),
                            omegas=(0.0,), n_prior=4, n_bo=2, seed=3)
        fr = run_hyperparam_baseline(train, holdout, test, space=space,
                                     favorable_sign=-1)
        best = best_gamma_at_omega(fr, 0.0)
        losses = [p.loss for p in fr.holdout_points]
        assert best == fr.holdout_points[int(np.argmin(losses))].gamma


@pytest.fixture(scope="module")
def small_splits():
    return tuple(generate(SyntheticSpec("M1", n, seed=s))
                 for n, s in ((1200, 51), (800, 52), (800, 53)))


def _search(family, m1_setup, small_splits, n_prior=4, n_bo=2, omegas=(0.0, 1.0),
            transform_kind="global", **kwargs):
    """One frontier search of either family: post-processing over {x1, x3} on
    ``m1_setup``, or the retraining baseline over a small box on ``small_splits``."""
    if family == "postprocess":
        model, train, holdout, test = m1_setup
        space = transform_search_space((0, 2), transform_kind, omegas=omegas, n_prior=n_prior,
                                       n_bo=n_bo, seed=6)
        return run_algorithm1(model, train, holdout, test, (0, 2), space,
                              transform_kind=transform_kind, favorable_sign=-1, **kwargs)
    space = SearchSpace(bounds=(("n_estimators", 5.0, 15.0), ("max_leaves", 4.0, 8.0),
                                ("max_depth", 2.0, 3.0), ("learning_rate", 0.1, 0.3)),
                        omegas=omegas, n_prior=n_prior, n_bo=n_bo, seed=6)
    return run_hyperparam_baseline(*small_splits, space, favorable_sign=-1, **kwargs)


# the call that evaluates one parameter vector, per family
_EVALUATION = {"postprocess": "build_calibrated", "baseline": "train_gbm"}


class TestFrontierMeasurement:
    """The search measures every point of both families the same way."""

    @pytest.mark.parametrize("family", ["postprocess", "baseline"])
    def test_manifest_records_sign_and_splits(self, m1_setup, small_splits, family):
        splits = m1_setup[1:] if family == "postprocess" else small_splits
        manifest = _search(family, m1_setup, small_splits).manifest
        assert manifest["family"] == ("postprocess" if family == "postprocess"
                                      else "gbm_hyperparameters")
        assert manifest["favorable_sign"] == -1
        assert manifest["splits"] == dict(zip(("train", "holdout", "test"),
                                              (split.n_rows for split in splits)))

    @pytest.mark.parametrize("family, evaluation", list(_EVALUATION.items()))
    def test_each_distinct_vector_is_scored_once(self, m1_setup, small_splits, monkeypatch,
                                                 tmp_path, family, evaluation):
        """Every proposal repeats the first prior vector, so only the prior is
        evaluated, and each repeat carries the first prior point's numbers.
        Calls are counted across processes, one line per call appended to a
        file, for one and two CPUs; both families fork on two."""
        import fairpost.mitigate as mit

        inner = getattr(mit, evaluation)
        monkeypatch.setattr(mit, "_propose", lambda surrogate, rng, lo, hi, xs, ys: xs[0])
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            log = tmp_path / f"calls-{cpus}"
            with _calls_logged(inner, log) as counted:
                monkeypatch.setattr(mit, evaluation, counted)
                fr = _search(family, m1_setup, small_splits, n_prior=3, n_bo=2)
            pids = log.read_text().split()
            assert len(pids) == 3
            assert len(set(pids)) == cpus
            assert len(fr.points) == 3 + 2 * 2
            for points in (fr.points, fr.holdout_points):
                first = points[0]
                for repeat in points[3:]:
                    assert repeat.omega is not None and repeat.gamma == first.gamma
                    assert (repeat.bias, repeat.loss) == (first.bias, first.loss)

    @pytest.mark.parametrize("calibration, calls", [(None, 4), ("link_linear", 5)])
    def test_base_holdout_scored_only_for_a_calibration_fit(self, m1_setup, monkeypatch,
                                                             tmp_path, calibration, calls):
        """Two points score the holdout and test splits twice each; the base
        model's holdout scores are added only for a calibration fit to read.
        Model calls are counted across processes, one line per call appended
        to a file, for one and two CPUs."""
        _, train, holdout, test = m1_setup
        base = train_logistic(train.x, train.y)
        space = transform_search_space((0, 2), "global", omegas=(0.0,), n_prior=2, n_bo=0,
                                       seed=3)
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            log = tmp_path / f"calls-{cpus}"
            with _calls_logged(base, log) as counting:
                run_algorithm1(counting, train, holdout, test, (0, 2), space,
                               favorable_sign=-1, calibration=calibration)
            assert len(log.read_text().split()) == calls


def _cpus(monkeypatch, n):
    """Give this process an affinity mask of ``n`` CPUs, the count the
    frontier search reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@contextlib.contextmanager
def _calls_logged(fn, log):
    """``fn``, wrapped to append one line, its caller's pid, to the file
    ``log`` at each call, in whichever process makes it."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counted(*args, **kwargs):
        os.write(fd, b"%d\n" % os.getpid())
        return fn(*args, **kwargs)

    try:
        yield counted
    finally:
        os.close(fd)


def _fail_in(where, error, family):
    """The family's evaluation (``_EVALUATION``), raising ``error`` in the
    child processes, or in this one, and evaluating elsewhere."""
    import fairpost.mitigate as mit

    parent, inner = os.getpid(), getattr(mit, _EVALUATION[family])

    def evaluate(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise error("fit failed")
        return inner(*args, **kwargs)

    return evaluate


# every transform kind and calibration method of Algorithm 1, with both model-based surrogates
_POSTPROCESS_CASES = [
    pytest.param("postprocess", {"transform_kind": kind, "calibration": calibration,
                                 "surrogate": surrogate},
                 id=f"postprocess-{kind}-{calibration}-{surrogate}")
    for kind in ("global", "asymmetric", "local")
    for calibration in (None, "link_linear", "pava", "logistic_refit")
    for surrogate in ("tpe", "gp")]
_PARTITIONS = {"sp": PartitionSpec.all_rows(), "eo": PartitionSpec.by_label()}


class TestForkedWorkers:
    """Both families deal their evaluations to one forked worker per CPU."""

    @pytest.mark.parametrize("family, kwargs", [
        *(pytest.param("baseline", {"surrogate": surrogate, "partition": _PARTITIONS[partition]},
                       id=f"{surrogate}-{partition}")
          for surrogate in ("gp", "tpe") for partition in ("eo", "sp")),
        *_POSTPROCESS_CASES])
    def test_outputs_identical_for_one_and_two_cpus(self, m1_setup, small_splits, tmp_path,
                                                    monkeypatch, family, kwargs):
        outputs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            frontier = _search(family, m1_setup, small_splits, **kwargs)
            frontier.to_csv(tmp_path / f"{cpus}.csv")
            outputs.append(((tmp_path / f"{cpus}.csv").read_bytes(),
                            json.dumps(frontier.manifest, sort_keys=True)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("family, error, code, prefix", [
        pytest.param(family, error, code, prefix,
                     id=f"{error.__name__}-{code}-{prefix}" if family == "baseline"
                     else f"postprocess-{error.__name__}-{code}-{prefix}")
        for family in ("baseline", "postprocess")
        for error, code, prefix in ((ValueError, 2, "error"),
                                    (FloatingPointError, 3, "numerical failure"))])
    def test_child_error_keeps_type_message_and_exit_code(self, m1_setup, small_splits,
                                                          tmp_path, monkeypatch, capsys, family,
                                                          error, code, prefix):
        import fairpost.mitigate as mit

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(mit, _EVALUATION[family], _fail_in("child", error, family))
        with pytest.raises(error) as info:
            _search(family, m1_setup, small_splits)
        assert type(info.value) is error and str(info.value) == "fit failed"
        data, model = tmp_path / "data.csv", m1_setup[0]
        small_splits[0].to_csv(data)
        search = ["--n-prior", "4", "--n-bo", "1", "--omega-steps", "2",
                  "--out", str(tmp_path / "out.csv")]
        if family == "baseline":
            argv = ["compare-baseline", "--data", str(data), *search]
        else:
            (tmp_path / "model.json").write_text(model.to_json())
            argv = ["mitigate", "--data", str(data), "--model", str(tmp_path / "model.json"),
                    "--predictors", "x1,x3", *search]
        assert main(argv) == code
        assert capsys.readouterr().err == f"{prefix}: fit failed\n"

    @pytest.mark.parametrize("family", ["baseline", "postprocess"])
    def test_child_warnings_are_reissued_in_serial_order(self, m1_setup, small_splits,
                                                         monkeypatch, family):
        """Every proposal's surrogate fails and falls back with a warning; the
        second omega loop runs in the child."""
        import fairpost.mitigate as mit

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular surrogate")

        monkeypatch.setattr(mit, "_tpe_propose", broken)
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                frontier = _search(family, m1_setup, small_splits)
            runs.append(([(str(w.message), w.category, w.filename, w.lineno) for w in caught],
                         [(p.bias, p.loss, p.gamma) for p in frontier.points]))
        assert len(runs[0][0]) == 2 * 2 and "falling back" in runs[0][0][0][0]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("family, outcome", [
        pytest.param(family, outcome,
                     id=outcome if family == "baseline" else f"postprocess-{outcome}")
        for family in ("baseline", "postprocess")
        for outcome in ("success", "child raises", "parent raises")])
    def test_no_child_outlives_the_search(self, m1_setup, small_splits, monkeypatch, family,
                                          outcome):
        import fairpost.mitigate as mit

        _cpus(monkeypatch, 2)
        if outcome == "success":
            _search(family, m1_setup, small_splits)
        else:
            monkeypatch.setattr(mit, _EVALUATION[family],
                                _fail_in(outcome.split()[0], ValueError, family))
            with pytest.raises(ValueError, match="^fit failed$"):
                _search(family, m1_setup, small_splits)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("family", ["baseline", "postprocess"])
    def test_one_fork_per_search(self, m1_setup, small_splits, monkeypatch, family):
        """On two CPUs the one child serves both phases: the prior vectors and
        the omega loops."""
        forks = []
        fork = os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        _cpus(monkeypatch, 2)
        for _ in range(2):
            _search(family, m1_setup, small_splits)
        assert forks == [os.getpid()] * 2

    @pytest.mark.parametrize("family", ["baseline", "postprocess"])
    def test_child_ending_between_phases(self, m1_setup, small_splits, monkeypatch, family):
        """The child ends in its first omega task, after serving its share of
        the prior: the search raises, and the child has been reaped."""
        import fairpost.mitigate as mit

        parent, propose = os.getpid(), mit._propose

        def ending(*args):
            if os.getpid() != parent:
                os._exit(0)
            return propose(*args)

        monkeypatch.setattr(mit, "_propose", ending)
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^a search worker ended without a result$"):
            _search(family, m1_setup, small_splits)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_worker_without_an_affinity_call(self, small_splits, tmp_path, monkeypatch):
        """Where ``os.sched_getaffinity`` does not exist, the baseline runs in
        this process, with the outputs of a 1-CPU run."""
        def no_fork():
            raise AssertionError("forked")

        def outputs():
            frontier = _search("baseline", None, small_splits)
            frontier.to_csv(tmp_path / "out.csv")
            return (tmp_path / "out.csv").read_bytes(), json.dumps(frontier.manifest,
                                                                   sort_keys=True)

        _cpus(monkeypatch, 1)
        one_cpu = outputs()
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", no_fork)
        assert outputs() == one_cpu

    @pytest.mark.parametrize("case", ["one cpu", "one task per phase", "postprocess"])
    def test_no_fork(self, m1_setup, small_splits, monkeypatch, case):
        """One CPU, or one task in every phase (for Algorithm 1 too), forks nothing."""
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        _cpus(monkeypatch, 1 if case == "one cpu" else 2)
        if case == "one task per phase":
            space = SearchSpace(bounds=(("n_estimators", 5.0, 15.0), ("max_leaves", 4.0, 8.0),
                                        ("max_depth", 2.0, 3.0), ("learning_rate", 0.1, 0.3)),
                                omegas=(0.0,), n_prior=1, n_bo=2, seed=6)
            assert len(run_hyperparam_baseline(*small_splits, space).points) == 3
        elif case == "postprocess":
            assert len(_search("postprocess", m1_setup, small_splits, n_prior=1,
                               omegas=(0.0,)).points) == 3
        else:
            _search("baseline", m1_setup, small_splits)


_CELLS = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf]))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.none(), _CELLS), _CELLS, _CELLS,
                               st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=12))
def test_frontier_csv_round_trip(tmp_path_factory, rows):
    """Every number of a frontier CSV reads back with its bits, ±0.0,
    subnormals and infinities included, and the rows flagged 0 are the
    nondominated set of the pairs read back."""
    points = tuple(FrontierPoint(gamma={"a_x1": a}, bias=bias, loss=loss, omega=omega)
                   for omega, bias, loss, a in rows)
    frontier = Frontier(points, pareto_extract([(p.bias, p.loss) for p in points]))
    path = tmp_path_factory.mktemp("frontier") / "frontier.csv"
    frontier.to_csv(path)
    with open(path, newline="") as fh:
        header, *cells = list(csv.reader(fh))
    assert header == ["omega", "bias", "loss", "dominated_flag", "gamma_json"]
    got = np.array([[np.nan if c == "" else float(c) for c in row[:3]] for row in cells])
    want = np.array([(np.nan if p.omega is None else p.omega, p.bias, p.loss) for p in points])
    assert got.tobytes() == want.tobytes()  # a prior point's empty omega reads as NaN
    assert [json.loads(row[4]) for row in cells] == [p.gamma for p in points]
    assert (tuple(i for i, row in enumerate(cells) if row[3] == "0")
            == pareto_extract(got[:, 1:]) == frontier.frontier_indices)


_TWO_ROWS = Dataset(x=np.zeros((2, 1)), g=np.array([0, 1]), y=np.array([0, 1]),
                    feature_names=("x1",))
# one call per input check, and the whole message it raises
INPUT_CHECKS = {
    "negative n_bo": (lambda: SearchSpace(bounds=(("a", 0.5, 2.0),), omegas=(0.0,), n_prior=1,
                                          n_bo=-1),
                      "n_bo must be >= 0"),
    "unknown surrogate": (lambda: run_hyperparam_baseline(
        _TWO_ROWS, _TWO_ROWS, _TWO_ROWS,
        SearchSpace(bounds=(("n_estimators", 1.0, 2.0),), omegas=(0.0,), n_prior=1, n_bo=0),
        surrogate="bogus"), "unknown surrogate 'bogus'"),
    "no holdout points": (lambda: best_gamma_at_omega(Frontier(points=(), frontier_indices=())),
                          "frontier carries no holdout evaluations"),
}


class TestInputChecks:
    @pytest.mark.parametrize("check", INPUT_CHECKS)
    def test_message(self, check):
        assert_value_error(*INPUT_CHECKS[check])

    @pytest.mark.parametrize("indices, shown", [
        ((0.7, 2.9), "0.7"), ((True,), "True"), ((0, "1"), "'1'"),
        ((np.float64(2.0),), "np.float64(2.0)"),
    ], ids=["fractions", "boolean", "string", "numpy-float"])
    def test_non_integer_predictor_indices_are_refused(self, indices, shown):
        """A library caller's index is refused, not truncated to another column."""
        data = generate(SyntheticSpec("M1", 200, seed=3))
        train, holdout, test = split_dataset(data, seed=3)
        model = train_logistic(train.x, train.y)
        space = transform_search_space((0, 2), "global", n_prior=2, n_bo=0)
        message = f"predictor index {shown} is not an integer"
        assert_value_error(lambda: run_algorithm1(model, train, holdout, test, indices, space),
                           message)
        assert_value_error(lambda: post_scorer(model, holdout.x, indices), message)
