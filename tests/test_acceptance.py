"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured quantity next to its tolerance."""

import time

import numpy as np
import pytest

from fairpost.attribution import shapley_bias_game
from fairpost.bias import model_bias
from fairpost.calibrate import auc, pava_isotonic, sigmoid
from fairpost.explain import marginal_shapley, pdp_output
from fairpost.learn import GbmConfig, SyntheticSpec, generate, log_loss, train_gbm
from fairpost.mitigate import (
    build_calibrated,
    pareto_extract,
    run_algorithm1,
    transform_search_space,
)
from fairpost.attribution import basic_bias_explanations, expected_ibe
from fairpost.transform import (
    CompressiveParams,
    PredictorTransform,
    build_postprocessed,
    focal_point,
)

from helpers import (brute_force_half_bias, brute_force_isotonic, brute_force_pareto, ks_distance,
                     quantile_w1, wasserstein1)

FAVOR = -1  # lower scores favorable: the orientation of the M1/M2 experiments
M1_IMPACT = (0, 1, 2, 4)  # x1, x2, x3, x5: the criterion-7 impact list
M1_A_BOUNDS = (0.5, 2.0)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {desc}: {status}  {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


@pytest.fixture(scope="module")
def m1_bundle():
    train = generate(SyntheticSpec("M1", 10_000, seed=10))
    holdout = generate(SyntheticSpec("M1", 10_000, seed=11))
    test = generate(SyntheticSpec("M1", 10_000, seed=12))
    model = train_gbm(train.x, train.y, GbmConfig())
    base = model_bias(model(test.x), test.g, favorable_sign=FAVOR)
    return model, train, holdout, test, base


def global_compression(train, indices, a):
    """Global maps over ``indices``; ``a`` is one parameter for all or one
    per predictor."""
    a = np.broadcast_to(np.asarray(a, dtype=float), (len(indices),))
    return CompressiveParams(tuple(
        PredictorTransform(predictor=i, kind="global", params=(float(ai),),
                           focal=focal_point(train.x, i, "mean"),
                           focal_rule="mean")
        for i, ai in zip(indices, a)))


def test_criterion_01_superposition_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 1000
    x0 = np.column_stack([rng.normal(0.0, 1.0, n) for _ in range(4)])
    shifts = (0.6, -0.4, 0.3, 0.1)
    x1 = np.column_stack([rng.normal(shifts[i], 1.0, n) for i in range(4)])
    x = np.vstack([x0, x1])
    g = np.array([0] * n + [1] * n)
    model = lambda z: z[:, 0] * z[:, 1] + z[:, 2] - 0.5 * z[:, 3] + 0.2 * z[:, 3] ** 2

    table = shapley_bias_game(model, x, g, mode="exact", favorable_sign=FAVOR)
    reconstructed = float(np.sum(table.bpp + table.bmp - table.bpm - table.bmm))
    total = model_bias(model(x), g, favorable_sign=FAVOR).total
    gap = abs(reconstructed - total)
    elapsed = time.perf_counter() - started
    report(1, "superposition identity", gap <= 1e-8 and elapsed < 60,
           f"|gap|={gap:.3e} (tol 1e-8), runtime {elapsed:.1f}s (<60s)")


def test_criterion_02_shapley_efficiency():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, (100, 6))
    bg = rng.normal(0.0, 1.0, (50, 6))
    model = lambda z: (z[:, 0] * z[:, 1] * z[:, 2] + np.abs(z[:, 3])
                       - z[:, 4] * z[:, 5] + 0.3 * z[:, 5])
    phi = marginal_shapley(model, x, bg, mode="exact")
    residual = phi.sum(axis=1) + float(np.mean(model(bg))) - model(x)
    worst = float(np.max(np.abs(residual)))
    report(2, "exact Shapley efficiency", worst <= 1e-9,
           f"max residual {worst:.2e} (tol 1e-9) over 100 rows")


def test_criterion_03_w1_gaussian_shift_and_scaling():
    rng = np.random.default_rng(11)
    a = rng.normal(5.0, 1.0, 50_000)
    b = rng.normal(5.5, 1.0, 50_000)
    w = wasserstein1(a, b)
    shift_ok = abs(w - 0.5) <= 0.02 * 0.5 / 0.5  # within 2% of 0.5 -> 0.01

    base = wasserstein1(a, b)
    scaled = wasserstein1(2.5 * a, 2.5 * b)
    scaling_err = abs(scaled - 2.5 * base) / (2.5 * base)
    report(3, "W1 gaussian shift and scaling",
           abs(w - 0.5) <= 0.01 and scaling_err <= 1e-12,
           f"W1={w:.4f} (|err|<=0.01), scaling rel err {scaling_err:.2e}")


def test_criterion_04_separation_example():
    checks = []
    for eps in (0.5, 1e-3, 1e-8):
        checks.append(wasserstein1([eps], [-eps]) == pytest.approx(2 * eps, rel=1e-12))
        checks.append(ks_distance([eps], [-eps]) == 1.0)
        scores = np.array([1.0] * 10 + [0.0] * 10)  # f = 1{x>0} on the two masses
        g = np.array([0] * 10 + [1] * 10)
        checks.append(model_bias(scores, g).total == 1.0)
    report(4, "predictor vs model bias separation", all(checks),
           "W1=2eps, KS=1, model bias=1, all exact")


def test_criterion_05_point_compression_limit(m1_bundle):
    started = time.perf_counter()
    model, train, holdout, test, base = m1_bundle
    params = global_compression(train, range(5), 1000.0)
    fitted, failed = build_calibrated(model, params, holdout)
    post_bias = model_bias(fitted(test.x), test.g, favorable_sign=FAVOR).total
    ratio = post_bias / base.total
    elapsed = time.perf_counter() - started
    report(5, "compress-to-point bias limit", ratio <= 0.01 and elapsed < 120,
           f"bias ratio {ratio:.4f} (tol 0.01), calibration degenerate={failed}, "
           f"runtime {elapsed:.1f}s (<120s)")


def test_criterion_06_u_shaped_curve(m1_bundle):
    model, train, _, test, _ = m1_bundle
    totals, positives = [], []
    for a in range(1, 16):
        params = global_compression(train, (0, 2), float(a))
        post = build_postprocessed(model, params)
        rep = model_bias(post(test.x), test.g, favorable_sign=FAVOR)
        totals.append(rep.total)
        positives.append(rep.positive)
    interior_min = min(totals[1:-1])
    u_ok = interior_min < totals[0] and interior_min < totals[-1]
    violations = sum(1 for i in range(len(positives) - 1)
                     if positives[i + 1] > positives[i] + 1e-12)
    report(6, "U-shaped bias under compression",
           u_ok and violations <= 1,
           f"ends ({totals[0]:.4f}, {totals[-1]:.4f}), interior min {interior_min:.4f}, "
           f"positive-part violations {violations} (<=1)")


@pytest.fixture(scope="module")
def m1_frontier(m1_bundle):
    model, train, holdout, test, base = m1_bundle
    omegas = tuple(np.round(np.arange(0.0, 2.01, 0.2), 10))
    space = transform_search_space(M1_IMPACT, "global", a_bounds=M1_A_BOUNDS,
                                   omegas=omegas, n_prior=200, n_bo=25, seed=5)
    started = time.perf_counter()
    frontier = run_algorithm1(model, train, holdout, test, M1_IMPACT, space,
                              transform_kind="global", focal_rule="mean",
                              favorable_sign=FAVOR)
    return frontier, time.perf_counter() - started


def test_criterion_07a_frontier_dominates_prior(m1_frontier):
    frontier, elapsed = m1_frontier
    prior = [p for p in frontier.points if p.omega is None]
    prior_front = pareto_extract([(p.bias, p.loss) for p in prior])
    dominated = all(
        any(frontier.points[i].bias <= prior[j].bias
            and frontier.points[i].loss <= prior[j].loss
            for i in frontier.frontier_indices)
        for j in prior_front)
    report("7a", "frontier dominates prior-only frontier",
           dominated and elapsed < 900,
           f"{len(prior_front)} prior frontier points covered, "
           f"runtime {elapsed:.0f}s (<900s)")


@pytest.fixture(scope="module")
def m1_half_bias_oracle(m1_bundle):
    """Best loss at half the base bias over a 5-step grid of the frontier's box."""
    model, train, holdout, test, base = m1_bundle
    started = time.perf_counter()
    best = brute_force_half_bias(model, train, holdout, test, M1_IMPACT,
                                 M1_A_BOUNDS, steps=5, bias_cap=0.5 * base.total,
                                 favorable_sign=FAVOR)
    return best, time.perf_counter() - started


def test_criterion_07b_loss_margin_at_half_bias(m1_frontier, m1_half_bias_oracle,
                                                m1_bundle):
    frontier, _ = m1_frontier
    oracle, oracle_s = m1_half_bias_oracle
    model, train, holdout, test, base = m1_bundle
    assert oracle.point is not None, "no grid point reaches half the base bias"

    # the oracle's shortcut must score the same family member as the library
    fitted, _ = build_calibrated(model, global_compression(train, M1_IMPACT, oracle.point),
                                 holdout)
    scores = fitted(test.x)
    drift = max(abs(log_loss(test.y, scores) - oracle.loss),
                abs(model_bias(scores, test.g, favorable_sign=FAVOR).total - oracle.bias))

    omega0_best = min(p.loss for p in frontier.points)
    half = [p for p in frontier.points if p.bias <= 0.5 * base.total]
    loss_at_half = min(p.loss for p in half) if half else float("inf")
    ratio = loss_at_half / oracle.loss
    report("7b", "loss margin at half base bias over the grid oracle",
           ratio <= 1.10 and drift <= 1e-12,
           f"loss {loss_at_half:.4f} vs oracle {oracle.loss:.4f}: ratio "
           f"{ratio:.4f} (tol <=1.10); over omega0 best {omega0_best:.4f}: "
           f"frontier +{100 * (loss_at_half / omega0_best - 1):.1f}%, oracle "
           f"+{100 * (oracle.loss / omega0_best - 1):.1f}%; oracle at a={oracle.point} "
           f"over {oracle.n_points} points in {oracle_s:.0f}s, "
           f"library drift {drift:.1e} (tol 1e-12)")


def test_criterion_08_asymmetric_vs_symmetric(tmp_path):
    train = generate(SyntheticSpec("M2", 10_000, seed=1))
    holdout = generate(SyntheticSpec("M2", 10_000, seed=2))
    test = generate(SyntheticSpec("M2", 10_000, seed=3))
    model = train_gbm(train.x, train.y, GbmConfig())
    base = model_bias(model(test.x), test.g, favorable_sign=FAVOR).total
    impact = (0, 2, 3)
    omegas = tuple(np.round(np.arange(0.0, 2.01, 0.2), 10))
    losses = {}
    for kind in ("global", "asymmetric"):
        # a-range widened beyond the symmetric experiments so both families
        # can actually reach half of the base bias on this data
        space = transform_search_space(impact, kind, a_bounds=(0.5, 6.0),
                                       omegas=omegas, n_prior=200, n_bo=25,
                                       seed=5)
        frontier = run_algorithm1(model, train, holdout, test, impact, space,
                                  transform_kind=kind, favorable_sign=FAVOR)
        out = tmp_path / f"m2_frontier_{kind}.csv"
        frontier.to_csv(out)
        half = [p for p in frontier.points if p.bias <= 0.5 * base]
        losses[kind] = min(p.loss for p in half) if half else float("inf")
        print(f"criterion 8: {kind} frontier CSV at {out} "
              f"(loss at half bias {losses[kind]:.5f})")
    gap = losses["asymmetric"] - losses["global"]
    report(8, "asymmetric beats symmetric at matched bias",
           gap <= 0.002,
           f"asym {losses['asymmetric']:.5f} vs sym {losses['global']:.5f} "
           f"(gap {gap:+.5f}, tol +0.002)")


def test_criterion_09_calibration_auc_and_pava(m1_bundle):
    model, train, holdout, test, _ = m1_bundle
    params = global_compression(train, (0, 2), 1.6)
    uncalibrated = build_postprocessed(model, params)
    calibrated, failed = build_calibrated(model, params, holdout)
    assert not failed
    auc_gap = abs(auc(calibrated(test.x), test.y) - auc(uncalibrated(test.x), test.y))

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        x = rng.normal(0, 1, n)
        y = rng.normal(0, 1, n)
        cal = pava_isotonic(x, y)
        oracle = brute_force_isotonic(x, y)[np.argsort(x, kind="stable")]
        worst = max(worst, float(np.max(np.abs(cal(np.sort(x)) - oracle))))
    report(9, "calibration AUC invariance and PAVA exactness",
           auc_gap <= 1e-12 and worst <= 1e-6,
           f"AUC gap {auc_gap:.2e} (tol 1e-12), PAVA max err {worst:.2e} (tol 1e-6)")


def test_criterion_10_ibe_formulas():
    rng = np.random.default_rng(2)
    n = 10_000  # per class; 20k rows total
    shifts = (0.7, 0.3, 0.5)
    x1 = np.concatenate([rng.normal(0, 1, n), rng.normal(shifts[0], 1, n)])
    # near-unit |X2| keeps the anchor average of |x2| tight
    rad = rng.choice([-1.0, 1.0], size=2 * n)
    x2 = rad + shifts[1] * np.concatenate([np.zeros(n), np.ones(n)])
    x3 = np.concatenate([rng.normal(0, 1, n), rng.normal(shifts[2], 1, n)])
    x = np.column_stack([x1, x2, x3])
    g = np.array([0] * n + [1] * n)

    def model(z):
        return 0.2 * z[:, 0] - 5.0 * z[:, 1] + 10.0 * z[:, 1] * (z[:, 2] >= 0)

    def predictor_bias(col):
        return quantile_w1(col[g == 0], col[g == 1])

    expected = (
        0.2 * predictor_bias(x[:, 0]),
        5.0 * predictor_bias(x[:, 1]),
        10.0 * float(np.mean(np.abs(x[:, 1]))) * predictor_bias((x[:, 2] >= 0).astype(float)),
    )
    errs = []
    for i in range(3):
        beta, _, _ = expected_ibe(model, x, g, i, n_anchors=200, seed=3)
        errs.append(abs(beta - expected[i]) / expected[i])
    report(10, "appendix IBE product formulas", max(errs) <= 0.03,
           "rel errs " + ", ".join(f"{e:.4f}" for e in errs) + " (tol 0.03)")


def test_criterion_11_additive_coincidence():
    rng = np.random.default_rng(3)
    n = 5000
    x0 = np.column_stack([rng.normal(0, 1, n), rng.normal(0, 1.4, n),
                          rng.normal(0, 1, n)])
    x1 = np.column_stack([rng.normal(0.5, 1, n), rng.normal(-0.4, 1.4, n),
                          rng.normal(0.2, 1, n)])
    x = np.vstack([x0, x1])
    g = np.array([0] * n + [1] * n)
    model = lambda z: np.tanh(z[:, 0]) + 0.5 * z[:, 1] - np.exp(z[:, 2] / 3.0)

    pdp_table = basic_bias_explanations(pdp_output(model, x, x[::20]), g,
                                        favorable_sign=FAVOR)
    ibe_betas = np.array([expected_ibe(model, x, g, i, n_anchors=250, seed=4,
                                       favorable_sign=FAVOR)[0]
                          for i in range(3)])
    rel = np.max(np.abs(ibe_betas - pdp_table.beta) / pdp_table.beta)
    report(11, "additive PDP/IBE coincidence", rel <= 0.02,
           f"max rel gap {rel:.4f} (tol 0.02)")


def test_criterion_12_pareto_matches_oracle():
    rng = np.random.default_rng(4)
    points = rng.random((1000, 2))
    ours = pareto_extract(points)
    oracle = brute_force_pareto(points)
    report(12, "pareto extraction vs brute force", ours == oracle,
           f"{len(ours)} frontier points, identical index sets")
