"""Shared test oracles, all independent of the library's production paths."""

import itertools
import json
from typing import NamedTuple

import numpy as np

from fairpost.bias import model_bias
from fairpost.calibrate import CalibrationError, link_linear_calibrate, sigmoid
from fairpost.explain import marginal_game_values
from fairpost.learn import PRED_CLAMP, log_loss


def riemann_w1(a, b, n_points=100_000):
    """W1 via a uniform Riemann grid over quantile levels."""
    p = (np.arange(n_points) + 0.5) / n_points
    qa = np.quantile(np.asarray(a, dtype=float), p, method="inverted_cdf")
    qb = np.quantile(np.asarray(b, dtype=float), p, method="inverted_cdf")
    return float(np.mean(np.abs(qa - qb)))


def brute_force_isotonic(x, y, w=None):
    """Exact weighted isotonic LSQ by enumerating consecutive-block partitions.

    The minimizer assigns each block its weighted mean, so scanning all
    2^(n-1) partitions whose block means are nondecreasing finds the optimum.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if w is None else np.asarray(w, dtype=float)
    order = np.argsort(x, kind="stable")
    y, w = y[order], w[order]
    n = y.size
    best_sse, best_fit = np.inf, None
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        means = [np.average(y[a:b], weights=w[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        if any(m2 < m1 for m1, m2 in zip(means[:-1], means[1:])):
            continue
        fit = np.concatenate([np.full(b - a, m) for (a, b), m in
                              zip(zip(cuts[:-1], cuts[1:]), means)])
        sse = float(np.sum(w * (y - fit) ** 2))
        if sse < best_sse:
            best_sse, best_fit = sse, fit
    out = np.empty(n)
    out[order] = best_fit
    return out


def brute_force_pareto(points):
    """O(n^2) dominance filter under (minimize, minimize)."""
    pts = np.asarray(points, dtype=float)
    keep = []
    for i in range(pts.shape[0]):
        dominated = False
        for j in range(pts.shape[0]):
            if i == j:
                continue
            if (pts[j, 0] <= pts[i, 0] and pts[j, 1] <= pts[i, 1]
                    and (pts[j, 0] < pts[i, 0] or pts[j, 1] < pts[i, 1])):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return tuple(keep)


class GridOptimum(NamedTuple):
    loss: float                   # inf when no grid point meets the bias cap
    bias: float
    point: tuple[float, ...] | None
    n_points: int


def _tree_grid_scorer(model, x, indices, focals, grid):
    """Probability scores of the boosted-tree ``model`` on ``x`` with the
    global map applied to ``indices``, for any point of the product grid.

    Each internal node of a tree owns one bit of a row's code, set when the row
    goes left there.  The bits of a node on a mapped predictor are computed once
    per grid value, those of any other node once; a point's code is their sum,
    and its leaf is a table lookup.  Leaves are added in tree order, as in the
    model's own prediction.  Returns ``scores(point)``, ``point`` a tuple of
    positions in ``grid``.
    """
    trees = model.trees
    if max(int(np.sum(t.feature >= 0)) for t in trees) > 8:
        raise ValueError("the grid scorer takes trees of at most 8 internal nodes")
    n = x.shape[0]
    fixed = np.zeros((len(trees), n), dtype=np.uint8)
    moving = np.zeros((len(indices), len(grid), len(trees), n), dtype=np.uint8)
    columns = [[(x[:, i] - f) / a + f for a in grid] for i, f in zip(indices, focals)]
    tables = np.zeros((len(trees), 256))
    for t, tree in enumerate(trees):
        bit = {int(nd): np.uint8(b) for b, nd in enumerate(np.flatnonzero(tree.feature >= 0))}
        for nd, b in bit.items():
            f, thr = int(tree.feature[nd]), tree.threshold[nd]
            if f in indices:
                k = indices.index(f)
                for j, col in enumerate(columns[k]):
                    moving[k, j, t] |= (col <= thr).astype(np.uint8) << b
            else:
                fixed[t] |= (x[:, f] <= thr).astype(np.uint8) << b
        for code in range(2 ** len(bit)):
            nd = 0
            while tree.feature[nd] >= 0:
                nd = tree.left[nd] if code >> int(bit[nd]) & 1 else tree.right[nd]
            tables[t, code] = model.learning_rate * tree.value[nd]

    def scores(point):
        code = fixed.copy()
        for k, j in enumerate(point):
            code += moving[k, j]
        raw = np.full(n, model.init_score)
        for leaf in np.take_along_axis(tables, code.astype(np.intp), axis=1):
            raw += leaf
        return np.clip(sigmoid(raw), PRED_CLAMP, 1.0 - PRED_CLAMP)

    return scores


def brute_force_half_bias(model, train, holdout, test, indices, a_bounds, steps,
                          bias_cap, favorable_sign=1):
    """Lowest test loss of the global post-processed family on a full grid,
    among grid points whose test bias is at most ``bias_cap``.

    Every predictor in ``indices`` gets ``steps`` evenly spaced compression
    parameters over ``a_bounds``.  Each point applies the global map
    ``(t - mean)/a + mean`` (means from ``train``) itself, scores the
    boosted-tree ``model`` through ``_tree_grid_scorer``, fits the logit-linear
    calibration against the base model's holdout scores (scored once), and
    scores the calibrated model on ``test``; a failed fit leaves the point
    uncalibrated, as in the library.
    """
    indices = tuple(indices)
    focals = [float(np.mean(train.x[:, i])) for i in indices]
    base_holdout = np.asarray(model(holdout.x), dtype=float)
    grid = np.linspace(a_bounds[0], a_bounds[1], steps)
    post_holdout = _tree_grid_scorer(model, holdout.x, indices, focals, grid)
    post_test = _tree_grid_scorer(model, test.x, indices, focals, grid)

    n_points = steps ** len(indices)
    best = GridOptimum(np.inf, np.inf, None, n_points)
    for point in itertools.product(range(steps), repeat=len(indices)):
        scores = post_test(point)
        try:
            calib = link_linear_calibrate(post_holdout(point), base_holdout)
            scores = calib(scores)
        except CalibrationError:
            pass
        bias = model_bias(scores, test.g, favorable_sign=favorable_sign).total
        loss = log_loss(test.y, scores)
        if bias <= bias_cap and loss < best.loss:
            best = GridOptimum(loss, bias, tuple(float(grid[j]) for j in point),
                               n_points)
    return best


def tree_scores_direct(model, x):
    """Raw scores of a boosted-tree ``model`` after each tree, one row and one
    node at a time: column 0 holds the initial score, column t the score
    after t trees.  A row goes left where ``x[feature] <= threshold``."""
    trees = [(t.feature.tolist(), t.threshold.tolist(), t.left.tolist(),
              t.right.tolist(), t.value.tolist()) for t in model.trees]
    out = np.empty((np.asarray(x).shape[0], len(trees) + 1))
    for r, row in enumerate(np.asarray(x, dtype=float).tolist()):
        z = model.init_score
        out[r, 0] = z
        for t, (feature, threshold, left, right, value) in enumerate(trees, start=1):
            node = 0
            while feature[node] >= 0:
                if row[feature[node]] <= threshold[node]:
                    node = left[node]
                else:
                    node = right[node]
            z += model.learning_rate * value[node]
            out[r, t] = z
    return out


def chain_gbm_json(n_leaves):
    """Model JSON of one boosted tree on x1 with ``n_leaves`` leaves: internal
    node i splits at i, sends its left rows to a leaf and its right rows on."""
    n_split = n_leaves - 1
    right = [i + 1 for i in range(n_split - 1)] + [2 * n_split]
    tree = {"feature": [0] * n_split + [-1] * n_leaves,
            "threshold": [float(i) for i in range(n_split)] + [0.0] * n_leaves,
            "left": [n_split + i for i in range(n_split)] + [-1] * n_leaves,
            "right": right + [-1] * n_leaves,
            "value": [0.0] * n_split + [0.01 * i for i in range(n_leaves)]}
    return json.dumps({"kind": "gbm", "favorable_sign": 1, "init_score": 0.0,
                       "learning_rate": 0.1, "trees": [tree]})


def additive_shapley(model_parts, x, background):
    """Exact marginal Shapley for an additive model f = sum f_i(x_i)."""
    x = np.asarray(x, dtype=float)
    bg = np.asarray(background, dtype=float)
    return np.column_stack([
        part(x[:, i]) - np.mean(part(bg[:, i]))
        for i, part in enumerate(model_parts)
    ])


def conditional_game_values(model, x, subset, n_bins=6):
    """Desk-scale empirical conditional game v(S) = E[f | X_S] via binning.

    Bins each coordinate of X_S into quantile bins and averages the model
    over rows sharing a bin combination.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    preds = np.asarray(model(x), dtype=float)
    subset = sorted(subset)
    if not subset:
        return np.full(n, preds.mean())
    codes = np.zeros(n, dtype=int)
    for j in subset:
        edges = np.quantile(x[:, j], np.linspace(0, 1, n_bins + 1)[1:-1])
        codes = codes * (n_bins + 1) + np.searchsorted(edges, x[:, j])
    out = np.empty(n)
    for code in np.unique(codes):
        mask = codes == code
        out[mask] = preds[mask].mean()
    return out


def conditional_shapley(model, x, n_bins=6):
    """Exact-enumeration Shapley values of the empirical conditional game."""
    import math
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    values = {}
    for r in range(p + 1):
        for subset in itertools.combinations(range(p), r):
            values[subset] = conditional_game_values(model, x, subset, n_bins)
    fact = [math.factorial(k) for k in range(p + 1)]
    phi = np.zeros((n, p))
    for i in range(p):
        for subset, v in values.items():
            if i in subset:
                continue
            s = len(subset)
            w = fact[s] * fact[p - s - 1] / fact[p]
            with_i = tuple(sorted(subset + (i,)))
            phi[:, i] += w * (values[with_i] - v)
    return phi


def exact_game_shapley(values: dict, p: int) -> np.ndarray:
    """Shapley values of a scalar coalition game given as {bitmask: value}."""
    import math
    fact = [math.factorial(k) for k in range(p + 1)]
    w = [fact[s] * fact[p - s - 1] / fact[p] for s in range(p)]
    phi = np.zeros(p)
    for i in range(p):
        for mask in range(1 << p):
            if mask >> i & 1:
                continue
            phi[i] += w[bin(mask).count("1")] * (values[mask | 1 << i] - values[mask])
    return phi


def pdp_direct(model, x, background, i):
    """Literal double loop over rows and background for the PDP value."""
    x = np.asarray(x, dtype=float)
    bg = np.asarray(background, dtype=float)
    out = np.zeros(x.shape[0])
    for r in range(x.shape[0]):
        acc = 0.0
        for b in range(bg.shape[0]):
            row = bg[b].copy()
            row[i] = x[r, i]
            acc += float(model(row[None, :])[0])
        out[r] = acc / bg.shape[0]
    return out


__all__ = [
    "riemann_w1", "brute_force_isotonic", "brute_force_pareto",
    "brute_force_half_bias", "GridOptimum",
    "additive_shapley", "conditional_game_values", "conditional_shapley",
    "exact_game_shapley", "pdp_direct", "marginal_game_values",
    "tree_scores_direct", "chain_gbm_json",
]
