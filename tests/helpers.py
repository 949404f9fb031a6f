"""Shared test oracles: independent forms of the library's production paths,
and the derived measures (W1 and KS of two samples, classifier and quantile
bias, ICE sections) that only the tests call."""

import csv
import itertools
import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from fairpost.bias import model_bias
from fairpost.calibrate import CalibrationError, link_linear_calibrate, sigmoid
from fairpost.empirical import (EmpiricalDistribution, SignedTransport, _ks,
                                build_distribution, wasserstein1_signed)
from fairpost.explain import marginal_game_values
from fairpost.learn import LOG_LOSS_CLAMP, PRED_CLAMP, Dataset, _Tree, log_loss


def assert_value_error(call, message):
    """``call()`` raises ValueError with exactly ``message``."""
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def riemann_w1(a, b, n_points=100_000):
    """W1 via a uniform Riemann grid over quantile levels."""
    p = (np.arange(n_points) + 0.5) / n_points
    qa = np.quantile(np.asarray(a, dtype=float), p, method="inverted_cdf")
    qb = np.quantile(np.asarray(b, dtype=float), p, method="inverted_cdf")
    return float(np.mean(np.abs(qa - qb)))


def _quantile_segments(d0: EmpiricalDistribution, d1: EmpiricalDistribution):
    """Pooled probability breakpoints and the quantile gap on each segment.

    Returns (lengths, q0 - q1) where each segment (p_k, p_{k+1}] has constant
    quantiles for both distributions; quantiles are evaluated at the right
    endpoint since Q is left-continuous.
    """
    breaks = np.union1d(d0.cum_weights, d1.cum_weights)
    breaks = breaks[(breaks > 0.0) & (breaks <= 1.0)]
    lengths = np.diff(np.concatenate(([0.0], breaks)))
    i0 = np.minimum(np.searchsorted(d0.cum_weights, breaks, side="left"), d0.n_atoms - 1)
    i1 = np.minimum(np.searchsorted(d1.cum_weights, breaks, side="left"), d1.n_atoms - 1)
    return lengths, d0.values[i0] - d1.values[i1]


def quantile_w1(a, b) -> float:
    """Exact W1 between samples ``a`` and ``b`` in quantile form,
    ``integral |Q0 - Q1| dp`` over the pooled probability breakpoints."""
    lengths, gap = _quantile_segments(build_distribution(a), build_distribution(b))
    return float(np.sum(lengths * np.abs(gap)))


def quantile_w1_signed(a, b, favorable_sign: int) -> SignedTransport:
    """W1 in quantile form, decomposed over the quantiles where the signed
    quantile gap ``(Q0 - Q1) * favorable_sign`` is positive or negative."""
    if favorable_sign not in (-1, 1):
        raise ValueError("favorable_sign must be -1 or +1")
    lengths, gap = _quantile_segments(build_distribution(a), build_distribution(b))
    signed = gap * favorable_sign
    pos = float(np.sum(lengths * np.maximum(signed, 0.0)))
    neg = float(np.sum(lengths * np.maximum(-signed, 0.0)))
    return SignedTransport(total=pos + neg, positive_part=pos, negative_part=neg)


def wasserstein1(a, b) -> float:
    """Exact W1 between samples ``a`` and ``b``: the total of the library's
    signed transport."""
    return wasserstein1_signed(a, b, 1).total


def ks_distance(a, b) -> float:
    """Kolmogorov-Smirnov distance between samples ``a`` and ``b``, from the
    CDF gap whose location the ``ks_argmax`` focal point reads."""
    return _ks(a, b)[0]


def _class_scores(scores, g):
    """The class-0 and class-1 scores of an all-rows cell."""
    scores, g = np.asarray(scores, dtype=float), np.asarray(g)
    return scores[g == 0], scores[g == 1]


def classifier_bias(scores, g, threshold: float, favorable_sign: int = 1) -> float:
    """Signed statistical-parity bias of the thresholded classifier:
    ``(F1(t) - F0(t)) * sign``, whose integral over ``t`` is the model bias."""
    s0, s1 = _class_scores(scores, g)
    f0 = build_distribution(s0).cdf(threshold)
    f1 = build_distribution(s1).cdf(threshold)
    return float((f1 - f0) * favorable_sign)


def quantile_bias(scores, g, p: float, favorable_sign: int = 1) -> float:
    """Signed p-th quantile bias ``(Q0(p) - Q1(p)) * sign`` for p in (0, 1),
    whose integral over ``p`` is the model bias."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    s0, s1 = _class_scores(scores, g)
    q0 = build_distribution(s0).quantile(p)
    q1 = build_distribution(s1).quantile(p)
    return float((q0 - q1) * favorable_sign)


def argsort_signed_transport(values, labels, favorable_sign: int):
    """Signed W1 and KS of the ``labels == 0`` and ``labels == 1`` values in
    the argsort form that the key sort replaced: ``argsort``, a gather of
    the values and of the labels, and the integer gap ``c1 * n0 - c0 * n1``.
    Returns ``(SignedTransport, KS distance, KS location)``."""
    values, labels = np.asarray(values, dtype=float), np.asarray(labels)
    n1 = int(np.count_nonzero(labels))
    n0 = values.size - n1
    order = np.argsort(values)
    c1 = np.cumsum(labels[order])
    c0 = np.arange(1, values.size + 1) - c1
    v, gap, n01 = values[order], c1 * n0 - c0 * n1, n0 * n1
    dv = np.diff(v)
    pos = float(np.sum(np.maximum(gap[:-1], 0) * dv)) / n01
    neg = float(np.sum(np.maximum(-gap[:-1], 0) * dv)) / n01
    if favorable_sign == -1:
        pos, neg = neg, pos
    ends = np.flatnonzero(np.append(v[1:] != v[:-1], True))
    k = ends[np.argmax(np.abs(gap[ends]))]
    return (SignedTransport(total=pos + neg, positive_part=pos, negative_part=neg),
            float(abs(gap[k])) / n01, float(v[k]))


# finite floats with the cases a sort of bit-pattern keys must get right: both
# zeros, subnormals and the smallest normals of each sign, and small integers for ties
FINITE_VALUES = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 1e-310, -1e-310, 1.0, -1.0, 0.5, -0.5]),
    st.integers(-3, 3).map(float),
)


def labelled(draw, *groups):
    """The values of each group, shuffled together, and each one's group index;
    ``draw`` is the hypothesis draw of a composite strategy."""
    values = [v for group in groups for v in group]
    index = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    order = np.array(draw(st.permutations(range(len(values)))), dtype=np.intp)
    return np.array(values, dtype=float)[order], index[order]


def same_bits(got: float, want: float) -> bool:
    """Equal float64 bit patterns, with +0.0 and -0.0 taken as one: the
    argsort form's sign of a zero follows where the sort leaves tied zeros."""
    return np.float64(got + 0.0).tobytes() == np.float64(want + 0.0).tobytes()


def two_log_loss(y, scores) -> float:
    """Mean binomial deviance with both logs, ``-mean(y log s + (1 - y)
    log(1 - s))``, scores clamped as ``log_loss`` clamps them."""
    y = np.asarray(y, dtype=float)
    s = np.clip(np.asarray(scores, dtype=float), LOG_LOSS_CLAMP, 1.0 - LOG_LOSS_CLAMP)
    return float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))


def grid_ks(a, b) -> tuple[float, float]:
    """KS distance between samples ``a`` and ``b`` from the step CDFs on the
    union grid of their atoms, and the first grid point attaining it."""
    d0, d1 = build_distribution(a), build_distribution(b)
    grid = np.union1d(d0.values, d1.values)
    gaps = np.abs(d0.cdf(grid) - d1.cdf(grid))
    k = int(np.argmax(gaps))
    return float(gaps[k]), float(grid[k])


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


def sigmoid_masked(z):
    """The logistic function by boolean masks: ``1 / (1 + exp(-z))`` where
    z >= 0 and ``exp(z) / (1 + exp(z))`` elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def asymmetric_one_line(t, a_minus, a_plus, t_star):
    """The asymmetric map as one expression of full-length temporaries."""
    d = np.asarray(t, dtype=float) - t_star
    return np.minimum(d, 0.0) / a_minus + np.maximum(d, 0.0) / a_plus + t_star


def gp_expected_improvement_scipy(rng, lo, hi, xs, ys, n_candidates):
    """The GP surrogate's candidates (in the search box) and their expected
    improvements, with scipy's triangular solves and normal cdf and pdf;
    ``rng`` draws the candidates as ``mitigate._gp_propose`` does."""
    from scipy.linalg import solve_triangular
    from scipy.stats import norm

    span = np.maximum(hi - lo, 1e-12)
    xn = (xs - lo) / span
    yn = (ys - np.mean(ys)) / max(float(np.std(ys)), 1e-12)

    def kernel(a, b):
        return np.exp(-0.5 * ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1) / 0.04)

    chol = np.linalg.cholesky(kernel(xn, xn) + 1e-6 * np.eye(xn.shape[0]))
    alpha = solve_triangular(chol.T, solve_triangular(chol, yn, lower=True), lower=False)
    cands = rng.uniform(0.0, 1.0, size=(n_candidates, lo.size))
    ks = kernel(cands, xn)
    v = solve_triangular(chol, ks.T, lower=True)
    sd = np.sqrt(np.maximum(1.0 - (v * v).sum(axis=0), 1e-12))
    z = (np.min(yn) - ks @ alpha) / sd
    return lo + cands * span, sd * (z * norm.cdf(z) + norm.pdf(z))


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


def train_gbm_direct(x, y, config, favorable_sign=1):
    """Model JSON of ``train_gbm`` grown the slow way: every node sorts each
    column of its own rows with a stable ``argsort`` and scans the cuts one
    feature at a time.  A split takes the first feature whose best gain beats
    the best so far by more than 1e-12, and the midpoint of the two values
    around its cut unless that midpoint falls outside ``[lower, upper)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y).ravel().astype(int)
    min_leaf = config.min_samples_leaf

    def best_split(rows, grad, hess):
        g_total, h_total = grad[rows].sum(), hess[rows].sum()
        parent = g_total * g_total / max(h_total, 1e-12)
        best = (0.0, -1, 0.0)
        n = rows.size
        for j in range(x.shape[1]):
            col = x[rows, j]
            order = np.argsort(col, kind="stable")
            cs = col[order]
            gs = np.cumsum(grad[rows][order])
            hs = np.cumsum(hess[rows][order])
            k = np.arange(1, n)
            valid = (cs[1:] > cs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
            if not np.any(valid):
                continue
            gl, hl = gs[:-1][valid], hs[:-1][valid]
            gr, hr = g_total - gl, h_total - hl
            gain = (gl * gl / np.maximum(hl, 1e-12)
                    + gr * gr / np.maximum(hr, 1e-12) - parent)
            pick = int(np.argmax(gain))
            if gain[pick] > best[0] + 1e-12:
                cut = np.flatnonzero(valid)[pick]
                lower, upper = float(cs[cut]), float(cs[cut + 1])
                mid = 0.5 * (lower + upper)
                best = (float(gain[pick]), j, mid if lower <= mid < upper else lower)
        return best

    p_mean = float(np.mean(y))
    init = float(np.log(p_mean / (1.0 - p_mean)))
    z = np.full(x.shape[0], init)
    trees = []
    for _ in range(config.n_estimators):
        prob = sigmoid(z)
        grad = prob - y
        hess = np.maximum(prob * (1.0 - prob), 1e-12)
        nodes = []  # [feature, threshold, left, right, value, rows]
        frontier = []

        def add(rows, depth):
            nodes.append([-1, 0.0, -1, -1,
                          -grad[rows].sum() / max(hess[rows].sum(), 1e-12), rows])
            if depth < config.max_depth:
                gain, feat, thr = best_split(rows, grad, hess)
                if feat >= 0:
                    frontier.append((gain, len(nodes) - 1, feat, thr, depth + 1))
            return len(nodes) - 1

        add(np.arange(x.shape[0]), 0)
        n_leaves = 1
        while frontier and n_leaves < config.max_leaves:
            frontier.sort(key=lambda item: (-item[0], item[1]))
            _, node, feat, thr, depth = frontier.pop(0)
            rows = nodes[node][5]
            go_left = x[rows, feat] <= thr
            nodes[node][:2] = feat, thr
            nodes[node][2] = add(rows[go_left], depth)
            nodes[node][3] = add(rows[~go_left], depth)
            n_leaves += 1
        for nd in nodes:
            if nd[0] < 0:
                z[nd[5]] += config.learning_rate * nd[4]
        trees.append({key: [float(nd[k]) if key in ("threshold", "value") else int(nd[k])
                            for nd in nodes]
                      for k, key in enumerate(("feature", "threshold", "left", "right",
                                               "value"))})
    return json.dumps({"kind": "gbm", "favorable_sign": favorable_sign,
                       "init_score": init, "learning_rate": config.learning_rate,
                       "trees": trees})


def random_tree(rng, n_leaves, max_depth, n_features, next_threshold):
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


def shapley_by_orderings(worth, p: int) -> np.ndarray:
    """Shapley values as the average, over all p! orderings of the players,
    of each player's marginal contribution when it joins.

    ``worth(coalition)`` takes a frozenset of players and returns a scalar
    or an array; players go on the last axis of the result.
    """
    orders = list(itertools.permutations(range(p)))
    phi = np.zeros(np.shape(worth(frozenset())) + (p,))
    for order in orders:
        members = set()
        before = np.asarray(worth(frozenset()), dtype=float)
        for i in order:
            members.add(i)
            after = np.asarray(worth(frozenset(members)), dtype=float)
            phi[..., i] += after - before
            before = after
    return phi / len(orders)


def ice_explainer(model, x, predictor_index: int, anchor_row):
    """Section ``t -> model(t at position i, anchor elsewhere)``, a scalar for
    a scalar ``t`` and an array otherwise: the single-predictor section whose
    bias, averaged over anchors, is the expected IBE."""
    x = np.asarray(x, dtype=float)
    if not 0 <= predictor_index < x.shape[1]:
        raise ValueError(f"predictor index {predictor_index} out of range")
    anchor = np.array(anchor_row, dtype=float).reshape(1, -1)
    if anchor.shape[1] != x.shape[1]:
        raise ValueError("anchor row has wrong number of predictors")

    def section(t):
        # the game value of the anchor as a one-row background
        t = np.asarray(t, dtype=float)
        grid = np.zeros((t.size, anchor.shape[1]))
        grid[:, predictor_index] = t.ravel()
        out = marginal_game_values(model, grid, anchor, [predictor_index])
        return float(out[0]) if t.ndim == 0 else out

    return section


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


def read_csv_direct(path) -> Dataset:
    """A dataset CSV read with the csv module and ``float()`` per cell, the
    grammar of ``Dataset.from_csv`` before it parsed in bulk (``float()``
    also takes digit-group underscores such as ``1_5``).  Raises ValueError
    on the same files, with its own messages."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[-2:] != ["g", "y"]:
            raise ValueError("dataset CSV must start with a header ending in columns g,y")
        if len(set(header)) < len(header):
            raise ValueError("dataset CSV header names a column twice")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError("dataset CSV has no rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError("every row of a dataset CSV must have as many cells as its header")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isin(data[:, -2:], (0.0, 1.0))):
        raise ValueError("dataset CSV columns g and y must hold 0 or 1")
    return Dataset(x=data[:, :-2], g=data[:, -2].astype(int), y=data[:, -1].astype(int),
                   feature_names=tuple(header[:-2]))


def pack_direct(trees, learning_rate):
    """The fields of ``_PackedTrees.pack(trees, learning_rate)``, as a tuple,
    built one tree and one node at a time with a recursive in-order walk.
    Features are the columns split on, ascending; the tuple holds their
    thresholds, then their columns, then the other arrays."""
    columns = sorted({int(f) for t in trees for f in t.feature if f >= 0})
    thresholds = tuple(
        np.unique(np.concatenate([t.threshold[t.feature == f] for t in trees]))
        for f in columns)
    code_dtype = np.min_scalar_type(max((th.size for th in thresholds), default=0))

    def in_order(tree):
        leaves, splits = [], []

        def walk(node):
            if tree.feature[node] < 0:
                leaves.append(node)
                return
            first = len(leaves)
            walk(tree.left[node])
            splits.append((node, first, len(leaves)))
            walk(tree.right[node])

        walk(0)
        return leaves, splits

    layouts = [in_order(t) for t in trees]
    n_leaves = max((len(leaves) for leaves, _ in layouts), default=1)
    n_nodes = max((len(splits) for _, splits in layouts), default=0)
    mask_dtype = np.min_scalar_type((1 << n_leaves) - 1)
    feature = np.zeros((n_nodes, len(trees)), dtype=np.intp)
    rank = np.zeros((n_nodes, len(trees)), dtype=code_dtype)
    clear = np.zeros((n_nodes, len(trees)), dtype=mask_dtype)
    leaf = np.zeros((len(trees), n_leaves))
    for t, (tree, (leaves, splits)) in enumerate(zip(trees, layouts)):
        leaf[t, :len(leaves)] = learning_rate * tree.value[leaves]
        for k, (node, first, stop) in enumerate(splits):
            f = columns.index(int(tree.feature[node]))
            feature[k, t] = f
            rank[k, t] = np.searchsorted(thresholds[f], tree.threshold[node])
            clear[k, t] = (1 << stop) - (1 << first)
    return thresholds, tuple(columns), feature, rank, clear, leaf


__all__ = [
    "wasserstein1", "ks_distance", "classifier_bias", "quantile_bias", "ice_explainer",
    "riemann_w1", "brute_force_isotonic", "brute_force_pareto",
    "brute_force_half_bias", "GridOptimum",
    "additive_shapley", "conditional_game_values", "conditional_shapley",
    "exact_game_shapley", "shapley_by_orderings", "pdp_direct", "marginal_game_values",
    "tree_scores_direct", "train_gbm_direct", "chain_gbm_json", "read_csv_direct",
    "pack_direct",
]
