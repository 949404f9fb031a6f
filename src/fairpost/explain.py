"""Predictor explainers: marginal expectations, marginal Shapley values and
ICE sections.

All explainers treat the model as a black-box callable mapping an ``(n, p)``
array of rows to ``(n,)`` outputs.  Marginal (interventional) game values
``v(S; x) = E_b[f(x_S, b_-S)]`` are estimated on a fixed background sample.
``pair_scores`` scores the pairs (x, b): a boosted-tree model through its own
coalition kernel, bit for bit as on the assembled rows, and any other model
on the assembled rows.  The exact Shapley mode enumerates all coalitions, the
sampled mode averages marginal contributions over antithetic permutation
pairs.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_SHAPLEY_MAX_PREDICTORS = 12
DEFAULT_BACKGROUND_ROWS = 500
_EVAL_CHUNK = 1 << 16  # rows of model input built per chunk


def default_background(x: np.ndarray, seed: int = 0,
                       max_rows: int = DEFAULT_BACKGROUND_ROWS) -> np.ndarray:
    """Fixed-seed subsample of at most ``max_rows`` dataset rows."""
    if max_rows < 1:
        raise ValueError(f"background must hold at least one row, got {max_rows}")
    x = np.asarray(x, dtype=float)
    if x.shape[0] <= max_rows:
        return x.copy()
    rng = np.random.default_rng(seed)
    idx = rng.choice(x.shape[0], size=max_rows, replace=False)
    return x[np.sort(idx)]


def pair_scores(model, x: np.ndarray, background: np.ndarray, subset):
    """Model scores of the rows that take the columns in ``subset`` from a row
    of ``x`` and the others from a row of ``background``.

    Returns ``(inverse, blocks)``: ``blocks`` yields the (m, b) scores of the
    next m representative rows against every background row, and row ``r``
    of ``x`` scores as representative ``inverse[r]``.  A GBM scores through
    ``TrainedModel.coalition_scores``; any other model scores the assembled
    rows, about ``_EVAL_CHUNK`` of them per block, one representative per row.
    """
    if getattr(model, "kind", None) == "gbm":
        return model.coalition_scores(x, background, subset)
    n, b = x.shape[0], background.shape[0]
    rows_per_chunk = max(1, _EVAL_CHUNK // b)

    def blocks():
        for start in range(0, n, rows_per_chunk):
            stop = min(start + rows_per_chunk, n)
            block = np.tile(background, (stop - start, 1))
            for j in subset:
                block[:, j] = np.repeat(x[start:stop, j], b)
            yield np.asarray(model(block), dtype=float).reshape(stop - start, b)

    return np.arange(n), blocks()


def marginal_game_values(model, x: np.ndarray, background: np.ndarray,
                         subset) -> np.ndarray:
    """Per-row marginal game value ``v(S; x) = mean_b model(x_S, b_-S)``."""
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    if background.shape[0] == 0:
        raise ValueError("background must be nonempty")
    n, p = x.shape
    subset = sorted(int(j) for j in subset)
    for j in subset:
        if not 0 <= j < p:
            raise ValueError(f"predictor index {j} out of range")

    if len(subset) == p:
        return np.asarray(model(x), dtype=float)
    if len(subset) == 0:
        return np.full(n, float(np.mean(np.asarray(model(background), dtype=float))))

    inverse, blocks = pair_scores(model, x, background, subset)
    return np.concatenate([block.mean(axis=1) for block in blocks])[inverse]


def pdp_explainer(model, x: np.ndarray, predictor_index: int,
                  background: np.ndarray) -> np.ndarray:
    """Marginal expectation of the model in one predictor, per row."""
    return marginal_game_values(model, x, background, [predictor_index])


def pdp_output(model, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """PDP explainer values for every predictor, ``(rows, predictors)``."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([pdp_explainer(model, x, i, background)
                            for i in range(x.shape[1])])


def exact_shapley(game, p: int) -> np.ndarray:
    """Shapley values of ``game`` by enumerating all coalitions.

    ``game(subset)`` takes the sorted list of players in a coalition and
    returns its worth, a scalar or an array; players go on the last axis of
    the result.  A coalition of size s not containing i weighs
    s!(p-s-1)!/p!.
    """
    v = [np.asarray(game([j for j in range(p) if mask >> j & 1]), dtype=float)
         for mask in range(1 << p)]
    fact = [math.factorial(k) for k in range(p + 1)]
    w = [fact[s] * fact[p - s - 1] / fact[p] for s in range(p)]
    phi = np.zeros(v[0].shape + (p,))
    for i in range(p):
        for mask in range(1 << p):
            if mask >> i & 1:
                continue
            s = bin(mask).count("1")
            phi[..., i] += w[s] * (v[mask | (1 << i)] - v[mask])
    return phi


def sampled_shapley(game, p: int, n_permutations: int, seed: int) -> np.ndarray:
    """Shapley values of ``game`` averaged over ``n_permutations`` orderings
    drawn as antithetic pairs: each random permutation with its reverse.

    ``game`` is called once per distinct coalition, with its players in the
    order they joined; its worth may be a scalar or an array, and players go
    on the last axis of the result.
    """
    rng = np.random.default_rng(seed)
    perms = []
    while len(perms) < n_permutations:
        perm = rng.permutation(p)
        perms.append(perm)
        if len(perms) < n_permutations:
            perms.append(perm[::-1])

    cache = {}

    def worth(mask, subset):
        if mask not in cache:
            cache[mask] = np.asarray(game(list(subset)), dtype=float)
        return cache[mask]

    phi = np.zeros(worth(0, []).shape + (p,))
    for perm in perms:
        mask = 0
        subset = []
        prev = worth(0, subset)
        for j in perm:
            mask |= 1 << int(j)
            subset.append(int(j))
            cur = worth(mask, subset)
            phi[..., j] += cur - prev
            prev = cur
    return phi / len(perms)


def _check_mode(mode: str, p: int, n_permutations: int | None, bound: int) -> None:
    """Reject an unknown ``mode``, an exact game over more than ``bound``
    players, or a sampled one without a positive ``n_permutations``."""
    if mode == "exact":
        if p > bound:
            raise ValueError(f"exact mode enumerates 2^p coalitions; p={p} exceeds the "
                             f"bound of {bound}")
    elif mode != "sampled":
        raise ValueError(f"unknown mode '{mode}'")
    elif n_permutations is None or n_permutations < 1:
        raise ValueError("sampled mode requires n_permutations >= 1")


def marginal_shapley(model, x: np.ndarray, background: np.ndarray,
                     mode: str = "exact", n_permutations: int | None = None,
                     seed: int = 0) -> np.ndarray:
    """Shapley values of the marginal game, by enumeration or permutation
    sampling, ``(rows, predictors)``."""
    x = np.asarray(x, dtype=float)
    p = x.shape[1]

    def game(subset):
        return marginal_game_values(model, x, background, subset)

    _check_mode(mode, p, n_permutations, EXACT_SHAPLEY_MAX_PREDICTORS)
    return (exact_shapley(game, p) if mode == "exact"
            else sampled_shapley(game, p, n_permutations, seed))


def ice_explainer(model, x: np.ndarray, predictor_index: int, anchor_row: np.ndarray):
    """Section ``t -> model(t at position i, anchor elsewhere)``, a scalar for
    a scalar ``t`` and an array otherwise."""
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
