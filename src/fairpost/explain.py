"""Predictor explainers: marginal expectations, marginal Shapley values and
ICE sections.

All explainers treat the model as a black-box callable mapping an ``(n, p)``
array of rows to ``(n,)`` outputs.  Marginal (interventional) game values
``v(S; x) = E_b[f(x_S, b_-S)]`` are estimated on a fixed background sample;
the exact Shapley mode enumerates all coalitions, the sampled mode averages
marginal contributions over antithetic permutation pairs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

EXACT_SHAPLEY_MAX_PREDICTORS = 12
DEFAULT_BACKGROUND_ROWS = 500
_EVAL_CHUNK = 1 << 18  # rows of model input built per chunk


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("FAIRPOST_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class ExplainerOutput:
    """Per-row per-predictor attributions from one explainer."""

    per_row_per_predictor: np.ndarray  # (rows, predictors)
    explainer_kind: str                # pdp | marginal_shapley | ice
    background_size: int

    def __post_init__(self):
        if self.explainer_kind not in ("pdp", "marginal_shapley", "ice"):
            raise ValueError(f"unknown explainer kind '{self.explainer_kind}'")
        if not np.all(np.isfinite(self.per_row_per_predictor)):
            raise ValueError("explainer output contains non-finite entries")


def default_background(x: np.ndarray, seed: int = 0,
                       max_rows: int = DEFAULT_BACKGROUND_ROWS) -> np.ndarray:
    """Fixed-seed subsample of at most ``max_rows`` dataset rows."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] <= max_rows:
        return x.copy()
    rng = np.random.default_rng(seed)
    idx = rng.choice(x.shape[0], size=max_rows, replace=False)
    return x[np.sort(idx)]


def marginal_game_values(model, x: np.ndarray, background: np.ndarray,
                         subset) -> np.ndarray:
    """Per-row marginal game value ``v(S; x) = mean_b model(x_S, b_-S)``."""
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    if background.shape[0] == 0:
        raise ValueError("background must be nonempty")
    n, p = x.shape
    b = background.shape[0]
    subset = sorted(int(j) for j in subset)
    for j in subset:
        if not 0 <= j < p:
            raise ValueError(f"predictor index {j} out of range")

    if len(subset) == p:
        return np.asarray(model(x), dtype=float)
    if len(subset) == 0:
        return np.full(n, float(np.mean(np.asarray(model(background), dtype=float))))

    rows_per_chunk = max(1, _EVAL_CHUNK // b)
    chunks = [(start, min(start + rows_per_chunk, n)) for start in range(0, n, rows_per_chunk)]

    def eval_chunk(bounds):
        start, stop = bounds
        block = np.tile(background, (stop - start, 1))
        for j in subset:
            block[:, j] = np.repeat(x[start:stop, j], b)
        return np.asarray(model(block), dtype=float).reshape(stop - start, b).mean(axis=1)

    threads = _thread_count()
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(eval_chunk, chunks))
    else:
        parts = [eval_chunk(c) for c in chunks]
    return np.concatenate(parts)


def pdp_explainer(model, x: np.ndarray, predictor_index: int,
                  background: np.ndarray) -> np.ndarray:
    """Marginal expectation of the model in one predictor, per row."""
    return marginal_game_values(model, x, background, [predictor_index])


def pdp_output(model, x: np.ndarray, background: np.ndarray) -> ExplainerOutput:
    """PDP explainer values for every predictor."""
    x = np.asarray(x, dtype=float)
    cols = [pdp_explainer(model, x, i, background) for i in range(x.shape[1])]
    return ExplainerOutput(per_row_per_predictor=np.column_stack(cols),
                           explainer_kind="pdp",
                           background_size=int(np.asarray(background).shape[0]))


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


def marginal_shapley(model, x: np.ndarray, background: np.ndarray,
                     mode: str = "exact", n_permutations: int | None = None,
                     seed: int = 0) -> ExplainerOutput:
    """Shapley values of the marginal game, by enumeration or permutation
    sampling."""
    x = np.asarray(x, dtype=float)
    p = x.shape[1]

    def game(subset):
        return marginal_game_values(model, x, background, subset)

    if mode == "exact":
        if p > EXACT_SHAPLEY_MAX_PREDICTORS:
            raise ValueError(
                f"exact mode enumerates 2^p coalitions; p={p} exceeds the "
                f"bound of {EXACT_SHAPLEY_MAX_PREDICTORS}")
        phi = exact_shapley(game, p)
    elif mode == "sampled":
        if n_permutations is None or n_permutations < 1:
            raise ValueError("sampled mode requires n_permutations >= 1")
        phi = sampled_shapley(game, p, n_permutations, seed)
    else:
        raise ValueError(f"unknown mode '{mode}'")
    return ExplainerOutput(per_row_per_predictor=phi, explainer_kind="marginal_shapley",
                           background_size=int(np.asarray(background).shape[0]))


class IceSection:
    """Model section in one predictor at a fixed anchor of the others."""

    def __init__(self, model, anchor: np.ndarray, predictor_index: int):
        self._model = model
        self._anchor = np.asarray(anchor, dtype=float).copy()
        self._index = predictor_index

    def __call__(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        grid = np.atleast_1d(t)
        block = np.tile(self._anchor, (grid.size, 1))
        block[:, self._index] = grid
        out = np.asarray(self._model(block), dtype=float)
        return float(out[0]) if scalar else out


def ice_explainer(model, x: np.ndarray, predictor_index: int,
                  anchor_row: np.ndarray) -> IceSection:
    """Section ``t -> model(t at position i, anchor elsewhere)``."""
    x = np.asarray(x, dtype=float)
    if not 0 <= predictor_index < x.shape[1]:
        raise ValueError(f"predictor index {predictor_index} out of range")
    anchor = np.asarray(anchor_row, dtype=float).ravel()
    if anchor.size != x.shape[1]:
        raise ValueError("anchor row has wrong number of predictors")
    return IceSection(model, anchor, predictor_index)
