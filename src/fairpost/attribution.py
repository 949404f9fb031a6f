"""Bias attributions for predictors.

Three routes are provided:

* basic bias explanations: the signed W1 transport between the two
  protected-class distributions of each predictor's explainer values;
* the Shapley bias game: predictors are players, a coalition's worth is the
  signed transport cost of its group explanation, and the resulting Shapley
  values split into four nonnegative atoms whose signed sum reconstructs the
  model bias exactly (the superposition identity);
* expected individual bias explanations (IBEs): the bias of single-predictor
  model sections averaged over anchor rows.

The most impactful predictors are then selected by thresholding the positive
and negative attributions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bias import PartitionSpec, model_bias
# unused here; bench/workloads.py::trace_targets() looks both names up on this module
from .empirical import build_distribution, wasserstein1_signed  # noqa: F401
from .explain import (
    _EVAL_CHUNK,
    EXACT_SHAPLEY_MAX_PREDICTORS,
    _check_mode,
    default_background,
    exact_shapley,
    marginal_game_values,
    marginal_shapley,
    pair_scores,
    sampled_shapley,
)

EXACT_GAME_MAX_PREDICTORS = 10

# i is assigned to M_plus when beta_i_plus >= RATIO * beta_i_minus (and
# symmetrically for M_minus); a concrete stand-in for "much greater than".
DOMINANCE_RATIO = 4.0

TABLE_COLUMNS = ("predictor", "kind", "beta", "beta_pos", "beta_neg", "net",
                 "bpp", "bpm", "bmp", "bmm")


@dataclass(frozen=True)
class AttributionTable:
    predictors: tuple[str, ...]
    kind: str  # pdp | shapley (basic explainer transport) | shapley_game | ibe
    beta_pos: np.ndarray
    beta_neg: np.ndarray
    bpp: np.ndarray | None = None
    bpm: np.ndarray | None = None
    bmp: np.ndarray | None = None
    bmm: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("pdp", "shapley", "shapley_game", "ibe"):
            raise ValueError(f"unknown attribution kind '{self.kind}'")

    @property
    def beta(self) -> np.ndarray:
        return self.beta_pos + self.beta_neg

    @property
    def net(self) -> np.ndarray:
        return self.beta_pos - self.beta_neg

    @property
    def n_predictors(self) -> int:
        return len(self.predictors)

    def _atom(self, arr, i):
        return float(arr[i]) if arr is not None else ""

    def rows(self):
        for i, name in enumerate(self.predictors):
            yield {
                "predictor": name,
                "kind": self.kind,
                "beta": float(self.beta[i]),
                "beta_pos": float(self.beta_pos[i]),
                "beta_neg": float(self.beta_neg[i]),
                "net": float(self.net[i]),
                "bpp": self._atom(self.bpp, i),
                "bpm": self._atom(self.bpm, i),
                "bmp": self._atom(self.bmp, i),
                "bmm": self._atom(self.bmm, i),
            }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)


@dataclass(frozen=True)
class ImpactList:
    """Most bias-impactful predictors and their sign-based partition."""

    M: tuple[int, ...]
    N_plus: tuple[int, ...]
    N_minus: tuple[int, ...]
    M_plus: tuple[int, ...]
    M_minus: tuple[int, ...]
    M_zero: tuple[int, ...]


def basic_bias_explanations(explainer_output: np.ndarray, g,
                            partition: PartitionSpec | None = None,
                            favorable_sign: int = 1,
                            columns: Mapping[str, np.ndarray] | None = None,
                            names: tuple[str, ...] | None = None) -> AttributionTable:
    """Transport cost between protected-class distributions of each
    predictor's explainer values, an ``(rows, predictors)`` array."""
    matrix = np.asarray(explainer_output, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("explainer output contains non-finite entries")
    if np.size(g) != matrix.shape[0]:
        raise ValueError("g length does not match explainer rows")
    p = matrix.shape[1]
    names = names if names is not None else tuple(f"x{i + 1}" for i in range(p))

    pos = np.zeros(p)
    neg = np.zeros(p)
    for i in range(p):
        report = model_bias(matrix[:, i], g, partition, favorable_sign, columns)
        pos[i], neg[i] = report.positive, report.negative
    return AttributionTable(predictors=names, kind="pdp", beta_pos=pos, beta_neg=neg)


def _atoms_table(phi_pos, phi_neg, names) -> AttributionTable:
    bpp = np.maximum(phi_pos, 0.0)
    bpm = np.maximum(-phi_pos, 0.0)
    bmp = np.maximum(phi_neg, 0.0)
    bmm = np.maximum(-phi_neg, 0.0)
    beta_pos = bpp + bmm
    beta_neg = bmp + bpm
    return AttributionTable(predictors=names, kind="shapley_game", beta_pos=beta_pos,
                            beta_neg=beta_neg, bpp=bpp, bpm=bpm, bmp=bmp, bmm=bmm)


def shapley_bias_game(model, x: np.ndarray, g, group_explainer: str = "shapley_sum",
                      mode: str = "exact", n_permutations: int | None = None,
                      background: np.ndarray | None = None,
                      partition: PartitionSpec | None = None,
                      columns: Mapping[str, np.ndarray] | None = None,
                      favorable_sign: int = 1, seed: int = 0,
                      names: tuple[str, ...] | None = None) -> AttributionTable:
    """Shapley values of the positive and negative bias games, with the four
    sign-indicator atoms.

    The coalition worth is the positive (resp. negative) transport part of
    the coalition's group-explanation distribution across protected classes.
    Group explanations are either sums of per-row marginal Shapley values
    ("shapley_sum", the trivial group explainer) or marginal game values
    ("game").  Sampled mode always uses "shapley_sum" so coalition values
    reduce to column sums of a single per-row attribution matrix.
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[1]
    names = names if names is not None else tuple(f"x{i + 1}" for i in range(p))
    if background is None:
        background = default_background(x, seed=seed)
    if group_explainer not in ("shapley_sum", "game"):
        raise ValueError(f"unknown group explainer '{group_explainer}'")
    _check_mode(mode, p, n_permutations, EXACT_GAME_MAX_PREDICTORS)

    if mode == "exact" and group_explainer == "game":
        def group_values(subset):
            return marginal_game_values(model, x, background, subset)
    else:
        # sum-of-Shapley group explainer: coalition values are column sums of phi
        matrix = marginal_shapley(
            model, x, background,
            mode="exact" if p <= EXACT_SHAPLEY_MAX_PREDICTORS else "sampled",
            n_permutations=n_permutations, seed=seed)

        def group_values(subset):
            return matrix[:, subset].sum(axis=1)

    def signed_value(subset):
        if not subset:
            return 0.0, 0.0
        report = model_bias(group_values(subset), g, partition, favorable_sign, columns)
        return report.positive, report.negative

    phi = (exact_shapley(signed_value, p) if mode == "exact"
           else sampled_shapley(signed_value, p, n_permutations, seed))
    return _atoms_table(phi[0], phi[1], names)


def expected_ibe(model, x: np.ndarray, g, predictor_index: int, n_anchors: int,
                 partition: PartitionSpec | None = None,
                 columns: Mapping[str, np.ndarray] | None = None,
                 favorable_sign: int = 1, seed: int = 0):
    """Expected individual bias explanation of one predictor.

    Averages, over anchor rows drawn from the dataset, the signed bias of the
    model's single-predictor section evaluated on the dataset's column
    values.  A chunk of anchors is scored as the background of one
    ``pair_scores`` call, which gives every anchor's section at once.
    Returns ``(beta, beta_pos, beta_neg)``.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if not 0 <= predictor_index < p:
        raise ValueError(f"predictor index {predictor_index} out of range")
    if n_anchors < 1:
        raise ValueError("n_anchors must be >= 1")
    rng = np.random.default_rng(seed)
    anchor_idx = (np.arange(n) if n_anchors >= n
                  else rng.choice(n, size=n_anchors, replace=False))
    chunk = max(1, _EVAL_CHUNK // n)
    pos_sum = neg_sum = 0.0
    for start in range(0, anchor_idx.size, chunk):
        inverse, blocks = pair_scores(model, x, x[anchor_idx[start:start + chunk]],
                                      [predictor_index])
        sections = np.concatenate(list(blocks))[inverse].T  # (anchors, n)
        for section in sections:
            report = model_bias(section, g, partition, favorable_sign, columns)
            pos_sum += report.positive
            neg_sum += report.negative
    k = anchor_idx.size
    pos, neg = pos_sum / k, neg_sum / k
    return pos + neg, pos, neg


def ibe_table(model, x: np.ndarray, g, n_anchors: int,
              partition: PartitionSpec | None = None,
              columns: Mapping[str, np.ndarray] | None = None,
              favorable_sign: int = 1, seed: int = 0,
              names: tuple[str, ...] | None = None) -> AttributionTable:
    """Expected IBEs for every predictor, as an attribution table."""
    x = np.asarray(x, dtype=float)
    p = x.shape[1]
    names = names if names is not None else tuple(f"x{i + 1}" for i in range(p))
    pos = np.zeros(p)
    neg = np.zeros(p)
    for i in range(p):
        _, pos[i], neg[i] = expected_ibe(model, x, g, i, n_anchors, partition,
                                         columns, favorable_sign, seed)
    return AttributionTable(predictors=names, kind="ibe", beta_pos=pos, beta_neg=neg)


def select_impactful(table: AttributionTable, eps_plus: float | None = None,
                     eps_minus: float | None = None,
                     m_star: int | None = None) -> ImpactList:
    """Threshold the positive/negative attributions into the impact list M
    and its sign partition.

    Default thresholds are 5% of the total attribution mass, which survives
    rescaling of the score.  With ``m_star`` set, each of N_plus/N_minus is
    truncated to its top ``m_star`` entries by the corresponding attribution.
    M may be empty; the caller decides what to do with an empty list.
    """
    total_mass = float(np.sum(table.beta))
    if eps_plus is None:
        eps_plus = 0.05 * total_mass
    if eps_minus is None:
        eps_minus = 0.05 * total_mass
    if eps_plus < 0 or eps_minus < 0:
        raise ValueError("thresholds must be nonnegative")
    if m_star is not None and m_star < 0:
        raise ValueError("m_star must be nonnegative")

    bp = np.asarray(table.beta_pos, dtype=float)
    bn = np.asarray(table.beta_neg, dtype=float)
    n_plus = [i for i in range(table.n_predictors) if bp[i] > eps_plus]
    n_minus = [i for i in range(table.n_predictors) if bn[i] > eps_minus]
    if m_star is not None:
        n_plus = sorted(sorted(n_plus, key=lambda i: -bp[i])[:m_star])
        n_minus = sorted(sorted(n_minus, key=lambda i: -bn[i])[:m_star])

    m = sorted(set(n_plus) | set(n_minus))

    m_plus, m_minus, m_zero = [], [], []
    for i in m:
        if bp[i] >= DOMINANCE_RATIO * bn[i]:
            m_plus.append(i)
        elif bn[i] >= DOMINANCE_RATIO * bp[i]:
            m_minus.append(i)
        else:
            m_zero.append(i)

    return ImpactList(M=tuple(m), N_plus=tuple(n_plus), N_minus=tuple(n_minus),
                      M_plus=tuple(m_plus), M_minus=tuple(m_minus),
                      M_zero=tuple(m_zero))
