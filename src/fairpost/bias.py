"""Model, classifier and quantile bias under partition-weighted W1 metrics.

A partition splits the rows into disjoint cells (all rows for statistical
parity, split-by-label for equalized odds).  The model bias is the weighted
sum over cells of the W1 distance between the score distributions of the two
protected classes, with a positive/negative decomposition along the favorable
direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .empirical import SignedTransport, build_distribution, signed_transport
# unused here; bench/workloads.py::trace_targets() looks it up on this module
from .empirical import wasserstein1_signed  # noqa: F401

# W1 on cells smaller than this per class is mostly noise; flagged, not fatal.
MIN_CELL_CLASS_ROWS = 10

CellPredicate = Callable[[Mapping[str, np.ndarray], int], np.ndarray]


def _all_rows_cell(columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    return np.ones(n, dtype=bool)


def _label_cell(value: int) -> CellPredicate:
    def predicate(columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
        if "y" not in columns:
            raise ValueError("split-by-label partition requires a 'y' column")
        return np.asarray(columns["y"]) == value
    return predicate


@dataclass(frozen=True)
class PartitionSpec:
    """Disjoint row cells with positive weights summing to 1."""

    names: tuple[str, ...]
    predicates: tuple[CellPredicate, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.names) != len(self.predicates) or len(self.names) != len(self.weights):
            raise ValueError("names, predicates and weights must have equal length")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("cell weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("cell weights must sum to 1")

    @staticmethod
    def all_rows() -> "PartitionSpec":
        """Single-cell partition: statistical-parity style metric."""
        return PartitionSpec(names=("all",), predicates=(_all_rows_cell,), weights=(1.0,))

    @staticmethod
    def by_label(weights: tuple[float, float] = (0.5, 0.5)) -> "PartitionSpec":
        """Split on the binary label: equalized-odds style metric.

        The (1/2, 1/2) default weighting is a convention; any positive
        weights summing to 1 are accepted.
        """
        return PartitionSpec(
            names=("y=0", "y=1"),
            predicates=(_label_cell(0), _label_cell(1)),
            weights=tuple(float(w) for w in weights),
        )

    def masks(self, columns: Mapping[str, np.ndarray] | None, n: int):
        columns = columns if columns is not None else {}
        out = []
        for name, pred in zip(self.names, self.predicates):
            mask = np.asarray(pred(columns, n), dtype=bool)
            if mask.shape != (n,):
                raise ValueError(f"cell '{name}': predicate returned wrong shape")
            out.append(mask)
        combined = np.zeros(n, dtype=int)
        for mask in out:
            combined += mask
        if np.any(combined > 1):
            raise ValueError("partition cells overlap")
        return out


@dataclass(frozen=True)
class BiasReport:
    total: float
    positive: float
    negative: float
    net: float
    per_cell: tuple[SignedTransport, ...]
    cell_names: tuple[str, ...]
    favorable_sign: int
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "positive": self.positive,
            "negative": self.negative,
            "net": self.net,
            "favorable_sign": self.favorable_sign,
            "cells": [
                {"name": n, "total": c.total, "positive": c.positive_part,
                 "negative": c.negative_part}
                for n, c in zip(self.cell_names, self.per_cell)
            ],
            "warnings": list(self.warnings),
        }


def _validate_inputs(scores, g):
    scores = np.asarray(scores, dtype=float).ravel()
    g = np.asarray(g).ravel()
    if scores.size != g.size:
        raise ValueError("scores and g must have the same length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not ((g == 0) | (g == 1)).all():
        raise ValueError("g must be binary 0/1")
    return scores, g.astype(int)


def _split_cell(scores, g, mask, cell_name):
    """A cell's scores, its 0/1 labels and its class-1 row count; the cell
    must hold both classes."""
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError(f"cell '{cell_name}' is empty")
    cell_g = g[rows]
    n1 = int(np.count_nonzero(cell_g))
    for k, nk in ((0, rows.size - n1), (1, n1)):
        if nk == 0:
            raise ValueError(f"cell '{cell_name}': missing class G={k}")
    return scores[rows], cell_g, n1


def model_bias(scores, g, partition: PartitionSpec | None = None, favorable_sign: int = 1,
               columns: Mapping[str, np.ndarray] | None = None) -> BiasReport:
    """Partition-weighted W1 bias between the two protected-class score
    distributions, with signed decomposition.

    Each cell's signed transport is computed in CDF form
    (``empirical.signed_transport``): one sort of the cell's pooled scores,
    integer cumulative class counts, one division by ``n0 * n1``.  The
    quantile form ``wasserstein1_signed`` is the reference it is tested
    against.
    """
    scores, g = _validate_inputs(scores, g)
    partition = partition if partition is not None else PartitionSpec.all_rows()
    masks = partition.masks(columns, scores.size)

    per_cell = []
    warnings_ = []
    total = pos = neg = 0.0
    for name, w, mask in zip(partition.names, partition.weights, masks):
        cell_scores, cell_g, n1 = _split_cell(scores, g, mask, name)
        if min(cell_scores.size - n1, n1) < MIN_CELL_CLASS_ROWS:
            warnings_.append(
                f"cell '{name}' has a class with fewer than {MIN_CELL_CLASS_ROWS} rows; "
                "its W1 estimate is unreliable")
        st = signed_transport(cell_scores, cell_g, favorable_sign)
        per_cell.append(st)
        total += w * st.total
        pos += w * st.positive_part
        neg += w * st.negative_part

    return BiasReport(total=total, positive=pos, negative=neg, net=pos - neg,
                      per_cell=tuple(per_cell), cell_names=partition.names,
                      favorable_sign=favorable_sign, warnings=tuple(warnings_))


def classifier_bias(scores, g, threshold: float, favorable_sign: int = 1) -> float:
    """Signed statistical-parity bias of the thresholded classifier:
    ``(F1(t) - F0(t)) * sign``."""
    scores, g = _validate_inputs(scores, g)
    s, cell_g, _ = _split_cell(scores, g, np.ones(scores.size, dtype=bool), "all")
    f0 = build_distribution(s[cell_g == 0]).cdf(threshold)
    f1 = build_distribution(s[cell_g == 1]).cdf(threshold)
    return float((f1 - f0) * favorable_sign)


def quantile_bias(scores, g, p: float, favorable_sign: int = 1) -> float:
    """Signed p-th quantile bias: ``(Q0(p) - Q1(p)) * sign`` for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    scores, g = _validate_inputs(scores, g)
    s, cell_g, _ = _split_cell(scores, g, np.ones(scores.size, dtype=bool), "all")
    q0 = build_distribution(s[cell_g == 0]).quantile(p)
    q1 = build_distribution(s[cell_g == 1]).quantile(p)
    return float((q0 - q1) * favorable_sign)


def is_fair(report: BiasReport, epsilon: float) -> bool:
    """Fair up to epsilon: total bias at most epsilon (boundary inclusive)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return report.total <= epsilon
