"""Model, classifier and quantile bias under partition-weighted W1 metrics.

A partition splits the rows into disjoint cells (all rows for statistical
parity, split-by-label for equalized odds).  The model bias is the weighted
sum over cells of the W1 distance between the score distributions of the two
protected classes, with a positive/negative decomposition along the favorable
direction.

Everything but the scores is fixed for a set of rows: ``bias_cells``
prepares the cells once (labels checked, masks, row indices, class counts,
small-cell warnings) and ``BiasCells.measure`` scores one vector against
them, as a frontier search or an attribution game does many times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .calibrate import binary_labels
from .empirical import ClassLabels, SignedTransport, build_distribution, signed_transport
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


@dataclass(frozen=True)
class BiasCells:
    """A partition's cells over one set of rows, prepared by ``bias_cells``
    to measure any number of score vectors on those rows."""

    n_rows: int
    names: tuple[str, ...]
    weights: tuple[float, ...]
    rows: tuple[np.ndarray | None, ...]  # each cell's row indices; None for every row
    labels: tuple[ClassLabels, ...]      # each cell's protected labels
    warnings: tuple[str, ...]

    def checked(self, scores) -> np.ndarray:
        """``scores`` as a float vector, refused unless one finite score per row."""
        scores = np.asarray(scores, dtype=float).ravel()
        if scores.size != self.n_rows:
            raise ValueError("scores and g must have the same length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        return scores

    def measure(self, scores, favorable_sign: int = 1) -> BiasReport:
        """The bias report of ``scores`` (one per row) over these cells."""
        scores = self.checked(scores)
        per_cell = tuple(
            signed_transport(scores if rows is None else scores[rows], labels, favorable_sign)
            for rows, labels in zip(self.rows, self.labels))
        total = pos = neg = 0.0
        for w, st in zip(self.weights, per_cell):
            total += w * st.total
            pos += w * st.positive_part
            neg += w * st.negative_part
        return BiasReport(total=total, positive=pos, negative=neg, net=pos - neg,
                          per_cell=per_cell, cell_names=self.names,
                          favorable_sign=favorable_sign, warnings=self.warnings)


def bias_cells(g, partition: PartitionSpec | None = None,
               columns: Mapping[str, np.ndarray] | None = None) -> BiasCells:
    """The cells of ``partition`` (all rows by default) over rows with
    protected labels ``g``: each cell's rows and labels, checked to hold
    both classes, and the small-cell warnings."""
    g = binary_labels(g, "g must be binary 0/1")
    partition = partition if partition is not None else PartitionSpec.all_rows()
    rows, labels, warnings_ = [], [], []
    for name, mask in zip(partition.names, partition.masks(columns, g.size)):
        cell_rows = None if mask.all() else np.flatnonzero(mask)
        cell = ClassLabels.of(g if cell_rows is None else g[cell_rows])
        if cell.bits.size == 0:
            raise ValueError(f"cell '{name}' is empty")
        for k, nk in ((0, cell.n0), (1, cell.n1)):
            if nk == 0:
                raise ValueError(f"cell '{name}': missing class G={k}")
        if min(cell.n0, cell.n1) < MIN_CELL_CLASS_ROWS:
            warnings_.append(
                f"cell '{name}' has a class with fewer than {MIN_CELL_CLASS_ROWS} rows; "
                "its W1 estimate is unreliable")
        rows.append(cell_rows)
        labels.append(cell)
    return BiasCells(n_rows=g.size, names=partition.names, weights=partition.weights,
                     rows=tuple(rows), labels=tuple(labels), warnings=tuple(warnings_))


def model_bias(scores, g, partition: PartitionSpec | None = None, favorable_sign: int = 1,
               columns: Mapping[str, np.ndarray] | None = None) -> BiasReport:
    """Partition-weighted W1 bias between the two protected-class score
    distributions, with signed decomposition.

    ``bias_cells(g, partition, columns).measure(scores, favorable_sign)``:
    the cells are prepared once, and a caller that measures many score
    vectors on the same rows prepares them once and calls ``measure`` for
    each.  Each cell's signed transport is computed in CDF form
    (``empirical.signed_transport``): one sort of the cell's pooled scores,
    integer cumulative class counts, one division by ``n0 * n1``.  The
    quantile form is the oracle it is tested against.
    """
    return bias_cells(g, partition, columns).measure(scores, favorable_sign)


def _class_scores(scores, g):
    """The class-0 and class-1 scores of an all-rows cell."""
    cells = bias_cells(g)
    scores, labels = cells.checked(scores), cells.labels[0].bits
    return scores[labels == 0], scores[labels == 1]


def classifier_bias(scores, g, threshold: float, favorable_sign: int = 1) -> float:
    """Signed statistical-parity bias of the thresholded classifier:
    ``(F1(t) - F0(t)) * sign``."""
    s0, s1 = _class_scores(scores, g)
    f0 = build_distribution(s0).cdf(threshold)
    f1 = build_distribution(s1).cdf(threshold)
    return float((f1 - f0) * favorable_sign)


def quantile_bias(scores, g, p: float, favorable_sign: int = 1) -> float:
    """Signed p-th quantile bias: ``(Q0(p) - Q1(p)) * sign`` for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    s0, s1 = _class_scores(scores, g)
    q0 = build_distribution(s0).quantile(p)
    q1 = build_distribution(s1).quantile(p)
    return float((q0 - q1) * favorable_sign)


def is_fair(report: BiasReport, epsilon: float) -> bool:
    """Fair up to epsilon: total bias at most epsilon (boundary inclusive)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return report.total <= epsilon
