"""Empirical distributions on the line and exact transport distances.

Two exact forms of the 1-Wasserstein distance live here.  The CDF form
``W1 = integral |F0 - F1| dt`` (Vallender 1973) is what the model bias uses:
``signed_transport`` sorts a cell's pooled scores once, takes integer
cumulative class counts, and divides by ``n0 * n1`` once per cell.  The
quantile form ``W1 = integral |Q0 - Q1| dp`` over ``EmpiricalDistribution``
atoms (ties merged, right-continuous step CDF, generalized-inverse quantile
``Q(p) = inf{x : p <= F(x)}``) is kept as the reference the CDF form is
tested against, and serves quantile bias, the KS distance and the KS focal
rule.  Both integrate step functions over their breakpoints, so neither
involves a grid approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted weighted atoms with step CDF and generalized-inverse quantiles."""

    values: np.ndarray       # strictly increasing atom positions
    cum_weights: np.ndarray  # increasing, ends at 1; atom weights are its steps

    @property
    def n_atoms(self) -> int:
        return self.values.size

    def cdf(self, t) -> np.ndarray | float:
        """Right-continuous step CDF evaluated at ``t`` (scalar or array)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.values, t, side="right")
        out = np.where(idx > 0, self.cum_weights[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p) -> np.ndarray | float:
        """Generalized inverse ``inf{x : p <= F(x)}`` for p in (0, 1].

        ``quantile(0)`` is defined as the minimum atom.
        """
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("quantile argument must lie in [0, 1]")
        idx = np.searchsorted(self.cum_weights, p, side="left")
        idx = np.minimum(idx, self.n_atoms - 1)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SignedTransport:
    """W1 transport cost split by direction of the signed quantile gap."""

    total: float
    positive_part: float
    negative_part: float


def build_distribution(samples) -> EmpiricalDistribution:
    """Sort samples and merge ties into atoms of equal weight per sample."""
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("empty sample list")
    if np.any(np.isnan(values)):
        raise ValueError("NaN sample")
    # merge tied values into single atoms so integration intervals are nonempty
    uniq, inverse = np.unique(np.sort(values, kind="stable"), return_inverse=True)
    merged = np.bincount(inverse, weights=np.full(values.size, 1.0 / values.size))
    merged = merged / merged.sum()
    cum = np.cumsum(merged)
    cum[-1] = 1.0
    for arr in (uniq, cum):
        arr.setflags(write=False)
    return EmpiricalDistribution(values=uniq, cum_weights=cum)


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


def wasserstein1(d0: EmpiricalDistribution, d1: EmpiricalDistribution) -> float:
    """Exact W1 between two empirical distributions."""
    lengths, gap = _quantile_segments(d0, d1)
    return float(np.sum(lengths * np.abs(gap)))


def wasserstein1_signed(d0: EmpiricalDistribution, d1: EmpiricalDistribution,
                        favorable_sign: int) -> SignedTransport:
    """W1 decomposed over the sets where the signed quantile gap is positive
    or negative.

    With ``d0`` the non-protected class, the positive part is the transport
    effort over quantiles where ``(Q0 - Q1) * favorable_sign > 0`` (the
    non-protected class is favored there) and the negative part covers the
    complementary quantiles.
    """
    if favorable_sign not in (-1, 1):
        raise ValueError("favorable_sign must be -1 or +1")
    lengths, gap = _quantile_segments(d0, d1)
    signed = gap * favorable_sign
    pos = float(np.sum(lengths * np.maximum(signed, 0.0)))
    neg = float(np.sum(lengths * np.maximum(-signed, 0.0)))
    return SignedTransport(total=pos + neg, positive_part=pos, negative_part=neg)


def signed_transport(values: np.ndarray, labels: np.ndarray,
                     favorable_sign: int) -> SignedTransport:
    """``wasserstein1_signed`` between the ``labels == 0`` and ``labels == 1``
    samples of ``values``, in CDF form.

    Both classes must be present.  ``integral (Q0 - Q1)+ dp`` equals
    ``integral (F1 - F0)+ dt``: between consecutive pooled sorted values the
    gap ``F1 - F0`` is ``(c1 * n0 - c0 * n1) / (n0 * n1)`` with integer
    cumulative class counts ``c0, c1``.  The order inside a run of tied
    values does not matter, because that run has zero length, so the
    default (unstable) sort gives the same bits for any row order.
    """
    if favorable_sign not in (-1, 1):
        raise ValueError("favorable_sign must be -1 or +1")
    n1 = int(np.count_nonzero(labels))
    n0 = values.size - n1
    order = np.argsort(values)
    c1 = np.cumsum(labels[order[:-1]])
    c0 = np.arange(1, values.size) - c1
    gap = c1 * n0 - c0 * n1
    dv = np.diff(values[order])
    pos = float(np.sum(np.maximum(gap, 0) * dv)) / (n0 * n1)
    neg = float(np.sum(np.maximum(-gap, 0) * dv)) / (n0 * n1)
    if favorable_sign == -1:
        pos, neg = neg, pos
    return SignedTransport(total=pos + neg, positive_part=pos, negative_part=neg)


def ks_distance(d0: EmpiricalDistribution, d1: EmpiricalDistribution) -> float:
    """Kolmogorov-Smirnov distance: sup |F0 - F1| over pooled atoms."""
    grid = np.union1d(d0.values, d1.values)
    return float(np.max(np.abs(d0.cdf(grid) - d1.cdf(grid))))
