"""Empirical distributions on the line and exact transport distances.

Every W1 and KS number comes from one sort of a labelled pooled sample and
its integer class CDF gap (``_cdf_gap``).  W1 is the CDF form ``integral
|F0 - F1| dt`` (Vallender 1973), exact over the step function's breakpoints;
KS is the largest gap.  ``EmpiricalDistribution`` (ties merged,
right-continuous step CDF, generalized-inverse quantile ``Q(p) = inf{x : p
<= F(x)}``) is the quantile form that the tests hold the CDF form to.

The sort is of uint64 keys ``(bits << 1) | label``, ``bits`` the float64
bit pattern of a value's magnitude, so one sort yields both the values and
their labels.  For non-negative floats the bit order is the value order, and
the sign bit that the shift drops is 0 (``-0.0`` takes the key of ``+0.0``),
so the keys read back as the exact values.  Negative values are keyed by
magnitude, sorted apart and placed reversed, and negated on read-back, in
front of the others; the same steps run on every sample, with or without
negatives.  A run of tied values has zero length in the integral, so the
order within it, which a key sort fixes by label, changes no bit.
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


def _sample(samples) -> np.ndarray:
    values = np.asarray(samples, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("empty sample list")
    if np.any(np.isnan(values)):
        raise ValueError("NaN sample")
    return values


@dataclass(frozen=True)
class ClassLabels:
    """The 0/1 labels of a pooled sample, with the counts its CDF gap reads."""

    bits: np.ndarray  # uint64 0/1, one per value
    n0: int
    n1: int
    ramp: np.ndarray  # k * n1 for k = 1..n, the class-0 term of the gap

    @staticmethod
    def of(labels) -> "ClassLabels":
        bits = np.asarray(labels).astype(np.uint64).ravel()
        n1 = int(np.count_nonzero(bits))
        return ClassLabels(bits=bits, n0=bits.size - n1, n1=n1,
                           ramp=np.arange(1, bits.size + 1) * n1)


def _pooled(a, b):
    """Samples ``a`` and ``b`` pooled, with labels 0 for ``a`` and 1 for ``b``."""
    a, b = _sample(a), _sample(b)
    return np.concatenate((a, b)), ClassLabels.of(np.repeat([0, 1], (a.size, b.size)))


def build_distribution(samples) -> EmpiricalDistribution:
    """Sort samples and merge ties into atoms of equal weight per sample."""
    values = _sample(samples)
    # merge tied values into single atoms so integration intervals are nonempty
    uniq, inverse = np.unique(np.sort(values, kind="stable"), return_inverse=True)
    merged = np.bincount(inverse, weights=np.full(values.size, 1.0 / values.size))
    merged = merged / merged.sum()
    cum = np.cumsum(merged)
    cum[-1] = 1.0
    for arr in (uniq, cum):
        arr.setflags(write=False)
    return EmpiricalDistribution(values=uniq, cum_weights=cum)


def _cdf_gap(values: np.ndarray, labels: ClassLabels):
    """One sort of the pooled sample: the sorted values, the integer gap
    ``c1 * n0 - c0 * n1 = c1 * n - k * n1`` after the ``k``-th (``c0, c1``
    the running counts of labels 0 and 1), and ``n0 * n1``.  At the last
    index of a run of ties, ``gap / (n0 * n1)`` is ``F1 - F0`` at that
    value."""
    keys = np.abs(values).view(np.uint64) << 1 | labels.bits
    negative = values < 0
    keys = np.concatenate((np.sort(keys[negative])[::-1], np.sort(keys[~negative])))
    v = (keys >> 1).view(float)
    head = v[:np.count_nonzero(negative)]
    np.negative(head, out=head)
    c1 = np.cumsum((keys & 1).view(np.int64))
    return v, c1 * values.size - labels.ramp, labels.n0 * labels.n1


def signed_transport(values: np.ndarray, labels: ClassLabels,
                     favorable_sign: int) -> SignedTransport:
    """W1 between the ``labels == 0`` (non-protected) and ``labels == 1``
    samples of ``values``; the positive part covers the quantiles where
    ``(Q0 - Q1) * favorable_sign > 0`` and the negative part the others.

    Both classes must be present.  ``integral (Q0 - Q1)+ dp`` equals
    ``integral (F1 - F0)+ dt``, summed between consecutive pooled values; a
    run of ties has zero length, so any row order gives the same bits.
    """
    if favorable_sign not in (-1, 1):
        raise ValueError("favorable_sign must be -1 or +1")
    v, gap, n01 = _cdf_gap(values, labels)
    dv = np.diff(v)
    pos = float(np.sum(np.maximum(gap[:-1], 0) * dv)) / n01
    neg = float(np.sum(np.maximum(-gap[:-1], 0) * dv)) / n01
    if favorable_sign == -1:
        pos, neg = neg, pos
    return SignedTransport(total=pos + neg, positive_part=pos, negative_part=neg)


def wasserstein1_signed(a, b, favorable_sign: int) -> SignedTransport:
    """``signed_transport`` with sample ``a`` as class 0 and ``b`` as class 1."""
    return signed_transport(*_pooled(a, b), favorable_sign)


def _ks(a, b) -> tuple[float, float]:
    """KS distance ``sup |F0 - F1|`` between samples ``a`` and ``b``, and the
    pooled value attaining it: the smallest one where the exact integer gaps
    tie."""
    v, gap, n01 = _cdf_gap(*_pooled(a, b))
    ends = np.flatnonzero(np.append(v[1:] != v[:-1], True))  # last index of each run of ties
    k = ends[np.argmax(np.abs(gap[ends]))]
    return float(abs(gap[k])) / n01, float(v[k])
