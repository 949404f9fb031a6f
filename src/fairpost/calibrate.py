"""Post-processing calibration maps and classifier performance metrics.

A post-processed model is an algebraic perturbation of the trained one, so
its outputs are no longer tied to the data.  Calibration restores that tie by
a nondecreasing map fitted against either the base model (preferred for
classification scores) or the labels:

* ``pava_isotonic``     - least-squares isotonic regression (pool adjacent
  violators), a piecewise-constant nondecreasing fit;
* ``logistic_refit``    - logistic regression of the labels on the score;
* ``link_linear_calibrate`` - linear regression in logit space of the base
  model on the post-processed model, the default method.

Strictly increasing calibration maps leave ranking metrics such as AUC
untouched; only the score distribution moves.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-6          # scores are clamped to [clamp, 1 - clamp] before logit
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
SEPARATION_BOUND = 1e4     # parameter norm beyond which the MLE is diverging


class CalibrationError(ValueError):
    """Raised when a fitted calibration map would not be monotone."""


def _clamp(p, clamp=PROB_CLAMP):
    return np.clip(np.asarray(p, dtype=float), clamp, 1.0 - clamp)


def binary_labels(values, message: str = "labels must be binary 0/1") -> np.ndarray:
    """``values`` raveled, as a new int array, if each is 0 or 1 before any cast; else raises
    ``message``."""
    v = np.asarray(values).ravel()
    if not ((v == 0) | (v == 1)).all():
        raise ValueError(message)
    return v.astype(int)


_JSON_TYPES = {int: {int}, float: {int, float}, str: {str}, list: {list}, dict: {dict}}
_JSON_NAMES = {str: "string", bool: "boolean", type(None): "null", list: "array", dict: "object"}


def json_field(value, dtype, field: str, doc: str = "model"):
    """The raw JSON ``value`` of ``field`` in a ``doc`` as ``dtype``, refused unless its type is
    one ``_JSON_TYPES`` allows; ``[dtype]`` takes an array of them, numbers as a numpy array."""
    many = type(dtype) is list
    dtype, values = (dtype[0], json_field(value, list, field, doc)) if many else (dtype, [value])
    if not set(map(type, values)) <= _JSON_TYPES[dtype]:
        bad = next(v for v in values if type(v) not in _JSON_TYPES[dtype])
        kind = _JSON_NAMES.get(type(bad), type(bad).__name__)
        raise ValueError(f"malformed {doc}: could not convert {kind} to "
                         f"{dtype.__name__}: {bad!r} in {field}")
    try:
        if dtype in (int, float):
            return np.asarray(values, dtype=dtype) if many else dtype(value)
    except OverflowError as exc:  # an integer beyond int64, or beyond a float's range
        raise ValueError(f"malformed {doc}: {exc} in {field}") from None
    return value


def logit(p):
    p = _clamp(p)
    return np.log(p / (1.0 - p))


def sigmoid(z):
    """``1 / (1 + e)`` where z >= 0 and ``e / (1 + e)`` elsewhere, with ``e =
    exp(-|z|)``, so exp never overflows; an array even for a 0-d z."""
    z = np.asarray(z, dtype=float)
    e = np.abs(z, out=np.empty_like(z))
    np.exp(np.negative(e, out=e), out=e)
    d = np.add(e, 1.0, out=np.empty_like(z))
    np.maximum(e, z >= 0, out=e)  # 0 <= e <= 1: 1 where z >= 0, e elsewhere, NaN kept
    return np.divide(e, d, out=e)


@dataclass(frozen=True)
class CalibrationMap:
    """Nondecreasing score map; evaluation depends on ``kind``."""

    kind: str  # pava | logistic_refit | link_linear
    knots: np.ndarray | None = None    # pava: sorted input positions
    levels: np.ndarray | None = None   # pava: fitted values per knot
    coef: tuple[float, float] | None = None  # (intercept, slope)

    def __post_init__(self):
        if self.kind not in ("pava", "logistic_refit", "link_linear"):
            raise ValueError(f"unknown calibration kind '{self.kind}'")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if self.kind == "pava":
            idx = np.searchsorted(self.knots, s, side="right") - 1
            out = self.levels[np.clip(idx, 0, self.levels.size - 1)]
        else:
            # logistic_refit and link_linear are both affine in logit space
            b0, b1 = self.coef
            out = sigmoid(b0 + b1 * logit(s))
        return float(out[0]) if scalar else out

    def to_json(self) -> str:
        payload = {"kind": self.kind}
        if self.knots is not None:
            payload["knots"] = self.knots.tolist()
            payload["levels"] = self.levels.tolist()
        if self.coef is not None:
            payload["coef"] = list(self.coef)
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "CalibrationMap":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a calibration map must be a JSON object")

        def field(key, dtype):
            return (json_field(d[key], dtype, f"calibration field '{key}'", "calibration map")
                    if key in d else None)

        coef = field("coef", [float])
        if coef is not None and coef.size != 2:
            raise ValueError("malformed calibration map: calibration field 'coef' must hold "
                             f"2 numbers, got {coef.size}")
        return CalibrationMap(kind=field("kind", str), knots=field("knots", [float]),
                              levels=field("levels", [float]),
                              coef=None if coef is None else tuple(coef.tolist()))


def pava_isotonic(x, y, weights=None) -> CalibrationMap:
    """Weighted least-squares isotonic regression of y on x.

    Pool-adjacent-violators: exact x ties are pre-pooled, then adjacent
    blocks are merged while their weighted means decrease.  The fitted map is
    the unique minimizer, evaluated by step interpolation between knots.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size == 0:
        raise ValueError("empty input")
    w = (np.full(x.size, 1.0) if weights is None
         else np.asarray(weights, dtype=float).ravel())
    if w.size != x.size:
        raise ValueError("weights length mismatch")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")

    order = np.argsort(x, kind="stable")
    xs, ys, ws = x[order], y[order], w[order]
    # pre-pool exact ties in x so the result is a function of x
    knots, start = np.unique(xs, return_index=True)
    start = np.append(start, xs.size)
    means = np.array([np.average(ys[a:b], weights=ws[a:b])
                      for a, b in zip(start[:-1], start[1:])])
    wsum = np.array([ws[a:b].sum() for a, b in zip(start[:-1], start[1:])])

    # PAVA over the pooled sequence
    level_val: list[float] = []
    level_w: list[float] = []
    level_count: list[int] = []
    for v, ww in zip(means, wsum):
        level_val.append(float(v))
        level_w.append(float(ww))
        level_count.append(1)
        while len(level_val) > 1 and level_val[-2] > level_val[-1]:
            v2, w2, c2 = level_val.pop(), level_w.pop(), level_count.pop()
            v1, w1, c1 = level_val.pop(), level_w.pop(), level_count.pop()
            level_val.append((v1 * w1 + v2 * w2) / (w1 + w2))
            level_w.append(w1 + w2)
            level_count.append(c1 + c2)

    fitted = np.repeat(level_val, level_count)
    fitted.setflags(write=False)
    knots.setflags(write=False)
    return CalibrationMap(kind="pava", knots=knots, levels=fitted)


def link_linear_calibrate(post_scores, base_scores) -> CalibrationMap:
    """Linear regression of the base model on the post-processed model in
    link space; the map is ``s -> sigmoid(b0 + b1 * logit(s))``.

    Raises :class:`CalibrationError` when the fitted slope is not positive,
    since the map would lose monotonicity.
    """
    gt = logit(post_scores)
    gb = logit(base_scores)
    if gt.size != gb.size:
        raise ValueError("score vectors must have the same length")
    var = float(np.var(gt))
    if not np.isfinite(var) or var < 1e-12:
        raise CalibrationError("post-processed scores are degenerate in link space")
    b1 = float(np.cov(gt, gb, bias=True)[0, 1] / var)
    b0 = float(np.mean(gb) - b1 * np.mean(gt))
    if b1 <= 0.0:
        raise CalibrationError(f"fitted slope {b1:.6g} is not positive; "
                               "calibration would lose monotonicity")
    return CalibrationMap(kind="link_linear", coef=(b0, b1))


def newton_logistic(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients of ``y`` on the columns of
    ``design`` by Newton iterations.

    Stops at a gradient norm of NEWTON_TOL, after NEWTON_MAX_ITER steps, or
    at the first iterate whose norm exceeds SEPARATION_BOUND, which the
    caller bounds.
    """
    beta = np.zeros(design.shape[1])
    for _ in range(NEWTON_MAX_ITER):
        p = sigmoid(design @ beta)
        grad = design.T @ (p - y)
        if np.linalg.norm(grad) <= NEWTON_TOL:
            break
        wdiag = np.maximum(p * (1.0 - p), 1e-12)
        hess = design.T @ (design * wdiag[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(hess) @ grad
        beta = beta - step
        if np.linalg.norm(beta) > SEPARATION_BOUND:
            break
    return beta


def logistic_refit(post_scores, y_labels) -> CalibrationMap:
    """One-dimensional logistic regression of the labels on the score, by
    Newton iterations.

    The covariate is the score's logit, so perfectly calibrated scores
    recover slope 1 and the map family matches the link-linear one.
    Complete separation (or a single-class label vector) triggers a
    bounded-coefficient fallback with a warning instead of divergence.
    """
    s = np.asarray(post_scores, dtype=float).ravel()
    if s.size != np.size(y_labels):
        raise ValueError("scores and labels must have the same length")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    y = binary_labels(y_labels).astype(float)

    if y.min() == y.max():
        warnings.warn("labels are single-class; falling back to a bounded "
                      "intercept-only fit", stacklevel=2)
        return CalibrationMap(kind="logistic_refit",
                              coef=(float(logit(np.mean(_clamp(y)))), 0.0))

    design = np.column_stack([np.ones_like(s), logit(s)])
    beta = newton_logistic(design, y)
    margins = (2.0 * y - 1.0) * (design @ beta)
    if np.linalg.norm(beta) > SEPARATION_BOUND or (np.all(margins > 0)
                                                    and np.max(np.abs(beta)) > 50.0):
        warnings.warn("logistic refit hit complete separation; returning "
                      "bounded coefficients", stacklevel=2)
        beta = beta * (SEPARATION_BOUND / max(np.linalg.norm(beta), SEPARATION_BOUND))
        beta = beta * min(1.0, 50.0 / max(np.max(np.abs(beta)), 1e-12))
    return CalibrationMap(kind="logistic_refit", coef=(float(beta[0]), float(beta[1])))


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with half credit for ties."""
    s = np.asarray(scores, dtype=float).ravel()
    if s.size != np.size(labels):
        raise ValueError("scores and labels must have the same length")
    y = binary_labels(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both label values must be present")
    # 1-based ranks, each tie group at the mean (start + stop + 1) / 2 of the
    # ranks it spans, so every rank is an exact half
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    if np.isnan(ordered[-1]):  # NaN sorts last; any NaN leaves the ranks undefined
        return float("nan")
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stop = np.r_[start[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((start + stop + 1) / 2.0, stop - start)
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
