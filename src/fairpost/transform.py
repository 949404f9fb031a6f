"""Compressive predictor transformations and post-processed models.

Each map is strictly increasing, fixes a focal point, compresses values
toward it as the compression parameter grows, and reduces to the identity at
parameter 1.  They preserve the rank ordering of samples per coordinate,
which is what makes them safe to compose with a trained model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .empirical import build_distribution

# The local map is monotone for all arguments when a >= LOCAL_A_MIN; below
# that the derivative can change sign.  Parameters are additionally checked
# on a grid spanning the observed data when a model is assembled.
LOCAL_A_MIN = 0.4
_MONOTONE_GRID = 1000

# parameter names of each transform family, in the order of PredictorTransform.params
TRANSFORM_PARAMS = {"global": ("a",), "asymmetric": ("a_minus", "a_plus"),
                    "local": ("a", "sigma")}


def transform_params(kind: str) -> tuple[str, ...]:
    """Parameter names of one transform family."""
    if kind not in TRANSFORM_PARAMS:
        raise ValueError(f"unknown transform kind '{kind}'")
    return TRANSFORM_PARAMS[kind]


def impact_indices(impact_list) -> tuple[int, ...]:
    """Predictor indices of an ImpactList (its M) or of a sequence of indices."""
    return tuple(int(i) for i in getattr(impact_list, "M", impact_list))


def transform_global(t, a: float, t_star: float):
    """Linear pull toward the focal point: ``(t - t*)/a + t*``."""
    if a <= 0:
        raise ValueError("a must be positive")
    t = np.asarray(t, dtype=float)
    out = (t - t_star) / a + t_star
    return float(out) if out.ndim == 0 else out


def transform_asymmetric(t, a_minus: float, a_plus: float, t_star: float):
    """Two-sided linear compression with separate rates below and above the
    focal point."""
    if a_minus <= 0 or a_plus <= 0:
        raise ValueError("a_minus and a_plus must be positive")
    t = np.asarray(t, dtype=float)
    d = t - t_star
    out = np.minimum(d, 0.0) / a_minus + np.maximum(d, 0.0) / a_plus + t_star
    return float(out) if out.ndim == 0 else out


def transform_local(t, a: float, sigma: float, t_star: float):
    """Gaussian-window compression: near-linear pull within ~sigma of the
    focal point, near-identity far from it."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if a < LOCAL_A_MIN:
        raise ValueError(f"a={a} is outside the certified-monotone region "
                         f"a >= {LOCAL_A_MIN}")
    t = np.asarray(t, dtype=float)
    d = t - t_star
    out = t - d * (1.0 - 1.0 / a) * np.exp(-d * d / (2.0 * sigma * sigma))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PredictorTransform:
    """One predictor's compressive map: kind, parameters and focal point."""

    predictor: int
    kind: str
    params: tuple[float, ...]
    focal: float
    focal_rule: str = "fixed"
    name: str = ""

    def __post_init__(self):
        expected = len(transform_params(self.kind))
        if len(self.params) != expected:
            raise ValueError(f"{self.kind} transform takes {expected} parameter(s)")

    def apply(self, t):
        if self.kind == "global":
            return transform_global(t, self.params[0], self.focal)
        if self.kind == "asymmetric":
            return transform_asymmetric(t, self.params[0], self.params[1], self.focal)
        return transform_local(t, self.params[0], self.params[1], self.focal)


@dataclass(frozen=True)
class CompressiveParams:
    """Per-predictor transform collection for an impact list."""

    transforms: tuple[PredictorTransform, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(tr.predictor for tr in self.transforms)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=float, copy=True)
        for tr in self.transforms:
            out[:, tr.predictor] = tr.apply(out[:, tr.predictor])
        return out

    def to_json(self) -> str:
        return json.dumps([
            {"predictor": tr.predictor, "kind": tr.kind, "params": list(tr.params),
             "focal": tr.focal, "focal_rule": tr.focal_rule, "name": tr.name}
            for tr in self.transforms
        ], indent=2)

    @staticmethod
    def from_json(text: str) -> "CompressiveParams":
        items = json.loads(text)
        return CompressiveParams(transforms=tuple(
            PredictorTransform(predictor=int(d["predictor"]), kind=d["kind"],
                               params=tuple(float(v) for v in d["params"]),
                               focal=float(d["focal"]),
                               focal_rule=d.get("focal_rule", "fixed"),
                               name=d.get("name", ""))
            for d in items))


@dataclass(frozen=True)
class PostProcessedModel:
    """Base model composed with per-coordinate input transforms and an
    optional calibration map; evaluation order is fixed as transform, base
    model, calibration."""

    base_model: object
    impact_list: tuple[int, ...]
    params: CompressiveParams
    calibration: object | None = None

    def transform_inputs(self, x: np.ndarray) -> np.ndarray:
        return self.params.apply(np.asarray(x, dtype=float))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        scores = np.asarray(self.base_model(self.transform_inputs(x)), dtype=float)
        if self.calibration is not None:
            scores = np.asarray(self.calibration(scores), dtype=float)
        return scores


def _certify_monotone(tr: PredictorTransform, column: np.ndarray) -> None:
    lo, hi = float(np.min(column)), float(np.max(column))
    if lo == hi:
        return
    grid = np.linspace(lo, hi, _MONOTONE_GRID)
    mapped = tr.apply(grid)
    if not np.all(np.diff(mapped) > 0.0):
        raise ValueError(
            f"transform for predictor {tr.predictor} is not strictly "
            f"increasing on the observed data range")


def build_postprocessed(model, impact_list, params: CompressiveParams,
                        x: np.ndarray | None = None) -> PostProcessedModel:
    """Assemble the intermediate post-processed model.

    ``params`` must cover exactly the impact-list indices.  When ``x`` is
    given, each local transform is certified strictly increasing on a grid
    spanning that data.
    """
    indices = impact_indices(impact_list)
    if sorted(params.indices) != sorted(indices):
        raise ValueError(
            f"transform parameters cover predictors {sorted(params.indices)} "
            f"but the impact list is {sorted(indices)}")
    if len(set(indices)) != len(indices):
        raise ValueError("impact list contains duplicate indices")
    if x is not None:
        x = np.asarray(x, dtype=float)
        for tr in params.transforms:
            if tr.kind == "local":
                _certify_monotone(tr, x[:, tr.predictor])
    return PostProcessedModel(base_model=model, impact_list=indices, params=params)


def focal_point(x: np.ndarray, predictor_index: int, rule: str = "mean",
                g=None) -> float:
    """Focal point of one predictor column: its mean, median, or the pooled
    sample point where the KS distance between the two protected-class
    distributions is attained."""
    x = np.asarray(x, dtype=float)
    column = x[:, predictor_index] if x.ndim == 2 else x
    if column.size == 0:
        raise ValueError("empty column")
    if rule == "mean":
        return float(np.mean(column))
    if rule == "median":
        return float(np.median(column))
    if rule == "ks_argmax":
        if g is None:
            raise ValueError("ks_argmax rule requires protected labels g")
        g = np.asarray(g).ravel().astype(int)
        c0, c1 = column[g == 0], column[g == 1]
        if c0.size == 0 or c1.size == 0:
            raise ValueError("ks_argmax requires both protected classes")
        d0 = build_distribution(c0)
        d1 = build_distribution(c1)
        grid = np.union1d(d0.values, d1.values)
        gaps = np.abs(d0.cdf(grid) - d1.cdf(grid))
        return float(grid[int(np.argmax(gaps))])
    raise ValueError(f"unknown focal rule '{rule}'")
