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

from .calibrate import binary_labels, json_field
from .empirical import _ks

# The local map t - d (1 - 1/a) exp(-u), with d = t - t* and u = d^2 / (2 sigma^2),
# has slope 1 - (1 - 1/a) exp(-u) (1 - 2u), and exp(-u) (1 - 2u) lies in
# [-2 e^-1.5, 1].  So the slope is at least 1/a for a >= 1 and at least
# 1 - 2 e^-1.5 (1/a - 1) for a < 1: positive for every a > 1 / (1 + e^1.5 / 2)
# ~ 0.309, whatever sigma and t.  At a = LOCAL_A_MIN it is at least 0.33, and
# transform_local rejects smaller a, so every accepted local map is strictly
# increasing and needs no check on data.
LOCAL_A_MIN = 0.4

def impact_indices(impact_list) -> tuple[int, ...]:
    """Predictor indices of an ImpactList (its M) or of a sequence of
    integers; a boolean, fraction or string is refused, not truncated."""
    indices = tuple(getattr(impact_list, "M", impact_list))
    for i in indices:
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"predictor index {i!r} is not an integer")
    return tuple(int(i) for i in indices)


def transform_global(t, a: float, t_star: float):
    """Linear pull toward the focal point: ``(t - t*)/a + t*``."""
    if not 0 < a < np.inf:  # NaN fails both
        raise ValueError("a must be positive and finite")
    t = np.asarray(t, dtype=float)
    out = (t - t_star) / a + t_star
    return float(out) if out.ndim == 0 else out


def transform_asymmetric(t, a_minus: float, a_plus: float, t_star: float):
    """Two-sided linear compression with separate rates below and above the
    focal point."""
    if not (0 < a_minus < np.inf and 0 < a_plus < np.inf):
        raise ValueError("a_minus and a_plus must be positive and finite")
    t = np.asarray(t, dtype=float)
    # min(d, 0) / a_minus + max(d, 0) / a_plus + t*, the same operations in two buffers
    d = np.subtract(t, t_star, out=np.empty_like(t))
    out = np.minimum(d, 0.0, out=np.empty_like(t))
    out /= a_minus
    np.maximum(d, 0.0, out=d)
    d /= a_plus
    out += d
    out += t_star
    return float(out) if out.ndim == 0 else out


def transform_local(t, a: float, sigma: float, t_star: float):
    """Gaussian-window compression: near-linear pull within ~sigma of the
    focal point, near-identity far from it."""
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    if not LOCAL_A_MIN <= a < np.inf:
        raise ValueError(f"a={a} is outside the certified-monotone region "
                         f"{LOCAL_A_MIN} <= a < inf")
    t = np.asarray(t, dtype=float)
    d = t - t_star
    out = t - d * (1.0 - 1.0 / a) * np.exp(-d * d / (2.0 * sigma * sigma))
    return float(out) if out.ndim == 0 else out


# each family's parameter names, in PredictorTransform.params order, and map(t, *params, t*)
TRANSFORMS = {"global": (("a",), transform_global),
              "asymmetric": (("a_minus", "a_plus"), transform_asymmetric),
              "local": (("a", "sigma"), transform_local)}

FOCAL_RULES = ("mean", "median", "ks_argmax")


def transform_params(kind: str) -> tuple[str, ...]:
    """Parameter names of one transform family."""
    if kind not in TRANSFORMS:
        raise ValueError(f"unknown transform kind '{kind}'")
    return TRANSFORMS[kind][0]


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
        if not -np.inf < self.focal < np.inf:  # NaN fails both
            raise ValueError(f"the focal point of predictor {self.name or self.predictor} "
                             f"must be finite, got {self.focal}")

    def apply(self, t):
        return TRANSFORMS[self.kind][1](t, *self.params, self.focal)


@dataclass(frozen=True)
class CompressiveParams:
    """Per-predictor transform collection for an impact list."""

    transforms: tuple[PredictorTransform, ...]

    def __post_init__(self):
        for k, tr in enumerate(self.transforms):
            if tr.predictor in self.indices[:k]:
                raise ValueError(f"duplicate transform for predictor {tr.name or tr.predictor}")

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
        if not (isinstance(items, list) and all(isinstance(d, dict) for d in items)):
            raise ValueError("compressive parameters must be a JSON list of objects")

        def field(d, key, dtype):
            return json_field(d[key], dtype, f"transform field '{key}'", "compressive parameters")

        return CompressiveParams(transforms=tuple(
            PredictorTransform(predictor=field(d, "predictor", int), kind=field(d, "kind", str),
                               params=tuple(field(d, "params", [float]).tolist()),
                               focal=field(d, "focal", float),
                               focal_rule=field(d, "focal_rule", str), name=field(d, "name", str))
            for d in ({"focal_rule": "fixed", "name": "", **d} for d in items)))


@dataclass(frozen=True)
class PostProcessedModel:
    """Base model composed with per-coordinate input transforms and an
    optional calibration map; evaluation order is fixed as transform, base
    model, calibration."""

    base_model: object
    params: CompressiveParams
    calibration: object | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.calibrate(self.base_model(self.params.apply(x)))

    def calibrate(self, scores) -> np.ndarray:
        """The last step of the model: the calibration map, if any, applied to
        the base model's scores of transformed rows."""
        scores = np.asarray(scores, dtype=float)
        if self.calibration is not None:
            scores = np.asarray(self.calibration(scores), dtype=float)
        return scores


def build_postprocessed(model, params: CompressiveParams) -> PostProcessedModel:
    """Assemble the intermediate post-processed model over the predictors
    that ``params`` name."""
    return PostProcessedModel(base_model=model, params=params)


def post_scorer(model, x: np.ndarray, impact_list):
    """The base model's scores of the rows of ``x`` post-processed by any
    parameters over the impact list.

    Returns ``score(params)``, the scores ``model(params.apply(x))``, where
    ``params`` must cover exactly the impact-list indices.  A GBM scores
    through ``TrainedModel.replaced_scores``, which tests the nodes on the
    other columns once, here.
    """
    x = np.asarray(x, dtype=float)
    indices = impact_indices(impact_list)
    scorer = model.replaced_scores(x, indices) if getattr(model, "kind", None) == "gbm" else model

    def score(params):
        if sorted(params.indices) != sorted(indices):
            raise ValueError(f"transform parameters cover predictors {sorted(params.indices)} "
                             f"but the impact list is {sorted(indices)}")
        return np.asarray(scorer(params.apply(x)), dtype=float)

    return score


def focal_point(x: np.ndarray, predictor_index: int, rule: str = "mean",
                g=None) -> float:
    """Focal point of one predictor column: its mean, median, or the pooled
    sample point where the KS distance between the two protected-class
    distributions is attained (the smallest such point)."""
    if rule not in FOCAL_RULES:
        raise ValueError(f"unknown focal rule '{rule}'")
    x = np.asarray(x, dtype=float)
    column = x[:, predictor_index] if x.ndim == 2 else x
    if column.size == 0:
        raise ValueError("empty column")
    if rule == "mean":
        return float(np.mean(column))
    if rule == "median":
        return float(np.median(column))
    if g is None:
        raise ValueError("ks_argmax rule requires protected labels g")
    g = binary_labels(g, "g must be binary 0/1")
    c0, c1 = column[g == 0], column[g == 1]
    if c0.size == 0 or c1.size == 0:
        raise ValueError("ks_argmax requires both protected classes")
    return _ks(c0, c1)[1]
