"""Bias-performance efficient frontier reconstruction.

The search draws a prior sample of post-processing parameters, scores each
once for loss and bias on a holdout split, then for every penalization level
omega runs Bayesian-optimization steps minimizing ``loss + omega * bias``
seeded with the shared prior evaluations.  Every visited parameter point is
finally evaluated on an untouched test split and the nondominated set under
(minimize bias, minimize loss) is extracted.

The default surrogate is a tree-structured Parzen estimator; a Gaussian
process with expected improvement and plain random proposals are pluggable
alternatives.  The same loop drives the model-retraining baseline where the
parameters are boosted-tree hyperparameters.

The prior vectors, and then the omega loops, are independent tasks: loop
``j`` draws from ``default_rng([seed, 1000 + j])`` and reads only the prior
and its own points.  Both families deal each phase's tasks to every CPU in
the process's affinity mask, through workers ``os.fork``ed once per search,
and gather them in task order, so their outputs are identical for any CPU
count; ``taskset -c 0`` gives one worker.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import pickle
import signal
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bias import PartitionSpec, bias_cells
# unused here; bench/workloads.py::trace_targets() looks it up on this module
from .bias import model_bias  # noqa: F401
from .calibrate import CalibrationError, link_linear_calibrate, logistic_refit, pava_isotonic
from .learn import Dataset, GbmConfig, log_loss, train_gbm
from .transform import (TRANSFORMS, CompressiveParams, PredictorTransform, build_postprocessed,
                        focal_point, impact_indices, post_scorer, transform_params)

SURROGATES = ("tpe", "gp", "random")
# fit(post_scores, base_scores, labels) of each method, looking its fitter up when called
CALIBRATIONS = {
    "link_linear": lambda post, base, labels: link_linear_calibrate(post, base),
    "pava": lambda post, base, labels: pava_isotonic(post, base),
    "logistic_refit": lambda post, base, labels: logistic_refit(post, labels),
}
TPE_GOOD_FRACTION = 0.25
TPE_CANDIDATES = 24
GP_CANDIDATES = 256

FRONTIER_COLUMNS = ("omega", "bias", "loss", "dominated_flag", "gamma_json")


@dataclass(frozen=True)
class SearchSpace:
    """Continuous parameter box, penalization grid and search budget."""

    bounds: tuple[tuple[str, float, float], ...]
    omegas: tuple[float, ...]
    n_prior: int
    n_bo: int
    seed: int = 0

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("search space has no parameters")
        for name, lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"parameter '{name}' has invalid bounds ({lo}, {hi})")
        if self.n_prior < 1:
            raise ValueError("n_prior must be >= 1")
        if self.n_bo < 0:
            raise ValueError("n_bo must be >= 0")
        if not self.omegas:
            raise ValueError("search space has no omega values")
        if not all(0 <= w < np.inf for w in self.omegas):  # NaN fails both
            raise ValueError("omega values must be nonnegative and finite")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b[0] for b in self.bounds)

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[2] for b in self.bounds])


@dataclass(frozen=True)
class FrontierPoint:
    gamma: dict
    bias: float
    loss: float
    omega: float | None  # None for prior-sample points


@dataclass(frozen=True)
class Frontier:
    points: tuple[FrontierPoint, ...]           # test-split evaluations
    frontier_indices: tuple[int, ...]
    holdout_points: tuple[FrontierPoint, ...] = field(default=())
    manifest: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        on_frontier = set(self.frontier_indices)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FRONTIER_COLUMNS)
            for i, pt in enumerate(self.points):
                writer.writerow([
                    "" if pt.omega is None else repr(float(pt.omega)),
                    repr(pt.bias), repr(pt.loss),
                    0 if i in on_frontier else 1,
                    json.dumps(pt.gamma, sort_keys=True),
                ])


def pareto_extract(points) -> tuple[int, ...]:
    """Indices of the nondominated ``(bias, loss)`` pairs under (minimize
    bias, minimize loss).

    A point is dominated when another point is no worse in both coordinates
    and strictly better in one.
    """
    bias, loss = np.asarray(points, dtype=float).reshape(len(points), 2).T
    n = bias.size
    if n == 0:
        raise ValueError("no points to extract a frontier from")
    order = np.lexsort((loss, bias))
    keep = []
    best_prefix = np.inf  # min loss over strictly smaller bias values
    i = 0
    while i < n:
        j = i
        group_min = np.inf
        while j < n and bias[order[j]] == bias[order[i]]:
            group_min = min(group_min, loss[order[j]])
            j += 1
        if i == 0 or group_min < best_prefix:  # the first group's minimum, even an infinite one
            keep.extend(int(order[k]) for k in range(i, j)
                        if loss[order[k]] == group_min)
        best_prefix = min(best_prefix, group_min)
        i = j
    return tuple(sorted(keep))


# ---------------------------------------------------------------------------
# surrogate proposal strategies

def _kde_log_density(data, bw, pts, lo, hi):
    z = (pts[:, None] - data[None, :]) / bw
    comps = np.exp(-0.5 * z * z) / (bw * np.sqrt(2.0 * np.pi))
    width = max(hi - lo, 1e-12)
    dens = (comps.sum(axis=1) + 1.0 / width) / (data.size + 1)
    return np.log(np.maximum(dens, 1e-300))


def _bandwidth(data, lo, hi):
    spread = float(np.std(data))
    bw = 1.06 * spread * max(data.size, 2) ** -0.2
    return max(bw, 1e-3 * max(hi - lo, 1e-12))


def _tpe_propose(rng, lo, hi, xs, ys):
    n = ys.size
    n_good = max(1, min(int(np.ceil(TPE_GOOD_FRACTION * n)), n - 1))
    order = np.argsort(ys, kind="stable")
    good, bad = xs[order[:n_good]], xs[order[n_good:]]
    cands = np.empty((TPE_CANDIDATES, lo.size))
    score = np.zeros(TPE_CANDIDATES)
    for j in range(lo.size):
        bw = _bandwidth(good[:, j], lo[j], hi[j])
        comp = rng.integers(0, good.shape[0] + 1, size=TPE_CANDIDATES)
        uniform = rng.uniform(lo[j], hi[j], size=TPE_CANDIDATES)
        centers = good[np.minimum(comp, good.shape[0] - 1), j]
        normal = centers + bw * rng.standard_normal(TPE_CANDIDATES)
        cands[:, j] = np.clip(np.where(comp == good.shape[0], uniform, normal),
                              lo[j], hi[j])
        score += _kde_log_density(good[:, j], bw, cands[:, j], lo[j], hi[j])
        score -= _kde_log_density(bad[:, j], _bandwidth(bad[:, j], lo[j], hi[j]),
                                  cands[:, j], lo[j], hi[j])
    return cands[int(np.argmax(score))]


def _gp_propose(rng, lo, hi, xs, ys):
    span = np.maximum(hi - lo, 1e-12)
    xn = (xs - lo) / span
    mu_y, sd_y = float(np.mean(ys)), max(float(np.std(ys)), 1e-12)
    yn = (ys - mu_y) / sd_y
    ls = 0.2

    def kernel(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-0.5 * d2 / (ls * ls))

    gram = kernel(xn, xn) + 1e-6 * np.eye(xn.shape[0])
    chol = np.linalg.cholesky(gram)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, yn))
    cands = rng.uniform(0.0, 1.0, size=(GP_CANDIDATES, lo.size))
    ks = kernel(cands, xn)
    mean = ks @ alpha
    v = np.linalg.solve(chol, ks.T)
    var = np.maximum(1.0 - (v * v).sum(axis=0), 1e-12)
    sd = np.sqrt(var)
    best = float(np.min(yn))
    z = (best - mean) / sd
    # standard normal cdf and pdf at z
    cdf = 0.5 * np.array([math.erfc(-t / math.sqrt(2.0)) for t in z.tolist()])
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    ei = sd * (z * cdf + pdf)
    return lo + cands[int(np.argmax(ei))] * span


def _propose(surrogate, rng, lo, hi, xs, ys):
    if surrogate == "random" or ys.size < 2:
        return rng.uniform(lo, hi)
    try:
        return (_tpe_propose if surrogate == "tpe" else _gp_propose)(rng, lo, hi, xs, ys)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        warnings.warn(f"surrogate proposal failed ({exc}); falling back to a "
                      "random draw", stacklevel=2)
        return rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# independent tasks on forked workers

def _run_share(fn, tasks) -> list:
    """``(fn(task), warnings)`` for each task, each warning as ``(message,
    category, filename, lineno)``."""
    out = []
    for task in tasks:
        with warnings.catch_warnings(record=True) as caught:
            result = fn(task)
        out.append((result, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
    return out


def _serve(table, inbox, outbox):
    """A forked worker's loop: run each ``(key, tasks)`` message from
    ``inbox`` by ``table[key]`` and write its share, or its exception,
    pickled to ``outbox``.  The end of ``inbox`` or any failure ends the
    process: it never returns into the caller's stack.  A reply that cannot
    be pickled ends it with nothing written."""
    try:
        while True:
            key, tasks = pickle.load(inbox)
            try:
                reply = (True, _run_share(table[key], tasks))
            except BaseException as exc:
                reply = (False, (exc, traceback.format_exc()))
            outbox.write(pickle.dumps(reply))
            outbox.flush()
    finally:
        os._exit(0)


_ENDED = "a search worker ended without a result"


class _Pool:
    """This process and ``workers - 1`` children forked once, which run the
    phases of one search.  A phase is a key into ``table``, so a message
    carries only the key and the tasks, never a closure.

    ``run`` and ``map`` re-raise a child's exception here with its type and
    message.  Leaving the ``with`` block, by success or by any exception,
    ``KeyboardInterrupt`` included, kills and reaps every child.  One worker
    forks nothing and runs the same closures in this process.
    """

    def __init__(self, table: dict, workers: int):
        self.table, self.workers = table, workers
        self.pids, self.pipes = [], []  # per child: (task sink, reply source)

    def __enter__(self):
        try:
            for _ in range(1, self.workers):
                tasks_r, tasks_w, replies_r, replies_w = (
                    os.fdopen(fd, mode)
                    for fd, mode in zip(os.pipe() + os.pipe(), ("rb", "wb", "rb", "wb")))
                self.pipes.append((tasks_w, replies_r))
                with tasks_r, replies_w:
                    pid = os.fork()
                    if pid == 0:
                        for end in itertools.chain.from_iterable(self.pipes):
                            end.close()  # so each child sees the end of its inbox
                        _serve(self.table, tasks_r, replies_w)
                self.pids.append(pid)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
        for pid in self.pids:
            os.waitpid(pid, 0)
        for end in itertools.chain.from_iterable(self.pipes):
            with contextlib.suppress(OSError):  # a write a dead child cut short
                end.close()
        self.pids, self.pipes = [], []

    def run(self, key, shares) -> list:
        """Run the tasks of ``shares[w]`` by ``table[key]`` on worker ``w``,
        this process being worker 0; each worker's ``(result, warnings)``
        per task, each warning as ``(message, category, filename, lineno)``."""
        try:
            for (sink, _), share in zip(self.pipes, shares[1:]):
                pickle.dump((key, share), sink)
                sink.flush()
        except BrokenPipeError:
            raise RuntimeError(_ENDED) from None
        out = [_run_share(self.table[key], shares[0])]
        for _, source in self.pipes:
            try:
                ok, share = pickle.load(source)  # bytes our own fork wrote
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(_ENDED) from None
            if not ok:
                exc, child_traceback = share
                raise exc from RuntimeError(f"raised in a search worker:\n{child_traceback}")
            out.append(share)
        return out

    def map(self, key, tasks) -> list:
        """``[table[key](task) for task in tasks]``, task ``i`` run on worker
        ``i % workers``.  Results come back in task order, and the tasks'
        warnings are re-issued in that order."""
        tasks, n = list(tasks), self.workers
        ordered = [None] * len(tasks)
        for w, share in enumerate(self.run(key, [tasks[w::n] for w in range(n)])):
            ordered[w::n] = share
        for _, caught in ordered:
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
        return [result for result, _ in ordered]


# ---------------------------------------------------------------------------
# generic search loop

def _frontier_search(space: SearchSpace, splits, partition, favorable_sign: int, score,
                     describe, surrogate: str, manifest_extra: dict) -> Frontier:
    """Run the prior + per-omega Bayesian loop over ``score``.

    ``score(vector)`` returns the family's scores on the holdout and test
    splits of ``(train, holdout, test)``; each split's bias cells are
    prepared once, and each distinct vector is scored and measured once per
    process, so the test-split numbers are collected as points are visited.
    The distinct prior vectors, then the omega loops, are independent tasks,
    run by one ``_Pool`` on every CPU in the affinity mask, at most as many
    workers as the larger phase has tasks.  Between the phases each child is
    sent the prior measurements the other workers made.  A vector that loops
    in two workers both visit is measured in each, with the same bits.
    """
    if surrogate not in SURROGATES:
        raise ValueError(f"unknown surrogate '{surrogate}'")
    train, holdout, test = splits
    lo, hi = space.lo, space.hi
    rng = np.random.default_rng(space.seed)
    cells = [bias_cells(split.g, partition, split.columns) for split in (holdout, test)]

    def measure(vec):  # ((holdout loss, bias), (test loss, bias))
        return tuple((log_loss(split.y, scores), split_cells.measure(scores, favorable_sign).total)
                     for scores, split, split_cells in zip(score(vec), (holdout, test), cells))

    prior = [rng.uniform(lo, hi) for _ in range(space.n_prior)]
    distinct = {vec.tobytes(): vec for vec in prior}
    cache = {}

    def scored(vec):
        key = vec.tobytes()
        if key not in cache:
            cache[key] = measure(vec)
        return cache[key]

    def omega_loop(j):  # the loop's visited points, each with its measurements
        omega = space.omegas[j]
        rng_j = np.random.default_rng([space.seed, 1000 + j])
        hist_x = list(prior)
        hist_y = [loss + omega * bias for (loss, bias), _ in map(scored, prior)]
        points = []
        for _ in range(space.n_bo):
            vec = _propose(surrogate, rng_j, lo, hi, np.asarray(hist_x), np.asarray(hist_y))
            measured = scored(vec)
            (loss, bias), _ = measured
            hist_x.append(vec)
            hist_y.append(loss + omega * bias)
            points.append((vec, float(omega), measured))
        return points

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, max(len(distinct), len(space.omegas)))
    table = {"measure": scored, "omega_loop": omega_loop, "learn": cache.update}
    with _Pool(table, workers) as pool:
        keys = list(distinct)
        cache.update(zip(keys, pool.map("measure", distinct.values())))
        # worker w measured keys[w::workers]; it is sent the rest
        pool.run("learn", [[]] + [[{k: cache[k] for i, k in enumerate(keys) if i % workers != w}]
                                  for w in range(1, workers)])
        visited = [(vec, None, cache[vec.tobytes()]) for vec in prior]
        for points in pool.map("omega_loop", range(len(space.omegas))):
            visited.extend(points)

    holdout_points, test_points = [], []
    for vec, omega, measured in visited:
        gamma = describe(vec)
        for points, (loss, bias) in zip((holdout_points, test_points), measured):
            points.append(FrontierPoint(gamma=gamma, bias=bias, loss=loss, omega=omega))

    manifest = {
        "seed": space.seed,
        "n_prior": space.n_prior,
        "n_bo": space.n_bo,
        "omegas": list(space.omegas),
        "bounds": [[n, lo_, hi_] for n, lo_, hi_ in space.bounds],
        "surrogate": surrogate,
        **manifest_extra,
        "favorable_sign": favorable_sign,
        "splits": {"train": train.n_rows, "holdout": holdout.n_rows, "test": test.n_rows},
    }
    return Frontier(points=tuple(test_points),
                    frontier_indices=pareto_extract([(p.bias, p.loss) for p in test_points]),
                    holdout_points=tuple(holdout_points), manifest=manifest)


# ---------------------------------------------------------------------------
# post-processing family

def transform_search_space(impact_list, transform_kind: str, a_bounds=(0.5, 2.0),
                           sigma_bounds=(1.0, 2.0), omegas=(0.0,), n_prior=100,
                           n_bo=20, seed=0,
                           feature_names: tuple[str, ...] | None = None) -> SearchSpace:
    """Parameter box for one transform family over the impact list.

    Raises ``ValueError`` if a corner of the box lies outside the family's
    domain, before anything is evaluated.
    """
    param_names = transform_params(transform_kind)
    bounds = []
    for i in impact_indices(impact_list):
        label = feature_names[i] if feature_names is not None else f"x{i + 1}"
        for param in param_names:
            lo, hi = sigma_bounds if param == "sigma" else a_bounds
            bounds.append((f"{param}_{label}", float(lo), float(hi)))
    space = SearchSpace(bounds=tuple(bounds), omegas=tuple(float(w) for w in omegas),
                        n_prior=n_prior, n_bo=n_bo, seed=seed)
    for corner in (space.lo, space.hi):  # predictors share one box; domains are intervals
        TRANSFORMS[transform_kind][1](0.0, *corner[:len(param_names)].tolist(), 0.0)
    return space


def _params_from_vector(vec, indices, transform_kind, focals, focal_rule, names):
    k = len(transform_params(transform_kind))
    return CompressiveParams(transforms=tuple(
        PredictorTransform(predictor=i, kind=transform_kind,
                           params=tuple(float(v) for v in vec[n * k:(n + 1) * k]),
                           focal=focals[i], focal_rule=focal_rule,
                           name=names[i])
        for n, i in enumerate(indices)))


def _calibration_fit(method):
    if method is not None and method not in CALIBRATIONS:
        raise ValueError(f"unknown calibration method '{method}'")
    return CALIBRATIONS.get(method)


def build_calibrated(model, params: CompressiveParams, data: Dataset,
                     calibration: str | None = "link_linear", base_scores=None,
                     post_scores=None):
    """Post-process, then calibrate on ``data`` by ``CALIBRATIONS[calibration]``, if any.

    ``base_scores`` are the base model's scores on ``data``, and
    ``post_scores`` its scores on the transformed rows of ``data``, when the
    caller already has them; a fit computes them otherwise.  Returns
    ``(post_processed_model, failed)``; a failed calibration fit
    (non-monotone or degenerate) leaves the model uncalibrated.
    """
    fit = _calibration_fit(calibration)
    post = build_postprocessed(model, params)
    if fit is None:
        return post, False
    if base_scores is None:
        base_scores = model(data.x)
    scores = post(data.x) if post_scores is None else np.asarray(post_scores, dtype=float)
    try:
        calib = fit(scores, np.asarray(base_scores, dtype=float), data.y)
    except CalibrationError:
        return post, True
    return replace(post, calibration=calib), False


def run_algorithm1(model, train: Dataset, holdout: Dataset, test: Dataset,
                   impact_list, space: SearchSpace, transform_kind: str = "global",
                   focal_rule: str = "mean", partition: PartitionSpec | None = None,
                   favorable_sign: int = 1, calibration: str | None = "link_linear",
                   surrogate: str = "tpe") -> Frontier:
    """Efficient-frontier reconstruction over the post-processed family.

    Focal points come from the training split; calibration is fitted on the
    holdout split (the in-loop data); the frontier is reported on the test
    split.  The evaluations run on every CPU in the affinity mask, in this
    process alone under ``taskset -c 0`` or where ``os`` has no affinity
    call, with the same result for any count.
    """
    indices = impact_indices(impact_list)
    if not indices:
        raise ValueError("impact list is empty")
    names = train.feature_names
    focals = {i: focal_point(train.x, i, rule=focal_rule, g=train.g) for i in indices}
    dims_per = len(transform_params(transform_kind))
    if len(space.bounds) != dims_per * len(indices):
        raise ValueError(
            f"search space has {len(space.bounds)} parameters but the "
            f"{transform_kind} family over {len(indices)} predictors needs "
            f"{dims_per * len(indices)}")

    base_holdout = model(holdout.x) if _calibration_fit(calibration) else None  # fits read it
    score_holdout, score_test = (post_scorer(model, split.x, indices)
                                 for split in (holdout, test))

    def score(vec):
        params = _params_from_vector(vec, indices, transform_kind, focals,
                                     focal_rule, names)
        scores_h = score_holdout(params)
        fitted, _ = build_calibrated(model, params, holdout, calibration,
                                     base_scores=base_holdout, post_scores=scores_h)
        return fitted.calibrate(scores_h), fitted.calibrate(score_test(params))

    def describe(vec):
        return dict(zip(space.names, (float(v) for v in vec)))

    extra = {
        "family": "postprocess",
        "transform_kind": transform_kind,
        "focal_rule": focal_rule,
        "focal_points": {names[i]: focals[i] for i in indices},
        "impact_list": list(indices),
        "calibration": calibration,
    }
    return _frontier_search(space, (train, holdout, test), partition, favorable_sign,
                            score, describe, surrogate, extra)


GBM_BASELINE_BOUNDS = (
    ("n_estimators", 40.0, 250.0),
    ("max_leaves", 4.0, 20.0),
    ("max_depth", 2.0, 20.0),
    ("learning_rate", 0.05, 0.5),
)


def run_hyperparam_baseline(train: Dataset, holdout: Dataset, test: Dataset,
                            space: SearchSpace, partition: PartitionSpec | None = None,
                            favorable_sign: int = 1, surrogate: str = "tpe") -> Frontier:
    """Frontier search over boosted-tree hyperparameters, retraining at every
    evaluation; the comparison baseline for the post-processing family.
    ``space`` names n_estimators, max_leaves, max_depth and learning_rate (the
    CLI searches ``GBM_BASELINE_BOUNDS``); the rest are ``GbmConfig``'s defaults.
    The fits run on every CPU in the affinity mask, in this process alone
    where ``os`` has no affinity call, with the same result for any count."""

    def config_from(vec):
        named = dict(zip(space.names, vec))
        return GbmConfig(
            n_estimators=int(round(named["n_estimators"])),
            max_leaves=int(round(named["max_leaves"])),
            max_depth=int(round(named["max_depth"])),
            learning_rate=float(named["learning_rate"]),
        )

    def score(vec):
        gbm = train_gbm(train.x, train.y, config_from(vec))
        return gbm(holdout.x), gbm(test.x)

    def describe(vec):
        cfg = config_from(vec)
        return {name: getattr(cfg, name) for name in space.names}

    extra = {"family": "gbm_hyperparameters", "min_samples_leaf": GbmConfig.min_samples_leaf}
    return _frontier_search(space, (train, holdout, test), partition, favorable_sign,
                            score, describe, surrogate, extra)


def best_gamma_at_omega(frontier: Frontier, omega: float = 0.0) -> dict:
    """Parameters minimizing ``loss + omega * bias`` on the holdout split."""
    pts = frontier.holdout_points
    if not pts:
        raise ValueError("frontier carries no holdout evaluations")
    scores = [p.loss + omega * p.bias for p in pts]
    return pts[int(np.argmin(scores))].gamma
