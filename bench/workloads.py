"""The benchmark's workloads: set-up, one op, and the check of its output.

Every workload builds its inputs from the workload seed; ops cycle through
``cycle`` per-op seeds drawn from the same seed.  Sizes are a fraction of
the paper-scale runs, so that one op takes 0.4-1 s on two cores and a
20-second run holds enough ops for a steady median.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

import numpy as np

from fairpost import attribution, bias, calibrate, cli, explain, learn, mitigate, transform
from fairpost.bias import PartitionSpec

from checks import CheckFailed, check_close, check_frontier, file_digest
from spans import Target

SIGN = -1  # favorable direction used by every workload


class Workload:
    name = ""
    cycle = 4  # distinct per-op seeds; a run covers whole cycles

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.data_seed = rng.randrange(1, 2**31)
        self.op_seeds = [rng.randrange(1, 2**31) for _ in range(self.cycle)]
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError

    def run(self, op_seed: int):
        raise NotImplementedError

    def check(self, op_seed: int, output) -> dict:
        """Raise CheckFailed on a wrong output; otherwise return the op's
        ``evals``, output ``digest`` and, for frontier ops, ``frontier`` and
        ``points`` counts."""
        raise NotImplementedError


def _split(n_rows: int, seed: int):
    data = learn.generate(learn.SyntheticSpec("M1", n_rows, seed=seed))
    return learn.split_dataset(data, fractions=(0.5, 0.25, 0.25), seed=seed)


def _frontier_record(bias_, loss, frontier, expected: int, path: Path) -> dict:
    check_frontier(bias_, loss, frontier, expected)
    return {"evals": expected, "digest": file_digest(path),
            "frontier": len(frontier), "points": expected}


def _frontier_result(front, expected: int, path: Path) -> dict:
    front.to_csv(path)
    return _frontier_record([p.bias for p in front.points],
                            [p.loss for p in front.points],
                            front.frontier_indices, expected, path)


class MitigateGbm(Workload):
    """``fairpost mitigate`` in-process on a 10,000-row CSV with a default
    GBM; the frontier evaluations are GBM scoring of 2,500-row blocks."""

    name = "mitigate-gbm"
    DATA_ROWS = 10_000
    TRAIN_ROWS = 4_000
    N_PRIOR, N_BO, OMEGA_STEPS = 4, 1, 2

    def setup(self):
        self.data_csv = self.work / "data.csv"
        self.train_csv = self.work / "train.csv"
        self.model_json = self.work / "model.json"
        learn.generate(learn.SyntheticSpec("M1", self.DATA_ROWS, seed=self.data_seed)
                       ).to_csv(self.data_csv)
        learn.generate(learn.SyntheticSpec("M1", self.TRAIN_ROWS, seed=self.data_seed + 1)
                       ).to_csv(self.train_csv)
        code = cli.main(["train", "--data", str(self.train_csv), "--kind", "gbm",
                         "--sign", str(SIGN), "--out", str(self.model_json)])
        if code != 0:
            raise RuntimeError(f"fairpost train exited with {code}")

    def inputs(self):
        return {"data_rows": self.DATA_ROWS, "model_train_rows": self.TRAIN_ROWS,
                "model": "gbm, default GbmConfig", "split": [0.5, 0.25, 0.25],
                "transform": "global on x1,x3", "partition": "sp",
                "n_prior": self.N_PRIOR, "n_bo": self.N_BO,
                "omega_steps": self.OMEGA_STEPS}

    def run(self, op_seed):
        out = self.work / f"frontier-{op_seed}.csv"
        code = cli.main([
            "mitigate", "--data", str(self.data_csv), "--model", str(self.model_json),
            "--predictors", "x1,x3", "--transform", "global", "--sign", str(SIGN),
            "--partition", "sp", "--n-prior", str(self.N_PRIOR),
            "--n-bo", str(self.N_BO), "--omega-steps", str(self.OMEGA_STEPS),
            "--seed", str(op_seed), "--out", str(out)])
        return code, out

    def check(self, op_seed, output):
        code, out = output
        if code != 0:
            raise CheckFailed(f"fairpost mitigate exited with {code}")
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return _frontier_record(
            [float(r["bias"]) for r in rows], [float(r["loss"]) for r in rows],
            [i for i, r in enumerate(rows) if r["dominated_flag"] == "0"],
            self.N_PRIOR + self.OMEGA_STEPS * self.N_BO, out)


class MitigateLogistic(Workload):
    """``run_algorithm1`` over a logistic model on 100,000 rows: scoring is
    one matrix-vector product, so W1 sorting, calibration and transforms
    carry the time.  The only workload with the equalized-odds partition."""

    name = "mitigate-logistic"
    ROWS = 100_000
    PREDICTORS = (0, 2, 4)
    N_PRIOR, N_BO, OMEGAS = 12, 3, (0.0, 1.0, 2.0)

    def setup(self):
        self.train, self.holdout, self.test = _split(self.ROWS, self.data_seed)
        self.model = learn.train_logistic(self.train.x, self.train.y,
                                          favorable_sign=SIGN)

    def inputs(self):
        return {"rows": self.ROWS, "split": [0.5, 0.25, 0.25], "model": "logistic",
                "transform": "asymmetric on x1,x3,x5", "partition": "eo",
                "n_prior": self.N_PRIOR, "n_bo": self.N_BO,
                "omegas": list(self.OMEGAS)}

    def run(self, op_seed):
        space = mitigate.transform_search_space(
            self.PREDICTORS, "asymmetric", omegas=self.OMEGAS,
            n_prior=self.N_PRIOR, n_bo=self.N_BO, seed=op_seed,
            feature_names=self.train.feature_names)
        return mitigate.run_algorithm1(
            self.model, self.train, self.holdout, self.test, self.PREDICTORS,
            space, transform_kind="asymmetric", partition=PartitionSpec.by_label(),
            favorable_sign=SIGN)

    def check(self, op_seed, output):
        return _frontier_result(output, self.N_PRIOR + len(self.OMEGAS) * self.N_BO,
                                self.work / f"frontier-{op_seed}.csv")


class ExplainGbm(Workload):
    """PDP, basic bias explanations and the exact Shapley bias game of a GBM
    on a sample of training rows: the model runs on a few large blocks."""

    name = "explain-gbm"
    ROWS = 8_000
    SAMPLE_ROWS = 100
    BACKGROUND_ROWS = 20

    def setup(self):
        self.train, _, _ = _split(self.ROWS, self.data_seed)
        self.model = learn.train_gbm(self.train.x, self.train.y,
                                     favorable_sign=SIGN)

    def inputs(self):
        return {"rows": self.ROWS, "model_train_rows": self.train.n_rows,
                "model": "gbm, default GbmConfig", "sample_rows": self.SAMPLE_ROWS,
                "background_rows": self.BACKGROUND_ROWS, "partition": "sp"}

    def run(self, op_seed):
        rng = np.random.default_rng(op_seed)
        sample = self.train.subset(np.sort(rng.choice(
            self.train.n_rows, size=self.SAMPLE_ROWS, replace=False)))
        background = explain.default_background(self.train.x, seed=op_seed,
                                                max_rows=self.BACKGROUND_ROWS)
        partition = PartitionSpec.all_rows()
        names = sample.feature_names
        pdp = explain.pdp_output(self.model, sample.x, background)
        basic = attribution.basic_bias_explanations(
            pdp, sample.g, partition, SIGN, columns=sample.columns, names=names)
        game = attribution.shapley_bias_game(
            self.model, sample.x, sample.g, group_explainer="game", mode="exact",
            background=background, partition=partition, columns=sample.columns,
            favorable_sign=SIGN, names=names)
        return sample, basic, game

    def check(self, op_seed, output):
        sample, basic, game = output
        for table in (basic, game):
            arrays = [table.beta, table.beta_pos, table.beta_neg]
            if not all(np.all(np.isfinite(a)) and np.all(a >= 0.0) for a in arrays):
                raise CheckFailed(f"{table.kind} attributions not finite and >= 0")
        report = bias.model_bias(self.model(sample.x), sample.g,
                                 PartitionSpec.all_rows(), SIGN,
                                 columns=sample.columns)
        check_close("superposition positive", float(np.sum(game.bpp - game.bpm)),
                    report.positive)
        check_close("superposition negative", float(np.sum(game.bmp - game.bmm)),
                    report.negative)
        paths = (self.work / f"pdp-{op_seed}.csv", self.work / f"game-{op_seed}.csv")
        basic.to_csv(paths[0])
        game.to_csv(paths[1])
        p = sample.x.shape[1]
        return {"evals": p + (1 << p) - 1, "digest": file_digest(*paths)}


class RetrainBaseline(Workload):
    """``run_hyperparam_baseline``: every evaluation trains a GBM, so split
    search in ``train_gbm`` carries the time."""

    name = "retrain-baseline"
    cycle = 16
    ROWS = 1_200
    N_PRIOR, N_BO, OMEGAS = 6, 2, (0.0, 2.0)
    # tree shape fixed, so the cost of one fit varies only with
    # n_estimators and one op's cost hardly depends on its seed
    BOUNDS = (("n_estimators", 15.0, 25.0), ("max_leaves", 8.0, 8.0),
              ("max_depth", 3.0, 3.0), ("learning_rate", 0.05, 0.5))

    def setup(self):
        self.train, self.holdout, self.test = _split(self.ROWS, self.data_seed)

    def inputs(self):
        return {"rows": self.ROWS, "split": [0.5, 0.25, 0.25],
                "bounds": [list(b) for b in self.BOUNDS], "n_prior": self.N_PRIOR,
                "n_bo": self.N_BO, "omegas": list(self.OMEGAS)}

    def run(self, op_seed):
        space = mitigate.SearchSpace(bounds=self.BOUNDS, omegas=self.OMEGAS,
                                     n_prior=self.N_PRIOR, n_bo=self.N_BO,
                                     seed=op_seed)
        return mitigate.run_hyperparam_baseline(self.train, self.holdout, self.test,
                                                space=space, favorable_sign=SIGN)

    def check(self, op_seed, output):
        return _frontier_result(output, self.N_PRIOR + len(self.OMEGAS) * self.N_BO,
                                self.work / f"frontier-{op_seed}.csv")


WORKLOADS = {w.name: w for w in (MitigateGbm, MitigateLogistic, ExplainGbm,
                                 RetrainBaseline)}


def _rows(arg) -> int:
    return int(np.shape(arg)[0])


def _game_rows(args, kwargs, result) -> dict:
    # rows of model input one marginal_game_values call builds
    _, x, background, subset = args
    n, p = np.shape(x)
    b = _rows(background)
    k = len(subset)
    rows = n if k == p else b if k == 0 else n * b
    return {"explain.game_calls": 1, "explain.block_rows": rows}


def _counts(**fixed):
    return lambda a, k, r: fixed


def trace_targets() -> list:
    """Layer entry points wrapped by the traced run, at the module attributes
    through which the calling layer reaches them."""
    fit = _counts(**{"calibrate.fit_calls": 1})
    w1 = _counts(**{"empirical.w1_calls": 1})
    return [
        Target(learn.TrainedModel, "__call__", "learn.predict",
               lambda a, k, r: {"learn.predict_calls": 1,
                                "learn.predict_rows": _rows(a[1])}),
        Target(mitigate, "train_gbm", "learn.train",
               _counts(**{"learn.train_calls": 1, "mitigate.evals": 1})),
        Target(mitigate, "log_loss", "learn.log_loss"),
        Target(transform.CompressiveParams, "apply", "transform.apply",
               lambda a, k, r: {"transform.apply_rows": _rows(a[1])}),
        Target(mitigate, "build_postprocessed", "transform.build"),
        Target(mitigate, "link_linear_calibrate", "calibrate.fit", fit),
        Target(mitigate, "pava_isotonic", "calibrate.fit", fit),
        Target(mitigate, "logistic_refit", "calibrate.fit", fit),
        Target(calibrate.CalibrationMap, "__call__", "calibrate.map"),
        Target(mitigate, "model_bias", "bias.model_bias",
               lambda a, k, r: {"bias.calls": 1, "bias.rows": _rows(a[0])}),
        Target(bias, "build_distribution", "empirical.build"),
        Target(bias, "wasserstein1_signed", "empirical.w1", w1),
        Target(attribution, "build_distribution", "empirical.build"),
        Target(attribution, "wasserstein1_signed", "empirical.w1", w1),
        Target(explain, "pdp_output", "explain.pdp_output"),
        Target(explain, "marginal_game_values", "explain.game_values", _game_rows),
        Target(attribution, "marginal_game_values", "explain.game_values",
               lambda a, k, r: {**_game_rows(a, k, r), "attribution.coalitions": 1}),
        Target(attribution, "basic_bias_explanations", "attribution.basic"),
        Target(attribution, "shapley_bias_game", "attribution.shapley_game"),
        Target(mitigate, "run_algorithm1", "mitigate.run_algorithm1"),
        Target(cli, "run_algorithm1", "mitigate.run_algorithm1"),
        Target(mitigate, "run_hyperparam_baseline", "mitigate.run_hyperparam_baseline"),
        Target(mitigate, "build_calibrated", "mitigate.build_calibrated",
               _counts(**{"mitigate.evals": 1})),
        Target(cli, "main", "cli.main"),
        Target(learn.Dataset, "from_csv", "cli.read_csv",
               lambda a, k, r: {"cli.rows_read": r.n_rows}),
    ]
