"""Batch command-line interface.

Subcommands cover the full pipeline: synthetic data generation, model
training, bias reports, attribution tables, frontier search, compression
curves, calibration fitting and the hyperparameter-search baseline.  Every
subcommand writes a ``<out>.manifest.json`` recording the settings needed to
reproduce its outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .attribution import basic_bias_explanations, ibe_table, select_impactful
from .bias import PartitionSpec, bias_cells, model_bias
from .calibrate import CalibrationError, auc
from .explain import default_background, marginal_shapley, pdp_output
from .learn import (MODEL_KINDS, Dataset, GbmConfig, SyntheticSpec, TrainedModel, generate,
                    split_dataset, train_gbm, train_logistic)
from .mitigate import (
    CALIBRATIONS,
    GBM_BASELINE_BOUNDS,
    SURROGATES,
    SearchSpace,
    _params_from_vector,
    build_calibrated,
    run_algorithm1,
    run_hyperparam_baseline,
    transform_search_space,
)
from .transform import FOCAL_RULES, TRANSFORMS, CompressiveParams, focal_point, post_scorer

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# --partition's choices, and the partition each one builds
PARTITIONS = {"sp": PartitionSpec.all_rows, "eo": PartitionSpec.by_label}


def _write_manifest(args, **derived) -> None:
    """Write ``<out>.manifest.json``: every parsed flag, then the values the
    command derived from them."""
    settings = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    settings.update(derived)
    payload = {"command": args.command, "version": __version__, "settings": settings}
    with open(f"{args.out}.manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model(path: str) -> TrainedModel:
    with open(path) as fh:
        return TrainedModel.from_json(fh.read())


def _parse_grid(text: str) -> list[float]:
    # "1:15:15" -> 15 points from 1 to 15; "1,2,5" -> explicit list
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            grid = list(np.linspace(float(lo), float(hi), int(count)))
        else:
            grid = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--a-grid '{text}' is neither lo:hi:count (count an integer) "
                         "nor comma-separated values") from None
    if not grid:
        raise ValueError("--a-grid holds no values")
    return grid


def cmd_generate(args) -> None:
    spec = SyntheticSpec(model_id=args.model, n_rows=args.n, seed=args.seed)
    data = generate(spec)
    data.to_csv(args.out)


def cmd_train(args) -> None:
    data = Dataset.from_csv(args.data)
    if args.kind == "gbm":
        config = GbmConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(GbmConfig)})
        model = train_gbm(data.x, data.y, config, favorable_sign=args.sign)
    else:
        model = train_logistic(data.x, data.y, favorable_sign=args.sign)
    with open(args.out, "w") as fh:
        fh.write(model.to_json())


def cmd_bias(args) -> None:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    report = model_bias(model(data.x), data.g, PARTITIONS[args.partition](),
                        favorable_sign=args.sign, columns=data.columns)
    with open(args.out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def cmd_explain(args) -> None:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    partition = PARTITIONS[args.partition]()
    if args.method == "ibe":
        table = ibe_table(model, data.x, data.g, n_anchors=args.anchors,
                          partition=partition, columns=data.columns,
                          favorable_sign=args.sign, seed=args.seed,
                          names=data.feature_names)
    else:
        background = default_background(data.x, seed=args.seed, max_rows=args.background)
        out = (pdp_output(model, data.x, background) if args.method == "pdp" else
               marginal_shapley(model, data.x, background, mode="sampled",
                                n_permutations=args.permutations, seed=args.seed))
        table = basic_bias_explanations(out, data.g, partition, args.sign,
                                        columns=data.columns, names=data.feature_names)
        table = dataclasses.replace(table, kind=args.method)  # labelled by its explainer
    table.to_csv(args.out)


def _omegas(args) -> list[float]:
    return [args.omega_max * j / max(args.omega_steps - 1, 1)
            for j in range(args.omega_steps)]


def _predictor_indices(data: Dataset, text: str) -> tuple[int, ...]:
    names = {n: i for i, n in enumerate(data.feature_names)}
    out = []
    for token in text.split(","):
        token = token.strip()
        if token not in names:
            raise ValueError(f"unknown predictor '{token}'")
        out.append(names[token])
    return tuple(out)


def cmd_mitigate(args) -> dict:
    if args.m_star < 0:  # checked here too, since --predictors leaves it unused
        raise ValueError("m_star must be nonnegative")
    # only the splits are kept: the whole dataset would live as long as the search
    train, holdout, test = split_dataset(Dataset.from_csv(args.data), seed=args.seed)
    model = _load_model(args.model)
    if args.predictors:
        indices = _predictor_indices(train, args.predictors)
    else:
        background = default_background(train.x, seed=args.seed, max_rows=200)
        table = basic_bias_explanations(pdp_output(model, train.x, background),
                                        train.g, PARTITIONS[args.partition](),
                                        args.sign, columns=train.columns,
                                        names=train.feature_names)
        indices = select_impactful(table, m_star=args.m_star).M
        if not indices:
            raise ValueError(f"automatic selection with --m-star {args.m_star} chose no "
                             "predictors; name them with --predictors")
    omegas = _omegas(args)
    space = transform_search_space(indices, args.transform,
                                   a_bounds=(args.a_lo, args.a_hi),
                                   sigma_bounds=(args.sigma_lo, args.sigma_hi),
                                   omegas=omegas, n_prior=args.n_prior,
                                   n_bo=args.n_bo, seed=args.seed,
                                   feature_names=train.feature_names)
    frontier = run_algorithm1(model, train, holdout, test, indices, space,
                              transform_kind=args.transform, focal_rule=args.focal,
                              partition=PARTITIONS[args.partition](),
                              favorable_sign=args.sign, surrogate=args.surrogate)
    frontier.to_csv(args.out)
    return {"predictors": list(indices), "omegas": omegas,
            "frontier_manifest": frontier.manifest}


def cmd_curve(args) -> None:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    indices = _predictor_indices(data, args.predictors)
    grid = _parse_grid(args.a_grid)
    partition = PARTITIONS[args.partition]()
    focals = {i: focal_point(data.x, i, rule=args.focal, g=data.g) for i in indices}
    score = post_scorer(model, data.x, indices)
    cells = bias_cells(data.g, partition, data.columns)
    rows = []
    for a in grid:
        params = _params_from_vector([a] * len(indices), indices, "global", focals,
                                     args.focal, data.feature_names)
        report = cells.measure(score(params), args.sign)
        rows.append((a, report.total, report.positive, report.negative))
    with open(args.out, "w") as fh:
        fh.write("a,total,positive,negative\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_calibrate(args) -> dict:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    with open(args.params) as fh:
        params = CompressiveParams.from_json(fh.read())
    if not all(0 <= i < data.x.shape[1] for i in params.indices):
        raise ValueError(f"--params names predictors {list(params.indices)}; the data "
                         f"has {data.x.shape[1]}")
    scores = model(params.apply(data.x))
    fitted, failed = build_calibrated(model, params, data, calibration=args.method,
                                      post_scores=scores)
    if failed:
        raise CalibrationError("calibration failed: fitted map would not be monotone")
    with open(args.out, "w") as fh:
        fh.write(fitted.calibration.to_json())
        fh.write("\n")
    return {"auc": auc(fitted.calibrate(scores), data.y)}


def cmd_compare_baseline(args) -> dict:
    data = Dataset.from_csv(args.data)
    train, holdout, test = split_dataset(data, seed=args.seed)
    omegas = _omegas(args)
    space = SearchSpace(bounds=GBM_BASELINE_BOUNDS, omegas=tuple(omegas),
                        n_prior=args.n_prior, n_bo=args.n_bo, seed=args.seed)
    frontier = run_hyperparam_baseline(train, holdout, test, space,
                                       partition=PARTITIONS[args.partition](),
                                       favorable_sign=args.sign,
                                       surrogate=args.surrogate)
    frontier.to_csv(args.out)
    return {"omegas": omegas, "frontier_manifest": frontier.manifest}


class _NonNegative(argparse.Action):
    """Stores an integer flag's value, and rejects one below ``minimum`` by the flag's name."""

    minimum, bound = 0, "non-negative"

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.minimum:
            raise argparse.ArgumentError(self, f"must be {self.bound}, got {value}")
        setattr(namespace, self.dest, value)


class _Positive(_NonNegative):
    minimum, bound = 1, "at least 1"


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _budget(n_prior, n_bo, omega_max, omega_steps) -> argparse.ArgumentParser:
    """A parent parser holding the search budget flags, with one command's defaults."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--n-prior", type=int, default=n_prior)
    parent.add_argument("--n-bo", type=int, default=n_bo)
    parent.add_argument("--omega-max", type=float, default=omega_max)
    parent.add_argument("--omega-steps", type=int, default=omega_steps)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairpost",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    data = _flag("--data", required=True)
    model = _flag("--model", required=True)
    seed = _flag("--seed", type=int, default=0, action=_NonNegative)
    sign = _flag("--sign", type=int, choices=(-1, 1), default=1,
                 help="favorable model direction")
    partition = _flag("--partition", choices=tuple(PARTITIONS), default="sp",
                      help="sp = all rows, eo = split by label")
    focal = _flag("--focal", choices=FOCAL_RULES, default="mean")
    surrogate = _flag("--surrogate", choices=SURROGATES, default="tpe")
    out = _flag("--out", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "write a synthetic dataset CSV", seed)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("train", cmd_train, "train a model and write it as JSON", data, sign)
    p.add_argument("--kind", choices=MODEL_KINDS, default="gbm")
    for f in dataclasses.fields(GbmConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)

    command("bias", cmd_bias, "write a model-bias report as JSON", data, model, sign,
            partition)

    p = command("explain", cmd_explain, "write an attribution table as CSV", data, model,
                seed, sign, partition)
    p.add_argument("--method", choices=("pdp", "shapley", "ibe"), default="pdp")
    p.add_argument("--background", type=int, default=500, action=_Positive)
    p.add_argument("--anchors", type=int, default=50)
    p.add_argument("--permutations", type=int, default=32)

    p = command("mitigate", cmd_mitigate, "run the frontier search and write CSV", data,
                model, seed, sign, partition, focal, surrogate, _budget(400, 50, 2.0, 21))
    p.add_argument("--transform", choices=tuple(TRANSFORMS), default="global")
    p.add_argument("--predictors", default="",
                   help="comma-separated names; default selects automatically")
    p.add_argument("--m-star", type=int, default=2)
    p.add_argument("--a-lo", type=float, default=0.5)
    p.add_argument("--a-hi", type=float, default=2.0)
    p.add_argument("--sigma-lo", type=float, default=1.0)
    p.add_argument("--sigma-hi", type=float, default=2.0)

    p = command("curve", cmd_curve, "bias versus compression level CSV", data, model,
                sign, partition, focal)
    p.add_argument("--predictors", required=True)
    p.add_argument("--a-grid", required=True,
                   help="lo:hi:count or comma-separated values")

    p = command("calibrate", cmd_calibrate, "fit a calibration map for given params", data,
                model)
    p.add_argument("--params", required=True, help="CompressiveParams JSON file")
    p.add_argument("--method", choices=tuple(CALIBRATIONS), default="link_linear")

    command("compare-baseline", cmd_compare_baseline,
            "hyperparameter-search baseline frontier", data, seed, sign, partition,
            surrogate, _budget(50, 10, 4.0, 9))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:  # each command returns the values it derived, if any, for its manifest
        _write_manifest(args, **(args.func(args) or {}))
    except (CalibrationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
