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
import functools
import json
import sys

import numpy as np

from . import __version__
from .attribution import basic_bias_explanations, ibe_table, select_impactful
from .bias import PartitionSpec, model_bias
from .calibrate import CalibrationError, auc
from .explain import default_background, marginal_shapley, pdp_output
from .learn import Dataset, GbmConfig, SyntheticSpec, generate, split_dataset, train_gbm, train_logistic
from .mitigate import (
    GBM_BASELINE_BOUNDS,
    SearchSpace,
    build_calibrated,
    run_algorithm1,
    run_hyperparam_baseline,
    transform_search_space,
)
from .transform import CompressiveParams, PredictorTransform, focal_point, post_scorer

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_manifest(args, **derived) -> None:
    """Write ``<out>.manifest.json``: every parsed flag, then the values the
    command derived from them."""
    settings = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    settings.update(derived)
    payload = {"command": args.command, "version": __version__, "settings": settings}
    with open(f"{args.out}.manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _partition(flag: str) -> PartitionSpec:
    if flag == "sp":
        return PartitionSpec.all_rows()
    if flag == "eo":
        return PartitionSpec.by_label()
    raise ValueError(f"unknown partition flag '{flag}'")


def _load_model(path: str):
    from .learn import TrainedModel
    with open(path) as fh:
        return TrainedModel.from_json(fh.read())


def _parse_grid(text: str) -> list[float]:
    # "1:15:15" -> 15 points from 1 to 15; "1,2,5" -> explicit list
    if ":" in text:
        lo, hi, count = text.split(":")
        return list(np.linspace(float(lo), float(hi), int(count)))
    return [float(v) for v in text.split(",")]


def cmd_generate(args) -> int:
    spec = SyntheticSpec(model_id=args.model, n_rows=args.n, seed=args.seed)
    data = generate(spec)
    data.to_csv(args.out)
    _write_manifest(args)
    return EXIT_OK


def cmd_train(args) -> int:
    data = Dataset.from_csv(args.data)
    if args.kind == "gbm":
        config = GbmConfig(n_estimators=args.n_estimators, max_depth=args.max_depth,
                           max_leaves=args.max_leaves, learning_rate=args.learning_rate,
                           min_samples_leaf=args.min_samples_leaf)
        model = train_gbm(data.x, data.y, config, favorable_sign=args.sign)
    else:
        model = train_logistic(data.x, data.y, favorable_sign=args.sign)
    with open(args.out, "w") as fh:
        fh.write(model.to_json())
    _write_manifest(args)
    return EXIT_OK


def cmd_bias(args) -> int:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    report = model_bias(model(data.x), data.g, _partition(args.partition),
                        favorable_sign=args.sign, columns=data.columns)
    with open(args.out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    _write_manifest(args)
    return EXIT_OK


def cmd_explain(args) -> int:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    partition = _partition(args.partition)
    background = default_background(data.x, seed=args.seed, max_rows=args.background)
    if args.method == "pdp":
        out = pdp_output(model, data.x, background)
        table = basic_bias_explanations(out, data.g, partition, args.sign,
                                        columns=data.columns,
                                        names=data.feature_names)
    elif args.method == "shapley":
        out = marginal_shapley(model, data.x, background, mode="sampled",
                               n_permutations=args.permutations, seed=args.seed)
        table = basic_bias_explanations(out, data.g, partition, args.sign,
                                        columns=data.columns,
                                        names=data.feature_names)
    elif args.method == "ibe":
        table = ibe_table(model, data.x, data.g, n_anchors=args.anchors,
                          partition=partition, columns=data.columns,
                          favorable_sign=args.sign, seed=args.seed,
                          names=data.feature_names)
    else:
        raise ValueError(f"unknown explain method '{args.method}'")
    table.to_csv(args.out)
    _write_manifest(args)
    return EXIT_OK


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


def cmd_mitigate(args) -> int:
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
                                        train.g, _partition(args.partition),
                                        args.sign, columns=train.columns,
                                        names=train.feature_names)
        indices = select_impactful(table, m_star=args.m_star).M
    omegas = _omegas(args)
    space = transform_search_space(indices, args.transform,
                                   a_bounds=(args.a_lo, args.a_hi),
                                   sigma_bounds=(args.sigma_lo, args.sigma_hi),
                                   omegas=omegas, n_prior=args.n_prior,
                                   n_bo=args.n_bo, seed=args.seed,
                                   feature_names=train.feature_names)
    frontier = run_algorithm1(model, train, holdout, test, indices, space,
                              transform_kind=args.transform,
                              focal_rule=args.focal,
                              partition=_partition(args.partition),
                              favorable_sign=args.sign,
                              surrogate=args.surrogate)
    frontier.to_csv(args.out)
    _write_manifest(args, predictors=list(indices), omegas=omegas,
                    frontier_manifest=frontier.manifest)
    return EXIT_OK


def cmd_curve(args) -> int:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    indices = _predictor_indices(data, args.predictors)
    grid = _parse_grid(args.a_grid)
    partition = _partition(args.partition)
    focals = [focal_point(data.x, i, rule=args.focal, g=data.g) for i in indices]
    score = post_scorer(model, data.x, indices)
    rows = []
    for a in grid:
        transforms = tuple(
            PredictorTransform(predictor=i, kind="global", params=(float(a),), focal=focal,
                               focal_rule=args.focal, name=data.feature_names[i])
            for i, focal in zip(indices, focals))
        report = model_bias(score(CompressiveParams(transforms)), data.g, partition,
                            favorable_sign=args.sign, columns=data.columns)
        rows.append((a, report.total, report.positive, report.negative))
    with open(args.out, "w") as fh:
        fh.write("a,total,positive,negative\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _write_manifest(args)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    data = Dataset.from_csv(args.data)
    model = _load_model(args.model)
    with open(args.params) as fh:
        params = CompressiveParams.from_json(fh.read())
    if not all(0 <= i < data.x.shape[1] for i in params.indices):
        raise ValueError(f"--params names predictors {list(params.indices)}; the data "
                         f"has {data.x.shape[1]}")
    scores = model(params.apply(data.x))
    fitted, failed = build_calibrated(model, params.indices, params, data,
                                      calibration=args.method, post_scores=scores)
    if failed:
        raise CalibrationError("calibration failed: fitted map would not be monotone")
    with open(args.out, "w") as fh:
        fh.write(fitted.calibration.to_json())
        fh.write("\n")
    _write_manifest(args, auc=auc(fitted.calibrate(scores), data.y))
    return EXIT_OK


def cmd_compare_baseline(args) -> int:
    data = Dataset.from_csv(args.data)
    train, holdout, test = split_dataset(data, seed=args.seed)
    omegas = _omegas(args)
    space = SearchSpace(bounds=GBM_BASELINE_BOUNDS, omegas=tuple(omegas),
                        n_prior=args.n_prior, n_bo=args.n_bo, seed=args.seed)
    frontier = run_hyperparam_baseline(train, holdout, test, space,
                                       partition=_partition(args.partition),
                                       favorable_sign=args.sign,
                                       surrogate=args.surrogate)
    frontier.to_csv(args.out)
    _write_manifest(args, omegas=omegas, frontier_manifest=frontier.manifest)
    return EXIT_OK


def _add_common(parser, partition=True):
    parser.add_argument("--sign", type=int, choices=(-1, 1), default=1,
                        help="favorable model direction")
    if partition:
        parser.add_argument("--partition", choices=("sp", "eo"), default="sp",
                            help="sp = all rows, eo = split by label")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairpost",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model and write it as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=("gbm", "logistic"), default="gbm")
    p.add_argument("--n-estimators", type=int, default=150)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--max-leaves", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--min-samples-leaf", type=int, default=50)
    p.add_argument("--out", required=True)
    _add_common(p, partition=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bias", help="write a model-bias report as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("explain", help="write an attribution table as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=("pdp", "shapley", "ibe"), default="pdp")
    p.add_argument("--background", type=int, default=500)
    p.add_argument("--anchors", type=int, default=50)
    p.add_argument("--permutations", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("mitigate", help="run the frontier search and write CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--transform", choices=("global", "asymmetric", "local"),
                   default="global")
    p.add_argument("--predictors", default="",
                   help="comma-separated names; default selects automatically")
    p.add_argument("--m-star", type=int, default=2)
    p.add_argument("--a-lo", type=float, default=0.5)
    p.add_argument("--a-hi", type=float, default=2.0)
    p.add_argument("--sigma-lo", type=float, default=1.0)
    p.add_argument("--sigma-hi", type=float, default=2.0)
    p.add_argument("--focal", choices=("mean", "median", "ks_argmax"),
                   default="mean")
    p.add_argument("--n-prior", type=int, default=400)
    p.add_argument("--n-bo", type=int, default=50)
    p.add_argument("--omega-max", type=float, default=2.0)
    p.add_argument("--omega-steps", type=int, default=21)
    p.add_argument("--surrogate", choices=("tpe", "gp", "random"), default="tpe")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("curve", help="bias versus compression level CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--predictors", required=True)
    p.add_argument("--a-grid", required=True,
                   help="lo:hi:count or comma-separated values")
    p.add_argument("--focal", choices=("mean", "median", "ks_argmax"),
                   default="mean")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("calibrate", help="fit a calibration map for given params")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--params", required=True,
                   help="CompressiveParams JSON file")
    p.add_argument("--method", choices=("link_linear", "pava", "logistic_refit"),
                   default="link_linear")
    p.add_argument("--out", required=True)
    _add_common(p, partition=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("compare-baseline",
                       help="hyperparameter-search baseline frontier")
    p.add_argument("--data", required=True)
    p.add_argument("--n-prior", type=int, default=50)
    p.add_argument("--n-bo", type=int, default=10)
    p.add_argument("--omega-max", type=float, default=4.0)
    p.add_argument("--omega-steps", type=int, default=9)
    p.add_argument("--surrogate", choices=("tpe", "gp", "random"), default="tpe")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_compare_baseline)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CalibrationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
