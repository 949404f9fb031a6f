import argparse
import copy
import csv
import dataclasses
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairpost import cli
from fairpost.attribution import basic_bias_explanations, select_impactful
from fairpost.bias import PartitionSpec
from fairpost.cli import main
from fairpost.explain import default_background, pdp_output
from fairpost.learn import (MODEL_KINDS, Dataset, GbmConfig, SyntheticSpec, TrainedModel,
                            generate, split_dataset)
from fairpost.mitigate import CALIBRATIONS, SURROGATES
from fairpost.transform import FOCAL_RULES, TRANSFORMS

from helpers import chain_gbm_json


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small generated dataset plus a trained model, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "m1.csv")
    model = str(root / "model.json")
    assert main(["generate", "--model", "M1", "--n", "2500", "--seed", "1",
                 "--out", data]) == 0
    assert main(["train", "--data", data, "--kind", "gbm", "--n-estimators", "40",
                 "--out", model]) == 0
    return root, data, model


class TestGenerate:
    def test_csv_shape_and_header(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["generate", "--model", "M1", "--n", "100", "--seed", "3",
                     "--out", out]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["x1", "x2", "x3", "x4", "x5", "g", "y"]
        assert len(rows) == 101

    def test_m4_columns(self, tmp_path):
        out = str(tmp_path / "m4.csv")
        assert main(["generate", "--model", "M4", "--n", "50", "--seed", "0",
                     "--out", out]) == 0
        data = Dataset.from_csv(out)
        assert data.feature_names == ("x1", "x2", "x3", "x4", "x5")

    def test_invalid_model_id(self, tmp_path):
        code = main(["generate", "--model", "M9", "--n", "10", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2

    def test_manifest_written(self, tmp_path):
        out = str(tmp_path / "d.csv")
        main(["generate", "--model", "M2", "--n", "20", "--seed", "5", "--out", out])
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["command"] == "generate"
        assert manifest["settings"]["seed"] == 5


class TestTrain:
    def test_manifest_records_hyperparameters(self, workdir, tmp_path):
        _, data, _ = workdir
        out = str(tmp_path / "small.json")
        assert main(["train", "--data", data, "--n-estimators", "7", "--max-depth", "2",
                     "--max-leaves", "4", "--learning-rate", "0.3",
                     "--min-samples-leaf", "20", "--sign", "-1", "--out", out]) == 0
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["command"] == "train"
        assert manifest["settings"] == {
            "data": data, "kind": "gbm", "n_estimators": 7, "max_depth": 2,
            "max_leaves": 4, "learning_rate": 0.3, "min_samples_leaf": 20,
            "sign": -1, "out": out}
        # the recorded flags rebuild the same model
        again = str(tmp_path / "again.json")
        argv = ["train"]
        for key, value in manifest["settings"].items():
            argv += ["--" + key.replace("_", "-"), str(again if key == "out" else value)]
        assert main(argv) == 0
        assert open(again).read() == open(out).read()

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_invalid_learning_rate_is_exit_two(self, workdir, tmp_path, capsys, rate):
        _, data, _ = workdir
        out = tmp_path / "bad.json"
        assert main(["train", "--data", data, "--learning-rate", rate, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: learning rate must be positive and finite\n"
        assert not out.exists()


class TestBias:
    def test_statistical_parity_report(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "bias.json")
        assert main(["bias", "--data", data, "--model", model, "--partition", "sp",
                     "--sign", "-1", "--out", out]) == 0
        report = json.load(open(out))
        assert report["total"] > 0
        assert [c["name"] for c in report["cells"]] == ["all"]
        assert report["total"] == pytest.approx(
            report["positive"] + report["negative"], abs=1e-10)

    def test_equalized_odds_report(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "bias_eo.json")
        assert main(["bias", "--data", data, "--model", model, "--partition", "eo",
                     "--out", out]) == 0
        report = json.load(open(out))
        assert [c["name"] for c in report["cells"]] == ["y=0", "y=1"]

    def test_missing_class_exit_code(self, workdir, tmp_path, capsys):
        root, _, model = workdir
        data = generate(SyntheticSpec("M1", 60, seed=2))
        broken = Dataset(x=data.x, g=data.g,
                         y=np.where(data.g == 1, 1, data.y), feature_names=data.feature_names)
        path = str(tmp_path / "broken.csv")
        broken.to_csv(path)
        code = main(["bias", "--data", path, "--model", model, "--partition", "eo",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "y=" in capsys.readouterr().err


class TestExplain:
    @pytest.mark.parametrize("method,extra", [
        ("pdp", ["--background", "60"]),
        ("shapley", ["--background", "40", "--permutations", "8"]),
        ("ibe", ["--anchors", "10"]),
    ])
    def test_methods_share_schema(self, workdir, tmp_path, method, extra):
        _, data, model = workdir
        out = str(tmp_path / f"{method}.csv")
        assert main(["explain", "--data", data, "--model", model, "--method",
                     method, "--sign", "-1", "--out", out] + extra) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["predictor", "kind", "beta", "beta_pos", "beta_neg",
                           "net", "bpp", "bpm", "bmp", "bmm"]
        assert len(rows) == 6
        assert {row[1] for row in rows[1:]} == {method}

    def test_m1_ranks_x3_highest(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "pdp.csv")
        assert main(["explain", "--data", data, "--model", model, "--method", "pdp",
                     "--background", "120", "--sign", "-1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        betas = {r["predictor"]: float(r["beta"]) for r in rows}
        assert max(betas, key=betas.get) == "x3"


def _exit_code(argv) -> int:
    """main's exit code, or argparse's when it rejects a flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("command", ["generate", "explain", "mitigate", "compare-baseline"])
    def test_negative_seed_is_exit_two_naming_the_flag(self, workdir, tmp_path, capsys,
                                                       command):
        _, data, model = workdir
        inputs = {"generate": ["--model", "M1", "--n", "10"],
                  "explain": ["--data", data, "--model", model],
                  "mitigate": ["--data", data, "--model", model, "--predictors", "x1"],
                  "compare-baseline": ["--data", data]}[command]
        argv = [command, *inputs, "--seed", "-1", "--out", str(tmp_path / "out")]
        assert _exit_code(argv) == 2
        assert "--seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_m_star_is_exit_two(self, workdir, tmp_path, capsys):
        _, data, model = workdir
        argv = ["mitigate", "--data", data, "--model", model, "--m-star", "-1",
                "--n-prior", "4", "--n-bo", "0", "--omega-steps", "2",
                "--out", str(tmp_path / "neg.csv")]
        assert _exit_code(argv) == 2
        assert "--m-star" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_m_star_with_predictors_is_exit_two(self, workdir, tmp_path, capsys):
        _, data, model = workdir
        argv = ["mitigate", "--data", data, "--model", model, "--predictors", "x1",
                "--m-star", "-1", "--n-prior", "4", "--n-bo", "0", "--omega-steps", "2",
                "--out", str(tmp_path / "neg.csv")]
        assert _exit_code(argv) == 2
        assert "--m-star" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("rows", ["-1", "0"])
    @pytest.mark.parametrize("method", ["pdp", "ibe"])
    def test_empty_background_is_exit_two_naming_the_flag(self, workdir, tmp_path, capsys,
                                                          method, rows):
        _, data, model = workdir
        argv = ["explain", "--data", data, "--model", model, "--method", method,
                "--background", rows, "--out", str(tmp_path / "out")]
        assert _exit_code(argv) == 2
        assert "background" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


_MALFORMED_GRID = ("--a-grid '{}' is neither lo:hi:count (count an integer) "
                   "nor comma-separated values")


class TestCurve:
    def test_columns_and_u_shape_inputs(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "curve.csv")
        assert main(["curve", "--data", data, "--model", model, "--predictors",
                     "x1,x3", "--a-grid", "1:15:15", "--sign", "-1",
                     "--out", out]) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["a", "total", "positive", "negative"]
        assert len(rows) == 16

    def test_single_point_grid(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "one.csv")
        assert main(["curve", "--data", data, "--model", model, "--predictors",
                     "x1", "--a-grid", "2.0", "--out", out]) == 0
        assert len(open(out).read().splitlines()) == 2

    def test_gbm_scorer_matches_assembled_rows(self, workdir, tmp_path, monkeypatch):
        """The model wrapped in a plain callable scores the transformed rows;
        both curves have the same bytes."""
        _, data, model = workdir
        argv = ["curve", "--data", data, "--model", model, "--predictors", "x1,x3",
                "--a-grid", "0.5:15:8", "--sign", "-1", "--out"]
        assert main(argv + [str(tmp_path / "gbm.csv")]) == 0
        loaded = cli._load_model(model)
        monkeypatch.setattr(cli, "_load_model", lambda path: lambda z: loaded(z))
        assert main(argv + [str(tmp_path / "callable.csv")]) == 0
        assert ((tmp_path / "gbm.csv").read_bytes()
                == (tmp_path / "callable.csv").read_bytes())

    def test_unknown_predictor(self, workdir, tmp_path):
        _, data, model = workdir
        code = main(["curve", "--data", data, "--model", model, "--predictors",
                     "x9", "--a-grid", "1:2:2", "--out", str(tmp_path / "c.csv")])
        assert code == 2

    @pytest.mark.parametrize("grid, message", [
        ("nan", "a must be positive and finite"),
        ("inf", "a must be positive and finite"),
        ("2,-inf", "a must be positive and finite"),
        ("1:2:0", "--a-grid holds no values"),
        ("1:2", _MALFORMED_GRID.format("1:2")),
        ("1:2:3:4", _MALFORMED_GRID.format("1:2:3:4")),
        ("1:2:x", _MALFORMED_GRID.format("1:2:x")),
        ("1:2:2.5", _MALFORMED_GRID.format("1:2:2.5")),
    ], ids=["nan", "inf", "minus-inf", "empty", "two-fields", "four-fields", "word-count",
            "fractional-count"])
    def test_empty_or_non_finite_grid_is_exit_two(self, workdir, tmp_path, capsys, grid,
                                                  message):
        _, data, model = workdir
        out = tmp_path / "c.csv"
        assert main(["curve", "--data", data, "--model", model, "--predictors", "x1",
                     "--a-grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not (tmp_path / "c.csv.manifest.json").exists()


class TestMitigate:
    def test_run_and_reproducibility(self, workdir, tmp_path):
        _, data, model = workdir
        out1 = str(tmp_path / "f1.csv")
        out2 = str(tmp_path / "f2.csv")
        args = ["mitigate", "--data", data, "--model", model, "--predictors",
                "x1,x3", "--n-prior", "12", "--n-bo", "2", "--omega-steps", "3",
                "--seed", "7", "--sign", "-1"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1).read() == open(out2).read()
        assert (open(out1 + ".manifest.json").read()
                == open(out2 + ".manifest.json").read().replace(out2, out1))
        header = open(out1).read().splitlines()[0]
        assert header == "omega,bias,loss,dominated_flag,gamma_json"

    def test_nbo_zero_random_search(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "f0.csv")
        assert main(["mitigate", "--data", data, "--model", model, "--predictors",
                     "x1", "--n-prior", "6", "--n-bo", "0", "--omega-steps", "2",
                     "--out", out]) == 0
        assert len(open(out).read().splitlines()) == 7

    def test_auto_selection(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "fauto.csv")
        assert main(["mitigate", "--data", data, "--model", model,
                     "--n-prior", "6", "--n-bo", "0", "--omega-steps", "2",
                     "--sign", "-1", "--out", out]) == 0
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["settings"]["predictors"]

    def test_auto_selection_follows_partition(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "feo.csv")
        assert main(["mitigate", "--data", data, "--model", model, "--partition", "eo",
                     "--n-prior", "4", "--n-bo", "0", "--omega-steps", "2",
                     "--sign", "-1", "--seed", "0", "--out", out]) == 0
        manifest = json.load(open(out + ".manifest.json"))
        train, _, _ = split_dataset(Dataset.from_csv(data), seed=0)
        background = default_background(train.x, seed=0, max_rows=200)
        with open(model) as fh:
            explanations = pdp_output(TrainedModel.from_json(fh.read()), train.x, background)
        eo, sp = (select_impactful(basic_bias_explanations(
            explanations, train.g, partition, -1, columns=train.columns), m_star=2).M
            for partition in (PartitionSpec.by_label(), PartitionSpec.all_rows()))
        assert eo != sp  # on this split the two partitions select differently
        assert manifest["settings"]["predictors"] == list(eo)

    @pytest.mark.parametrize("command", ["mitigate", "compare-baseline"])
    @pytest.mark.parametrize("omega_max", ["nan", "inf"])
    def test_non_finite_omega_max_is_exit_two(self, workdir, tmp_path, capsys, command,
                                              omega_max):
        _, data, model = workdir
        out = tmp_path / "omega.csv"
        argv = [command, "--data", data, "--omega-max", omega_max, "--n-prior", "4",
                "--n-bo", "0", "--omega-steps", "2", "--out", str(out)]
        if command == "mitigate":
            argv += ["--model", model, "--predictors", "x1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: omega values must be nonnegative and finite\n"
        assert not out.exists() and not (tmp_path / "omega.csv.manifest.json").exists()

    @pytest.mark.parametrize("command", ["mitigate", "compare-baseline"])
    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_no_omegas_is_exit_two(self, workdir, tmp_path, capsys, command, steps):
        _, data, model = workdir
        out = tmp_path / "steps.csv"
        argv = [command, "--data", data, "--omega-steps", steps, "--n-prior", "4",
                "--n-bo", "1", "--out", str(out)]
        if command == "mitigate":
            argv += ["--model", model, "--predictors", "x1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: search space has no omega values\n"
        assert not out.exists() and not (tmp_path / "steps.csv.manifest.json").exists()


    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_box_outside_family_domain_is_exit_two(self, workdir, tmp_path, capsys, seed):
        """The box is checked before any draw, so no seed's draws reach a
        valid point first."""
        _, data, model = workdir
        out = tmp_path / "local.csv"
        assert main(["mitigate", "--data", data, "--model", model, "--predictors", "x1",
                     "--transform", "local", "--a-lo", "0.3", "--a-hi", "2",
                     "--n-prior", "3", "--n-bo", "1", "--omega-steps", "2",
                     "--seed", seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: a=0.3 is outside the certified-monotone "
                                           "region 0.4 <= a < inf\n")
        assert not out.exists() and not (tmp_path / "local.csv.manifest.json").exists()

    @pytest.mark.parametrize("model_kind, m_star", [("gbm", "0"), ("zero-logistic", "2")])
    def test_empty_automatic_selection_is_exit_two(self, workdir, tmp_path, capsys,
                                                   model_kind, m_star):
        """No predictor selected, by --m-star 0 or by a model whose every
        attribution is 0, names the flag rather than the empty search space."""
        _, data, model = workdir
        if model_kind == "zero-logistic":
            model = str(tmp_path / "zero.json")
            with open(model, "w") as fh:
                json.dump({"kind": "logistic", "favorable_sign": 1, "coef": [0.0] * 5,
                           "intercept": 0.0}, fh)
        out = tmp_path / "empty.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error line is all that stderr shows
            code = main(["mitigate", "--data", data, "--model", model, "--m-star", m_star,
                         "--n-prior", "4", "--n-bo", "0", "--omega-steps", "2",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: automatic selection with --m-star {m_star} chose no predictors; "
            "name them with --predictors\n")
        assert not out.exists() and not (tmp_path / "empty.csv.manifest.json").exists()


class TestCalibrateCommand:
    def test_fit_and_dump(self, workdir, tmp_path):
        root, data, model = workdir
        from fairpost.transform import CompressiveParams, PredictorTransform
        params = CompressiveParams((
            PredictorTransform(0, "global", (1.5,), 5.0, "mean", "x1"),))
        ppath = str(tmp_path / "params.json")
        with open(ppath, "w") as fh:
            fh.write(params.to_json())
        out = str(tmp_path / "calib.json")
        assert main(["calibrate", "--data", data, "--model", model, "--params",
                     ppath, "--method", "link_linear", "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["kind"] == "link_linear" and payload["coef"][1] > 0

    @pytest.mark.parametrize("kind, params, message", [
        ("global", [float("nan")], "a must be positive and finite"),
        ("global", [float("inf")], "a must be positive and finite"),
        ("asymmetric", [1.5, float("inf")], "a_minus and a_plus must be positive and finite"),
        ("local", [1.5, float("nan")], "sigma must be positive and finite"),
        ("local", [float("inf"), 1.0], "a=inf is outside the certified-monotone region "
                                       "0.4 <= a < inf"),
    ], ids=["global-nan", "global-inf", "asymmetric-inf", "local-sigma-nan", "local-a-inf"])
    def test_non_finite_params_is_exit_two(self, workdir, tmp_path, capsys, kind, params,
                                           message):
        _, data, model = workdir
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps([{"predictor": 0, "kind": kind, "params": params,
                                      "focal": 5.0}]))  # NaN and Infinity, as json writes them
        out = tmp_path / "calib.json"
        assert main(["calibrate", "--data", data, "--model", model, "--params", str(ppath),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not (tmp_path / "calib.json.manifest.json").exists()


class TestExitCodes:
    def test_numerical_failure_is_exit_three(self, workdir, tmp_path, capsys):
        _, data, model = workdir
        from fairpost.transform import CompressiveParams, PredictorTransform
        # compressing every predictor to a point collapses the scores, so the
        # calibration fit degenerates and the command reports a numerical failure
        params = CompressiveParams(tuple(
            PredictorTransform(i, "global", (1e7,), 5.0, "mean", f"x{i + 1}")
            for i in range(5)))
        ppath = str(tmp_path / "collapse.json")
        with open(ppath, "w") as fh:
            fh.write(params.to_json())
        code = main(["calibrate", "--data", data, "--model", model, "--params",
                     ppath, "--method", "link_linear",
                     "--out", str(tmp_path / "c.json")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_leaf_bound_is_exit_two(self, workdir, tmp_path, capsys):
        _, data, _ = workdir
        code = main(["train", "--data", data, "--kind", "gbm", "--max-leaves", "65",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "max_leaves must be <= 64" in err and "Traceback" not in err
        path = tmp_path / "wide.json"
        path.write_text(chain_gbm_json(65))
        code = main(["explain", "--data", data, "--model", str(path), "--method",
                     "pdp", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "more than 64 leaves" in err and "Traceback" not in err

    @pytest.mark.parametrize("tree, message", [
        # the root's right child lies outside the three nodes
        ({"feature": [0, -1, -1], "left": [1, -1, -1], "right": [7, -1, -1]},
         "outside its 3 nodes"),
        # node 1's left child is the root: a cycle
        ({"feature": [0, 1, -1, -1], "left": [1, 0, -1, -1], "right": [2, 3, -1, -1]},
         "twice from its root"),
        # a split on x10 of a five-column dataset
        ({"feature": [9, -1, -1], "left": [1, -1, -1], "right": [2, -1, -1]},
         "splits on 10 columns"),
        ({"feature": [0, -1, -1], "left": [1, -1, -1], "right": [2, -1, -1],
          "value": [0.0, 0.1]}, "differ in length"),
        ({"feature": [0, -1, -1], "left": [1, -1, -1], "right": [2, -1, -1],
          "threshold": [float("nan"), 0.0, 0.0]}, "NaN split threshold"),
        # nodes 0 and 1 both send rows to node 2: a DAG, not a cycle
        ({"feature": [0, 1, -1, -1], "left": [1, 2, -1, -1], "right": [2, 3, -1, -1]},
         "reaches node 2 twice"),
        ({"feature": [0, -1, -1], "left": [1, -1, -1], "right": [-1, -1, -1]},
         "refers to node -1"),
        ({"feature": [0, -1, -1], "left": [1, -1, -1], "right": [2, -1, -1],
          "threshold": ["abc", 0.0, 0.0]}, "could not convert string to float: 'abc'"),
        ({"feature": [0, -1, -1], "left": [1, -1, -1], "right": [2 ** 70, -1, -1]},
         "malformed model"),
    ], ids=["child-out-of-range", "cycle", "too-few-columns", "lengths-differ",
            "nan-threshold", "dag", "negative-child", "string-threshold", "huge-child"])
    def test_malformed_model_is_exit_two(self, workdir, tmp_path, capsys, tree, message):
        _, data, _ = workdir
        n = len(tree["feature"])
        tree = {"threshold": [0.0] * n, "value": [0.1 * i for i in range(n)], **tree}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "gbm", "favorable_sign": 1, "init_score": 0.0,
                                    "learning_rate": 0.1, "trees": [tree]}))
        code = main(["bias", "--data", data, "--model", str(path),
                     "--out", str(tmp_path / "b.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


    @pytest.mark.parametrize("field, values, message", [
        ("feature", [0.7, -1, -1], "could not convert float to int: 0.7"),
        ("threshold", ["0.5", 0.0, 0.0], "could not convert string to float: '0.5'"),
        ("left", [1.5, -1, -1], "could not convert float to int: 1.5"),
        ("right", [True, -1, -1], "could not convert boolean to int: True"),
        ("value", [0.0, None, 0.2], "could not convert null to float: None"),
        ("learning_rate", True, "could not convert boolean to float: True in model field"),
        ("init_score", "0.5", "could not convert string to float: '0.5' in model field"),
        ("coef", "0.1", "could not convert string to list: '0.1' in model field"),
        ("favorable_sign", 1.5, "could not convert float to int: 1.5 in model field"),
        ("init_score", float("inf"), "inf is not finite in model field"),
        ("init_score", float("nan"), "nan is not finite in model field"),
        ("learning_rate", -1.0, "-1.0 is not positive and finite in model field"),
        ("learning_rate", float("inf"), "inf is not positive and finite in model field"),
    ], ids=["feature", "threshold", "left", "right", "value", "learning-rate-boolean",
            "init-score-string", "coef-string", "sign-fraction", "init-score-infinity",
            "init-score-nan", "learning-rate-negative", "learning-rate-infinity"])
    def test_wrong_json_type_is_exit_two(self, workdir, tmp_path, capsys, field, values,
                                         message):
        """A tree or model field value of the wrong JSON type is refused, not
        converted, and the model writes no output."""
        _, data, _ = workdir
        tree = {"feature": [0, -1, -1], "threshold": [0.0] * 3, "left": [1, -1, -1],
                "right": [2, -1, -1], "value": [0.0, 0.1, 0.2]}
        model = ({"kind": "logistic", "favorable_sign": 1, "coef": [0.1] * 5, "intercept": 0.0}
                 if field == "coef" else
                 {"kind": "gbm", "favorable_sign": 1, "init_score": 0.0, "learning_rate": 0.1,
                  "trees": [tree]})
        (tree if field in tree else model)[field] = values
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "b.json"
        code = main(["bias", "--data", data, "--model", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and f"field '{field}'" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "b.json.manifest.json").exists()

    def test_huge_feature_index_is_exit_two_at_once(self, workdir, tmp_path, capsys):
        """Loading a model costs nothing per column index below its largest."""
        _, data, _ = workdir
        tree = {"feature": [10 ** 8, -1, -1], "threshold": [0.0] * 3, "left": [1, -1, -1],
                "right": [2, -1, -1], "value": [0.0, 0.1, 0.2]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"kind": "gbm", "favorable_sign": 1, "init_score": 0.0,
                                    "learning_rate": 0.1, "trees": [tree]}))
        start = time.perf_counter()
        code = main(["bias", "--data", data, "--model", str(path),
                     "--out", str(tmp_path / "b.json")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert f"splits on {10 ** 8 + 1} columns" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("[]", "JSON object"),
        ('"x"', "JSON object"),
        ('{"kind": "gbm", "favorable_sign": 1, "init_score": 0.0, "learning_rate": 0.1, '
         '"trees": 5}', "malformed model"),
        ('{"kind": "gbm", "favorable_sign": 1, "init_score": 0.0, "learning_rate": 0.1, '
         '"trees": [5]}', "malformed model"),
        ('{"kind": "logistic", "favorable_sign": [1], "coef": [0.1], "intercept": 0.0}',
         "malformed model"),
    ], ids=["list", "string", "trees-number", "tree-number", "sign-list"])
    def test_malformed_model_json_is_exit_two(self, workdir, tmp_path, capsys, text,
                                              message):
        _, data, _ = workdir
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["bias", "--data", data, "--model", str(path),
                     "--out", str(tmp_path / "b.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """A 300-row M1 CSV and the JSON of a 3-tree GBM and a logistic model on it."""
    root = tmp_path_factory.mktemp("fuzz")
    data = str(root / "m1.csv")
    assert main(["generate", "--model", "M1", "--n", "300", "--seed", "2", "--out", data]) == 0
    models = {}
    for kind, extra in (("gbm", ["--n-estimators", "3", "--min-samples-leaf", "20"]),
                        ("logistic", [])):
        path = str(root / f"{kind}.json")
        assert main(["train", "--data", data, "--kind", kind, *extra, "--out", path]) == 0
        models[kind] = json.load(open(path))
    return root, data, models


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_FUZZ_VALUES = st.sampled_from([
    None, True, "x", "0.5", [], {}, [1, 2], 1.5, 0, -1, 7, 5, 2 ** 70, -(2 ** 70),
    float("nan"), float("inf"), float("-inf")])


@st.composite
def _mutated_model(draw, models):
    """A model's JSON after 1-3 mutations: a key or element dropped, an array
    made longer, or a value replaced by one of another JSON type, a
    non-finite number or an out-of-range index."""
    doc = json.loads(json.dumps(models[draw(st.sampled_from(sorted(models)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "extend", "replace"]))
        value = copy.deepcopy(draw(_FUZZ_VALUES))  # the drawn lists are mutated later
        if action == "drop":
            del parent[key]
        elif action == "extend" and isinstance(parent[key], list):
            parent[key].append(value)
        else:
            parent[key] = value
    return json.dumps(doc)


_CELLS = ["", "nan", "inf", "-inf", "1e999", "x", "1_0", "\u0663", "2"]


@st.composite
def _mutated_csv(draw, text):
    """A dataset CSV after 1-3 cell mutations: a cell replaced (empty, NaN,
    +-inf, an overflowing or malformed number, text, a non-ASCII digit),
    g or y set to 2, or a cell added to or dropped from a row."""
    header, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["replace", "label", "extra", "missing"]))
        if action == "replace":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CELLS))
        elif action == "label":
            cells[draw(st.sampled_from([-2, -1]))] = "2"
        elif action == "extra":
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(_CELLS)))
        else:
            del cells[draw(st.integers(0, len(cells) - 1))]
    return "\n".join([header, *(",".join(cells) for cells in rows)]) + "\n"


class TestModelJsonFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_model_json_is_an_exit_code(self, fuzz_seeds, capsys, data):
        """A mutated model JSON ends in exit code 0, 2 or 3, never an exception."""
        root, csv_path, models = fuzz_seeds
        text = data.draw(_mutated_model(models))
        path = root / "mutated.json"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["bias", "--data", csv_path, "--model", str(path),
                         "--out", str(root / "bias.json")])
        assert code in (0, 2, 3), text
        capsys.readouterr()


class TestDatasetCsvFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_cells_are_an_exit_code(self, fuzz_seeds, capsys, data):
        """A dataset CSV with mutated cells ends in exit code 0, 2 or 3 for
        bias (a GBM and a logistic model), train and PDP explanations."""
        root, csv_path, _ = fuzz_seeds
        with open(csv_path) as fh:
            text = data.draw(_mutated_csv(fh.read()))
        path = root / "mutated.csv"
        path.write_text(text)
        command = data.draw(st.sampled_from(["bias-gbm", "bias-logistic", "train",
                                             "explain"]))
        argv = [command.split("-")[0], "--data", str(path), "--out", str(root / "out")]
        if command == "train":
            argv += ["--n-estimators", "3", "--min-samples-leaf", "20"]
        elif command == "explain":
            argv += ["--model", str(root / "gbm.json"), "--background", "20"]
        else:
            argv += ["--model", str(root / f"{command.split('-')[1]}.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in (0, 2, 3), text
        capsys.readouterr()


_FLAG_INTS = (-1, 0, 1, 2, 3)  # small, so no budget or fit is large
_FLAG_FLOATS = (-1.0, 0.0, 0.5, 2.0, float("nan"), float("inf"), float("-inf"))
_FLAG_TEXTS = ("", "x1", "x1,x3", "x9", "M1", "1:2:3", "0.5,2", "bad")


@st.composite
def _random_flags(draw, files):
    """A subcommand with every flag of ``cli.build_parser()`` given a value:
    a file flag its fixed path, a choice flag one of its choices (or, for at
    most one of them, a bad string), and any other flag a value of its type
    from a small pool."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    command = draw(st.sampled_from(sorted(commands)))
    actions = [a for a in commands[command]._actions if a.option_strings and a.dest != "help"]
    choice_dests = [a.dest for a in actions if a.choices]
    spoiled = draw(st.none() | st.sampled_from(choice_dests)) if choice_dests else None
    argv = [command]
    for action in actions:
        flag = action.option_strings[0]
        if flag in files and not (command == "generate" and flag == "--model"):
            value = files[flag]
        elif action.choices is not None:
            value = "bad" if action.dest == spoiled else draw(st.sampled_from(action.choices))
        else:
            value = draw(st.sampled_from({int: _FLAG_INTS, float: _FLAG_FLOATS}.get(
                action.type, _FLAG_TEXTS)))
        argv.append(f"{flag}={value}")  # '=' keeps a value such as -inf from reading as a flag
    return argv


class TestFlagsFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_flags_are_an_exit_code(self, flag_files, capsys, data):
        """Any subcommand with random flag values ends in exit code 0, 2 or 3."""
        argv = data.draw(_random_flags(flag_files))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a value outside a flag's type or choices
                code = exc.code
        assert code in (0, 2, 3), argv
        capsys.readouterr()


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    """A 200-row M1 CSV, a 3-tree GBM on it, a one-predictor params JSON and
    an output path."""
    from fairpost.transform import CompressiveParams, PredictorTransform
    root = tmp_path_factory.mktemp("flags")
    data, model, params = (str(root / name) for name in ("m1.csv", "gbm.json", "params.json"))
    assert main(["generate", "--model", "M1", "--n", "200", "--seed", "3", "--out", data]) == 0
    assert main(["train", "--data", data, "--n-estimators", "3", "--min-samples-leaf", "20",
                 "--out", model]) == 0
    with open(params, "w") as fh:
        fh.write(CompressiveParams((
            PredictorTransform(0, "global", (1.5,), 5.0, "mean", "x1"),)).to_json())
    return {"--data": data, "--model": model, "--params": params,
            "--out": str(root / "out")}


_HEADER = "x1,x2,x3,x4,x5,g,y\n"
_ROW = "5.0,4.5,5.5,5.0,4.0,{g},{y}\n"
MALFORMED_CSV = {
    "empty": "",
    "header-only": _HEADER,
    "ragged-row": _HEADER + _ROW.format(g=0, y=1) + "5.0,4.5,5.5,5.0,1,0\n",
    "non-numeric-cell": _HEADER + _ROW.format(g=0, y=1) + _ROW.format(g=1, y="yes"),
    "fractional-g": _HEADER + _ROW.format(g=0, y=1) + _ROW.format(g=1, y=0)
    + _ROW.format(g=0.7, y=0),
    "fractional-y": _HEADER + _ROW.format(g=0, y=1) + _ROW.format(g=1, y=0)
    + _ROW.format(g=1, y=0.4),
    "no-g-y-columns": "x1,x2,x3,x4,x5\n5.0,4.5,5.5,5.0,4.0\n",
    "directory": None,
    "trailing-comma": _HEADER + _ROW.format(g=0, y=1).replace("\n", ",\n"),
    "hash-cell": _HEADER + _ROW.format(g=0, y=1) + "#" + _ROW.format(g=1, y=0),
    "digit-underscore": _HEADER + _ROW.format(g=0, y=1) + "1_5," + _ROW.format(g=1, y=0)[4:],
    "repeated-column": _HEADER.replace("x2", "x1") + _ROW.format(g=0, y=1)
    + _ROW.format(g=1, y=0),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", MALFORMED_CSV)
    @pytest.mark.parametrize("command", ["bias", "train", "explain"])
    def test_bad_data_is_exit_two(self, workdir, tmp_path, capsys, command, case):
        _, _, model = workdir
        path = tmp_path / "bad.csv"
        if MALFORMED_CSV[case] is None:
            path.mkdir()
        else:
            path.write_text(MALFORMED_CSV[case])
        argv = [command, "--data", str(path), "--out", str(tmp_path / "out")]
        if command != "train":
            argv += ["--model", model]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("header, name", [("x1,x1,x3,x4,x5,g,y", "x1"),
                                              ("x1,x2,x3,x4,g,g,y", "g")],
                             ids=["predictor", "label"])
    def test_repeated_column_is_named(self, workdir, tmp_path, capsys, header, name):
        _, _, model = workdir
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + _ROW.format(g=0, y=1) + _ROW.format(g=1, y=0))
        assert main(["mitigate", "--data", str(path), "--model", model, "--m-star", "3",
                     "--sign", "-1", "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: dataset CSV header names column '{name}' twice\n")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("command", ["train", "bias", "explain", "curve", "calibrate",
                                         "compare-baseline"])
    def test_repeated_column_is_named_by_every_command(self, workdir, tmp_path, capsys,
                                                       command):
        """Every other subcommand that reads --data names the repeated column
        too, and writes nothing."""
        _, _, model = workdir
        path = tmp_path / "bad.csv"
        path.write_text(MALFORMED_CSV["repeated-column"])
        params = tmp_path / "params.json"
        params.write_text(json.dumps([{"predictor": 0, "kind": "global", "params": [2.0],
                                       "focal": 5.0}]))
        inputs = {"train": [], "compare-baseline": [],
                  "curve": ["--model", model, "--predictors", "x3", "--a-grid", "2"],
                  "calibrate": ["--model", model, "--params", str(params)]}
        out = tmp_path / "out"
        argv = [command, "--data", str(path), *inputs.get(command, ["--model", model]),
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: dataset CSV header names column 'x1' twice\n"
        assert not out.exists()

    def test_bad_cell_names_its_line(self, workdir, tmp_path, capsys):
        _, _, model = workdir
        path = tmp_path / "bad.csv"
        path.write_text(_HEADER + _ROW.format(g=0, y=1) + "\n" + _ROW.format(g=1, y="yes"))
        assert main(["bias", "--data", str(path), "--model", model,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: could not convert string 'yes' to float64 at line 4, column 7.\n")

    @pytest.mark.parametrize("command", ["bias", "explain"])
    def test_model_directory_is_exit_two(self, workdir, tmp_path, capsys, command):
        _, data, _ = workdir
        assert main([command, "--data", data, "--model", str(tmp_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        ("[1]", "list of objects"),
        ('{"predictor": 0}', "list of objects"),
        ('[{"predictor": 0, "kind": "global", "params": 5, "focal": 5.0}]', "malformed"),
        ('[{"predictor": 0, "kind": "global", "params": [2.0], "focal": null}]', "malformed"),
        ('[{"predictor": 9, "kind": "global", "params": [2.0], "focal": 5.0}]', "the data has 5"),
        ('[{"predictor": -1, "kind": "global", "params": [2.0], "focal": 5.0}]', "the data has 5"),
        ('[{"predictor": 1.7, "kind": "global", "params": [2.0], "focal": 5.0}]',
         "could not convert float to int: 1.7 in transform field 'predictor'"),
        ('[{"predictor": true, "kind": "global", "params": [2.0], "focal": 5.0}]',
         "could not convert boolean to int: True in transform field 'predictor'"),
        ('[{"predictor": "2", "kind": "global", "params": [2.0], "focal": 5.0}]',
         "could not convert string to int: '2' in transform field 'predictor'"),
        ('[{"predictor": 0, "kind": "global", "params": [2.0], "focal": NaN}]',
         "the focal point of predictor 0 must be finite, got nan"),
        ('[{"predictor": 0, "kind": "global", "params": [2.0], "focal": Infinity}]',
         "the focal point of predictor 0 must be finite, got inf"),
        ('[{"predictor": 0, "kind": "global", "params": ["1.5"], "focal": 5.0}]',
         "could not convert string to float: '1.5' in transform field 'params'"),
        ('[{"predictor": 0, "kind": "global", "params": [2.0], "focal": 5.0, "name": 3}]',
         "could not convert int to str: 3 in transform field 'name'"),
    ], ids=["list-of-numbers", "object", "params-number", "focal-null", "predictor-9",
            "predictor-negative", "predictor-fraction", "predictor-boolean", "predictor-string",
            "focal-nan", "focal-infinity", "params-string", "name-number"])
    def test_malformed_params_is_exit_two(self, workdir, tmp_path, capsys, params, message):
        _, data, model = workdir
        path = tmp_path / "params.json"
        path.write_text(params)
        assert main(["calibrate", "--data", data, "--model", model, "--params",
                     str(path), "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


    @pytest.mark.parametrize("command", ["calibrate", "mitigate"])
    def test_repeated_predictor_is_exit_two(self, workdir, tmp_path, capsys, command):
        """A predictor named twice, in a params file or in --predictors, is
        rejected with its name before anything is written."""
        _, data, model = workdir
        out = tmp_path / "out.json"
        argv = [command, "--data", data, "--model", model, "--out", str(out)]
        if command == "calibrate":
            transform = {"predictor": 2, "kind": "global", "params": [2.0], "focal": 5.0}
            (tmp_path / "params.json").write_text(json.dumps([transform, transform]))
            argv += ["--params", str(tmp_path / "params.json")]
        else:
            argv += ["--predictors", "x3,x1,x3", "--n-prior", "4", "--n-bo", "0",
                     "--omega-steps", "2"]
        assert main(argv) == 2
        name = "2" if command == "calibrate" else "x3"
        assert capsys.readouterr().err == f"error: duplicate transform for predictor {name}\n"
        assert not out.exists() and not (tmp_path / "out.json.manifest.json").exists()


class TestCompareBaseline:
    def test_small_run(self, workdir, tmp_path):
        _, data, _ = workdir
        out = str(tmp_path / "baseline.csv")
        assert main(["compare-baseline", "--data", data, "--n-prior", "3",
                     "--n-bo", "1", "--omega-steps", "2", "--sign", "-1",
                     "--out", out]) == 0
        rows = open(out).read().splitlines()
        assert rows[0] == "omega,bias,loss,dominated_flag,gamma_json"
        assert len(rows) == 1 + 3 + 2


class TestScipyFree:
    def test_commands_run_with_scipy_blocked(self, workdir, tmp_path):
        """With scipy blocked, so that any import of it raises, the CLI
        imports and a GP search and a calibration (which computes the AUC)
        exit 0."""
        import os
        import subprocess
        import sys

        import fairpost

        _, data, model = workdir
        from fairpost.transform import CompressiveParams, PredictorTransform
        params = tmp_path / "params.json"
        params.write_text(CompressiveParams((
            PredictorTransform(0, "global", (1.5,), 5.0, "mean", "x1"),)).to_json())
        commands = [
            ["mitigate", "--data", data, "--model", model, "--predictors", "x1,x3",
             "--n-prior", "6", "--n-bo", "3", "--omega-steps", "2", "--surrogate", "gp",
             "--sign", "-1", "--out", str(tmp_path / "gp.csv")],
            ["calibrate", "--data", data, "--model", model, "--params", str(params),
             "--out", str(tmp_path / "calib.json")],
        ]
        script = ("import json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from fairpost.cli import main\n"
                  "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
        src = os.path.dirname(os.path.dirname(fairpost.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "gp.csv").read_text().splitlines()) == 1 + 6 + 2 * 3
        manifest = json.loads((tmp_path / "calib.json.manifest.json").read_text())
        assert manifest["settings"]["auc"] > 0.5


_IO = {"data": "d.csv", "out": "o.csv"}
_MINIMAL_ARGS = [  # (argv, every dest it parses to, with the value's type)
    (["generate", "--model", "M1", "--n", "10", "--out", "o.csv"],
     {"model": "M1", "n": 10, "seed": 0, "out": "o.csv"}),
    (["train", "--data", "d.csv", "--out", "o.csv"],
     {**_IO, "kind": "gbm", "n_estimators": 150, "max_depth": 3, "max_leaves": 8,
      "learning_rate": 0.1, "min_samples_leaf": 50, "sign": 1}),
    (["bias", "--data", "d.csv", "--model", "m.json", "--out", "o.csv"],
     {**_IO, "model": "m.json", "sign": 1, "partition": "sp"}),
    (["explain", "--data", "d.csv", "--model", "m.json", "--out", "o.csv"],
     {**_IO, "model": "m.json", "method": "pdp", "background": 500, "anchors": 50,
      "permutations": 32, "seed": 0, "sign": 1, "partition": "sp"}),
    (["mitigate", "--data", "d.csv", "--model", "m.json", "--out", "o.csv"],
     {**_IO, "model": "m.json", "transform": "global", "predictors": "", "m_star": 2,
      "a_lo": 0.5, "a_hi": 2.0, "sigma_lo": 1.0, "sigma_hi": 2.0, "focal": "mean",
      "n_prior": 400, "n_bo": 50, "omega_max": 2.0, "omega_steps": 21, "surrogate": "tpe",
      "seed": 0, "sign": 1, "partition": "sp"}),
    (["curve", "--data", "d.csv", "--model", "m.json", "--predictors", "x1", "--a-grid", "2",
      "--out", "o.csv"],
     {**_IO, "model": "m.json", "predictors": "x1", "a_grid": "2", "focal": "mean",
      "sign": 1, "partition": "sp"}),
    (["calibrate", "--data", "d.csv", "--model", "m.json", "--params", "p.json",
      "--out", "o.csv"],
     {**_IO, "model": "m.json", "params": "p.json", "method": "link_linear"}),
    (["compare-baseline", "--data", "d.csv", "--out", "o.csv"],
     {**_IO, "n_prior": 50, "n_bo": 10, "omega_max": 4.0, "omega_steps": 9,
      "surrogate": "tpe", "seed": 0, "sign": 1, "partition": "sp"}),
]


class TestParser:
    @pytest.mark.parametrize("argv, expected", _MINIMAL_ARGS,
                             ids=[argv[0] for argv, _ in _MINIMAL_ARGS])
    def test_minimal_argv_pin(self, argv, expected):
        """Every dest a subcommand parses, with its default and its type."""
        parsed = vars(cli.build_parser().parse_args(argv))
        command = argv[0]
        func = getattr(cli, "cmd_" + command.replace("-", "_"))
        expected = {**expected, "command": command, "func": func}
        assert {k: (type(v), v) for k, v in parsed.items()} == {
            k: (type(v), v) for k, v in expected.items()}

    def test_successive_calls_write_fresh_process_manifests(self, tmp_path, monkeypatch):
        """The parser is built once per process; a call after another with
        other flags writes the manifest a fresh process writes."""
        import os
        import subprocess
        import sys

        import fairpost
        calls = [["generate", "--model", "M2", "--n", "40", "--seed", "7", "--out", "a.csv"],
                 ["generate", "--model", "M1", "--n", "30", "--out", "b.csv"]]
        (tmp_path / "same").mkdir()
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "same")
        for argv in calls:
            assert main(argv) == 0
        src = os.path.dirname(os.path.dirname(fairpost.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in calls:
            subprocess.run([sys.executable, "-m", "fairpost.cli", *argv], check=True,
                           cwd=tmp_path / "fresh", env=env)
        for name in ("a.csv.manifest.json", "b.csv.manifest.json"):
            assert ((tmp_path / "same" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())
        assert json.loads((tmp_path / "same" / "b.csv.manifest.json").read_text()
                          )["settings"]["seed"] == 0


    def test_choices_read_library_tables(self):
        """Each named family's flag offers exactly the library table's names,
        in the table's order."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        def choices(command, flag):
            action = next(a for a in commands[command]._actions if flag in a.option_strings)
            return tuple(action.choices)

        assert choices("mitigate", "--transform") == tuple(TRANSFORMS)
        for command in ("mitigate", "curve"):
            assert choices(command, "--focal") == FOCAL_RULES
        assert choices("calibrate", "--method") == tuple(CALIBRATIONS)
        for command in ("mitigate", "compare-baseline"):
            assert choices(command, "--surrogate") == SURROGATES

    def test_train_flags_read_library_tables(self):
        """``train --kind`` offers MODEL_KINDS, and the GBM flags are
        GbmConfig's fields, in field order, each with the field's default and
        its type."""
        parser = cli.build_parser()
        train = next(a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)).choices["train"]
        by_dest = {a.dest: a for a in train._actions}
        assert tuple(by_dest["kind"].choices) == MODEL_KINDS
        fields = dataclasses.fields(GbmConfig)
        dests = [a.dest for a in train._actions]
        assert [d for d in dests if d in {f.name for f in fields}] == [f.name for f in fields]
        for f in fields:
            action = by_dest[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert (action.type, action.default) == (type(f.default), f.default)


class TestEntryPoint:
    def test_console_script_help(self):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "fairpost.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout
