import csv
import json

import numpy as np
import pytest

from fairpost.attribution import basic_bias_explanations, select_impactful
from fairpost.bias import PartitionSpec
from fairpost.cli import main
from fairpost.explain import default_background, pdp_output
from fairpost.learn import Dataset, SyntheticSpec, TrainedModel, generate, split_dataset

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

    def test_m1_ranks_x3_highest(self, workdir, tmp_path):
        _, data, model = workdir
        out = str(tmp_path / "pdp.csv")
        assert main(["explain", "--data", data, "--model", model, "--method", "pdp",
                     "--background", "120", "--sign", "-1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        betas = {r["predictor"]: float(r["beta"]) for r in rows}
        assert max(betas, key=betas.get) == "x3"


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

    def test_unknown_predictor(self, workdir, tmp_path):
        _, data, model = workdir
        code = main(["curve", "--data", data, "--model", model, "--predictors",
                     "x9", "--a-grid", "1:2:2", "--out", str(tmp_path / "c.csv")])
        assert code == 2


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

    def test_negative_m_star_is_exit_two(self, workdir, tmp_path, capsys):
        _, data, model = workdir
        code = main(["mitigate", "--data", data, "--model", model, "--m-star", "-1",
                     "--n-prior", "4", "--n-bo", "0", "--omega-steps", "2",
                     "--out", str(tmp_path / "neg.csv")])
        assert code == 2
        assert "m_star" in capsys.readouterr().err

    def test_negative_m_star_with_predictors_is_exit_two(self, workdir, tmp_path, capsys):
        _, data, model = workdir
        out = tmp_path / "neg.csv"
        code = main(["mitigate", "--data", data, "--model", model, "--predictors", "x1",
                     "--m-star", "-1", "--n-prior", "4", "--n-bo", "0", "--omega-steps", "2",
                     "--out", str(out)])
        assert code == 2
        assert "m_star" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "neg.csv.manifest.json").exists()


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
    ], ids=["list-of-numbers", "object", "params-number", "focal-null", "predictor-9",
            "predictor-negative"])
    def test_malformed_params_is_exit_two(self, workdir, tmp_path, capsys, params, message):
        _, data, model = workdir
        path = tmp_path / "params.json"
        path.write_text(params)
        assert main(["calibrate", "--data", data, "--model", model, "--params",
                     str(path), "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


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


class TestEntryPoint:
    def test_console_script_help(self):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "fairpost.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout
