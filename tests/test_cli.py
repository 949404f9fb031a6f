import csv
import json

import numpy as np
import pytest

from fairpost.cli import main
from fairpost.learn import Dataset, SyntheticSpec, generate

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


class TestEntryPoint:
    def test_console_script_help(self):
        import subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "fairpost.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout
