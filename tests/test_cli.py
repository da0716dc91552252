"""End-to-end tests of the batch command-line interface."""

import json
import multiprocessing
from importlib import resources

import numpy as np
import pytest

from robmarg import cli, parallel, propensity
from robmarg.cli import main
from robmarg.inference import confidence_interval, jackknife_se

DATA_DIR = resources.files("robmarg") / "data"
AIRQ = str(DATA_DIR / "airquality.csv")
OZONE_CONFIG = json.loads((DATA_DIR / "ozone_config.json").read_text())


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def toy_csv(tmp_path, n=40, name="toy.csv", blank_rows=()):
    """Fully observed linear dataset with near-deterministic response."""
    rng = np.random.default_rng(7)
    x1 = rng.uniform(0.0, 4.0, n)
    x2 = rng.normal(0.0, 1.0, n)
    y = 2.0 + 3.0 * x1 + 0.5 * x2 + rng.normal(0.0, 0.01, n)
    lines = ["y,x1,x2"]
    for i in range(n):
        cell = "" if i in blank_rows else f"{y[i]:.9f}"
        lines.append(f"{cell},{x1[i]:.9f},{x2[i]:.9f}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def toy_config(**overrides):
    doc = {
        "response": "y",
        "z": ["x1"],
        "covariates": ["x1", "x2"],
        "estimators": ["ipw", "conv", "aipw"],
        "propensities": ["constant"],
        "models": [{"id": "linear", "label": "linear"}],
        "jackknife": False,
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def settings_and_data(config, path):
    settings = cli._build_estimate_settings(config)
    columns = [settings["response"]] + [
        c for c in settings["covariates"] if c != settings["response"]
    ]
    return settings, cli._build_dataset(
        cli._read_csv_columns(path, columns), settings
    )


def reference_attach_jackknife(entries, data, settings):
    """The jackknife as it ran before one leave-one-out pass served every
    entry: each jackknifed entry refits its own propensity and model on
    every leave-one-out dataset, and skips the sets where it alone fails."""
    jk_prop = settings["jackknife_propensity"]
    first_label = settings["models"][0]["label"] if settings["models"] else None

    def jackknife_theta(entry):
        spec = next(
            (m for m in settings["models"] if m["label"] == entry["model"]),
            None,
        )

        def rerun(d):
            pf = propensity.fit_propensity(
                entry["propensity"], d.z, d.delta, settings["floor"],
                settings["kernel_bandwidth"],
            )
            model_fit = cli._fit_model(spec, d, settings) if spec else None
            return cli._estimate(
                entry["estimator"], d, pf, settings, model_fit
            ).theta_m

        return rerun

    for entry in entries:
        if entry["propensity"] != jk_prop:
            continue
        if entry["estimator"] == "conv" and entry["model"] != first_label:
            continue
        ve = jackknife_se(jackknife_theta(entry), data)
        lo, hi = confidence_interval(
            entry["theta_m"], ve, settings["confidence_level"]
        )
        entry["se"] = ve.se
        entry["ci"] = [lo, hi]
        entry["jackknife_n"] = ve.n_effective


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """Packaged-data estimate run shared by the reproduction tests."""
    out = tmp_path_factory.mktemp("ozone_out")
    config = dict(OZONE_CONFIG)
    config["jackknife"] = False  # point estimates only; SEs tested below
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        ["estimate", "--data", AIRQ, "--config", str(cfg_path),
         "--out", str(out)]
    )
    assert code == 0
    return json.loads((out / "report.json").read_text())


class TestEstimateOnPackagedData:
    def test_ingestion_counts(self, report):
        ds = report["dataset"]
        assert ds["rows"] == 153
        assert ds["complete"] == 111
        assert ds["missing"]["ozone"] == 37
        assert ds["missing"]["solar"] == 7
        assert ds["missing"]["wind"] == 0

    def test_settings_echo(self, report):
        st = report["settings"]
        assert st["scale_method"] == "mad"
        assert st["a_n"] == pytest.approx(3.55)
        assert st["jackknife_propensity"] == "kernel"

    def test_estimate_grid_is_complete(self, report):
        entries = report["estimates"]
        # 3 propensities x (ipw + aipw + 2 conv models) = 12 entries
        assert len(entries) == 12
        keys = {(e["estimator"], e["model"], e["propensity"])
                for e in entries}
        assert ("ipw", None, "kernel") in keys
        assert ("conv", "linear", "constant") in keys

    def test_point_estimates_match_study_values(self, report):
        """Reference values from the original ozone analysis of this data."""
        by = {(e["estimator"], e["model"], e["propensity"]): e["theta_m"]
              for e in report["estimates"]}
        assert by[("ipw", None, "kernel")] == pytest.approx(35.805, abs=0.5)
        assert by[("aipw", None, "kernel")] == pytest.approx(35.787, abs=0.5)
        assert by[("conv", "nonlinear", "kernel")] == pytest.approx(
            36.055, abs=0.5
        )
        assert by[("conv", "linear", "kernel")] == pytest.approx(
            40.992, abs=0.8
        )
        # the model-misspecification gap is large and positive
        gap = by[("conv", "linear", "kernel")] - by[("conv", "nonlinear",
                                                     "kernel")]
        assert gap > 4.0

    def test_table_matches_report(self, report, tmp_path):
        out = tmp_path / "again"
        cfg = dict(OZONE_CONFIG)
        cfg["jackknife"] = False
        code = main(
            ["estimate", "--data", AIRQ, "--config",
             write_config(tmp_path, cfg), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == (
            "estimator,model,propensity,theta_m,scale,se,ci_low,ci_high"
        )
        assert len(lines) == 1 + len(report["estimates"])
        first = lines[1].split(",")
        assert first[0] == "ipw"
        # values are written with six significant digits
        assert float(first[3]) == pytest.approx(
            report["estimates"][0]["theta_m"], rel=1e-5
        )


class TestEstimateJackknife:
    def test_se_and_ci_attached_to_designated_propensity(self, tmp_path):
        config = dict(OZONE_CONFIG)
        # constant-propensity jackknife avoids refitting the kernel CV
        # bandwidth in each leave-one-out pass, keeping this test quick
        config["propensities"] = ["constant"]
        config["jackknife_propensity"] = "constant"
        config["models"] = [{"id": "linear", "label": "linear"}]
        config["estimators"] = ["ipw", "conv"]
        out = tmp_path / "out"
        code = main(
            ["estimate", "--data", AIRQ, "--config",
             write_config(tmp_path, config), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        jk = [e for e in report["estimates"] if e["se"] is not None]
        assert len(jk) == 2
        for e in jk:
            lo, hi = e["ci"]
            assert lo < e["theta_m"] < hi
            assert e["se"] > 0
            assert e["jackknife_n"] == 153

    @pytest.mark.parametrize("case", ["ozone", "toy"])
    def test_one_pass_matches_per_entry_jackknife(self, tmp_path, case):
        if case == "ozone":
            config = dict(OZONE_CONFIG, propensities=["constant"],
                          jackknife_propensity="constant")
            path = AIRQ
        else:
            config = toy_config(a_n=None, jackknife=True)
            path = toy_csv(tmp_path)
        settings, data = settings_and_data(config, path)
        entries = cli._estimate_entries(data, settings)
        expected = [dict(e) for e in entries]
        reference_attach_jackknife(expected, data, settings)
        cli._attach_jackknife(entries, data, settings)
        assert sum(e["se"] is not None for e in entries) == 3
        for got, want in zip(entries, expected):
            for field in ("se", "ci", "jackknife_n"):
                assert got[field] == want[field]

    def test_failed_set_is_skipped_for_every_entry(self, tmp_path,
                                                   monkeypatch):
        settings, data = settings_and_data(
            toy_config(jackknife=True), toy_csv(tmp_path)
        )
        entries = cli._estimate_entries(data, settings)
        real = cli.estimate_conv
        calls = []

        def fails_once(d, *args):
            calls.append(1)
            if len(calls) == 5:
                raise ValueError("no convergence")
            return real(d, *args)

        monkeypatch.setattr(cli, "estimate_conv", fails_once)
        # The patch reaches the calling process only.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        cli._attach_jackknife(entries, data, settings)
        assert [e["jackknife_n"] for e in entries] == [data.n - 1] * 3


@pytest.fixture(scope="module")
def ozone_jackknife_runs():
    """The packaged ozone jackknife (kernel propensity) three ways: refitting
    every set in-process, reusing the full data's fit in-process, and
    reusing it in a pool of two workers; with the fit_mm calls made in the
    calling process."""
    settings, data = settings_and_data(dict(OZONE_CONFIG), AIRQ)
    assert settings["jackknife"]
    assert settings["jackknife_propensity"] == "kernel"
    runs = {}
    for name, cpus, reuse in (("refit", 1, False), ("reuse", 1, True),
                              ("pool", 2, True)):
        calls = []
        real = cli.fit_mm

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "fit_mm", counted)
            mp.setattr(parallel, "available_cpus", lambda: cpus)
            mp.setattr(parallel, "_START_FACTOR", 0.0)
            fits = cli._fit_models(data, settings)
            entries = cli._estimate_entries(data, settings, fits)
            cli._attach_jackknife(entries, data, settings,
                                  fits if reuse else None)
        runs[name] = (entries, len(calls))
    return runs


class TestJackknifeWork:
    @staticmethod
    def assert_same_jackknife(got, want):
        assert sum(e["se"] is not None for e in want) == 3
        for a, b in zip(got, want):
            for field in ("se", "ci", "jackknife_n"):
                assert a[field] == b[field]

    def test_reused_full_fit_is_exact(self, ozone_jackknife_runs):
        refit, refit_calls = ozone_jackknife_runs["refit"]
        reuse, reuse_calls = ozone_jackknife_runs["reuse"]
        self.assert_same_jackknife(reuse, refit)
        # 2 full-data fits, then one per set; 42 of the 153 sets leave out
        # an incomplete row and reuse the full data's fit.
        assert refit_calls == 2 + 153
        assert reuse_calls == 2 + 153 - 42

    def test_pool_matches_in_process(self, ozone_jackknife_runs):
        self.assert_same_jackknife(ozone_jackknife_runs["pool"][0],
                                   ozone_jackknife_runs["reuse"][0])
        assert multiprocessing.active_children() == []


class TestPropensityFitPerDataset:
    def test_one_fit_serves_every_entry(self, monkeypatch):
        config = dict(OZONE_CONFIG)
        config["jackknife"] = False
        settings = cli._build_estimate_settings(config)
        columns = [settings["response"]] + [
            c for c in settings["covariates"] if c != settings["response"]
        ]
        data = cli._build_dataset(cli._read_csv_columns(AIRQ, columns), settings)
        calls = []
        real = propensity.auto_bandwidth

        def counted(z, delta):
            calls.append(1)
            return real(z, delta)

        monkeypatch.setattr(propensity, "auto_bandwidth", counted)
        entries = cli._estimate_entries(data, settings)
        assert "kernel" in settings["propensities"]
        assert len(calls) == 1
        assert len(entries) == 12

        # Each entry alone, so that its propensity is fitted for it alone.
        for entry in entries:
            single = dict(
                settings,
                estimators=[entry["estimator"]],
                propensities=[entry["propensity"]],
                models=[m for m in settings["models"]
                        if m["label"] == entry["model"]] or settings["models"],
            )
            (refit,) = cli._estimate_entries(data, single)
            assert refit == entry
        assert len(calls) == 1 + 4


class TestEstimateCollapse:
    def test_no_missing_data_collapses_estimators(self, tmp_path):
        data = toy_csv(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["estimate", "--data", data, "--config",
             write_config(tmp_path, toy_config()), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dataset"]["complete"] == report["dataset"]["rows"]
        by = {e["estimator"]: e for e in report["estimates"]}
        # with nothing missing the weighting machinery is inert: the IPW
        # and AIPW estimates coincide exactly with each other
        for field in ("theta_mean", "theta_median", "theta_m", "scale"):
            assert by["ipw"][field] == pytest.approx(
                by["aipw"][field], abs=1e-10
            )
        # the convolution's mean is additive and collapses exactly; its
        # median and M-location are smoothed by the residual distribution,
        # here nearly degenerate, so they agree to the noise level
        assert by["conv"]["theta_mean"] == pytest.approx(
            by["ipw"]["theta_mean"], abs=1e-8
        )
        assert by["conv"]["theta_median"] == pytest.approx(
            by["ipw"]["theta_median"], abs=0.05
        )
        assert by["conv"]["theta_m"] == pytest.approx(
            by["ipw"]["theta_m"], abs=0.05
        )

    def test_scale_method_s_changes_reported_scale(self, tmp_path):
        data = toy_csv(tmp_path)
        out_mad = tmp_path / "mad"
        out_s = tmp_path / "s"
        main(
            ["estimate", "--data", data, "--config",
             write_config(tmp_path, toy_config(), "c1.json"),
             "--out", str(out_mad)]
        )
        main(
            ["estimate", "--data", data, "--config",
             write_config(tmp_path, toy_config(scale_method="s"), "c2.json"),
             "--out", str(out_s)]
        )
        rep_mad = json.loads((out_mad / "report.json").read_text())
        rep_s = json.loads((out_s / "report.json").read_text())
        assert rep_mad["settings"]["scale_method"] == "mad"
        assert rep_s["settings"]["scale_method"] == "s"
        s_mad = rep_mad["estimates"][0]["scale"]
        s_s = rep_s["estimates"][0]["scale"]
        assert abs(s_mad - s_s) > 1e-6

    def test_reruns_are_byte_identical(self, tmp_path):
        data = toy_csv(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(
                ["estimate", "--data", data, "--config",
                 write_config(tmp_path, toy_config(), f"{tag}.json"),
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (
            outs[1] / "report.json"
        ).read_bytes()
        assert (outs[0] / "table.csv").read_bytes() == (
            outs[1] / "table.csv"
        ).read_bytes()


class TestEstimateInputErrors:
    def run_expecting_error(self, tmp_path, data, config, fragment, capsys):
        out = tmp_path / "out"
        code = main(
            ["estimate", "--data", data, "--config", config,
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert fragment in err
        return err

    def test_short_row_reports_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,5.0\n")
        self.run_expecting_error(
            tmp_path, str(path),
            write_config(tmp_path, toy_config()),
            "row 3: expected 3 fields, got 2", capsys,
        )

    def test_unparseable_cell_reports_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,oops,6.0\n")
        self.run_expecting_error(
            tmp_path, str(path),
            write_config(tmp_path, toy_config()),
            "row 3: could not parse 'oops' in column 'x1'", capsys,
        )

    def test_missing_column_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\n")
        self.run_expecting_error(
            tmp_path, str(path),
            write_config(tmp_path, toy_config()),
            "data file lacks column(s): x2", capsys,
        )

    def test_empty_and_headers_only_files(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        self.run_expecting_error(
            tmp_path, str(empty), write_config(tmp_path, toy_config()),
            "data file is empty", capsys,
        )
        headers = tmp_path / "headers.csv"
        headers.write_text("y,x1,x2\n")
        self.run_expecting_error(
            tmp_path, str(headers), write_config(tmp_path, toy_config()),
            "data file has no data rows", capsys,
        )

    def test_missing_z_cell_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "zmiss.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,NA,6.0\n5.0,1.0,2.0\n")
        self.run_expecting_error(
            tmp_path, str(path), write_config(tmp_path, toy_config()),
            "z must be fully observed", capsys,
        )

    def test_unknown_scale_method_names_field(self, tmp_path, capsys):
        data = toy_csv(tmp_path)
        err = self.run_expecting_error(
            tmp_path, data,
            write_config(tmp_path, toy_config(scale_method="iqr")),
            "scale_method", capsys,
        )
        assert "error:" in err

    def test_config_field_validation(self, tmp_path, capsys):
        data = toy_csv(tmp_path)
        cases = [
            (toy_config(z=["x9"]), "not in 'covariates'"),
            (toy_config(estimators=["ipw", "ols"]), "unknown estimators"),
            (toy_config(propensities=["probit"]), "unknown propensities"),
            (toy_config(models=[]), "needs at least one entry in 'models'"),
            (toy_config(models=[{"id": "cubic"}]), "unknown model id"),
            (toy_config(a_n=-1), "'a_n' must be a positive number"),
            (toy_config(floor=1.5), "'floor' must lie in (0, 1)"),
            (toy_config(jackknife_propensity="kernel"),
             "'jackknife_propensity' must be one of the requested"),
        ]
        for k, (config, fragment) in enumerate(cases):
            self.run_expecting_error(
                tmp_path, data,
                write_config(tmp_path, config, f"bad{k}.json"),
                fragment, capsys,
            )

    def test_duplicate_model_labels_rejected(self, tmp_path, capsys):
        # Fits are keyed by label: a second "linear" would replace the
        # first model's fit and the plain linear estimate would be lost.
        models = [{"id": "linear"},
                  {"id": "exp_linear_intercept", "label": "linear"}]
        self.run_expecting_error(
            tmp_path, toy_csv(tmp_path),
            write_config(tmp_path, toy_config(models=models)),
            "two models are labelled 'linear'; give each model a distinct "
            "'label'", capsys,
        )

    @pytest.mark.parametrize(
        "field,fragment",
        [("a_n", "'a_n' must be a positive number"),
         ("kernel_bandwidth", "'kernel_bandwidth' must be a positive number"),
         ("seed", "'seed' must be an integer")],
        ids=["a_n", "kernel_bandwidth", "seed"],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, field, fragment):
        self.run_expecting_error(
            tmp_path, toy_csv(tmp_path),
            write_config(tmp_path, toy_config(**{field: True})),
            fragment, capsys,
        )

    @pytest.mark.parametrize(
        "overrides,fragment",
        [({"jacknife": False}, "unknown field 'jacknife'"),
         ({"scale_methd": "s"}, "unknown field 'scale_methd'"),
         ({"models": [{"id": "linear", "wieghts": "hard_rejection"}]},
          "model #1: unknown field 'wieghts'"),
         ({"propensities": ["constant", "constant"]},
          "field 'propensities'"),
         ({"models": [{"id": "linear", "label": 5}]},
          "model #1: field 'label' must be a string"),
         ({"estimators": ["ipw", "aipw", "ipw"]}, "field 'estimators'"),
         ({"z": ["x1", "x1"]}, "field 'z'"),
         ({"covariates": ["x1", "x2", "x1"]}, "field 'covariates'")],
        ids=["jacknife", "scale_methd", "wieghts", "repeated_propensity",
             "numeric_label", "repeated_estimator", "repeated_z",
             "repeated_covariate"],
    )
    def test_bad_config_names_field(self, tmp_path, capsys, overrides,
                                    fragment):
        self.run_expecting_error(
            tmp_path, toy_csv(tmp_path),
            write_config(tmp_path, toy_config(**overrides)),
            fragment, capsys,
        )

    @pytest.mark.parametrize("covariates", [["x1"], ["x1", "x2", "x3"]])
    def test_models_need_exactly_two_covariates(
        self, tmp_path, capsys, covariates
    ):
        path = tmp_path / "three.csv"
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (30, 3))
        y = 1.0 + x @ [2.0, 0.5, 0.3] + rng.normal(0.0, 0.1, 30)
        path.write_text(
            "y,x1,x2,x3\n"
            + "".join(f"{a},{b},{c},{d}\n" for a, (b, c, d) in zip(y, x))
        )
        self.run_expecting_error(
            tmp_path, str(path),
            write_config(tmp_path, toy_config(covariates=covariates)),
            f"need exactly 2 'covariates', got {len(covariates)}", capsys,
        )

    def test_config_missing_field(self, tmp_path, capsys):
        data = toy_csv(tmp_path)
        config = toy_config()
        del config["response"]
        self.run_expecting_error(
            tmp_path, data, write_config(tmp_path, config),
            "missing field 'response'", capsys,
        )

    def test_config_not_json(self, tmp_path, capsys):
        data = toy_csv(tmp_path)
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.run_expecting_error(
            tmp_path, data, str(path), "not valid JSON", capsys,
        )

    def test_blank_response_cells_count_as_missing(self, tmp_path):
        data = toy_csv(tmp_path, blank_rows=(3, 8))
        out = tmp_path / "out"
        code = main(
            ["estimate", "--data", data, "--config",
             write_config(tmp_path, toy_config()), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dataset"]["missing"]["y"] == 2
        assert report["dataset"]["complete"] == report["dataset"]["rows"] - 2


class TestSimulate:
    def simulate_config(self, tmp_path, name="sim.json", **scenario):
        doc = {
            "scenarios": [
                {
                    "id": "smoke",
                    "n": 100,
                    "reps": 2,
                    "seed": 3,
                    "contamination": "C0",
                    "missing": "M1",
                    "propensity_method": "constant",
                    "estimators": ["ipw"],
                    "functionals": ["mean", "m_est"],
                }
            ]
        }
        doc["scenarios"][0].update(scenario)
        return write_config(tmp_path, doc, name)

    def test_smoke_run_writes_tables(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", self.simulate_config(tmp_path),
             "--out", str(out)]
        )
        assert code == 0
        for name in ("smoke.csv", "smoke.json", "combined.csv"):
            assert (out / name).exists()
        lines = (out / "combined.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,functional,estimator")
        assert len(lines) == 3  # header + (mean, m_est) x ipw
        assert all(line.startswith("smoke,") for line in lines[1:])
        doc = json.loads((out / "smoke.json").read_text())
        assert doc["reps_used"] == 2
        assert doc["failures"] == 0

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(
                ["simulate", "--config",
                 self.simulate_config(tmp_path, f"{tag}.json"),
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        for name in ("smoke.csv", "smoke.json", "combined.csv"):
            assert (outs[0] / name).read_bytes() == (
                outs[1] / name
            ).read_bytes()

    def test_unknown_scenario_field_is_named(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config",
             self.simulate_config(tmp_path, turbo=True),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "unknown field 'turbo'" in capsys.readouterr().err

    def test_unknown_enum_value_is_reported(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config",
             self.simulate_config(tmp_path, contamination="C9"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "scenario 'smoke'" in err
        assert "contamination" in err

    @pytest.mark.parametrize(
        "field,value", [("reps", 2.5), ("n", 50.5), ("seed", "x"), ("n", True)]
    )
    def test_non_integer_counts_are_input_errors(
        self, tmp_path, capsys, field, value
    ):
        code = main(
            ["simulate", "--config",
             self.simulate_config(tmp_path, **{field: value}),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"scenario 'smoke': {field} must be an integer" in err

    @pytest.mark.parametrize("field", ["estimators", "functionals"])
    def test_repeated_name_is_an_input_error(self, tmp_path, capsys, field):
        names = {"estimators": ["ipw", "ipw"],
                 "functionals": ["mean", "m_est", "mean"]}
        code = main(
            ["simulate", "--config",
             self.simulate_config(tmp_path, **{field: names[field]}),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert f"scenario 'smoke': {field} names one twice" in (
            capsys.readouterr().err
        )

    def test_boolean_workers_rejected(self, tmp_path, capsys):
        self.simulate_config(tmp_path)
        doc = json.loads((tmp_path / "sim.json").read_text())
        doc["workers"] = True
        code = main(
            ["simulate", "--config", write_config(tmp_path, doc, "w.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "'workers' must be a positive integer" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "extra,fragment",
        [({"worker": 4}, "unknown field 'worker'"),
         ({"targets": {"mena": 1.0}}, "'targets': unknown field 'mena'"),
         ({"targets": {"mean": "x"}},
          "'targets': field 'mean' must be a number"),
         ({"targets": {"mean": True}},
          "'targets': field 'mean' must be a number")],
        ids=["worker", "mena", "string_target", "boolean_target"],
    )
    def test_bad_config_names_field(self, tmp_path, capsys, extra, fragment):
        self.simulate_config(tmp_path)
        doc = json.loads((tmp_path / "sim.json").read_text())
        doc.update(extra)
        code = main(
            ["simulate", "--config", write_config(tmp_path, doc, "bad.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert fragment in capsys.readouterr().err

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        doc = {
            "scenarios": [
                {"id": "twin", "reps": 1, "missing": "M1",
                 "propensity_method": "constant"},
                {"id": "twin", "reps": 1, "missing": "M1",
                 "propensity_method": "constant"},
            ]
        }
        code = main(
            ["simulate", "--config", write_config(tmp_path, doc),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "duplicate scenario id 'twin'" in capsys.readouterr().err

    def test_aborted_scenario_exits_2(self, tmp_path, capsys):
        # a logistic fit is undefined when nothing is missing, so every
        # replication fails and the scenario aborts
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config",
             self.simulate_config(tmp_path, propensity_method="logistic"),
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario smoke" in err
        assert "1 of 1 scenario(s) aborted: smoke" in err
        # the combined table is still written (empty apart from the header)
        assert (out / "combined.csv").exists()
        assert not (out / "smoke.csv").exists()


class TestTargets:
    def test_stdout_json_and_file_agree(self, tmp_path, capsys):
        out = tmp_path / "targets.json"
        code = main(
            ["targets", "--reps", "2", "--n", "5000", "--seed", "11",
             "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert set(doc) == {
            "mean", "median", "m_est", "mean_se", "median_se", "m_est_se",
            "reps", "n",
        }
        assert doc["reps"] == 2 and doc["n"] == 5000
        assert doc["median"] < doc["m_est"] < doc["mean"]
        assert out.read_text() == text

    def test_determinism(self, tmp_path, capsys):
        args = ["targets", "--reps", "2", "--n", "4000", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_validation(self, capsys):
        assert main(["targets", "--reps", "0"]) == 1
        assert "--reps must be at least 1" in capsys.readouterr().err
        assert main(["targets", "--reps", "1", "--n", "1"]) == 1
        assert "--n must be at least 2" in capsys.readouterr().err


class TestArgumentParsing:
    def test_missing_subcommand_is_input_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "estimate" in capsys.readouterr().out

    def test_unreadable_data_file(self, tmp_path, capsys):
        code = main(
            ["estimate", "--data", str(tmp_path / "nope.csv"),
             "--config", write_config(tmp_path, toy_config()),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "cannot read data file" in capsys.readouterr().err
