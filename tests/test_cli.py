"""End-to-end tests of the batch command-line interface."""

import csv
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import robmarg
from robmarg import cli, inference, marginal, parallel, propensity
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
    columns = [settings["response"], *settings["covariates"]]
    return settings, cli._build_dataset(
        cli._read_csv_columns(path, columns), settings
    )


def estimate_entries(data, settings):
    """The report's rows before the jackknife, with the model fits and the
    a_n they were made with, as ``robmarg estimate`` makes them."""
    a_n = cli._a_n(settings, data)
    fits = cli._fit_models(data, settings)
    (estimates,) = cli._estimates([data], settings, [fits], a_n)
    return cli._report_entries(estimates, fits), fits, a_n


def per_set(estimate):
    """A per-dataset estimate as the chunk estimator of ``jackknife_se``:
    each dataset's estimate, or the exception it raised."""

    def estimator(datasets):
        out = []
        for d in datasets:
            try:
                out.append(estimate(d))
            except Exception as exc:
                out.append(exc)
        return out

    return estimator


def reference_attach_jackknife(entries, data, settings, a_n):
    """The jackknife as it ran before one leave-one-out pass served every
    entry: each jackknifed entry refits its own propensity and model on
    every leave-one-out dataset, and skips the sets where it alone fails."""
    jk_prop = settings["jackknife_propensity"]
    first_label = settings["models"][0]["label"] if settings["models"] else None

    def jackknife_theta(entry):
        single = dict(
            settings,
            estimators=[entry["estimator"]],
            propensities=[entry["propensity"]],
            models=[m for m in settings["models"]
                    if m["label"] == entry["model"]],
        )

        def rerun(d):
            fits = cli._fit_models(d, single)
            (estimates,) = cli._estimates([d], single, [fits], a_n)
            if isinstance(estimates, Exception):
                raise estimates
            (est,) = estimates.values()
            return est.theta_m

        return rerun

    for entry in entries:
        if entry["propensity"] != jk_prop:
            continue
        if entry["estimator"] == "conv" and entry["model"] != first_label:
            continue
        ve = jackknife_se(per_set(jackknife_theta(entry)), data)
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
        del config["a_n"]  # only aipw reads it
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

    @pytest.mark.parametrize("case", ["ozone", "toy", "toy_two_models"])
    def test_one_pass_matches_per_entry_jackknife(self, tmp_path, case):
        if case == "ozone":
            config = dict(OZONE_CONFIG, propensities=["constant"],
                          jackknife_propensity="constant")
            path = AIRQ
        elif case == "toy":
            config = toy_config(a_n=None, jackknife=True)
            path = toy_csv(tmp_path)
        else:
            # The jackknifed rows are not the first of their estimator: the
            # jackknife propensity comes second and the first model of two
            # is jackknifed.  Blank responses make the logistic fit defined.
            config = toy_config(
                a_n=None, jackknife=True,
                propensities=["constant", "logistic"],
                jackknife_propensity="logistic",
                models=[{"id": "linear", "label": "plain"},
                        {"id": "linear", "label": "downweighted",
                         "weights": "hard_rejection"}],
            )
            path = toy_csv(tmp_path, blank_rows=(3, 11, 24, 35))
        settings, data = settings_and_data(config, path)
        entries, fits, a_n = estimate_entries(data, settings)
        expected = [dict(e) for e in entries]
        reference_attach_jackknife(expected, data, settings, a_n)
        cli._attach_jackknife(entries, data, settings, a_n, fits)
        assert sum(e["se"] is not None for e in entries) == 3
        for got, want in zip(entries, expected):
            assert got["jackknife_n"] == want["jackknife_n"]
            if got["estimator"] != "conv":
                assert (got["se"], got["ci"]) == (want["se"], want["ci"])
                continue
            # The reference searches each set's fit; the CLI refits from the
            # full fit, which finds the same minimum to the M-step's
            # tolerance (measured: at most 3.6e-8 relative in the se).
            assert got["se"] == pytest.approx(want["se"], rel=1e-6)
            assert got["ci"] == pytest.approx(want["ci"], rel=1e-6)

    def test_failed_set_is_skipped_for_every_entry(self, tmp_path,
                                                   monkeypatch):
        settings, data = settings_and_data(
            toy_config(jackknife=True), toy_csv(tmp_path)
        )
        entries, fits, a_n = estimate_entries(data, settings)
        real = marginal.estimate_conv
        calls = []

        def fails_once(d, *args):
            calls.append(1)
            if len(calls) == 5:
                raise ValueError("no convergence")
            return real(d, *args)

        monkeypatch.setattr(marginal, "estimate_conv", fails_once)
        # Its count of calls lives in one process.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        cli._attach_jackknife(entries, data, settings, a_n, fits)
        assert [e["jackknife_n"] for e in entries] == [data.n - 1] * 3
        assert [e["jackknife_skipped"] for e in entries] == [
            {"ValueError: no convergence": 1}] * 3


@pytest.fixture(scope="module")
def ozone_jackknife_runs():
    """The packaged ozone jackknife (kernel propensity) in the calling
    process and in a pool of two workers, with the fit_mm calls made in the
    calling process."""
    settings, data = settings_and_data(dict(OZONE_CONFIG), AIRQ)
    assert settings["jackknife"]
    assert settings["jackknife_propensity"] == "kernel"
    runs = {}
    for name, cpus in (("in_process", 1), ("pool", 2)):
        calls = []
        real = cli.fit_mm

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "fit_mm", counted)
            mp.setattr(parallel, "available_cpus", lambda: cpus)
            entries, fits, a_n = estimate_entries(data, settings)
            cli._attach_jackknife(entries, data, settings, a_n, fits)
        runs[name] = (entries, len(calls))
    return runs


class TestJackknifeWork:
    @staticmethod
    def assert_same_jackknife(got, want):
        assert sum(e["se"] is not None for e in want) == 3
        for a, b in zip(got, want):
            for field in ("se", "ci", "jackknife_n"):
                assert a[field] == b[field]

    def test_only_full_data_fits_are_single(self, ozone_jackknife_runs):
        # The 2 full-data fits; the leave-one-out sets are fitted in stacks.
        assert ozone_jackknife_runs["in_process"][1] == 2
        assert ozone_jackknife_runs["pool"][1] == 2

    def test_pool_matches_in_process(self, ozone_jackknife_runs):
        self.assert_same_jackknife(ozone_jackknife_runs["pool"][0],
                                   ozone_jackknife_runs["in_process"][0])
        assert multiprocessing.active_children() == []


def jackknife_estimator(settings, data):
    """The chunk estimator ``_attach_jackknife`` gives ``jackknife_se``."""
    rerun = dict(settings, propensities=[settings["jackknife_propensity"]],
                 models=settings["models"][:1])
    return functools.partial(cli._jackknife_thetas, settings=rerun,
                             a_n=cli._a_n(settings, data),
                             full_fits=cli._fit_models(data, settings))


class TestJackknifeSetsAreTheirOwn:
    def test_set_estimates_are_its_own(self, monkeypatch):
        """Set i's thetas are bit for bit the same alone, in a chunk of 19,
        in a chunk of 64 and in a pool of two workers, whether it left out
        a complete row or an incomplete one."""
        settings, data = settings_and_data(dict(OZONE_CONFIG), AIRQ)
        thetas = jackknife_estimator(settings, data)
        sets = [inference._drop_row(data, i) for i in range(64)]
        in_64 = thetas(sets)
        incomplete = int(np.flatnonzero(data.delta[:64] == 0)[0])
        assert all(isinstance(t, list) and len(t) == 3 for t in in_64)
        for i in (0, incomplete, 23, 50):
            assert thetas([sets[i]]) == [in_64[i]]
            k = i - i % 19
            assert thetas(sets[k:k + 19])[i % 19] == in_64[i]
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        assert parallel.ordered_map(thetas, sets, workers=2) == in_64
        assert multiprocessing.active_children() == []

    def test_set_without_an_incomplete_row_takes_the_full_fit(
            self, monkeypatch):
        """A set that leaves out an incomplete row is given the full data's
        fit object, and only the sets that leave out a complete row are
        refitted, from that fit."""
        settings, data = settings_and_data(dict(OZONE_CONFIG), AIRQ)
        thetas = jackknife_estimator(settings, data)
        full = thetas.keywords["full_fits"][settings["models"][0]["label"]]
        incomplete = np.flatnonzero(data.delta == 0)[:2]
        complete = np.flatnonzero(data.delta == 1)[:3]
        rows = [incomplete[0], complete[0], incomplete[1], *complete[1:]]
        sets = [inference._drop_row(data, i) for i in rows]
        fitted, used = [], []
        real_stack, real_conv = cli.refit_mm_stack, marginal.estimate_conv

        def stack(fit, datasets, *args):
            assert fit is full
            fitted.append(len(datasets))
            return real_stack(fit, datasets, *args)

        def conv(d, pf, fit, *args):
            used.append(fit)
            return real_conv(d, pf, fit, *args)

        monkeypatch.setattr(cli, "refit_mm_stack", stack)
        monkeypatch.setattr(marginal, "estimate_conv", conv)
        out = thetas(sets)
        assert fitted == [3]
        assert used[0] is full and used[2] is full
        assert all(fit is not full for k, fit in enumerate(used)
                   if k not in (0, 2))
        monkeypatch.setattr(cli, "refit_mm_stack", real_stack)
        assert out == [thetas([d])[0] for d in sets]

    def test_report_is_byte_identical_in_a_pool(self, tmp_path,
                                                monkeypatch):
        """The packaged ozone report, jackknife on, is the same bytes run
        in the calling process and in a pool of two workers."""
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
            outs.append(tmp_path / f"cpus{cpus}")
            code = main(["estimate", "--data", AIRQ, "--config",
                         str(DATA_DIR / "ozone_config.json"),
                         "--out", str(outs[-1])])
            assert code == 0
        for name in ("report.json", "table.csv"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())
        assert multiprocessing.active_children() == []

    def test_failed_fit_fails_only_its_set(self, tmp_path):
        """15 complete rows, the least the linear model fits: a set that
        leaves one out fails its stacked fit with that reason, and a set
        that leaves out a blank row keeps the thetas it has alone."""
        blank = (2, 7, 11, 15, 18)
        settings, data = settings_and_data(
            toy_config(jackknife=True), toy_csv(tmp_path, 20, blank_rows=blank)
        )
        assert data.n_obs == 15
        thetas = jackknife_estimator(settings, data)
        sets = [inference._drop_row(data, i) for i in range(data.n)]
        in_one = thetas(sets)
        for i, theta in enumerate(in_one):
            if i in blank:
                assert thetas([sets[i]]) == [theta]
                assert len(theta) == 3
            else:
                assert isinstance(theta, ValueError)
                assert str(theta) == "insufficient complete cases"
        reasons = inference._replicate(thetas, data, list(range(data.n)))
        assert [r for i, r in enumerate(reasons) if i not in blank] == [
            "ValueError: insufficient complete cases"] * 15
        entries, fits, a_n = estimate_entries(data, settings)
        with pytest.warns(UserWarning, match="skipped 15 of 20"):
            cli._attach_jackknife(entries, data, settings, a_n, fits)
        assert [e["jackknife_n"] for e in entries] == [5] * 3
        assert [e["jackknife_skipped"] for e in entries] == [
            {"ValueError: insufficient complete cases": 15}] * 3


class TestPropensityFitPerDataset:
    def test_one_fit_serves_every_entry(self, monkeypatch):
        config = dict(OZONE_CONFIG)
        config["jackknife"] = False
        settings = cli._build_estimate_settings(config)
        columns = [settings["response"], *settings["covariates"]]
        data = cli._build_dataset(cli._read_csv_columns(AIRQ, columns), settings)
        calls = []
        real = propensity.auto_bandwidth

        def counted(z, delta):
            calls.append(1)
            return real(z, delta)

        monkeypatch.setattr(propensity, "auto_bandwidth", counted)
        entries = estimate_entries(data, settings)[0]
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
            (refit,) = estimate_entries(data, single)[0]
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


class TestEstimateInputForms:
    def run(self, tmp_path, data, config, tag):
        out = tmp_path / tag
        code = main(["estimate", "--data", data, "--config",
                     write_config(tmp_path, config, f"{tag}.json"),
                     "--out", str(out)])
        return code, out

    def test_constant_propensity_takes_two_z_columns(self, tmp_path):
        data = toy_csv(tmp_path, blank_rows=(3, 11, 24, 35))
        code, out = self.run(tmp_path, data,
                             toy_config(z=["x1", "x2"], jackknife=True), "two")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["estimates"]) == 3
        assert all(e["se"] is not None for e in report["estimates"])

    def test_constant_ipw_reads_no_z(self, tmp_path):
        """The constant propensity reads no z, so adding the fully observed
        x2 to z leaves the ipw/constant entry the same, bit for bit."""
        data = toy_csv(tmp_path, blank_rows=(3, 11, 24, 35))
        entries = []
        for tag, z in (("one", ["x1"]), ("two", ["x1", "x2"])):
            code, out = self.run(tmp_path, data, toy_config(
                z=z, estimators=["ipw"], models=[]), tag)
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            assert report["dataset"]["complete"] == 36
            entries.append(report["estimates"])
        assert entries[1] == entries[0]

    def test_byte_order_mark_is_read_past(self, tmp_path):
        """A CSV file and a config that start with a UTF-8 byte order mark,
        as spreadsheet programs write them, give the plain files'
        estimates."""
        plain = toy_csv(tmp_path, blank_rows=(3, 11, 24, 35))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + open(plain, "rb").read())
        config = toy_config()
        marked_config = tmp_path / "marked.json"
        marked_config.write_bytes(b"\xef\xbb\xbf"
                                  + json.dumps(config).encode())
        code, out = self.run(tmp_path, plain, config, "plain")
        assert code == 0
        code = main(["estimate", "--data", str(marked), "--config",
                     str(marked_config), "--out", str(tmp_path / "marked")])
        assert code == 0
        reports = [json.loads((d / "report.json").read_text())
                   for d in (out, tmp_path / "marked")]
        assert reports[1]["estimates"] == reports[0]["estimates"]

    def test_label_with_comma_and_quote_reads_back(self, tmp_path):
        label = 'lin,"ear"'
        code, out = self.run(tmp_path, toy_csv(tmp_path, blank_rows=(3, 11)),
                             toy_config(models=[{"id": "linear",
                                                 "label": label}]), "label")
        assert code == 0
        with open(out / "table.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(len(row) == 8 for row in rows)
        assert [row[1] for row in rows if row[0] == "conv"] == [label]


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

    def test_column_named_twice_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,x1,x2\n1.0,2.0,3.0,4.0\n")
        self.run_expecting_error(
            tmp_path, str(path),
            write_config(tmp_path, toy_config()),
            "data file has column 'x1' more than once", capsys,
        )

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path, toy_csv(tmp_path),
            write_config(tmp_path, toy_config(seed=-1)),
            "field 'seed' must be an integer >= 0", capsys,
        )

    def test_too_few_complete_rows_for_a_model(self, tmp_path, capsys):
        """The packaged config on 11 complete rows of 12: its first model
        needs five per coefficient, 20, and the error names it."""
        with open(AIRQ, encoding="utf-8") as handle:
            header, *lines = handle.read().splitlines()
        rows = [line for line in lines if "NA" not in line][:11]
        path = tmp_path / "short.csv"
        path.write_text("\n".join([header, *rows, "NA,190,7.4"]) + "\n")
        self.run_expecting_error(
            tmp_path, str(path), str(DATA_DIR / "ozone_config.json"),
            "data file has 11 complete rows; model 'nonlinear' needs at "
            "least 20", capsys,
        )

    def test_output_path_that_is_a_file_fails_before_estimating(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_estimates",
                            lambda *args: calls.append(args))
        (tmp_path / "taken").write_text("")
        code = main(["estimate", "--data", toy_csv(tmp_path), "--config",
                     write_config(tmp_path, toy_config(jackknife=True)),
                     "--out", str(tmp_path / "taken")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot use {str(tmp_path / 'taken')!r} as an output " in err
        assert calls == []

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

    def test_logistic_propensity_needs_a_missing_row(self, tmp_path, capsys):
        """With nothing missing the logistic fit is undefined: an input
        error naming the field, before any estimate and before the output
        directory is made; the kernel and constant propensities run."""
        data = toy_csv(tmp_path)
        self.run_expecting_error(
            tmp_path, data, write_config(tmp_path, toy_config(
                propensities=["constant", "logistic"])),
            "field 'propensities' names logistic, which needs a row with a "
            "missing value", capsys,
        )
        assert not (tmp_path / "out").exists()
        config = write_config(tmp_path, toy_config(
            estimators=["ipw"], models=[], propensities=["kernel",
                                                         "constant"]))
        code = main(["estimate", "--data", data, "--config", config,
                     "--out", str(tmp_path / "ok")])
        assert code == 0

    def test_logistic_jackknife_needs_two_missing_rows(self, tmp_path,
                                                       capsys):
        """A leave-one-out set without the only incomplete row has nothing
        missing: a logistic jackknife on such data is an input error naming
        the field, before any estimate and before the output directory is
        made."""
        data = toy_csv(tmp_path, blank_rows=(3,))
        self.run_expecting_error(
            tmp_path, data, write_config(tmp_path, toy_config(
                estimators=["ipw"], models=[], propensities=["logistic"],
                jackknife=True)),
            "field 'jackknife_propensity' is logistic, which needs two rows "
            "with a missing value", capsys,
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"jackknife": False},
        {"jackknife": True, "jackknife_propensity": "kernel"},
        {"jackknife": True, "jackknife_propensity": "constant"},
    ], ids=["no-jackknife", "kernel", "constant"])
    def test_one_missing_row_serves_other_jackknives(self, tmp_path,
                                                     overrides):
        """With one incomplete row, the logistic estimates still run when
        the jackknife is off or jackknifes another propensity."""
        data = toy_csv(tmp_path, blank_rows=(3,))
        config = write_config(tmp_path, toy_config(
            estimators=["ipw"], models=[],
            propensities=["logistic", "kernel", "constant"], **overrides))
        out = tmp_path / "out"
        assert main(["estimate", "--data", data, "--config", config,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        jackknifed = [e for e in report["estimates"]
                      if e["jackknife_n"] is not None]
        assert {e["propensity"] for e in jackknifed} == (
            {overrides["jackknife_propensity"]} if overrides["jackknife"]
            else set())
        assert all(e["jackknife_n"] == 40 and not e["jackknife_skipped"]
                   for e in jackknifed)

    def test_two_missing_rows_serve_a_logistic_jackknife(self, tmp_path):
        data = toy_csv(tmp_path, blank_rows=(3, 17))
        config = write_config(tmp_path, toy_config(
            estimators=["ipw"], models=[], propensities=["logistic"],
            jackknife=True))
        out = tmp_path / "out"
        assert main(["estimate", "--data", data, "--config", config,
                     "--out", str(out)]) == 0
        (entry,) = json.loads((out / "report.json").read_text())["estimates"]
        assert entry["jackknife_n"] == 40 and not entry["jackknife_skipped"]

    def test_missing_z_cell_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "zmiss.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,NA,6.0\n5.0,1.0,2.0\n")
        self.run_expecting_error(
            tmp_path, str(path), write_config(tmp_path, toy_config()),
            "z must be fully observed", capsys,
        )

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("column", ["y", "x1", "x2"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, capsys,
                                                  cell, column):
        # float() accepts these cells; a row with one must not pass as
        # incomplete (y, x2) or be blamed on a missing z value (x1).
        rows = [["1.0", "2.0", "3.0"], ["4.0", "5.0", "6.0"],
                ["7.0", "8.0", "9.0"]]
        rows[1]["y,x1,x2".split(",").index(column)] = cell
        path = tmp_path / "nonfinite.csv"
        path.write_text("y,x1,x2\n" + "".join(",".join(r) + "\n"
                                              for r in rows))
        self.run_expecting_error(
            tmp_path, str(path), write_config(tmp_path, toy_config()),
            f"row 3: non-finite value {cell!r} in column {column!r}", capsys,
        )

    @pytest.mark.parametrize("complete", [0, 1])
    def test_fewer_than_two_complete_rows(self, tmp_path, capsys, complete):
        data = toy_csv(tmp_path, n=6, blank_rows=range(complete, 6))
        self.run_expecting_error(
            tmp_path, data, write_config(tmp_path, toy_config()),
            f"data file has {complete} complete row(s); the estimators need "
            "at least two", capsys,
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
         ({"covariates": ["x1", "x2", "x1"]}, "field 'covariates'"),
         ({"a_n": float("nan")}, "'a_n' must be a positive number"),
         ({"a_n": float("inf")}, "'a_n' must be a positive number"),
         ({"kernel_bandwidth": float("inf"), "propensities": ["kernel"]},
          "'kernel_bandwidth' must be a positive number"),
         ({"estimators": ["ipw", "aipw"]},
          "field 'models' is read only by conv, which is not in "
          "'estimators'"),
         ({"estimators": ["ipw", "conv"], "a_n": 0.5},
          "field 'a_n' is read only by aipw, which is not in 'estimators'"),
         ({"kernel_bandwidth": 0.5},
          "field 'kernel_bandwidth' is read only by kernel, which is not "
          "in 'propensities'")],
        ids=["jacknife", "scale_methd", "wieghts", "repeated_propensity",
             "numeric_label", "repeated_estimator", "repeated_z",
             "repeated_covariate", "nan_a_n", "infinite_a_n",
             "infinite_kernel_bandwidth", "models_without_conv",
             "a_n_without_aipw", "kernel_bandwidth_without_kernel"],
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

    def test_response_among_covariates_names_the_field(self, tmp_path,
                                                       capsys):
        """A response listed among the covariates would be regressed on
        itself; it is an input error before any estimation."""
        config = {"response": "wind", "z": ["wind"],
                  "covariates": ["wind", "solar"],
                  "models": [{"id": "linear"}], "jackknife": False}
        self.run_expecting_error(
            tmp_path, AIRQ, write_config(tmp_path, config),
            "field 'covariates' lists the response 'wind'", capsys,
        )
        assert not (tmp_path / "out").exists()

    def test_config_missing_field(self, tmp_path, capsys):
        data = toy_csv(tmp_path)
        config = toy_config()
        del config["response"]
        self.run_expecting_error(
            tmp_path, data, write_config(tmp_path, config),
            "missing field 'response'", capsys,
        )

    def test_repeated_key_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(toy_config(jackknife=True))[:-1]
                        + ', "jackknife": false}')
        self.run_expecting_error(
            tmp_path, toy_csv(tmp_path), str(path),
            "estimate config: field 'jackknife' is repeated",
            capsys,
        )
        assert not (tmp_path / "out").exists()

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
        header = (out / "smoke.csv").read_text().splitlines()[0]
        assert lines[0] == "scenario," + header
        assert header.startswith("functional,estimator")
        assert len(lines) == 3  # header + (mean, m_est) x ipw
        assert all(line.startswith("smoke,") for line in lines[1:])
        doc = json.loads((out / "smoke.json").read_text())
        assert doc["reps_used"] == 2
        assert doc["failures"] == 0
        assert doc["failure_reasons"] == {}

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

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", self.simulate_config(tmp_path, seed=-1),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "scenario 'smoke': seed must be non-negative" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_logistic_propensity_under_m1_is_an_input_error(self, tmp_path,
                                                            capsys):
        """M1 observes every row, so no logistic propensity can be fitted:
        an input error naming the field, before any replication runs."""
        config = self.simulate_config(tmp_path, reps=5,
                                      propensity_method="logistic")
        code = main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert ("scenario 'smoke': propensity_method 'logistic' needs "
                "missing responses") in err
        assert not (tmp_path / "out").exists()

    def test_output_path_that_is_a_file_fails_before_the_scenarios(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_scenario",
                            lambda *args, **kwargs: calls.append(args))
        (tmp_path / "taken").write_text("")
        code = main(["simulate", "--config", self.simulate_config(tmp_path),
                     "--out", str(tmp_path / "taken")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot use {str(tmp_path / 'taken')!r} as an output " in err
        assert calls == []

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
          "'targets': field 'mean' must be a number"),
         ({"targets": {"mean": float("nan")}},
          "'targets': field 'mean' must be a number"),
         ({"targets": {"median": float("-inf")}},
          "'targets': field 'median' must be a number")],
        ids=["worker", "mena", "string_target", "boolean_target",
             "nan_target", "infinite_target"],
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

    def test_scenario_id_combined_is_an_input_error(self, tmp_path, capsys,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_scenario",
                            lambda *args, **kwargs: calls.append(args))
        doc = {"scenarios": [{"id": "first", "reps": 1},
                             {"id": "combined", "reps": 1}]}
        code = main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("scenario #2: field 'id' must use only letters, digits, '_' "
                "or '-', and not be 'combined', the name of the table of all "
                "scenarios") in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_repeated_key_is_an_input_error(self, tmp_path, capsys):
        text = open(self.simulate_config(tmp_path)).read()
        path = tmp_path / "repeated.json"
        path.write_text(text.replace('"reps": 2', '"reps": 2, "reps": 3'))
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "simulate config: field 'reps' is repeated" in (
            capsys.readouterr().err)

    def test_aborted_scenario_exits_2(self, tmp_path, capsys):
        # n = 20 under MH leaves fewer complete cases than the regression
        # needs, so conv fails nearly every replication and the scenario
        # aborts
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config",
             self.simulate_config(tmp_path, n=20, reps=5, seed=61,
                                  missing="MH", estimators=["conv"]),
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
        assert "--n must be at least 3" in capsys.readouterr().err

    def test_two_rows_are_an_input_error(self, capsys):
        """Two equal-weight atoms have MAD 0 whatever their values, so
        n = 2 is an input error, not a degenerate-scale abort; n = 3 runs."""
        for seed in ("0", "1", "7"):
            assert main(["targets", "--reps", "2", "--n", "2",
                         "--seed", seed]) == 1
            assert "--n must be at least 3" in capsys.readouterr().err
        assert main(["targets", "--reps", "2", "--n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_negative_seed_is_an_input_error(self, capsys):
        args = ["targets", "--reps", "1", "--n", "3", "--seed", "-1"]
        assert main(args) == 1
        assert "--seed must be non-negative" in capsys.readouterr().err


    def test_output_path_is_checked_before_computing(self, tmp_path, capsys,
                                                     monkeypatch):
        """A file's directory that cannot be made, or a directory in the
        file's place, is an input error before any target is computed; a
        missing directory is made."""
        calls = []
        real = cli.target_values

        def recorded(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(cli, "target_values", recorded)
        (tmp_path / "taken").write_text("")
        args = ["targets", "--reps", "1", "--n", "50", "--out"]
        assert main(args + [str(tmp_path / "taken" / "x.json")]) == 1
        assert (f"cannot use {str(tmp_path / 'taken')!r} as an output "
                in capsys.readouterr().err)
        assert main(args + [str(tmp_path)]) == 1
        assert f"--out {str(tmp_path)!r} is a directory" in (
            capsys.readouterr().err)
        assert calls == []
        out = tmp_path / "missing_dir" / "x.json"
        assert main(args + [str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert len(calls) == 1


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


NUMPY_MA_PROBE = """
import json, sys
from robmarg.cli import main
data, config, simulate, out = sys.argv[1:]
assert main(["simulate", "--config", simulate, "--out", out + "/sim"]) == 0
assert main(["estimate", "--data", data, "--config", config,
             "--out", out + "/est"]) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_commands_do_not_import_numpy_ma(tmp_path):
    """``simulate`` and ``estimate`` (with a jackknife) leave numpy.ma
    unimported: its import costs every invocation about 15 ms."""
    simulate = write_config(tmp_path, {"workers": 1, "scenarios": [{
        "id": "s", "n": 100, "reps": 3, "seed": 1,
        "propensity_method": "kernel"}]}, "simulate.json")
    toy = toy_csv(tmp_path, blank_rows=(3, 11))
    config = write_config(tmp_path, toy_config(
        jackknife=True, propensities=["kernel", "logistic"]))
    src = os.path.dirname(os.path.dirname(robmarg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, toy, config, simulate,
         str(tmp_path)], capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) is False
