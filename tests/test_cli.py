"""End-to-end command-line behavior: exit codes, artifacts, reproducibility."""

import csv
import dataclasses
import datetime as dt
import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from hdfrontier import cli
from hdfrontier.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def only_run_dir(outdir, subcommand) -> Path:
    root = Path(outdir) / subcommand
    dirs = sorted(root.iterdir())
    assert len(dirs) == 1, dirs
    return dirs[0]


def assert_outcome(outdir, subcommand, code) -> dict | None:
    """Exit 2 leaves no run directory; any other exit leaves exactly one.

    That one's manifest records the exit code and a finish time; it is returned.
    """
    if code == 2:
        assert not (Path(outdir) / subcommand).exists()
        return None
    manifest = json.loads((only_run_dir(outdir, subcommand) / "manifest.json").read_text())
    assert manifest["exit_code"] == code
    assert manifest["finished"] is not None
    return manifest


def write_panel(path, days=10, rows_per_day=30, p=4, seed=0):
    rng = np.random.default_rng(seed)
    base = dt.datetime(2024, 1, 1, 9, 30)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp"] + [f"A{i}" for i in range(p)])
        for day in range(days):
            start = base + dt.timedelta(days=day)
            for i in range(rows_per_day):
                stamp = start + dt.timedelta(minutes=5 * i)
                row = 0.01 * rng.standard_normal(p) + 0.0005
                writer.writerow([stamp.isoformat()] + [repr(float(x)) for x in row])
    return path


class TestFrontierCommand:
    def test_inline_mu_sigma(self, tmp_path, capsys):
        code = run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[[1.0, 0.0], [0.0, 2.0]]",
             "--outdir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "r_gmv  = 0.1" in out
        assert "v_gmv  = 0.666667" in out
        assert "slope  = 0.03" in out
        run_dir = only_run_dir(tmp_path, "frontier")
        summary = json.loads((run_dir / "frontier.json").read_text())
        assert summary["r_gmv"] == pytest.approx(0.1)
        assert summary["merton"]["c"] == pytest.approx(1.5)

    def test_diagonal_sigma_shorthand(self, tmp_path, capsys):
        code = run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--outdir", tmp_path]
        )
        assert code == 0
        summary = json.loads(
            (only_run_dir(tmp_path, "frontier") / "frontier.json").read_text()
        )
        assert summary["v_gmv"] == pytest.approx(2 / 3)

    def test_json_input_file(self, tmp_path):
        spec = tmp_path / "population.json"
        spec.write_text(json.dumps({"mu": [0.0, 0.3], "sigma": [[1, 0], [0, 2]]}))
        code = run_cli(["frontier", "--input", spec, "--outdir", tmp_path])
        assert code == 0

    def test_csv_input_file(self, tmp_path):
        table = tmp_path / "population.csv"
        table.write_text("mu,x,y\n0.0,1.0,0.0\n0.3,0.0,2.0\n")
        code = run_cli(["frontier", "--input", table, "--outdir", tmp_path])
        assert code == 0
        summary = json.loads(
            (only_run_dir(tmp_path, "frontier") / "frontier.json").read_text()
        )
        assert summary["slope"] == pytest.approx(0.03)

    def test_curve_output(self, tmp_path):
        code = run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--curve", "--points", "33", "--outdir", tmp_path]
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "frontier")
        with open(run_dir / "curve.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["V", "R"]
        assert len(rows) == 34
        assert float(rows[1][0]) == pytest.approx(2 / 3)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "curve.csv" in manifest["outputs"]

    @pytest.mark.parametrize("flag", ["--points", "--v-max"])
    def test_zero_curve_setting_is_rejected(self, tmp_path, capsys, flag):
        # 0 is a value, not "use the default": it fails as --points 1 does
        code = run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--curve", flag, "0", "--outdir", tmp_path]
        )
        assert code == 2
        assert "must" in capsys.readouterr().err
        assert_outcome(tmp_path, "frontier", code)
        assert not list(tmp_path.rglob("curve.csv"))

    def test_missing_inputs_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["frontier", "--outdir", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "mu" in err and "sigma" in err

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("mu,x,y\n0.0,1.0,0.0\n0.3,zzz,2.0\n")
        code = run_cli(["frontier", "--input", table, "--outdir", tmp_path])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_singular_sigma_is_input_problem(self, tmp_path, capsys):
        code = run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[[1.0, 1.0], [1.0, 1.0]]",
             "--outdir", tmp_path]
        )
        assert code == 2


class TestEstimateCommand:
    def test_estimates_json(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", days=4, rows_per_day=30, p=4)
        code = run_cli(
            ["estimate", "--input", panel, "--kinds", "sample,consistent,rte",
             "--outdir", tmp_path]
        )
        assert code == 0
        payload = json.loads(
            (only_run_dir(tmp_path, "estimate") / "estimates.json").read_text()
        )
        assert payload["p"] == 4
        assert payload["n"] == 120
        kinds = [row["kind"] for row in payload["estimates"]]
        assert kinds == ["sample", "consistent", "rte"]
        by_kind = {row["kind"]: row for row in payload["estimates"]}
        assert by_kind["consistent"]["cis"] is not None
        assert by_kind["sample"]["cis"] is None
        lo, hi = by_kind["consistent"]["cis"]["v_gmv"]
        assert lo < by_kind["consistent"]["v_gmv"] < hi

    def test_prints_table(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=4, rows_per_day=30, p=3)
        assert run_cli(["estimate", "--input", panel, "--outdir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "sample" in out and "consistent" in out

    def test_singular_panel_is_data_error(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=1, rows_per_day=10, p=20)
        code = run_cli(
            ["estimate", "--input", panel, "--kinds", "sample", "--outdir", tmp_path]
        )
        assert code == 3
        assert "n > p" in capsys.readouterr().err
        assert_outcome(tmp_path, "estimate", code)

    def test_failed_kind_spares_the_others(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=1, rows_per_day=10, p=20)
        code = run_cli(
            ["estimate", "--input", panel, "--kinds", "sample,rte", "--outdir", tmp_path]
        )
        assert code == 3
        assert "error: estimator 'sample' failed: " in capsys.readouterr().err
        run_dir = only_run_dir(tmp_path, "estimate")
        payload = json.loads((run_dir / "estimates.json").read_text())
        assert [row["kind"] for row in payload["estimates"]] == ["rte"]
        assert payload["failures"] == [{
            "kind": "sample",
            "error": "SingularCovariance",
            "message": "sample covariance with p=20, n=10 is singular: "
                       "estimators based on inv(S) require n > p",
        }]
        assert assert_outcome(tmp_path, "estimate", code)["outputs"] == ["estimates.json"]

    def test_rte_survives_singular_panel(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", days=1, rows_per_day=10, p=20)
        code = run_cli(
            ["estimate", "--input", panel, "--kinds", "rte", "--outdir", tmp_path]
        )
        assert code == 0

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            ["estimate", "--input", tmp_path / "nope.csv", "--outdir", tmp_path]
        )
        assert code == 3
        assert_outcome(tmp_path, "estimate", code)

    def test_non_monotone_timestamps_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "timestamp,A\n2024-01-01T09:35:00,0.01\n2024-01-01T09:30:00,0.01\n"
        )
        code = run_cli(["estimate", "--input", bad, "--outdir", tmp_path])
        assert code == 3
        assert "line 3" in capsys.readouterr().err
        assert_outcome(tmp_path, "estimate", code)

    def test_missing_input_flag_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["estimate", "--outdir", tmp_path])
        assert code == 2
        assert "--input" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["estimate", "pipeline"])
    @pytest.mark.parametrize("unreadable", ["latin-1-header", "over-long-cell"])
    def test_unreadable_file_is_data_error(self, tmp_path, capsys, subcommand, unreadable):
        path = tmp_path / "panel.csv"
        if unreadable == "latin-1-header":
            path.write_bytes(b"timestamp,caf\xe9\n2024-01-01T09:30:00,0.1\n")
        else:
            path.write_text("timestamp,A\n2024-01-01T09:30:00," + "1" * (csv.field_size_limit() + 1))
        code = run_cli([subcommand, "--input", path, "--outdir", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot ingest {path}: unreadable CSV text: ")
        assert "Traceback" not in err
        assert_outcome(tmp_path, subcommand, code)


class TestSimulateCommand:
    def test_all_outputs(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--p", "8", "--c", "0.5", "--reps", "120",
             "--outputs", "losses,histograms,frontiers", "--seed", "3",
             "--outdir", tmp_path]
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "simulate")
        names = {p.name for p in run_dir.iterdir()}
        expected = {
            "manifest.json", "losses.csv", "frontier.csv",
            "hist_R.csv", "hist_V.csv", "hist_s.csv",
            "density_R.csv", "density_V.csv", "density_s.csv",
        }
        assert expected <= names
        with open(run_dir / "losses.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 3  # two default kinds x three parameters
        assert {row["estimator"] for row in rows} == {"sample", "consistent"}
        assert all(float(row["mean_loss"]) >= 0 for row in rows)
        out = capsys.readouterr().out
        assert "mean loss" in out.lower() or "loss" in out.lower()

    def test_failed_reps_named_by_class(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--p", "10", "--n", "12", "--reps", "6", "--seed", "4",
             "--kinds", "sample,sse", "--outdir", tmp_path]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        sse = next(line for line in lines if line.startswith("sse:"))
        sample = next(line for line in lines if line.startswith("sample:"))
        assert sse.endswith("  [6 failed reps: TooFewObservations=6]")
        assert "failed" not in sample

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        first_out = tmp_path / "first"
        code = run_cli(
            ["simulate", "--p", "6", "--c", "0.5", "--reps", "40", "--seed", "11",
             "--outdir", first_out]
        )
        assert code == 0
        first_dir = only_run_dir(first_out, "simulate")
        second_out = tmp_path / "second"
        code = run_cli(
            ["simulate", "--config", first_dir / "manifest.json", "--outdir", second_out]
        )
        assert code == 0
        second_dir = only_run_dir(second_out, "simulate")
        assert (first_dir / "losses.csv").read_bytes() == (
            second_dir / "losses.csv"
        ).read_bytes()
        first_manifest = json.loads((first_dir / "manifest.json").read_text())
        second_manifest = json.loads((second_dir / "manifest.json").read_text())
        assert first_manifest["seed"] == second_manifest["seed"] == 11
        assert first_manifest["config"] == second_manifest["config"]

    def test_jobs_do_not_change_bytes(self, tmp_path):
        args = ["simulate", "--p", "6", "--c", "0.5", "--reps", "20", "--seed", "5"]
        assert run_cli(args + ["--jobs", "1", "--outdir", tmp_path / "serial"]) == 0
        assert run_cli(args + ["--jobs", "2", "--outdir", tmp_path / "parallel"]) == 0
        serial = only_run_dir(tmp_path / "serial", "simulate") / "losses.csv"
        parallel = only_run_dir(tmp_path / "parallel", "simulate") / "losses.csv"
        assert serial.read_bytes() == parallel.read_bytes()

    def test_entropy_seeds_differ_without_flag(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                ["simulate", "--p", "4", "--n", "20", "--reps", "2",
                 "--outdir", tmp_path / sub]
            ) == 0
        seed_a = json.loads(
            (only_run_dir(tmp_path / "a", "simulate") / "manifest.json").read_text()
        )["seed"]
        seed_b = json.loads(
            (only_run_dir(tmp_path / "b", "simulate") / "manifest.json").read_text()
        )["seed"]
        assert seed_a != seed_b

    def test_histograms_need_enough_reps(self, tmp_path, capsys):
        # too few replications for a histogram is a configuration problem
        code = run_cli(
            ["simulate", "--p", "6", "--c", "0.5", "--reps", "50",
             "--outputs", "histograms", "--seed", "0", "--outdir", tmp_path]
        )
        assert code == 2
        assert "100" in capsys.readouterr().err

    def test_failed_run_lists_what_it_wrote(self, tmp_path, capsys):
        # every replication fails at n = p, so the histograms fail after losses.csv
        code = run_cli(
            ["simulate", "--p", "6", "--n", "6", "--reps", "100", "--kinds", "consistent",
             "--outputs", "losses,histograms", "--seed", "0", "--outdir", tmp_path]
        )
        assert code == 3
        assert "histograms need >= 100 successful replications, got 0" in capsys.readouterr().err
        assert assert_outcome(tmp_path, "simulate", code)["outputs"] == ["losses.csv"]

    def test_frontiers_keep_the_kinds_that_succeed(self, tmp_path):
        code = run_cli(
            ["simulate", "--p", "10", "--n", "11", "--reps", "4", "--kinds", "sample,unbiased",
             "--outputs", "losses,frontiers", "--seed", "2", "--outdir", tmp_path]
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "simulate")
        with open(run_dir / "frontier.csv", newline="") as handle:
            kinds = {row["kind"] for row in csv.DictReader(handle)}
        assert kinds == {"population", "sample"}
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["outputs"] == ["losses.csv", "frontier.csv"]

    def test_bad_scenario_and_outputs_are_usage_errors(self, tmp_path, capsys):
        assert run_cli(
            ["simulate", "--scenario", "bogus", "--outdir", tmp_path / "x"]
        ) == 2
        assert run_cli(
            ["simulate", "--outputs", "pictures", "--outdir", tmp_path / "y"]
        ) == 2

    def test_manifest_records_exit_and_outputs(self, tmp_path):
        assert run_cli(
            ["simulate", "--p", "4", "--n", "20", "--reps", "3", "--seed", "1",
             "--outdir", tmp_path]
        ) == 0
        manifest = json.loads(
            (only_run_dir(tmp_path, "simulate") / "manifest.json").read_text()
        )
        assert manifest["subcommand"] == "simulate"
        assert manifest["exit_code"] == 0
        assert manifest["outputs"] == ["losses.csv"]
        assert manifest["finished"] >= manifest["started"]
        assert manifest["config"]["scenario"] == "normal"


class TestTheoryCheckCommand:
    def test_transforms_only(self, tmp_path, capsys):
        code = run_cli(
            ["theory-check", "--checks", "transforms", "--c", "0.5",
             "--points", "50", "--seed", "0", "--outdir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "m(0+) at c=0.5: 2" in out
        payload = json.loads(
            (only_run_dir(tmp_path, "theory-check") / "diagnostics.json").read_text()
        )
        assert payload["passed"] is True
        checks = {row["check"] for row in payload["checks"]}
        assert checks == {"x-residual-max", "x-test-point", "m-at-zero"}
        for row in payload["checks"]:
            # the record's fields, then the pass rule's
            assert list(row) == ["check", "p", "n", "c", "seed", "value", "threshold", "pass"]
            assert row["pass"] is True
            assert row["value"] < row["threshold"]

    def test_full_suite_passes_at_seed0(self, tmp_path, capsys):
        code = run_cli(
            ["theory-check", "--checks", "transforms,lemma2,lemma3", "--c", "0.5",
             "--p", "500", "--seed", "0", "--outdir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass] white-cross-form" in out
        assert "[pass] demeaned-mean-form" in out
        payload = json.loads(
            (only_run_dir(tmp_path, "theory-check") / "diagnostics.json").read_text()
        )
        assert len(payload["checks"]) == 9

    def test_failing_diagnostics_exit_1(self, tmp_path, capsys):
        code = run_cli(
            ["theory-check", "--checks", "lemma2", "--c", "0.98", "--p", "100",
             "--seed", "0", "--outdir", tmp_path]
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out
        run_dir = only_run_dir(tmp_path, "theory-check")
        payload = json.loads((run_dir / "diagnostics.json").read_text())
        assert payload["passed"] is False
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["exit_code"] == 1

    def test_lemma_checks_need_c_below_one(self, tmp_path, capsys):
        code = run_cli(
            ["theory-check", "--checks", "lemma2", "--c", "1.5", "--p", "50",
             "--outdir", tmp_path]
        )
        assert code == 2
        assert "0 < c < 1" in capsys.readouterr().err

    def test_transforms_work_past_c_equal_one(self, tmp_path):
        code = run_cli(
            ["theory-check", "--checks", "transforms", "--c", "1.5",
             "--points", "30", "--outdir", tmp_path]
        )
        assert code == 0
        payload = json.loads(
            (only_run_dir(tmp_path, "theory-check") / "diagnostics.json").read_text()
        )
        checks = {row["check"] for row in payload["checks"]}
        assert "m-at-zero" not in checks  # the limit does not exist at c >= 1

    @pytest.mark.parametrize("c", ["1e-6", "1e-17"])
    def test_x_residual_holds_at_small_c(self, tmp_path, c):
        # the relative residual of the quadratic stays near machine precision as c -> 0
        code = run_cli(["theory-check", "--checks", "transforms", "--c", c, "--outdir", tmp_path])
        payload = json.loads(
            (only_run_dir(tmp_path, "theory-check") / "diagnostics.json").read_text()
        )
        assert code == (0 if payload["passed"] else 1)
        residual = next(row for row in payload["checks"] if row["check"] == "x-residual-max")
        assert residual["pass"] is True and residual["value"] < 1e-15

    def test_unknown_check_rejected(self, tmp_path, capsys):
        code = run_cli(
            ["theory-check", "--checks", "lemma9", "--outdir", tmp_path]
        )
        assert code == 2
        assert "lemma9" in capsys.readouterr().err


class TestPipelineCommand:
    def test_rolling_csv(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=10, rows_per_day=30, p=4)
        code = run_cli(
            ["pipeline", "--input", panel, "--p", "4", "--n", "60",
             "--frequency", "5", "--horizon", "60", "--outdir", tmp_path]
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "pipeline")
        with open(run_dir / "rolling.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # starts 0, 30, ..., 240 -> 9 windows x 2 default kinds
        assert len(rows) == 18
        assert {row["estimator"] for row in rows} == {"sample", "consistent"}
        out = capsys.readouterr().out
        assert "9 windows" in out

    def test_counts_windows_not_dates(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=4, rows_per_day=30, p=4)
        code = run_cli(
            ["pipeline", "--input", panel, "--p", "4", "--n", "30", "--step", "5",
             "--outdir", tmp_path]
        )
        assert code == 0
        # starts 0, 5, ..., 90 -> 19 windows, ending on only 4 distinct dates
        assert "38 estimates over 19 windows" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", days=8, rows_per_day=30, p=4)
        args = ["pipeline", "--input", panel, "--p", "4", "--n", "60",
                "--frequency", "5", "--horizon", "60", "--winsor", "0,1"]
        assert run_cli(args + ["--outdir", tmp_path / "one"]) == 0
        assert run_cli(args + ["--outdir", tmp_path / "two"]) == 0
        a = only_run_dir(tmp_path / "one", "pipeline") / "rolling.csv"
        b = only_run_dir(tmp_path / "two", "pipeline") / "rolling.csv"
        assert a.read_bytes() == b.read_bytes()

    def test_winsor_quantiles_change_results(self, tmp_path):
        panel = write_panel(tmp_path / "panel.csv", days=8, rows_per_day=30, p=4)
        base = ["pipeline", "--input", panel, "--p", "4", "--n", "60",
                "--frequency", "5", "--horizon", "60"]
        assert run_cli(base + ["--winsor", "0,1", "--outdir", tmp_path / "off"]) == 0
        assert run_cli(base + ["--winsor", "0.2,0.8", "--outdir", tmp_path / "on"]) == 0
        off = only_run_dir(tmp_path / "off", "pipeline") / "rolling.csv"
        on = only_run_dir(tmp_path / "on", "pipeline") / "rolling.csv"
        assert off.read_bytes() != on.read_bytes()

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["pipeline", "--outdir", tmp_path]) == 2
        assert "--input" in capsys.readouterr().err

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=4, rows_per_day=30, p=4)
        code = run_cli(
            ["pipeline", "--input", panel, "--p", "10", "--n", "10",
             "--outdir", tmp_path]
        )
        assert code == 2

    def test_bad_panel_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,A\n2024-01-01T09:30:00,0.01\n2024-01-01T09:35:00,oops\n")
        code = run_cli(
            ["pipeline", "--input", bad, "--p", "2", "--n", "4", "--outdir", tmp_path]
        )
        assert code == 3
        assert_outcome(tmp_path, "pipeline", code)

    def test_short_panel_is_data_error(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=1, rows_per_day=10, p=4)
        code = run_cli(
            ["pipeline", "--input", panel, "--p", "4", "--n", "60",
             "--frequency", "5", "--outdir", tmp_path]
        )
        assert code == 3
        assert "60" in capsys.readouterr().err
        assert_outcome(tmp_path, "pipeline", code)


class TestParserAndManifest:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["frontier", "--bogus", "--outdir", tmp_path]) == 2

    def test_run_directory_layout(self, tmp_path):
        assert run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--outdir", tmp_path]
        ) == 0
        run_dir = only_run_dir(tmp_path, "frontier")
        assert run_dir.parent.name == "frontier"
        assert (run_dir / "manifest.json").is_file()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest) >= {
            "subcommand", "config", "seed", "jobs", "version",
            "started", "finished", "outputs", "exit_code",
        }

    def test_usage_error_leaves_no_run_dir(self, tmp_path):
        assert run_cli(["frontier", "--outdir", tmp_path]) == 2
        assert not (tmp_path / "frontier").exists()

    def test_manifest_records_the_environment(self, tmp_path):
        assert run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--outdir", tmp_path]
        ) == 0
        manifest = json.loads((only_run_dir(tmp_path, "frontier") / "manifest.json").read_text())
        environment = manifest["environment"]
        assert set(environment) == {
            "python", "numpy", "scipy", "blas", "thread_variables", "cpu_count",
        }
        assert (environment["numpy"], environment["scipy"]) == (np.__version__, scipy.__version__)
        assert environment["blas"]["name"]
        assert environment["cpu_count"] == os.cpu_count()
        assert environment["thread_variables"] == {
            key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")
        }

    def test_unexpected_exception_still_finishes_the_manifest(self, tmp_path, monkeypatch):
        def broken(plan, run_dir, jobs, outputs):
            outputs.append("frontier.json")
            raise RuntimeError("disk went away")

        command = dataclasses.replace(cli._COMMANDS["frontier"], handler=broken)
        monkeypatch.setitem(cli._COMMANDS, "frontier", command)
        with pytest.raises(RuntimeError, match="disk went away"):
            run_cli(["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
                     "--outdir", tmp_path])
        manifest = json.loads((only_run_dir(tmp_path, "frontier") / "manifest.json").read_text())
        assert manifest["exit_code"] == 1
        assert manifest["finished"] >= manifest["started"]
        assert manifest["outputs"] == ["frontier.json"]

    def test_prints_run_directory(self, tmp_path, capsys):
        assert run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--outdir", tmp_path]
        ) == 0
        assert "run directory:" in capsys.readouterr().out


class TestUsageErrors:
    """Bad flags and wrongly typed config values: exit 2, no run directory."""

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["simulate", "--n", "0"], None, "n >= 2"),
            (["simulate", "--p", "0"], None, "p >= 2"),
            (["simulate", "--p", "10", "--c", "100"], None, "n >= 2"),
            (["pipeline", "--input", "x.csv", "--winsor", "a,b"], None, "--winsor"),
            (["pipeline", "--input", "x.csv", "--winsor", "0.1"], None, "--winsor"),
            (["simulate"], {"reps": "10"}, "'reps' must be an integer"),
            (["simulate"], {"c": "0.5"}, "'c' must be a number"),
            (["simulate"], {"p": True}, "'p' must be an integer"),
            (["simulate"], {"seed": 1.5}, "'seed' must be an integer"),
            (["simulate"], {"kinds": "sample"}, "'kinds' must be a list"),
            (["theory-check"], {"points": None}, "'points' must be an integer"),
            (["estimate", "--input", "x.csv"], {"level": [0.9]}, "'level' must be a number"),
            (["pipeline", "--input", "x.csv"], {"winsor_quantiles": [0.1]}, "'winsor_quantiles'"),
            (["pipeline", "--input", "x.csv"], {"winsor_quantiles": ["0", "1"]}, "'winsor_quantiles'"),
            (["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]"], {"curve": 1}, "'curve'"),
            (
                ["theory-check"],
                {"thresholds": {"x-test-point": "a"}, "checks": ["transforms"], "points": 3},
                "'thresholds' must be an object of numbers",
            ),
            (
                ["pipeline", "--input", "x.csv"], {"assets": "A0A1", "p": 2, "n": 60},
                "'assets' must be a list of strings or null",
            ),
            (["simulate", "--p", "10", "--c", "1e-320"], None, "p / c finite"),
            (["simulate", "--p", "10", "--c", "1e-300"], None, "not addressable, got p=10, n="),
            (["simulate", "--p", "10", "--c", "1e-12"], None, "not addressable, got p=10, n="),
            (
                ["simulate", "--kinds", "sample", "--outputs", "histograms"], None,
                "--outputs histograms needs the consistent kind",
            ),
            (["simulate", "--seed", "-1"], None, "seed must be non-negative, got -1"),
            (["theory-check", "--seed", "-1"], None, "seed must be non-negative, got -1"),
            (["simulate"], {"seed": -5}, "seed must be non-negative, got -5"),
            (["estimate", "--input", "x.csv", "--level", "1.5"], None, "--level must lie in (0, 1)"),
            (["estimate", "--input", "x.csv"], {"level": 0}, "--level must lie in (0, 1)"),
            (
                ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[[1.0, 1.0], [1.0, 1.0]]"], None,
                "covariance is not positive definite",
            ),
            (
                ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0, 3.0]"], None,
                "covariance is 3x3 but mean has length 2",
            ),
            (
                ["frontier", "--mu", '["a", 0.3]', "--sigma", "[1.0, 2.0]"], None,
                "mu/sigma are not numeric arrays",
            ),
            (
                ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]", "--curve",
                 "--points", "1"], None, "n_points must be at least 2, got 1",
            ),
            (
                ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]", "--curve",
                 "--v-max", "nan"], None, "v_max must exceed v_gmv",
            ),
            (
                ["simulate", "--p", "4", "--n", "20", "--outputs", "frontiers", "--v-max", "-1"],
                None, "v_max must exceed the population v_gmv, got -1.0",
            ),
            (
                ["simulate", "--outputs", "histograms", "--reps", "3"], None,
                "--outputs histograms needs --reps >= 100, got 3",
            ),
            (["theory-check", "--checks", "lemma3", "--c", "1"], None, "lemma3 requires 0 < c < 1"),
            (["theory-check", "--checks", "lemma2", "--p", "1"], None, "need p >= 2, got 1"),
            (["theory-check", "--checks", "lemma2", "--c", "inf"], None, "c must be positive"),
            (["pipeline", "--input", "x.csv", "--step", "0"], None, "step must be >= 1"),
            (
                ["pipeline", "--input", "x.csv", "--horizon", "0"], None,
                "target_horizon_minutes must be positive",
            ),
            (
                ["pipeline", "--input", "x.csv", "--frequency", "-5"], None,
                "frequency_minutes must be positive, got -5.0",
            ),
            (
                ["pipeline", "--input", "x.csv", "--p", "3", "--n", "3"], None,
                "need n > p for kinds ['sample', 'consistent'], got n=3, p=3",
            ),
            (["pipeline", "--input", "x.csv", "--level", "nan"], None, "level must be in (0, 1)"),
            (["theory-check", "--points", "0"], None, "--points must be >= 1, got 0"),
            (["theory-check", "--points", "-3"], None, "--points must be >= 1, got -3"),
            (
                ["theory-check", "--checks", "lemma2", "--p", "3", "--c", "0.9"], None,
                "diagnostics need n > p",
            ),
            # a JSON integer beyond the float range, where a float is expected
            (["theory-check"], {"c": 10**400}, "'c' must be a number within the float range"),
            (
                ["pipeline", "--input", "x.csv"], {"frequency_minutes": 10**400},
                "'frequency_minutes' must be a number within the float range",
            ),
            (
                ["simulate"], {"v_max": 10**400, "outputs": ["frontiers"]},
                "'v_max' must be a number within the float range",
            ),
            (
                ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]"],
                {"v_max": 10**400, "curve": True}, "'v_max' must be a number within the float range",
            ),
            # an integer too large for an array dimension, or for physical memory
            (
                ["frontier", "--mu", "[0.1, 0.2]", "--sigma", "[1.0, 2.0]"],
                {"points": 10**20, "curve": True}, "n_points must be at most",
            ),
            (["simulate"], {"reps": 10**23}, "need reps <= "),
            (
                ["frontier", "--mu", "[0.1, 0.2]", "--sigma", "[1.0, 2.0]"],
                {"points": 10**17, "curve": True}, "a curve of 100000000000000000 points exceeds",
            ),
            (["simulate"], {"reps": 10**17}, "the estimates of 100000000000000000 replications"),
            (["simulate", "--reps", "0"], None, "need reps >= 1, got 0"),
            (
                ["theory-check", "--checks", "transforms", "--points", "100000000000000000000"],
                None, "--points must be <= 1000000, got 100000000000000000000",
            ),
            (
                ["theory-check", "--checks", "lemma2", "--p", "3000000000", "--c", "0.5"], None,
                "lemma2 draws a 3000000000 x 6000000000 panel beyond physical memory",
            ),
        ],
    )
    def test_exit_2_without_run_directory(self, tmp_path, capsys, args, config, message):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", path]
        assert run_cli([*args, "--outdir", tmp_path / "runs"]) == 2
        assert message in capsys.readouterr().err
        assert_outcome(tmp_path / "runs", args[0], 2)
        assert not (tmp_path / "runs").exists()

    def test_null_is_allowed_where_the_default_is_null(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": None, "c": None, "v_max": None}))
        args = ["simulate", "--config", path, "--p", "4", "--reps", "2", "--seed", "1"]
        assert run_cli([*args, "--outdir", tmp_path]) == 0
        manifest = json.loads((only_run_dir(tmp_path, "simulate") / "manifest.json").read_text())
        assert (manifest["config"]["n"], manifest["config"]["c"]) == (8, 0.5)


class TestManifestConfig:
    """``manifest["config"]`` and ``manifest["seed"]`` for every config source.

    Sources merge in one order: defaults, then ``--config``, then ``--input``,
    then the flags; only ``simulate`` and ``theory-check`` take the seed from
    a config file.
    """

    MU = [0.0, 0.3]
    SIGMA = ["--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]"]

    @staticmethod
    def manifest(tmp_path, args):
        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        run_cli([*args, "--outdir", out])
        return json.loads((only_run_dir(out, args[0]) / "manifest.json").read_text())

    @staticmethod
    def config_file(tmp_path, payload):
        path = tmp_path / f"config{len(list(tmp_path.glob('config*')))}.json"
        path.write_text(json.dumps(payload))
        return path

    def assert_manifest_reruns(self, tmp_path, first, seeded):
        """A previous manifest as ``--config`` keeps its config, with and without ``--seed``."""
        path = self.config_file(tmp_path, first)
        again = self.manifest(tmp_path, [first["subcommand"], "--config", path])
        assert again["config"] == first["config"]
        if seeded:
            assert again["seed"] == first["seed"]
        else:
            assert isinstance(again["seed"], int) and again["seed"] != first["seed"]
        reseeded = self.manifest(
            tmp_path, [first["subcommand"], "--config", path, "--seed", "4"]
        )
        expected = dict(first["config"], seed=4) if seeded else first["config"]
        assert reseeded["config"] == expected
        assert reseeded["seed"] == 4

    def test_frontier(self, tmp_path):
        base = {"curve": False, "v_max": None, "points": 65}
        m = self.manifest(tmp_path, ["frontier", *self.SIGMA, "--seed", "9"])
        assert m["config"] == {**base, "mu": self.MU, "sigma": [1.0, 2.0]}
        assert m["seed"] == 9

        flags = self.manifest(
            tmp_path,
            ["frontier", *self.SIGMA, "--curve", "--v-max", "4", "--points", "9",
             "--seed", "9"],
        )
        assert flags["config"] == {
            "curve": True, "v_max": 4.0, "points": 9, "mu": self.MU, "sigma": [1.0, 2.0],
        }
        assert flags["seed"] == 9
        self.assert_manifest_reruns(tmp_path, flags, seeded=False)

        plain = self.config_file(
            tmp_path, {"mu": self.MU, "sigma": [[1.0, 0.0], [0.0, 2.0]], "curve": True,
                       "points": 5, "seed": 6},
        )
        m = self.manifest(tmp_path, ["frontier", "--config", plain, "--seed", "9"])
        assert m["config"] == {
            "curve": True, "v_max": None, "points": 5, "mu": self.MU,
            "sigma": [[1.0, 0.0], [0.0, 2.0]], "seed": 6,
        }
        assert m["seed"] == 9
        m = self.manifest(tmp_path, ["frontier", "--config", plain, "--points", "7"])
        assert m["config"]["points"] == 7

        table = tmp_path / "population.csv"
        table.write_text("mu,x,y\n0.0,1.0,0.0\n0.3,0.0,2.0\n")
        m = self.manifest(tmp_path, ["frontier", "--input", table, "--seed", "9"])
        assert m["config"] == {**base, "mu": self.MU, "sigma": [[1.0, 0.0], [0.0, 2.0]]}
        spec = self.config_file(
            tmp_path, {"mu": [0, 0.3], "sigma": [[1, 0], [0, 2]], "points": 3}
        )
        m = self.manifest(tmp_path, ["frontier", "--input", spec, "--seed", "9"])
        assert m["config"] == {**base, "mu": [0, 0.3], "sigma": [[1, 0], [0, 2]]}
        # --input beats --config, and the flags beat --input
        m = self.manifest(
            tmp_path,
            ["frontier", "--config", plain, "--input", table, "--mu", "[0.1, 0.2]",
             "--seed", "9"],
        )
        assert m["config"] == {
            "curve": True, "v_max": None, "points": 5, "mu": [0.1, 0.2],
            "sigma": [[1.0, 0.0], [0.0, 2.0]], "seed": 6,
        }

    def test_estimate(self, tmp_path):
        panel = str(write_panel(tmp_path / "panel.csv", days=2, rows_per_day=10, p=3))
        m = self.manifest(tmp_path, ["estimate", "--input", panel, "--seed", "9"])
        assert m["config"] == {"kinds": ["sample", "consistent"], "level": 0.95, "input": panel}
        assert m["seed"] == 9

        flags = self.manifest(
            tmp_path,
            ["estimate", "--input", panel, "--kinds", "SAMPLE,rte", "--level", "0.9",
             "--seed", "9"],
        )
        assert flags["config"] == {"kinds": ["sample", "rte"], "level": 0.9, "input": panel}
        self.assert_manifest_reruns(tmp_path, flags, seeded=False)

        plain = self.config_file(
            tmp_path, {"input": panel, "kinds": ["consistent"], "level": 0.8, "seed": 6}
        )
        m = self.manifest(tmp_path, ["estimate", "--config", plain, "--seed", "9"])
        assert m["config"] == {"kinds": ["consistent"], "level": 0.8, "input": panel, "seed": 6}
        assert m["seed"] == 9

        moved = self.config_file(tmp_path, {"input": "elsewhere.csv", "level": 0.8})
        m = self.manifest(
            tmp_path, ["estimate", "--config", moved, "--input", panel, "--level", "0.7"]
        )
        assert m["config"] == {"kinds": ["sample", "consistent"], "level": 0.7, "input": panel}

    def test_simulate(self, tmp_path):
        m = self.manifest(tmp_path, ["simulate", "--seed", "3", "--jobs", "1"])
        assert m["config"] == {
            "scenario": "normal", "p": 100, "n": 200, "c": 0.5, "reps": 1000,
            "kinds": ["sample", "consistent"], "outputs": ["losses"], "seed": 3,
            "v_max": None,
        }
        assert m["seed"] == 3

        flags = self.manifest(
            tmp_path,
            ["simulate", "--scenario", "t3", "--p", "6", "--n", "30", "--reps", "4",
             "--kinds", "sample,rte", "--outputs", "losses,frontiers", "--v-max", "2.5",
             "--seed", "3"],
        )
        assert flags["config"] == {
            "scenario": "t3", "p": 6, "n": 30, "c": 0.2, "reps": 4,
            "kinds": ["sample", "rte"], "outputs": ["losses", "frontiers"], "seed": 3,
            "v_max": 2.5,
        }
        assert flags["seed"] == 3
        self.assert_manifest_reruns(tmp_path, flags, seeded=True)

        m = self.manifest(
            tmp_path, ["simulate", "--p", "8", "--c", "0.3", "--reps", "2", "--seed", "3"]
        )
        assert (m["config"]["n"], m["config"]["c"]) == (27, 8 / 27)

        plain = self.config_file(
            tmp_path,
            {"scenario": "ccc-garch", "p": 5, "c": 0.25, "reps": 2, "kinds": ["sample"],
             "seed": 7},
        )
        m = self.manifest(tmp_path, ["simulate", "--config", plain])
        assert m["config"] == {
            "scenario": "ccc-garch", "p": 5, "n": 20, "c": 0.25, "reps": 2,
            "kinds": ["sample"], "outputs": ["losses"], "seed": 7, "v_max": None,
        }
        assert m["seed"] == 7
        m = self.manifest(tmp_path, ["simulate", "--config", plain, "--n", "25", "--seed", "8"])
        assert (m["config"]["n"], m["config"]["c"], m["config"]["seed"]) == (25, 0.2, 8)
        assert m["seed"] == 8

    def test_theory_check(self, tmp_path):
        m = self.manifest(tmp_path, ["theory-check", "--seed", "0"])
        assert m["config"] == {
            "checks": ["transforms", "lemma2", "lemma3"], "p": 500, "c": 0.5,
            "points": 100, "seed": 0, "thresholds": {},
        }
        assert m["seed"] == 0

        flags = self.manifest(
            tmp_path,
            ["theory-check", "--checks", "transforms", "--p", "50", "--c", "1.5",
             "--points", "10", "--seed", "2"],
        )
        assert flags["config"] == {
            "checks": ["transforms"], "p": 50, "c": 1.5, "points": 10, "seed": 2,
            "thresholds": {},
        }
        assert flags["seed"] == 2
        self.assert_manifest_reruns(tmp_path, flags, seeded=True)

        plain = self.config_file(
            tmp_path,
            {"checks": ["transforms"], "points": 5, "thresholds": {"x-test-point": 1e-10},
             "seed": 6},
        )
        m = self.manifest(tmp_path, ["theory-check", "--config", plain])
        assert m["config"] == {
            "checks": ["transforms"], "p": 500, "c": 0.5, "points": 5, "seed": 6,
            "thresholds": {"x-test-point": 1e-10},
        }
        assert m["seed"] == 6
        m = self.manifest(tmp_path, ["theory-check", "--config", plain, "--points", "7"])
        assert (m["config"]["points"], m["seed"]) == (7, 6)

    def test_pipeline(self, tmp_path):
        panel = str(write_panel(tmp_path / "panel.csv", days=4, rows_per_day=30, p=4))
        base = {
            "input": panel, "p": 200, "n": 375, "step": None, "frequency_minutes": 5.0,
            "target_horizon_minutes": 60.0, "winsor_quantiles": [0.01, 0.99],
            "kinds": ["sample", "consistent"], "level": 0.95, "assets": None,
        }
        m = self.manifest(tmp_path, ["pipeline", "--input", panel, "--seed", "9"])
        assert m["config"] == base
        assert m["seed"] == 9

        flags = self.manifest(
            tmp_path,
            ["pipeline", "--input", panel, "--p", "4", "--n", "60", "--step", "30",
             "--frequency", "5", "--horizon", "30", "--kinds", "consistent",
             "--level", "0.9", "--winsor", "0.05,0.95", "--seed", "9"],
        )
        assert flags["config"] == {
            **base, "p": 4, "n": 60, "step": 30, "frequency_minutes": 5.0,
            "target_horizon_minutes": 30.0, "kinds": ["consistent"], "level": 0.9,
            "winsor_quantiles": [0.05, 0.95],
        }
        self.assert_manifest_reruns(tmp_path, flags, seeded=False)

        plain = self.config_file(
            tmp_path,
            {"input": panel, "p": 3, "n": 60, "assets": ["A0", "A1", "A2"],
             "winsor_quantiles": [0, 1], "seed": 6},
        )
        m = self.manifest(tmp_path, ["pipeline", "--config", plain, "--seed", "9"])
        assert m["config"] == {
            **base, "p": 3, "n": 60, "assets": ["A0", "A1", "A2"],
            "winsor_quantiles": [0, 1], "seed": 6,
        }
        assert m["seed"] == 9
        m = self.manifest(
            tmp_path, ["pipeline", "--config", plain, "--n", "90", "--winsor", "0,1"]
        )
        assert (m["config"]["n"], m["config"]["winsor_quantiles"]) == (90, [0.0, 1.0])
