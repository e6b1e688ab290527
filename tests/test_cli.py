"""End-to-end command-line behavior: exit codes, artifacts, reproducibility."""

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest

from hdfrontier.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def only_run_dir(outdir, subcommand) -> Path:
    root = Path(outdir) / subcommand
    dirs = sorted(root.iterdir())
    assert len(dirs) == 1, dirs
    return dirs[0]


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

    def test_non_monotone_timestamps_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "timestamp,A\n2024-01-01T09:35:00,0.01\n2024-01-01T09:30:00,0.01\n"
        )
        code = run_cli(["estimate", "--input", bad, "--outdir", tmp_path])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_missing_input_flag_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["estimate", "--outdir", tmp_path])
        assert code == 2
        assert "--input" in capsys.readouterr().err


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

    # every sse replication fails, so its mean loss is the NaN of an empty slice
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    def test_short_panel_is_data_error(self, tmp_path, capsys):
        panel = write_panel(tmp_path / "panel.csv", days=1, rows_per_day=10, p=4)
        code = run_cli(
            ["pipeline", "--input", panel, "--p", "4", "--n", "60",
             "--frequency", "5", "--outdir", tmp_path]
        )
        assert code == 3
        assert "60" in capsys.readouterr().err


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

    def test_prints_run_directory(self, tmp_path, capsys):
        assert run_cli(
            ["frontier", "--mu", "[0.0, 0.3]", "--sigma", "[1.0, 2.0]",
             "--outdir", tmp_path]
        ) == 0
        assert "run directory:" in capsys.readouterr().out
