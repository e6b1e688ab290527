"""Tests of the benchmark itself: smoke runs of every workload and the oracles.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from hdfrontier import (  # noqa: E402
    ReturnPanel,
    estimate_many,
    frontier_params,
    sample_moments,
    winsorize,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    out = ROOT / ".perfbench_out" / f"{workload}-smoke" / f"trace{trace}"
    environment = json.loads((out / "environment.json").read_text())
    assert environment["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert (out / "trace_spans.jsonl").exists() == bool(trace)


def test_traced_layers_account_for_the_main_call():
    """The reported layer self times plus ``uncovered_s`` match the main call.

    The self times come from the traced full round, ``uncovered_s`` from the
    segment pairs, and the main call from the untraced full round, so the
    sum does not equal it by construction. The layers' calls outside the
    main call (one population and one frontier, at p=10) cost microseconds.
    The tolerance is for the timing noise of a shared host, where one
    0.4 s timing can be off by a third: over twelve runs the sum came
    within 33% of the main call, and mostly below it, since the untraced
    round is the process's first main call.
    """
    done = run_bench("--workload", "mc-smallp", "--seed", "5", "--seconds", "3",
                     "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    record = json.loads(
        (ROOT / ".perfbench_out" / "mc-smallp-smoke" / "trace1" / "result.json").read_text()
    )
    metrics = {name: metric["value"] for name, metric in record["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in (
        "simulate.build_population", "simulate.generate_returns", "frontier.frontier_params",
        "estimators.sample_moments", "estimators.estimate_many",
    ))
    accounted = layers + metrics["simulate.run_monte_carlo.uncovered_s"]
    assert accounted == pytest.approx(
        record["accounting"]["full_round_untraced_main_s"], rel=0.5
    )


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_population_oracle_matches_frontier_params():
    rng = np.random.default_rng(0)
    mu = rng.uniform(-0.2, 0.2, size=30)
    diag = rng.uniform(0.5, 5.0, size=30)
    params = frontier_params(mu, np.diag(diag))
    want = checks.population_params(mu, diag)
    assert checks.check_close("population", (params.r_gmv, params.v_gmv, params.slope),
                              want, rtol=1e-12) == []


def test_dense_oracle_matches_every_kind():
    rng = np.random.default_rng(1)
    data = rng.uniform(-0.1, 0.1, size=(8, 1)) + rng.standard_normal((8, 40))
    reports = estimate_many(sample_moments(data), checks.KINDS)
    dense = checks.dense_estimates(data)
    for kind, report in reports.items():
        got = (report.params.r_gmv, report.params.v_gmv, report.params.slope)
        assert checks.check_close(kind.value, got, dense[kind.value], rtol=1e-10) == []


def test_winsorize_oracle_matches_the_package():
    rng = np.random.default_rng(2)
    values = rng.standard_t(3, size=(390, 7))
    panel = ReturnPanel(timestamps=tuple(range(390)), values=values,
                        asset_labels=tuple("ABCDEFG"), frequency_minutes=5.0)
    assert np.array_equal(winsorize(panel, (0.01, 0.99)).values,
                          checks.winsorize_oracle(values, 0.01, 0.99))


def test_exact_gaussian_means_match_a_direct_simulation():
    """The exact means, against a simulation that uses NumPy alone."""
    p, n, reps = 4, 12, 40000
    rng = np.random.default_rng(3)
    mu = np.array([0.1, -0.2, 0.3, 0.05])
    sd = np.array([1.0, 0.5, 2.0, 1.5])
    r, v, s = checks.population_params(mu, sd**2)
    data = mu[None, :, None] + sd[None, :, None] * rng.standard_normal((reps, p, n))
    mean = data.mean(axis=2)
    centered = data - mean[:, :, None]
    inv = np.linalg.inv(centered @ centered.transpose(0, 2, 1) / n)
    ones = np.ones(p)
    a = np.einsum("ri,rij,rj->r", mean, inv, mean)
    b = np.einsum("i,rij,rj->r", ones, inv, mean)
    c = np.einsum("i,rij,j->r", ones, inv, ones)
    estimates = {"sample": np.column_stack([b / c, 1 / c, a - b * b / c])}
    estimates["unbiased"] = estimates["sample"] * [1.0, n / (n - p), (n - p - 1) / n]
    estimates["unbiased"][:, 2] -= (p - 1) / n
    assert checks.check_mc_means(estimates, (r, v, s), p, n) == []
    shifted = {k: e * [1.0, 1.0, 1.1] for k, e in estimates.items()}
    assert checks.check_mc_means(shifted, (r, v, s), p, n) != []


def test_identity_check_flags_an_error_beyond_rounding():
    rng = np.random.default_rng(4)
    p, n = 10, 50
    sample = np.column_stack([rng.normal(size=20), rng.uniform(1, 2, 20), rng.uniform(1, 2, 20)])
    shrink = 1 - p / n
    consistent = sample * [1.0, 1 / shrink, shrink]
    assert checks.check_mc_identities({"sample": sample, "consistent": consistent}, p, n) == []
    wrong = consistent * [1.0, 1.0, 1.0 + 1e-9]
    assert checks.check_mc_identities({"sample": sample, "consistent": wrong}, p, n) != []
