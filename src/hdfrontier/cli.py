"""Command-line interface.

One executable, five subcommands:

- ``frontier``     — population frontier from a supplied mean/covariance;
- ``estimate``     — estimator reports (plus CIs) from a returns CSV;
- ``simulate``     — Monte Carlo loss tables, histograms, frontier curves;
- ``theory-check`` — numeric diagnostics for the limit-theory building blocks;
- ``pipeline``     — rolling-window estimation over an intraday panel.

Every run creates ``<outdir>/<subcommand>/<timestamp>/`` and writes a
``manifest.json`` first (so a crashed run still identifies itself), then
rewrites it on completion with the end time and output list.  A previous
manifest can be passed to ``--config`` to reproduce its run; CSV outputs are
byte-identical for identical manifests regardless of ``--jobs``.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CholeskyFailure,
    EmptyPanel,
    HDFrontierError,
    InputValidationError,
    ParseError,
)
from .estimators import EstimatorKind, ReturnsMatrix, estimate, sample_moments
from .frontier import frontier_curve, from_merton, merton_constants
from .inference import confidence_intervals
from .pipeline import RollingConfig, ingest_csv, rolling_estimate, write_rolling_csv
from .rmt import (
    DiagnosticRecord,
    StieltjesPoint,
    demeaned_quadform_diagnostics,
    m_of_z,
    white_quadform_diagnostics,
    x_of_z,
)
from .simulate import (
    Scenario,
    ScenarioSpec,
    frontier_comparison,
    histogram_data,
    loss_rows,
    run_monte_carlo,
    write_frontier_csv,
    write_histogram_csv,
    write_loss_csv,
)

__all__ = ["main", "RunManifest"]

try:  # installed distribution metadata, if available
    from importlib.metadata import PackageNotFoundError, version

    try:
        _VERSION = version("hdfrontier")
    except PackageNotFoundError:  # pragma: no cover - source tree use
        _VERSION = "0.1.0"
except ImportError:  # pragma: no cover
    _VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3

_SIMULATE_OUTPUTS = ("losses", "histograms", "frontiers")
_THEORY_CHECKS = ("transforms", "lemma2", "lemma3")

#: default thresholds for theory-check diagnostics.  The quadratic-form
#: bounds are frozen from measured sampling quantiles at the default sizes
#: (c=0.5, p=500): forms whose fluctuation scale is O(1) in the random
#: direction get wide bounds, concentration forms get tight ones.  They are
#: meant to catch wrong limits (missing (1-c)^-1 factors, wrong centering),
#: not to re-test the theory's convergence rate.
_DEFAULT_THRESHOLDS = {
    "x-residual-max": 1e-12,
    "x-test-point": 1e-12,
    "m-at-zero": 1e-12,
    "white-cross-form": 0.30,
    "white-mean-form": 0.05,
    "white-mixed-form": 0.02,
    "demeaned-ones-form": 0.50,
    "demeaned-mean-form": 0.50,
    "demeaned-cross-form": 0.05,
}


class _CliError(Exception):
    """Internal: abort the current command with a specific exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _usage(message: str) -> _CliError:
    return _CliError(message, EXIT_USAGE)


def _data(message: str) -> _CliError:
    return _CliError(message, EXIT_DATA)


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, serialized beside its outputs."""

    subcommand: str
    config: dict
    seed: int
    jobs: int
    version: str = _VERSION
    started: str = ""
    finished: str | None = None
    outputs: list = field(default_factory=list)
    exit_code: int | None = None

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(dataclasses.asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _now() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat()


def _entropy_seed() -> int:
    return int(np.random.SeedSequence().entropy) % 2**64


def _make_run_dir(outdir: str, subcommand: str) -> str:
    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
    base = os.path.join(outdir, subcommand, stamp)
    candidate = base
    suffix = 0
    while True:
        try:
            os.makedirs(candidate)
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = f"{base}-{suffix}"


def _load_config_file(path: str) -> tuple[dict, int | None]:
    """Load a config JSON; accepts a previous RunManifest transparently."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise _usage(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _usage(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _usage(f"config {path} must hold a JSON object")
    if "config" in payload and "subcommand" in payload:
        seed = payload.get("seed")
        config = payload["config"]
        if not isinstance(config, dict):
            raise _usage(f"manifest {path} has a malformed 'config' entry")
        return config, seed
    return payload, None


def _parse_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_kinds(items) -> tuple[EstimatorKind, ...]:
    kinds = []
    for item in items:
        try:
            kinds.append(EstimatorKind(str(item).strip().lower()))
        except ValueError:
            valid = ", ".join(k.value for k in EstimatorKind)
            raise _usage(f"unknown estimator kind {item!r}; valid: {valid}") from None
    if not kinds:
        raise _usage("at least one estimator kind is required")
    return tuple(kinds)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def _read_frontier_csv(path: str) -> tuple[list, list]:
    """CSV layout: header ``mu,<labels...>``; row i = mu_i, sigma_i1..sigma_ip."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise _usage(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip().lower() != "mu":
            raise _usage(f"{path} line 1: header must be 'mu,<asset labels...>'")
        p = len(header) - 1
        mu, sigma = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 1:
                raise _usage(f"{path} line {line_no}: expected {p + 1} fields, got {len(row)}")
            try:
                mu.append(float(row[0]))
                sigma.append([float(cell) for cell in row[1:]])
            except ValueError as exc:
                raise _usage(f"{path} line {line_no}: {exc}") from None
        if len(sigma) != p:
            raise _usage(f"{path}: sigma must be {p}x{p}, got {len(sigma)} rows")
    return mu, sigma


def _resolve_frontier_config(args) -> dict:
    config: dict = {"curve": False, "v_max": None, "points": 65}
    file_cfg: dict = {}
    if args.config:
        file_cfg, _ = _load_config_file(args.config)
    config.update(file_cfg)
    if args.input:
        if args.input.endswith(".json"):
            payload, _ = _load_config_file(args.input)
            config.update({k: payload[k] for k in ("mu", "sigma") if k in payload})
        else:
            mu, sigma = _read_frontier_csv(args.input)
            config["mu"], config["sigma"] = mu, sigma
    for flag in ("mu", "sigma"):
        raw = getattr(args, flag)
        if raw is not None:
            try:
                config[flag] = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _usage(f"--{flag} must be inline JSON: {exc}") from None
    if args.curve:
        config["curve"] = True
    if args.v_max is not None:
        config["v_max"] = args.v_max
    if args.points is not None:
        config["points"] = args.points
    if "mu" not in config or "sigma" not in config:
        raise _usage(
            "frontier needs both 'mu' and 'sigma' "
            "(via --input FILE, --config FILE, or --mu/--sigma inline JSON)"
        )
    return config


def cmd_frontier(config: dict, run_dir: str, seed: int, jobs: int) -> tuple[int, list]:
    try:
        mu = np.asarray(config["mu"], dtype=float)
        sigma = np.asarray(config["sigma"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise _usage(f"mu/sigma are not numeric arrays: {exc}") from None
    if sigma.ndim == 1:
        sigma = np.diag(sigma)
    try:
        constants = merton_constants(mu, sigma)
        params = from_merton(constants)
    except (CholeskyFailure, InputValidationError) as exc:
        # sigma comes from flags or a config file here, so a covariance that
        # cannot be factorized is a usage problem, not a data problem
        raise _usage(f"invalid frontier input: {exc}") from None
    print(f"r_gmv  = {_fmt(params.r_gmv)}")
    print(f"v_gmv  = {_fmt(params.v_gmv)}")
    print(f"slope  = {_fmt(params.slope)}")
    print(f"merton a = {_fmt(constants.a)}, b = {_fmt(constants.b)}, c = {_fmt(constants.c)}")
    outputs = []
    summary = {
        "r_gmv": params.r_gmv,
        "v_gmv": params.v_gmv,
        "slope": params.slope,
        "merton": {"a": constants.a, "b": constants.b, "c": constants.c},
    }
    with open(os.path.join(run_dir, "frontier.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    outputs.append("frontier.json")
    if config.get("curve"):
        v_max = config.get("v_max") or 10.0 * params.v_gmv
        curve = frontier_curve(params, v_max, int(config.get("points") or 65))
        path = os.path.join(run_dir, "curve.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("V", "R"))
            for v, r in curve:
                writer.writerow((repr(float(v)), repr(float(r))))
        outputs.append("curve.csv")
    return EXIT_OK, outputs


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _resolve_estimate_config(args) -> dict:
    config: dict = {"kinds": ["sample", "consistent"], "level": 0.95, "input": None}
    if args.config:
        file_cfg, _ = _load_config_file(args.config)
        config.update(file_cfg)
    if args.input:
        config["input"] = os.path.abspath(args.input)
    if args.kinds:
        config["kinds"] = _parse_list(args.kinds)
    if args.level is not None:
        config["level"] = args.level
    if not config.get("input"):
        raise _usage("estimate needs a returns CSV via --input (or config field 'input')")
    config["kinds"] = [k.value for k in _parse_kinds(config["kinds"])]
    return config


def cmd_estimate(config: dict, run_dir: str, seed: int, jobs: int) -> tuple[int, list]:
    kinds = _parse_kinds(config["kinds"])
    try:
        panel = ingest_csv(config["input"])
    except (ParseError, EmptyPanel, OSError) as exc:
        raise _data(f"cannot ingest {config['input']}: {exc}") from None
    matrix = ReturnsMatrix(panel.values.T, asset_labels=panel.asset_labels)
    moments = sample_moments(matrix)
    print(f"{'kind':<12}{'r_gmv':>14}{'v_gmv':>14}{'slope':>14}  notes")
    records = []
    for kind in kinds:
        try:
            report = estimate(moments, kind)
        except (CholeskyFailure, InputValidationError) as exc:
            raise _data(f"estimator '{kind.value}' failed: {exc}") from None
        row = {
            "kind": kind.value,
            "r_gmv": report.params.r_gmv,
            "v_gmv": report.params.v_gmv,
            "slope": report.params.slope,
            "p": report.p,
            "n": report.n,
            "ratio": report.ratio,
            "notes": list(report.notes),
            "cis": None,
        }
        note_text = ",".join(report.notes)
        print(
            f"{kind.value:<12}{report.params.r_gmv:>14.6g}"
            f"{report.params.v_gmv:>14.6g}{report.params.slope:>14.6g}  {note_text}"
        )
        if kind is EstimatorKind.CONSISTENT:
            cis = confidence_intervals(report, level=float(config["level"]))
            row["cis"] = {
                "level": cis.level,
                "r_gmv": list(cis.ci_r),
                "v_gmv": list(cis.ci_v),
                "slope": list(cis.ci_s),
            }
            print(
                f"{'':<12}CI({cis.level:g}) r_gmv [{_fmt(cis.ci_r[0])}, {_fmt(cis.ci_r[1])}]"
                f"  v_gmv [{_fmt(cis.ci_v[0])}, {_fmt(cis.ci_v[1])}]"
                f"  slope [{_fmt(cis.ci_s[0])}, {_fmt(cis.ci_s[1])}]"
            )
        records.append(row)
    with open(os.path.join(run_dir, "estimates.json"), "w") as handle:
        json.dump({"p": moments.p, "n": moments.n, "estimates": records}, handle, indent=2)
        handle.write("\n")
    return EXIT_OK, ["estimates.json"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _resolve_simulate_config(args, seed: int) -> dict:
    config: dict = {
        "scenario": "normal",
        "p": 100,
        "n": None,
        "c": None,
        "reps": 1000,
        "kinds": ["sample", "consistent"],
        "outputs": ["losses"],
        "seed": seed,
        "v_max": None,
    }
    if args.config:
        file_cfg, file_seed = _load_config_file(args.config)
        config.update(file_cfg)
        if args.seed is None and file_seed is not None:
            config["seed"] = file_seed
    for flag in ("scenario", "p", "n", "c", "reps", "v_max"):
        value = getattr(args, flag)
        if value is not None:
            config[flag] = value
    if args.seed is not None:
        config["seed"] = args.seed
    if args.kinds:
        config["kinds"] = _parse_list(args.kinds)
    if args.outputs:
        config["outputs"] = _parse_list(args.outputs)
    try:
        config["scenario"] = Scenario(config["scenario"]).value
    except ValueError:
        valid = ", ".join(s.value for s in Scenario)
        raise _usage(f"unknown scenario {config['scenario']!r}; valid: {valid}") from None
    if config["n"] is None:
        c = config.get("c")
        if c is not None:
            if not (0 < c):
                raise _usage(f"--c must be positive, got {c}")
            config["n"] = round(config["p"] / c)
        else:
            config["n"] = 2 * config["p"]
    config["c"] = config["p"] / config["n"]
    unknown = [o for o in config["outputs"] if o not in _SIMULATE_OUTPUTS]
    if unknown:
        raise _usage(f"unknown outputs {unknown}; valid: {', '.join(_SIMULATE_OUTPUTS)}")
    config["kinds"] = [k.value for k in _parse_kinds(config["kinds"])]
    if config["reps"] < 1:
        raise _usage(f"--reps must be >= 1, got {config['reps']}")
    return config


def cmd_simulate(config: dict, run_dir: str, seed: int, jobs: int) -> tuple[int, list]:
    spec = ScenarioSpec(
        scenario=Scenario(config["scenario"]),
        p=int(config["p"]),
        n=int(config["n"]),
        seed=int(config["seed"]),
    )
    kinds = _parse_kinds(config["kinds"])
    outputs: list[str] = []
    result = None
    wanted = config["outputs"]
    if "losses" in wanted or "histograms" in wanted:
        result = run_monte_carlo(spec, int(config["reps"]), kinds, jobs=jobs)
        for kind in kinds:
            print(
                f"{kind.value}: mean loss (R, V, s) = "
                + ", ".join(_fmt(x) for x in result.mean_loss(kind))
                + (f"  [{result.failures[kind]} failed reps]" if result.failures[kind] else "")
            )
    if "losses" in wanted:
        path = os.path.join(run_dir, "losses.csv")
        write_loss_csv(path, loss_rows(result))
        outputs.append("losses.csv")
    if "histograms" in wanted:
        for param in ("R", "V", "s"):
            hist = histogram_data(result, param, kind=EstimatorKind.CONSISTENT)
            hist_name = f"hist_{param}.csv"
            density_name = f"density_{param}.csv"
            write_histogram_csv(
                os.path.join(run_dir, hist_name),
                os.path.join(run_dir, density_name),
                hist,
            )
            outputs.extend([hist_name, density_name])
    if "frontiers" in wanted:
        comparison = frontier_comparison(spec, kinds, v_max=config.get("v_max"))
        path = os.path.join(run_dir, "frontier.csv")
        write_frontier_csv(path, comparison)
        outputs.append("frontier.csv")
    return EXIT_OK, outputs


# ---------------------------------------------------------------------------
# theory-check
# ---------------------------------------------------------------------------


def _transform_records(c: float, points: int, seed: int, thresholds: dict) -> list:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(points):
        # keep Im z away from the real axis: the fixed-point residual
        # divides by x(z)(x(z) - z), both of which vanish only at z = 0
        z = complex(rng.uniform(-3.0, 5.0), rng.uniform(0.05, 3.0))
        x = x_of_z(StieltjesPoint(z, c))
        worst = max(worst, abs((1.0 - x) / x - c / (x - z)))
    records = [
        DiagnosticRecord(
            check="x-residual-max",
            p=points,
            n=0,
            c=c,
            seed=seed,
            value=worst,
            threshold=thresholds["x-residual-max"],
            passed=worst < thresholds["x-residual-max"],
        )
    ]
    z0 = complex(1.0 + c, 2.0 * math.sqrt(c))
    x0 = x_of_z(StieltjesPoint(z0, c))
    err = abs(x0.imag - math.sqrt(c) * (1.0 + math.sqrt(2.0)))
    records.append(
        DiagnosticRecord(
            check="x-test-point",
            p=points,
            n=0,
            c=c,
            seed=seed,
            value=err,
            threshold=thresholds["x-test-point"],
            passed=err < thresholds["x-test-point"],
        )
    )
    if c < 1.0:
        m0, _ = m_of_z(StieltjesPoint(0.0, c))
        err0 = abs(m0 - 1.0 / (1.0 - c))
        records.append(
            DiagnosticRecord(
                check="m-at-zero",
                p=points,
                n=0,
                c=c,
                seed=seed,
                value=err0,
                threshold=thresholds["m-at-zero"],
                passed=err0 < thresholds["m-at-zero"],
            )
        )
        print(f"m(0+) at c={c:g}: {_fmt(m0.real)}")
    return records


def _resolve_theory_config(args, seed: int) -> dict:
    config: dict = {
        "checks": list(_THEORY_CHECKS),
        "p": 500,
        "c": 0.5,
        "points": 100,
        "seed": seed,
        "thresholds": {},
    }
    if args.config:
        file_cfg, file_seed = _load_config_file(args.config)
        config.update(file_cfg)
        if args.seed is None and file_seed is not None:
            config["seed"] = file_seed
    for flag in ("p", "c", "points"):
        value = getattr(args, flag)
        if value is not None:
            config[flag] = value
    if args.seed is not None:
        config["seed"] = args.seed
    if args.checks:
        config["checks"] = _parse_list(args.checks)
    unknown = [c for c in config["checks"] if c not in _THEORY_CHECKS]
    if unknown:
        raise _usage(f"unknown checks {unknown}; valid: {', '.join(_THEORY_CHECKS)}")
    if not (0.0 < config["c"]):
        raise _usage(f"c must be positive, got {config['c']}")
    return config


def cmd_theory_check(config: dict, run_dir: str, seed: int, jobs: int) -> tuple[int, list]:
    thresholds = dict(_DEFAULT_THRESHOLDS)
    thresholds.update(config.get("thresholds", {}))
    c = float(config["c"])
    p = int(config["p"])
    check_seed = int(config["seed"])
    records = []
    if "transforms" in config["checks"]:
        records.extend(_transform_records(c, int(config["points"]), check_seed, thresholds))
    if "lemma2" in config["checks"]:
        if not 0.0 < c < 1.0:
            raise _usage(f"lemma2 requires 0 < c < 1, got c={c}")
        for record in white_quadform_diagnostics(c, p, seed=check_seed):
            records.append(
                dataclasses.replace(
                    record,
                    threshold=thresholds[record.check],
                    passed=record.value < thresholds[record.check],
                )
            )
    if "lemma3" in config["checks"]:
        if not 0.0 < c < 1.0:
            raise _usage(f"lemma3 requires 0 < c < 1, got c={c}")
        for record in demeaned_quadform_diagnostics(c, p, seed=check_seed):
            records.append(
                dataclasses.replace(
                    record,
                    threshold=thresholds[record.check],
                    passed=record.value < thresholds[record.check],
                )
            )
    all_passed = all(record.passed for record in records)
    for record in records:
        status = "pass" if record.passed else "FAIL"
        print(f"[{status}] {record.check}: value={record.value:.3e} threshold={record.threshold:g}")
    payload = {"passed": all_passed, "checks": [record.to_dict() for record in records]}
    with open(os.path.join(run_dir, "diagnostics.json"), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return (EXIT_OK if all_passed else EXIT_CHECK_FAILED), ["diagnostics.json"]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _resolve_pipeline_config(args) -> dict:
    config: dict = {
        "input": None,
        "p": 200,
        "n": 375,
        "step": None,
        "frequency_minutes": 5.0,
        "target_horizon_minutes": 60.0,
        "winsor_quantiles": [0.01, 0.99],
        "kinds": ["sample", "consistent"],
        "level": 0.95,
        "assets": None,
    }
    if args.config:
        file_cfg, _ = _load_config_file(args.config)
        config.update(file_cfg)
    if args.input:
        config["input"] = os.path.abspath(args.input)
    for flag, key in (
        ("p", "p"),
        ("n", "n"),
        ("step", "step"),
        ("frequency", "frequency_minutes"),
        ("horizon", "target_horizon_minutes"),
        ("level", "level"),
    ):
        value = getattr(args, flag)
        if value is not None:
            config[key] = value
    if args.kinds:
        config["kinds"] = _parse_list(args.kinds)
    if args.winsor:
        parts = _parse_list(args.winsor)
        if len(parts) != 2:
            raise _usage(f"--winsor needs 'low,high', got {args.winsor!r}")
        config["winsor_quantiles"] = [float(parts[0]), float(parts[1])]
    if not config.get("input"):
        raise _usage("pipeline needs a returns CSV via --input (or config field 'input')")
    config["kinds"] = [k.value for k in _parse_kinds(config["kinds"])]
    return config


def cmd_pipeline(config: dict, run_dir: str, seed: int, jobs: int) -> tuple[int, list]:
    try:
        rolling = RollingConfig(
            p=int(config["p"]),
            n=int(config["n"]),
            step=None if config["step"] is None else int(config["step"]),
            frequency_minutes=float(config["frequency_minutes"]),
            target_horizon_minutes=float(config["target_horizon_minutes"]),
            winsor_quantiles=tuple(config["winsor_quantiles"]),
            kinds=tuple(config["kinds"]),
            level=float(config["level"]),
            assets=None if config.get("assets") is None else tuple(config["assets"]),
        )
    except InputValidationError as exc:
        raise _usage(f"invalid pipeline config: {exc}") from None
    try:
        panel = ingest_csv(config["input"])
        windows = rolling_estimate(panel, rolling)
    except (ParseError, EmptyPanel, OSError) as exc:
        raise _data(f"cannot ingest {config['input']}: {exc}") from None
    except HDFrontierError as exc:
        raise _data(f"rolling estimation failed: {exc}") from None
    path = os.path.join(run_dir, "rolling.csv")
    write_rolling_csv(path, windows, rolling.frequency_minutes)
    n_windows = len({w.end for w in windows})
    print(f"{len(windows)} estimates over {n_windows} windows -> rolling.csv")
    return EXIT_OK, ["rolling.csv"]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdfrontier",
        description="Efficient-frontier estimation for high-dimensional portfolios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_VERSION}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file or a previous manifest.json")
        p.add_argument("--seed", type=int, help="RNG seed (default: fresh entropy)")
        p.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
        p.add_argument("--outdir", default="runs", help="output root (default: ./runs)")

    p = sub.add_parser("frontier", help="population frontier from mean/covariance")
    common(p)
    p.add_argument("--input", help="CSV ('mu,<labels>' header) or JSON with mu/sigma")
    p.add_argument("--mu", help="inline JSON array")
    p.add_argument("--sigma", help="inline JSON matrix (or diagonal vector)")
    p.add_argument("--curve", action="store_true", help="also write curve.csv")
    p.add_argument("--v-max", dest="v_max", type=float, help="curve variance upper end")
    p.add_argument("--points", type=int, help="curve grid size (default 65)")

    p = sub.add_parser("estimate", help="estimator reports from a returns CSV")
    common(p)
    p.add_argument("--input", help="returns CSV (timestamp,ASSET1,...)")
    p.add_argument("--kinds", help="comma list: sample,consistent,unbiased,sse,ebe,rte")
    p.add_argument("--level", type=float, help="CI level for the consistent kind")

    p = sub.add_parser("simulate", help="Monte Carlo losses/histograms/frontiers")
    common(p)
    p.add_argument("--scenario", help="normal | t3 | ccc-garch")
    p.add_argument("--p", type=int, help="cross-section size")
    p.add_argument("--n", type=int, help="sample size (overrides --c)")
    p.add_argument("--c", type=float, help="concentration ratio; n = round(p/c)")
    p.add_argument("--reps", type=int, help="replications (default 1000)")
    p.add_argument("--kinds", help="comma list of estimator kinds")
    p.add_argument("--outputs", help="comma list: losses,histograms,frontiers")
    p.add_argument("--v-max", dest="v_max", type=float, help="frontier grid upper end")

    p = sub.add_parser("theory-check", help="numeric checks of the limit theory")
    common(p)
    p.add_argument("--checks", help="comma list: transforms,lemma2,lemma3")
    p.add_argument("--p", type=int, help="matrix dimension (default 500)")
    p.add_argument("--c", type=float, help="concentration ratio (default 0.5)")
    p.add_argument("--points", type=int, help="random z points (default 100)")

    p = sub.add_parser("pipeline", help="rolling-window estimation over a panel")
    common(p)
    p.add_argument("--input", help="returns CSV (timestamp,ASSET1,...)")
    p.add_argument("--p", type=int, help="assets per window")
    p.add_argument("--n", type=int, help="observations per window")
    p.add_argument("--step", type=int, help="advance per move (default one day)")
    p.add_argument("--frequency", type=float, help="estimation frequency, minutes")
    p.add_argument("--horizon", type=float, help="target horizon, minutes")
    p.add_argument("--kinds", help="comma list of estimator kinds")
    p.add_argument("--level", type=float, help="CI level (default 0.95)")
    p.add_argument("--winsor", help="winsor quantiles 'low,high'")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)

    try:
        seed = args.seed if args.seed is not None else _entropy_seed()
        jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
        if jobs < 1:
            raise _usage(f"--jobs must be >= 1, got {jobs}")
        if args.subcommand == "frontier":
            config = _resolve_frontier_config(args)
            handler = cmd_frontier
        elif args.subcommand == "estimate":
            config = _resolve_estimate_config(args)
            handler = cmd_estimate
        elif args.subcommand == "simulate":
            config = _resolve_simulate_config(args, seed)
            seed = int(config["seed"])
            handler = cmd_simulate
        elif args.subcommand == "theory-check":
            config = _resolve_theory_config(args, seed)
            seed = int(config["seed"])
            handler = cmd_theory_check
        else:
            config = _resolve_pipeline_config(args)
            handler = cmd_pipeline
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    run_dir = _make_run_dir(args.outdir, args.subcommand)
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=config,
        seed=seed,
        jobs=jobs,
        started=_now(),
    )
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest.write(manifest_path)
    try:
        code, outputs = handler(config, run_dir, seed, jobs)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, outputs = exc.code, []
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, outputs = EXIT_USAGE, []
    except HDFrontierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, outputs = EXIT_DATA, []
    manifest.finished = _now()
    manifest.outputs = outputs
    manifest.exit_code = code
    manifest.write(manifest_path)
    print(f"run directory: {run_dir}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
