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

Each subcommand is one entry of ``_COMMANDS``: its flags, their config keys
and types, and its defaults are declared there once.  A run's config merges
the defaults, then ``--config``, then ``--input``, then the flags.

Each subcommand's ``prepare`` raises every usage error and builds the
library objects its handler runs, all before the run directory is made.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 data error.
Exit 2 means no run directory was made; once one exists, a run ends with 0,
1 or 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import functools
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .errors import EmptyPanel, HDFrontierError, ParseError
from .estimators import EstimatorKind, ReturnsMatrix, _estimate_each, sample_moments
from .frontier import _MAX_POINTS, frontier_curve, from_merton, merton_constants
from .inference import confidence_intervals
from .pipeline import RollingConfig, _write_csv, ingest_csv, rolling_estimate, write_rolling_csv
from .rmt import (
    DiagnosticRecord,
    StieltjesPoint,
    _diag_dimensions,
    demeaned_quadform_diagnostics,
    m_of_z,
    white_quadform_diagnostics,
    x_of_z,
)
from .simulate import (
    MIN_HISTOGRAM_REPS,
    ScenarioSpec,
    _check_reps,
    frontier_comparison,
    histogram_data,
    loss_rows,
    run_monte_carlo,
    write_frontier_csv,
    write_histogram_csv,
    write_loss_csv,
)

__all__ = ["main", "RunManifest"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3

_SIMULATE_OUTPUTS = ("losses", "histograms", "frontiers")
_THEORY_CHECKS = ("transforms", "lemma2", "lemma3")

#: the most random z points the transforms check takes: about 10 s, at some 10 us a point
_MAX_Z_POINTS = 10**6

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
    """Internal: abort the current command: a usage error in ``prepare``, a data error after."""


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, serialized beside its outputs."""

    subcommand: str
    config: dict
    seed: int
    jobs: int
    version: str = __version__
    started: str = ""
    finished: str | None = None
    outputs: list = field(default_factory=list)
    exit_code: int | None = None
    environment: dict = field(default_factory=dict)

    def write(self, path) -> None:
        _write_json(path, dataclasses.asdict(self), sort_keys=True)

    def finish(self, path, code: int) -> None:
        self.finished = _now()
        self.exit_code = code
        self.write(path)


def _environment() -> dict:
    """The interpreter, NumPy, SciPy and BLAS of this process, its thread settings and CPUs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_variables": {
            key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
    }


def _write_json(path, payload, sort_keys: bool = False) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=sort_keys)
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


# ---------------------------------------------------------------------------
# flag types: each parses a flag's text, and names what a config file must hold
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> tuple[dict, int | None]:
    """Load a config JSON; accepts a previous RunManifest transparently."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise argparse.ArgumentTypeError(f"config {path} must hold a JSON object")
    if "config" in payload and "subcommand" in payload:
        if not isinstance(payload["config"], dict):
            raise argparse.ArgumentTypeError(f"manifest {path} has a malformed 'config' entry")
        return payload["config"], payload.get("seed")
    return payload, None


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _inline_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"must be inline JSON: {exc}") from None


def _winsor(text: str) -> list[float]:
    try:
        low, high = map(float, _comma_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs 'low,high', got {text!r}") from None
    return [low, high]


def _read_frontier_csv(path: str) -> tuple[list, list]:
    """CSV layout: header ``mu,<labels...>``; row i = mu_i, sigma_i1..sigma_ip."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip().lower() != "mu":
            raise ValueError(f"{path} line 1: header must be 'mu,<asset labels...>'")
        p = len(header) - 1
        mu, sigma = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 1:
                raise ValueError(f"{path} line {line_no}: expected {p + 1} fields, got {len(row)}")
            try:
                mu.append(float(row[0]))
                sigma.append([float(cell) for cell in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
        if len(sigma) != p:
            raise ValueError(f"{path}: sigma must be {p}x{p}, got {len(sigma)} rows")
    return mu, sigma


def _population(path: str) -> dict:
    """``frontier --input``: ``mu`` and ``sigma`` from a JSON file or a CSV table."""
    if path.endswith(".json"):
        payload, _ = _load_config_file(path)
        return {k: payload[k] for k in ("mu", "sigma") if k in payload}
    try:
        mu, sigma = _read_frontier_csv(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return {"mu": mu, "sigma": sigma}


_NUMBER = (int, float)

#: the JSON types a config-file value of each flag type may have, and their name
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: (_NUMBER, "a number"),
    str: ((str,), "a string"),
    os.path.abspath: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    _comma_list: ((list,), "a list"),
    _winsor: ((list,), "a [low, high] list of numbers"),
}


def _check_config_value(key: str, value, kind, nullable: bool) -> None:
    """Reject a config-file value its flag could not have produced."""
    if kind not in _CONFIG_TYPES or (value is None and nullable):
        return
    types, name = _CONFIG_TYPES[kind]
    ok = type(value) in types  # exact types: a JSON true is not an integer
    if ok and kind is _winsor:
        ok = len(value) == 2 and all(type(v) in _NUMBER for v in value)
    if not ok:
        raise _CliError(f"config key {key!r} must be {name}, got {value!r}")
    if kind is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise _CliError(f"config key {key!r} must be a number within the float range") from None


def _parse_kinds(config: dict) -> tuple[EstimatorKind, ...]:
    """The config's estimator kinds; the config keeps their names, for the manifest."""
    kinds = tuple(EstimatorKind(str(item).strip().lower()) for item in config["kinds"])
    if not kinds:
        raise _CliError("at least one estimator kind is required")
    config["kinds"] = [kind.value for kind in kinds]
    return kinds


def _check_names(names, valid, what: str) -> None:
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise _CliError(f"unknown {what} {unknown}; valid: {', '.join(valid)}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _physical_memory() -> int:
    """Bytes of physical memory, or ``sys.maxsize`` where the system does not say."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        memory = -1
    return memory if memory > 0 else sys.maxsize


def _ingest(path: str):
    try:
        return ingest_csv(path)
    except (ParseError, EmptyPanel, OSError) as exc:
        raise _CliError(f"cannot ingest {path}: {exc}") from None


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def _prepare_frontier(config: dict):
    if "mu" not in config or "sigma" not in config:
        raise _CliError(
            "frontier needs both 'mu' and 'sigma' "
            "(via --input FILE, --config FILE, or --mu/--sigma inline JSON)"
        )
    try:
        mu = np.asarray(config["mu"], dtype=float)
        sigma = np.asarray(config["sigma"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise _CliError(f"mu/sigma are not numeric arrays: {exc}") from None
    if sigma.ndim == 1:
        sigma = np.diag(sigma)
    constants = merton_constants(mu, sigma)
    params = from_merton(constants)
    curve = None
    if config["curve"]:
        v_max = 10.0 * params.v_gmv if config["v_max"] is None else config["v_max"]
        points = int(config["points"])
        # a count above _MAX_POINTS is frontier_curve's InvalidRange
        if points <= _MAX_POINTS and points * 16 > _physical_memory():
            raise _CliError(f"a curve of {points} points exceeds physical memory")
        curve = frontier_curve(params, v_max, points)
    return constants, params, curve


def cmd_frontier(plan, run_dir: str, jobs: int, outputs: list) -> int:
    constants, params, curve = plan
    print(f"r_gmv  = {_fmt(params.r_gmv)}")
    print(f"v_gmv  = {_fmt(params.v_gmv)}")
    print(f"slope  = {_fmt(params.slope)}")
    print(f"merton a = {_fmt(constants.a)}, b = {_fmt(constants.b)}, c = {_fmt(constants.c)}")
    summary = {
        "r_gmv": params.r_gmv,
        "v_gmv": params.v_gmv,
        "slope": params.slope,
        "merton": {"a": constants.a, "b": constants.b, "c": constants.c},
    }
    _write_json(os.path.join(run_dir, "frontier.json"), summary, sort_keys=True)
    outputs.append("frontier.json")
    if curve is not None:
        _write_csv(os.path.join(run_dir, "curve.csv"), ("V", "R"), curve)
        outputs.append("curve.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _need_input(config: dict) -> None:
    if not config["input"]:
        raise _CliError("a returns CSV is needed via --input (or config field 'input')")


def _prepare_estimate(config: dict):
    _need_input(config)
    if not 0.0 < config["level"] < 1.0:
        raise _CliError(f"--level must lie in (0, 1), got {config['level']}")
    return config["input"], _parse_kinds(config), float(config["level"])


def cmd_estimate(plan, run_dir: str, jobs: int, outputs: list) -> int:
    path, kinds, level = plan
    panel = _ingest(path)
    moments = sample_moments(ReturnsMatrix(panel.values.T, asset_labels=panel.asset_labels))
    reports, errors = _estimate_each(moments, kinds)
    print(f"{'kind':<12}{'r_gmv':>14}{'v_gmv':>14}{'slope':>14}  notes")
    records = []
    for kind, report in reports.items():
        params = report.params
        row = {
            "kind": kind.value, "r_gmv": params.r_gmv, "v_gmv": params.v_gmv,
            "slope": params.slope, "p": report.p, "n": report.n, "ratio": report.ratio,
            "notes": list(report.notes), "cis": None,
        }
        print(
            f"{kind.value:<12}{params.r_gmv:>14.6g}{params.v_gmv:>14.6g}"
            f"{params.slope:>14.6g}  {','.join(report.notes)}"
        )
        if kind is EstimatorKind.CONSISTENT:
            cis = confidence_intervals(report, level=level)
            row["cis"] = {
                "level": cis.level, "r_gmv": list(cis.ci_r),
                "v_gmv": list(cis.ci_v), "slope": list(cis.ci_s),
            }
            print(
                f"{'':<12}CI({cis.level:g}) r_gmv [{_fmt(cis.ci_r[0])}, {_fmt(cis.ci_r[1])}]"
                f"  v_gmv [{_fmt(cis.ci_v[0])}, {_fmt(cis.ci_v[1])}]"
                f"  slope [{_fmt(cis.ci_s[0])}, {_fmt(cis.ci_s[1])}]"
            )
        records.append(row)
    failures = [
        {"kind": kind.value, "error": type(exc).__name__, "message": str(exc)}
        for kind, exc in errors.items()
    ]
    payload = {"p": moments.p, "n": moments.n, "estimates": records, "failures": failures}
    _write_json(os.path.join(run_dir, "estimates.json"), payload)
    outputs.append("estimates.json")
    if errors:  # the first failed kind, in request order, sets the exit
        kind, exc = next(iter(errors.items()))
        raise _CliError(f"estimator '{kind.value}' failed: {exc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _prepare_simulate(config: dict):
    p, c, n = config["p"], config["c"], config["n"]
    if n is None:
        if c is not None and not (c > 0 and math.isfinite(p / c)):
            raise _CliError(f"--c must be positive with p / c finite, got {c}")
        n = config["n"] = 2 * p if c is None else round(p / c)
    spec = ScenarioSpec(scenario=config["scenario"], p=p, n=n, seed=config["seed"])
    # one replication's panel, and the run's estimates, must fit in physical memory
    memory = _physical_memory()
    if p * n * 8 > memory:
        raise _CliError(f"a p x n panel beyond physical memory is not addressable, got p={p}, n={n}")
    config["c"] = p / n
    wanted, reps = config["outputs"], config["reps"]
    _check_names(wanted, _SIMULATE_OUTPUTS, "outputs")
    kinds = _parse_kinds(config)
    if "histograms" in wanted:
        if EstimatorKind.CONSISTENT not in kinds:
            raise _CliError("--outputs histograms needs the consistent kind in --kinds")
        if reps < MIN_HISTOGRAM_REPS:
            raise _CliError(
                f"--outputs histograms needs --reps >= {MIN_HISTOGRAM_REPS}, got {reps}"
            )
    _check_reps(reps)
    if reps * 3 * 8 * len(kinds) > memory:
        raise _CliError(f"the estimates of {reps} replications exceed physical memory")
    comparison = None
    if "frontiers" in wanted:
        comparison = frontier_comparison(spec, kinds, v_max=config["v_max"])
    return spec, kinds, reps, wanted, comparison


def cmd_simulate(plan, run_dir: str, jobs: int, outputs: list) -> int:
    spec, kinds, reps, wanted, comparison = plan
    result = None
    if "losses" in wanted or "histograms" in wanted:
        result = run_monte_carlo(spec, reps, kinds, jobs=jobs)
        for kind in kinds:
            reasons = ", ".join(
                f"{name}={count}" for name, count in result.failure_reasons[kind].items()
            )
            print(
                f"{kind.value}: mean loss (R, V, s) = "
                + ", ".join(_fmt(x) for x in result.mean_loss(kind))
                + (f"  [{result.failures[kind]} failed reps: {reasons}]" if reasons else "")
            )
    if "losses" in wanted:
        write_loss_csv(os.path.join(run_dir, "losses.csv"), loss_rows(result))
        outputs.append("losses.csv")
    if "histograms" in wanted:
        for param in ("R", "V", "s"):
            hist = histogram_data(result, param, kind=EstimatorKind.CONSISTENT)
            names = [f"hist_{param}.csv", f"density_{param}.csv"]
            write_histogram_csv(*(os.path.join(run_dir, name) for name in names), hist)
            outputs.extend(names)
    if comparison is not None:
        write_frontier_csv(os.path.join(run_dir, "frontier.csv"), comparison)
        outputs.append("frontier.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# theory-check
# ---------------------------------------------------------------------------


def _transform_records(c: float, points: int, seed: int) -> list[DiagnosticRecord]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(points):
        # the relative residual of the defining quadratic x^2 - (1 - c + z)x + z,
        # against the size of its terms, both divided by |x| so that no term
        # overflows: well conditioned for every c
        z = complex(rng.uniform(-3.0, 5.0), rng.uniform(0.05, 3.0))
        x = x_of_z(StieltjesPoint(z, c))
        linear = 1.0 - c + z
        scale = abs(x) + abs(linear) + abs(z) / abs(x)
        worst = max(worst, abs(x - linear + z / x) / scale)
    # the root 1 + is, s = 1 + c, solves the quadratic at z0 = 1 + c + i(s - c/s); rounding
    # z0 moves it by at most |dz0|, a few ulps of s, so Im x(z0) = s holds at every c
    s = 1.0 + c
    x0 = x_of_z(StieltjesPoint(complex(s, s - c / s), c))
    values = [("x-residual-max", worst), ("x-test-point", abs(x0.imag - s) / s)]
    if c < 1.0:
        m0, _ = m_of_z(StieltjesPoint(0.0, c))
        values.append(("m-at-zero", abs(m0 - 1.0 / (1.0 - c))))
        print(f"m(0+) at c={c:g}: {_fmt(m0.real)}")
    return [DiagnosticRecord(check, points, 0, c, seed, value) for check, value in values]


def _prepare_theory_check(config: dict):
    thresholds = config["thresholds"]
    if type(thresholds) is not dict or any(type(v) not in _NUMBER for v in thresholds.values()):
        raise _CliError(f"config key 'thresholds' must be an object of numbers, got {thresholds!r}")
    checks, p, seed, points = config["checks"], config["p"], config["seed"], config["points"]
    _check_names(checks, _THEORY_CHECKS, "checks")
    c = float(config["c"])
    if not 0.0 < c < math.inf:
        raise _CliError(f"c must be positive and finite, got {c}")
    if points < 1:
        raise _CliError(f"--points must be >= 1, got {points}")
    if points > _MAX_Z_POINTS:
        raise _CliError(f"--points must be <= {_MAX_Z_POINTS}, got {points}")
    runs = []
    if "transforms" in checks:
        runs.append(functools.partial(_transform_records, c, points, seed))
    for name, diagnostics in (
        ("lemma2", white_quadform_diagnostics),
        ("lemma3", demeaned_quadform_diagnostics),
    ):
        if name in checks:
            if not 0.0 < c < 1.0:
                raise _CliError(f"{name} requires 0 < c < 1, got c={c}")
            n = _diag_dimensions(c, p)
            if p * n * 8 > _physical_memory():
                raise _CliError(f"{name} draws a {p} x {n} panel beyond physical memory")
            runs.append(functools.partial(diagnostics, c, p, seed=seed))
    return runs, {**_DEFAULT_THRESHOLDS, **thresholds}


def cmd_theory_check(plan, run_dir: str, jobs: int, outputs: list) -> int:
    runs, thresholds = plan
    rows = []
    # one pass rule for every check: the measured value is below its threshold
    for run in runs:
        for record in run():
            limit = thresholds[record.check]
            rows.append({**dataclasses.asdict(record), "threshold": limit, "pass": record.value < limit})
    for row in rows:
        status = "pass" if row["pass"] else "FAIL"
        print(f"[{status}] {row['check']}: value={row['value']:.3e} threshold={row['threshold']:g}")
    all_passed = all(row["pass"] for row in rows)
    payload = {"passed": all_passed, "checks": rows}
    _write_json(os.path.join(run_dir, "diagnostics.json"), payload)
    outputs.append("diagnostics.json")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _prepare_pipeline(config: dict):
    _need_input(config)
    assets = config["assets"]
    if not (assets is None or type(assets) is list and all(type(a) is str for a in assets)):
        raise _CliError(f"config key 'assets' must be a list of strings or null, got {assets!r}")
    rolling = RollingConfig(
        p=config["p"],
        n=config["n"],
        step=config["step"],
        frequency_minutes=float(config["frequency_minutes"]),
        target_horizon_minutes=float(config["target_horizon_minutes"]),
        winsor_quantiles=tuple(config["winsor_quantiles"]),
        kinds=_parse_kinds(config),
        level=float(config["level"]),
        assets=assets,
    )
    return config["input"], rolling


def cmd_pipeline(plan, run_dir: str, jobs: int, outputs: list) -> int:
    path, rolling = plan
    windows = rolling_estimate(_ingest(path), rolling)
    write_rolling_csv(os.path.join(run_dir, "rolling.csv"), windows, rolling.frequency_minutes)
    outputs.append("rolling.csv")
    n_windows = len({w.end for w in windows})
    print(f"{len(windows)} estimates over {n_windows} windows -> rolling.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the subcommand table, argument parsing and dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One subcommand: handler, config defaults, flags and its ``prepare``.

    ``prepare`` completes the merged config in place, raises every usage
    error and returns the plan: the library objects the handler runs, a
    seeded command's seed among them.  The handler takes the plan, the run
    directory and ``--jobs``, appends each file it writes to ``outputs`` and
    returns the exit code.

    Each option is ``(flag, config key, type, help)``.  The type parses the
    flag's text (``bool`` makes a switch) and fixes what a config file may
    hold under the key.  A ``None`` key marks ``frontier --input``, whose
    parsed value is a dict of keys.  ``seeded`` commands keep the seed in
    their config, so a config file can supply it.
    """

    help: str
    handler: Callable[[object, str, int, list], int]
    defaults: dict
    options: tuple
    prepare: Callable[[dict], object]
    seeded: bool = False


_KINDS_HELP = "comma list: sample,consistent,unbiased,sse,ebe,rte"
_RETURNS_INPUT = ("--input", "input", os.path.abspath, "returns CSV (timestamp,ASSET1,...)")

_COMMANDS = {
    "frontier": _Command(
        help="population frontier from mean/covariance",
        handler=cmd_frontier,
        defaults={"curve": False, "v_max": None, "points": 65},
        options=(
            ("--input", None, _population, "CSV ('mu,<labels>' header) or JSON with mu/sigma"),
            ("--mu", "mu", _inline_json, "inline JSON array"),
            ("--sigma", "sigma", _inline_json, "inline JSON matrix (or diagonal vector)"),
            ("--curve", "curve", bool, "also write curve.csv"),
            ("--v-max", "v_max", float, "curve variance upper end"),
            ("--points", "points", int, "curve grid size (default 65)"),
        ),
        prepare=_prepare_frontier,
    ),
    "estimate": _Command(
        help="estimator reports from a returns CSV",
        handler=cmd_estimate,
        defaults={"kinds": ["sample", "consistent"], "level": 0.95, "input": None},
        options=(
            _RETURNS_INPUT,
            ("--kinds", "kinds", _comma_list, _KINDS_HELP),
            ("--level", "level", float, "CI level for the consistent kind"),
        ),
        prepare=_prepare_estimate,
    ),
    "simulate": _Command(
        help="Monte Carlo losses/histograms/frontiers",
        handler=cmd_simulate,
        defaults={
            "scenario": "normal", "p": 100, "n": None, "c": None, "reps": 1000,
            "kinds": ["sample", "consistent"], "outputs": ["losses"], "v_max": None,
        },
        options=(
            ("--scenario", "scenario", str, "normal | t3 | ccc-garch"),
            ("--p", "p", int, "cross-section size"),
            ("--n", "n", int, "sample size (overrides --c)"),
            ("--c", "c", float, "concentration ratio; n = round(p/c)"),
            ("--reps", "reps", int, "replications (default 1000)"),
            ("--kinds", "kinds", _comma_list, _KINDS_HELP),
            ("--outputs", "outputs", _comma_list, "comma list: losses,histograms,frontiers"),
            ("--v-max", "v_max", float, "frontier grid upper end"),
        ),
        prepare=_prepare_simulate,
        seeded=True,
    ),
    "theory-check": _Command(
        help="numeric checks of the limit theory",
        handler=cmd_theory_check,
        defaults={
            "checks": list(_THEORY_CHECKS), "p": 500, "c": 0.5, "points": 100, "thresholds": {},
        },
        options=(
            ("--checks", "checks", _comma_list, "comma list: transforms,lemma2,lemma3"),
            ("--p", "p", int, "matrix dimension (default 500)"),
            ("--c", "c", float, "concentration ratio (default 0.5)"),
            ("--points", "points", int, "random z points (default 100)"),
        ),
        prepare=_prepare_theory_check,
        seeded=True,
    ),
    "pipeline": _Command(
        help="rolling-window estimation over a panel",
        handler=cmd_pipeline,
        defaults={"input": None, **RollingConfig().to_dict()},
        options=(
            _RETURNS_INPUT,
            ("--p", "p", int, "assets per window"),
            ("--n", "n", int, "observations per window"),
            ("--step", "step", int, "advance per move (default one day)"),
            ("--frequency", "frequency_minutes", float, "estimation frequency, minutes"),
            ("--horizon", "target_horizon_minutes", float, "target horizon, minutes"),
            ("--kinds", "kinds", _comma_list, _KINDS_HELP),
            ("--level", "level", float, "CI level (default 0.95)"),
            ("--winsor", "winsor_quantiles", _winsor, "winsor quantiles 'low,high'"),
        ),
        prepare=_prepare_pipeline,
    ),
}


def _resolve_config(command: _Command, args) -> tuple[dict, int, object]:
    """Merge the defaults, ``--config``, ``--input`` and the flags, in that order; prepare the plan."""
    config = dict(command.defaults)
    file_seed = None
    if args.config is not None:
        file_config, file_seed = args.config
        for _, key, kind, _ in command.options:
            if key in file_config:
                nullable = command.defaults.get(key) is None
                _check_config_value(key, file_config[key], kind, nullable)
        config.update(file_config)
    for _, key, _, _ in command.options:
        value = getattr(args, key or "input")
        if value is not None:
            config.update(value if key is None else {key: value})
    seed = args.seed if args.seed is not None else _entropy_seed()
    if command.seeded:
        if args.seed is None:
            seed = file_seed if file_seed is not None else config.get("seed", seed)
        if type(seed) is not int:
            raise _CliError(f"config key 'seed' must be an integer, got {seed!r}")
        config["seed"] = seed
    if seed < 0:
        raise _CliError(f"seed must be non-negative, got {seed}")
    return config, seed, command.prepare(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdfrontier",
        description="Efficient-frontier estimation for high-dimensional portfolios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument(
            "--config", type=_load_config_file,
            help="JSON config file or a previous manifest.json",
        )
        p.add_argument("--seed", type=int, help="RNG seed (default: fresh entropy)")
        p.add_argument("--jobs", type=int, help="worker threads (default: all cores)")
        p.add_argument("--outdir", default="runs", help="output root (default: ./runs)")
        for flag, key, kind, text in command.options:
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=text)
            else:  # the metavar names the flag, not the config key
                metavar = flag[2:].replace("-", "_").upper()
                p.add_argument(flag, dest=key or "input", type=kind, metavar=metavar, help=text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)

    command = _COMMANDS[args.subcommand]
    try:
        jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
        if jobs < 1:
            raise _CliError(f"--jobs must be >= 1, got {jobs}")
        config, seed, plan = _resolve_config(command, args)
    except (_CliError, HDFrontierError) as exc:
        # prepare reads only flags and config files, so any library error it
        # meets (a covariance that cannot be factorized, say) is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    run_dir = _make_run_dir(args.outdir, args.subcommand)
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=config,
        seed=seed,
        jobs=jobs,
        started=_now(),
        environment=_environment(),
    )
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest.write(manifest_path)
    try:
        code = command.handler(plan, run_dir, jobs, manifest.outputs)
    except (_CliError, HDFrontierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DATA
    except Exception:
        # anything else ends the interpreter with a traceback and status 1
        manifest.finish(manifest_path, 1)
        raise
    manifest.finish(manifest_path, code)
    print(f"run directory: {run_dir}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
