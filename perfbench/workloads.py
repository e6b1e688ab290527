"""The benchmark's workloads: their inputs, their rounds and their checks.

A *round* is one complete run of a workload, calling hdfrontier's public
functions in the order the CLI handler does.  An untraced round calls the
main function (``run_monte_carlo`` or ``rolling_estimate``) directly.  A
traced round rebuilds the same work from the layers' public functions and
records a span around each call, from outside the package.

This module imports hdfrontier, so NumPy's BLAS thread count must be pinned
before it is imported (``run.py`` does that).
"""

from __future__ import annotations

import csv
import datetime as dt
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from hdfrontier import (
    ConfidenceIntervals,
    EstimatorKind,
    HDFrontierError,
    MonteCarloResult,
    ReturnPanel,
    ReturnsMatrix,
    RollingConfig,
    ScenarioSpec,
    WindowEstimate,
    build_population,
    confidence_intervals,
    estimate_many,
    frontier_params,
    generate_returns,
    ingest_csv,
    rolling_estimate,
    sample_moments,
    scale_to_horizon,
    winsorize,
    write_rolling_csv,
)
from hdfrontier.simulate import (
    histogram_data,
    loss_rows,
    run_monte_carlo,
    write_histogram_csv,
    write_loss_csv,
)

#: seed-derivation domain of replication data in hdfrontier.simulate's
#: documented reproducibility contract
REPLICATION_DOMAIN = 2

#: domains of the benchmark's own draws, kept apart from the package's
ROLLING_INPUT_DOMAIN = 101
ORACLE_DATA_DOMAIN = 102

#: datasets per run on which all six kinds are compared with dense inverses
ORACLE_DATASETS = 3

ALL_KINDS = checks.KINDS
HIST_PARAMS = ("R", "V", "s")


@dataclass(frozen=True)
class MonteCarloWorkload:
    name: str
    scenario: str
    p: int
    n: int
    kinds: tuple[str, ...]
    reps: int
    segment_reps: int
    histograms: bool = False

    def spec_kwargs(self, seed: int) -> dict:
        return {"scenario": self.scenario, "p": self.p, "n": self.n, "seed": seed}


@dataclass(frozen=True)
class RollingWorkload:
    name: str
    days: int
    bars: int
    assets: int
    blank_rows: int
    p: int
    n: int
    segment_windows: int
    step: int = 1
    frequency_minutes: float = 5.0
    horizon_minutes: float = 390.0
    winsor_quantiles: tuple[float, float] = (0.01, 0.99)
    kinds: tuple[str, ...] = ("sample", "consistent")

    def config_kwargs(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "step": self.step,
            "frequency_minutes": self.frequency_minutes,
            "target_horizon_minutes": self.horizon_minutes,
            "winsor_quantiles": self.winsor_quantiles,
            "kinds": self.kinds,
        }


_BASE_KINDS = ("sample", "consistent", "unbiased")

# A segment is one main call that the run repeats to time the main call: on
# a shared host, the median of many such timings repeats from run to run,
# while one multi-second timing does not.  A Monte Carlo segment is the full
# round's main call (mc-garch, mc-smallp) or its first quarter (mc-highdim:
# 25 reps, about 1 s), so per-call costs are amortised as in the full round.
# A rolling segment is the main call over the next 64 windows (about 0.1 s);
# the segments cover the panel in turn, and the per-call cost, a copy of the
# segment's rows, is below 1% of it.
WORKLOADS = {
    "mc-highdim": MonteCarloWorkload("mc-highdim", "normal", 500, 1000, _BASE_KINDS, 100, 25, True),
    "mc-garch": MonteCarloWorkload("mc-garch", "ccc-garch", 100, 200, ALL_KINDS, 100, 100),
    "mc-smallp": MonteCarloWorkload("mc-smallp", "normal", 10, 50, _BASE_KINDS, 2000, 2000),
    "rolling-intraday": RollingWorkload("rolling-intraday", 60, 78, 60, 5, 50, 390, 64),
}

#: the same workloads at a size that runs in seconds, with the same checks
SMOKE_WORKLOADS = {
    "mc-highdim": MonteCarloWorkload("mc-highdim", "normal", 50, 100, _BASE_KINDS, 100, 25, True),
    "mc-garch": MonteCarloWorkload("mc-garch", "ccc-garch", 20, 40, ALL_KINDS, 20, 20),
    "mc-smallp": MonteCarloWorkload("mc-smallp", "normal", 10, 50, _BASE_KINDS, 1000, 1000),
    "rolling-intraday": RollingWorkload("rolling-intraday", 4, 78, 12, 2, 10, 78, 40),
}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as ``(id, parent, name, start_ns, end_ns)``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def self_times(self, root: int) -> tuple[dict, dict, dict]:
        """Per-name self time (s), call count and total time (s) under a root.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        spans = self.spans[root:]
        end_of_root = spans[0][4]
        child_ns: dict[int, int] = {}
        selected = []
        for sid, parent, name, start, end in spans:
            if start > end_of_root:
                break
            selected.append((sid, name, end - start))
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        for sid, name, duration in selected:
            self_s[name] = self_s.get(name, 0.0) + (duration - child_ns.get(sid, 0)) * 1e-9
            total_s[name] = total_s.get(name, 0.0) + duration * 1e-9
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls, total_s


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """Timings and outputs of one full round or segment."""

    wall_s: float
    main_s: float
    ops: int
    failed_ops: int
    kind_failures: dict
    payload: dict = field(default_factory=dict)


def _kind_names(kinds) -> tuple[str, ...]:
    return tuple(EstimatorKind(k).value for k in kinds)


def _step(tracer: Tracer | None, name: str):
    """A span around one call when traced, nothing otherwise."""
    return tracer.span(name) if tracer else nullcontext()


def _mc_outputs(result, outdir: str, histograms: bool, tracer: Tracer | None) -> None:
    with _step(tracer, "simulate.write_loss_csv"):
        write_loss_csv(os.path.join(outdir, "losses.csv"), loss_rows(result))
    if histograms:
        for param in HIST_PARAMS:
            with _step(tracer, "simulate.histogram_data"):
                hist = histogram_data(result, param, kind=EstimatorKind.CONSISTENT)
            with _step(tracer, "simulate.write_histogram_csv"):
                write_histogram_csv(
                    os.path.join(outdir, f"hist_{param}.csv"),
                    os.path.join(outdir, f"density_{param}.csv"),
                    hist,
                )


def _mc_round_result(w: MonteCarloWorkload, result, wall_s, main_s, payload) -> Round:
    failed_rows = np.zeros(w.reps, dtype=bool)
    for kind in result.kinds:
        failed_rows |= ~np.all(np.isfinite(result.estimates[kind]), axis=1)
    return Round(
        wall_s=wall_s,
        main_s=main_s,
        ops=w.reps,
        failed_ops=int(failed_rows.sum()),
        kind_failures={k.value: int(v) for k, v in result.failures.items()},
        payload=payload,
    )


def _mc_main(spec: ScenarioSpec, reps: int, kinds, tracer: Tracer | None) -> MonteCarloResult:
    if tracer is None:
        return run_monte_carlo(spec, reps, kinds, jobs=1)
    return mc_main_traced(spec, reps, kinds, tracer)


def mc_round(w: MonteCarloWorkload, seed: int, outdir: str, tracer: Tracer | None = None) -> Round:
    """One full Monte Carlo round in CLI order.

    With a tracer each call outside the main call gets a span, and
    ``run_monte_carlo`` is replaced by its traced rebuild.
    """
    t0 = time.perf_counter()
    spec = ScenarioSpec(**w.spec_kwargs(seed))
    with _step(tracer, "simulate.build_population"):
        mu, sigma = build_population(spec)
    with _step(tracer, "frontier.frontier_params"):
        truth = frontier_params(mu, sigma)
    t1 = time.perf_counter()
    result = _mc_main(spec, w.reps, w.kinds, tracer)
    t2 = time.perf_counter()
    _mc_outputs(result, outdir, w.histograms, tracer)
    t3 = time.perf_counter()
    payload = {"mu": mu, "sigma": sigma, "truth": truth, "result": result}
    return _mc_round_result(w, result, t3 - t0, t2 - t1, payload)


def mc_main_traced(spec: ScenarioSpec, reps: int, kinds, tracer: Tracer) -> MonteCarloResult:
    """``run_monte_carlo`` with ``jobs=1``, rebuilt with a span around each call.

    It derives the population and its frontier, then for each replication
    rebuilds the population, draws the data from the replication's own
    stream, forms the sample moments and estimates every kind, falling back
    to one kind at a time when the joint call fails.
    """
    span = tracer.span
    kinds = tuple(EstimatorKind(k) for k in kinds)
    with span("simulate.run_monte_carlo"):
        with span("simulate.build_population"):
            mu, sigma = build_population(spec)
        with span("frontier.frontier_params"):
            truth = frontier_params(mu, sigma)
        estimates = {kind: np.full((reps, 3), np.nan) for kind in kinds}
        failures = {kind: 0 for kind in kinds}

        # one function call per replication, as in the engine: its arrays are
        # freed when it returns, and at p=500 holding them until the next
        # replication instead makes the loop about 15% faster
        def replicate(index):
            with span("simulate.build_population"):
                rep_mu, rep_sigma = build_population(spec)
            rng = np.random.default_rng(
                np.random.SeedSequence(spec.seed, spawn_key=(REPLICATION_DOMAIN, index))
            )
            with span("simulate.generate_returns"):
                data = generate_returns(spec, rep_mu, rep_sigma, rng)
            with span("estimators.sample_moments"):
                moments = sample_moments(data)
            with span("estimators.estimate_many"):
                try:
                    return estimate_many(moments, kinds)
                except HDFrontierError:
                    reports = {}
                    for kind in kinds:
                        try:
                            reports[kind] = estimate_many(moments, [kind])[kind]
                        except HDFrontierError:
                            pass
                    return reports

        for index in range(reps):
            reports = replicate(index)
            for kind in kinds:
                report = reports.get(kind)
                if report is None:
                    failures[kind] += 1
                else:
                    params = report.params
                    estimates[kind][index] = (params.r_gmv, params.v_gmv, params.slope)
        return MonteCarloResult(
            spec=spec, truth=truth, kinds=kinds, estimates=estimates,
            failures=failures, reps=reps,
        )


def _rolling_main(panel, config: RollingConfig, tracer: Tracer | None) -> list:
    if tracer is None:
        return rolling_estimate(panel, config)
    return rolling_main_traced(panel, config, tracer)


def rolling_round(
    w: RollingWorkload, csv_path: str, outdir: str, tracer: Tracer | None = None
) -> Round:
    """One full rolling round in CLI order.

    With a tracer each call outside the main call gets a span, and
    ``rolling_estimate`` is replaced by its traced rebuild.
    """
    t0 = time.perf_counter()
    with _step(tracer, "pipeline.ingest_csv"):
        panel = ingest_csv(csv_path)
    config = RollingConfig(**w.config_kwargs())
    t1 = time.perf_counter()
    windows = _rolling_main(panel, config, tracer)
    t2 = time.perf_counter()
    with _step(tracer, "pipeline.write_rolling_csv"):
        write_rolling_csv(os.path.join(outdir, "rolling.csv"), windows, config.frequency_minutes)
    t3 = time.perf_counter()
    return _rolling_round_result(w, panel, windows, t3 - t0, t2 - t1)


def _rolling_round_result(w, panel, windows, wall_s, main_s) -> Round:
    expected = len(range(0, panel.n_rows - w.n + 1, w.step))
    per_kind = {kind: 0 for kind in _kind_names(w.kinds)}
    for window in windows:
        per_kind[window.kind.value] += 1
    kind_failures = {kind: expected - count for kind, count in per_kind.items()}
    return Round(
        wall_s=wall_s,
        main_s=main_s,
        ops=expected,
        # windows are unlabelled in the output, so a window that fails for
        # one kind only is counted through the kind that lost the most
        failed_ops=max(kind_failures.values()),
        kind_failures=kind_failures,
        payload={"panel": panel, "windows": windows},
    )


def rolling_main_traced(panel, config: RollingConfig, tracer: Tracer) -> list:
    """``rolling_estimate``, rebuilt with a span around each call.

    It follows ``pipeline.rolling_estimate`` for a panel that is already at
    the configured frequency and uses the first ``p`` assets: per window it
    builds the window's ``ReturnPanel``, winsorizes it, forms the sample
    moments, estimates every kind, attaches horizon-scaled confidence
    intervals to the consistent kind and scales each report to the target
    horizon.
    """
    if panel.frequency_minutes != config.frequency_minutes:
        raise ValueError("the traced rebuild needs a panel at the configured frequency")
    span = tracer.span
    windows = []
    with span("pipeline.rolling_estimate"):
        kinds = config.kinds
        factor = config.target_horizon_minutes / config.frequency_minutes
        # a fancy-indexed copy, as in rolling_estimate: a strided view would
        # change the memory layout and so the last bits of the moments
        selected = panel.values[:, list(range(config.p))]
        labels = panel.asset_labels[: config.p]
        for start in range(0, panel.n_rows - config.n + 1, config.step):
            stop = start + config.n
            with span("pipeline.window_panel"):
                window = ReturnPanel(
                    timestamps=panel.timestamps[start:stop],
                    values=selected[start:stop],
                    asset_labels=labels,
                    frequency_minutes=panel.frequency_minutes,
                )
            with span("pipeline.winsorize"):
                window = winsorize(window, config.winsor_quantiles)
            date = panel.timestamps[stop - 1].date()
            try:
                with span("estimators.sample_moments"):
                    moments = sample_moments(ReturnsMatrix(window.values.T, asset_labels=labels))
                with span("estimators.estimate_many"):
                    reports = estimate_many(moments, kinds)
            except HDFrontierError:
                continue
            for kind in kinds:
                native = reports[kind]
                cis = None
                if kind is EstimatorKind.CONSISTENT:
                    with span("inference.confidence_intervals"):
                        raw = confidence_intervals(native, level=config.level)
                    cis = ConfidenceIntervals(
                        level=raw.level,
                        ci_r=(raw.ci_r[0] * factor, raw.ci_r[1] * factor),
                        ci_v=(raw.ci_v[0] * factor, raw.ci_v[1] * factor),
                        ci_s=raw.ci_s,
                    )
                with span("pipeline.scale_to_horizon"):
                    scaled = scale_to_horizon(
                        native, config.frequency_minutes, config.target_horizon_minutes
                    )
                windows.append(WindowEstimate(date=date, kind=kind, report=scaled, cis=cis))
    return windows


def mc_segments(w: MonteCarloWorkload, seed: int, tracer: Tracer | None = None) -> list:
    """One segment: the main call on the first ``segment_reps`` replications.

    With a tracer the segment runs the traced rebuild instead.
    """
    spec = ScenarioSpec(**w.spec_kwargs(seed))
    segment = replace(w, reps=w.segment_reps)

    def run() -> Round:
        t0 = time.perf_counter()
        result = _mc_main(spec, segment.reps, segment.kinds, tracer)
        elapsed = time.perf_counter() - t0
        return _mc_round_result(segment, result, elapsed, elapsed, {"result": result})

    return [run]


def rolling_segments(w: RollingWorkload, panel, tracer: Tracer | None = None) -> list:
    """Segments that cover the panel's windows in runs of ``segment_windows``.

    Segment ``j`` is the main call over the rows of windows
    ``j * segment_windows`` onwards, so the segments' records, in order, are
    the records of one call over the whole panel.  With a tracer the
    segments run the traced rebuild instead.
    """
    config = RollingConfig(**w.config_kwargs())
    windows = len(range(0, panel.n_rows - w.n + 1, w.step))
    runs = []
    for first in range(0, windows, w.segment_windows):
        rows = slice(first * w.step, (min(first + w.segment_windows, windows) - 1) * w.step + w.n)
        sub = ReturnPanel(
            timestamps=panel.timestamps[rows],
            values=panel.values[rows],
            asset_labels=panel.asset_labels,
            frequency_minutes=panel.frequency_minutes,
            dropped_rows=panel.dropped_rows,
        )

        def run(sub=sub) -> Round:
            t0 = time.perf_counter()
            records = _rolling_main(sub, config, tracer)
            elapsed = time.perf_counter() - t0
            return _rolling_round_result(w, sub, records, elapsed, elapsed)

        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RollingInput:
    path: str
    values: np.ndarray  # the rows that survive ingestion, (T - blanks, assets)
    timestamps: tuple
    blank_rows: tuple


def make_rolling_input(w: RollingWorkload, seed: int, outdir: str) -> RollingInput:
    """Write a one-factor intraday log-return panel with a few blank cells.

    ``days`` weekdays of ``bars`` five-minute bars (09:35 to 16:00 for 78
    bars).  Returns are a market factor with t(5) shocks times a per-asset
    beta, plus t(4) idiosyncratic noise and a small drift, rounded to 8
    decimals.  ``blank_rows`` rows, chosen by the seed, have one cell left
    empty, so ingestion drops them.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ROLLING_INPUT_DOMAIN,)))
    stamps = []
    day = dt.date(2024, 1, 2)
    while len(stamps) < w.days * w.bars:
        if day.weekday() < 5:
            open_ = dt.datetime.combine(day, dt.time(9, 30))
            stamps.extend(open_ + dt.timedelta(minutes=5 * (i + 1)) for i in range(w.bars))
        day += dt.timedelta(days=1)
    rows = len(stamps)
    beta = rng.uniform(0.5, 1.5, size=w.assets)
    idio = rng.uniform(0.5, 2.0, size=w.assets) * 1e-3
    drift = rng.normal(0.0, 2e-5, size=w.assets)
    market = rng.standard_t(5, size=rows) * 8e-4
    noise = rng.standard_t(4, size=(rows, w.assets)) * idio
    values = np.round(drift + np.outer(market, beta) + noise, 8)
    chosen = rng.choice(np.arange(2, rows), w.blank_rows, replace=False)
    blanks = tuple(sorted(int(i) for i in chosen))
    blank_cols = rng.integers(0, w.assets, size=w.blank_rows)
    blank_at = dict(zip(blanks, (int(c) for c in blank_cols)))
    path = os.path.join(outdir, "panel.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp"] + [f"A{j:03d}" for j in range(w.assets)])
        for i, (stamp, row) in enumerate(zip(stamps, values.tolist())):
            cells = [repr(x) for x in row]
            if i in blank_at:
                cells[blank_at[i]] = ""
            writer.writerow([stamp.isoformat(sep=" ")] + cells)
    keep = np.ones(rows, dtype=bool)
    keep[list(blanks)] = False
    kept_stamps = tuple(s for s, k in zip(stamps, keep) if k)
    return RollingInput(path=path, values=values[keep], timestamps=kept_stamps, blank_rows=blanks)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_mc(w: MonteCarloWorkload, rnd: Round, seed: int, outdir: str) -> list[str]:
    failures = []
    mu, sigma, truth, result = (rnd.payload[k] for k in ("mu", "sigma", "truth", "result"))
    if np.any(sigma - np.diag(np.diag(sigma))):
        failures.append("population covariance is not diagonal")
    want = checks.population_params(mu, np.diag(sigma))
    got = (truth.r_gmv, truth.v_gmv, truth.slope)
    failures += checks.check_close("population frontier", got, want, rtol=1e-12)
    estimates = {k.value: result.estimates[k] for k in result.kinds}
    for kind, values in estimates.items():
        if not np.all(np.isfinite(values)):
            failures.append(f"{kind}: non-finite estimates")
    if rnd.failed_ops:
        failures.append(f"{rnd.failed_ops} replications failed")
    if w.scenario == "normal":
        failures += checks.check_mc_means(estimates, want, w.p, w.n)
    failures += checks.check_mc_identities(estimates, w.p, w.n)
    failures += _check_loss_csv(result, want, os.path.join(outdir, "losses.csv"))
    if w.histograms:
        failures += _check_histograms(result, outdir)
    failures += check_dense_oracles(w.p, w.n, seed)
    return failures


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_loss_csv(result, truth, path: str) -> list[str]:
    rows = _read_csv(path)
    failures = []
    if len(rows) != 3 * len(result.kinds):
        return [f"losses.csv has {len(rows)} rows, want {3 * len(result.kinds)}"]
    target = np.array(truth)
    for row in rows:
        column = ("R", "V", "s").index(row["param"])
        values = result.estimates[EstimatorKind(row["estimator"])][:, column]
        want = float(np.mean((values - target[column]) ** 2))
        if not checks.close(float(row["mean_loss"]), want, rtol=1e-9):
            failures.append(
                f"losses.csv {row['estimator']} {row['param']}: mean_loss "
                f"{row['mean_loss']} vs {want!r}"
            )
    return failures


def _check_histograms(result, outdir: str) -> list[str]:
    failures = []
    reps = result.reps
    for param in HIST_PARAMS:
        hist = _read_csv(os.path.join(outdir, f"hist_{param}.csv"))
        total = sum(int(row["count"]) for row in hist)
        if total != reps:
            failures.append(f"hist_{param}.csv counts sum to {total}, want {reps}")
        lefts = [float(row["bin_left"]) for row in hist]
        rights = [float(row["bin_right"]) for row in hist]
        if any(b <= a for a, b in zip(lefts, rights)) or lefts[1:] != rights[:-1]:
            failures.append(f"hist_{param}.csv bins are not contiguous and increasing")
        density = _read_csv(os.path.join(outdir, f"density_{param}.csv"))
        ys = np.array([float(row["density"]) for row in density])
        if len(density) != 512 or not np.all(ys >= 0.0):
            failures.append(f"density_{param}.csv: {len(density)} rows or negative density")
    return failures


def check_dense_oracles(p: int, n: int, seed: int) -> list[str]:
    """All six kinds on the benchmark's own Gaussian datasets vs dense inverses."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ORACLE_DATA_DOMAIN,)))
    failures = []
    for index in range(ORACLE_DATASETS):
        scales = rng.uniform(0.5, 2.0, size=p)
        mean = rng.uniform(-0.2, 0.2, size=p)
        data = mean[:, None] + scales[:, None] * rng.standard_normal((p, n))
        reports = estimate_many(sample_moments(data), ALL_KINDS)
        dense = checks.dense_estimates(data)
        for kind in ALL_KINDS:
            params = reports[EstimatorKind(kind)].params
            failures += checks.check_close(
                f"dataset {index} {kind}",
                (params.r_gmv, params.v_gmv, params.slope),
                dense[kind],
                rtol=1e-8,
            )
    return failures


def check_segments(w, full: Round, segments: dict) -> list[str]:
    """Each segment's results equal the full round's results for the same ops."""
    if isinstance(w, MonteCarloWorkload):
        whole = full.payload["result"]
        return [
            f"segment {kind.value} estimates differ from the full round's first {w.segment_reps}"
            for seg in segments.values()
            for kind in whole.kinds
            if not np.array_equal(
                seg.payload["result"].estimates[kind], whole.estimates[kind][: w.segment_reps]
            )
        ]

    def records(windows):
        return [(x.date, x.kind, x.report.params, x.cis) for x in windows]

    whole = records(full.payload["windows"])
    failures = []
    for index, seg in segments.items():
        got = records(seg.payload["windows"])
        start = index * w.segment_windows * len(w.kinds)
        if got != whole[start : start + len(got)]:
            failures.append(f"segment {index} records differ from the full round's")
    return failures


def check_rolling(w: RollingWorkload, rnd: Round, data: RollingInput, outdir: str) -> list[str]:
    failures = []
    panel = rnd.payload["panel"]
    if panel.values.shape != data.values.shape or not np.array_equal(panel.values, data.values):
        failures.append("ingested values differ from the generated panel")
    if panel.timestamps != data.timestamps:
        failures.append("ingested timestamps differ from the generated panel")
    if panel.dropped_rows != len(data.blank_rows):
        failures.append(f"dropped_rows {panel.dropped_rows}, want {len(data.blank_rows)}")
    windows = len(range(0, data.values.shape[0] - w.n + 1, w.step))
    kinds = _kind_names(w.kinds)
    rows = _read_csv(os.path.join(outdir, "rolling.csv"))
    if len(rows) != windows * len(kinds) or rnd.failed_ops:
        failures.append(f"rolling.csv has {len(rows)} records, want {windows * len(kinds)}")
        return failures
    if [row["estimator"] for row in rows] != list(kinds) * windows:
        failures.append("rolling.csv records are not one per window and kind, in order")
        return failures
    factor = w.horizon_minutes / w.frequency_minutes
    for index in sorted({0, windows // 2, windows - 1}):
        start = index * w.step
        window = data.values[start : start + w.n, : w.p]
        want = checks.rolling_window_oracle(window, w.winsor_quantiles, factor)
        date = data.timestamps[start + w.n - 1].date().isoformat()
        for offset, kind in enumerate(kinds):
            row = rows[index * len(kinds) + offset]
            if row["date"] != date:
                failures.append(f"window {index} {kind}: date {row['date']}, want {date}")
            got = (float(row["r_gmv"]), float(row["v_gmv"]), float(row["slope"]))
            failures += checks.check_close(f"window {index} {kind}", got, want[kind], rtol=1e-9)
    for number, row in enumerate(rows):
        if row["estimator"] != "consistent":
            continue
        for name, lo, hi in (("r_gmv", "ci_r_lo", "ci_r_hi"), ("v_gmv", "ci_v_lo", "ci_v_hi"),
                             ("slope", "ci_s_lo", "ci_s_hi")):
            if not float(row[lo]) <= float(row[name]) <= float(row[hi]):
                failures.append(f"rolling.csv record {number}: {name} outside [{lo}, {hi}]")
    return failures
