"""Scenario generators, Monte Carlo harness, and simulation outputs."""

import concurrent.futures
import csv
import dataclasses
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from hdfrontier import (
    DimensionMismatch,
    EstimatorKind,
    InvalidParams,
    InvalidRange,
    MonteCarloResult,
    Scenario,
    ScenarioSpec,
    TooFewReps,
    build_population,
    frontier_comparison,
    frontier_params,
    generate_returns,
    histogram_data,
    run_monte_carlo,
    sample_moments,
)
from hdfrontier import simulate
from hdfrontier.estimators import _estimate_each
from hdfrontier.simulate import (
    _chunk_size,
    loss_rows,
    write_frontier_csv,
    write_histogram_csv,
    write_loss_csv,
)

ALL_KINDS = tuple(EstimatorKind)


class TestSpectrumSpec:
    """The paper's population spectrum: 20% of the eigenvalues at 0.5, 40% at 1 and 40% at 5."""

    @staticmethod
    def multiplicities(p):
        eigs = simulate._eigenvalues(p)
        return tuple(int(np.count_nonzero(eigs == value)) for value in (0.5, 1.0, 5.0))

    def test_default_multiplicities(self):
        assert self.multiplicities(7) == (1, 3, 3)
        assert self.multiplicities(10) == (2, 4, 4)
        assert self.multiplicities(5) == (1, 2, 2)

    @pytest.mark.parametrize("p", list(range(2, 41)))
    def test_multiplicities_sum_to_p(self, p):
        assert sum(self.multiplicities(p)) == simulate._eigenvalues(p).size == p

    def test_eigenvalues_grouped(self):
        eigs = simulate._eigenvalues(10)
        assert eigs.dtype == np.float64
        assert eigs.tolist() == [0.5] * 2 + [1.0] * 4 + [5.0] * 4

    def test_infeasible_rounding(self):
        # the first two groups, rounded half up, never leave the last a
        # negative count (np.repeat would raise): a ScenarioSpec's p is at least 2
        for p in range(2, 10_001):
            assert simulate._eigenvalues(p).size == p
        assert self.multiplicities(10_000) == (2000, 4000, 4000)

    def test_zero_multiplicity_is_allowed(self):
        # at p=2 the 0.5 group rounds to zero; the eigenvalue vector still has length p
        assert self.multiplicities(2) == (0, 1, 1)
        assert simulate._eigenvalues(2).tolist() == [1.0, 5.0]


class TestScenarioSpec:
    def test_scenario_coercion_and_ratio(self):
        spec = ScenarioSpec(scenario="t3", p=10, n=40)
        assert spec.scenario is Scenario.STUDENT_T3
        assert spec.ratio == 0.25

    def test_validation(self):
        with pytest.raises(InvalidParams):
            ScenarioSpec(scenario="normal", p=1, n=10)
        with pytest.raises(InvalidParams):
            ScenarioSpec(scenario="normal", p=5, n=1)
        with pytest.raises(InvalidParams, match="seed must be non-negative"):
            ScenarioSpec(scenario="normal", p=5, n=20, seed=-1)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario="bogus", p=5, n=20)
        fields = {"p": 5, "n": 20, "seed": 1}
        for name in fields:
            for value in (2.5, 20.0, "20", None):
                with pytest.raises(InvalidParams, match=f"{name} must be an integer"):
                    ScenarioSpec(scenario="normal", **{**fields, name: value})
        numpy_fields = {name: np.int64(value) for name, value in fields.items()}
        assert ScenarioSpec(scenario="normal", **numpy_fields).seed == 1

    def test_the_rest_of_the_design_is_fixed(self):
        names = [field.name for field in dataclasses.fields(ScenarioSpec)]
        assert names == ["scenario", "p", "n", "seed"]
        with pytest.raises(TypeError):
            ScenarioSpec(scenario="ccc-garch", p=5, n=20, burn_in=0)


class TestPopulation:
    def test_structure(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=40, seed=2)
        mu, sigma = build_population(spec)
        assert mu.shape == (10,)
        assert np.all(np.abs(mu) <= 0.2)
        assert np.allclose(sigma, np.diag(sigma.diagonal()))
        assert sigma.diagonal().tolist() == [0.5] * 2 + [1.0] * 4 + [5.0] * 4

    def test_seed_determinism(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=40, seed=2)
        mu1, _ = build_population(spec)
        mu2, _ = build_population(spec)
        assert np.array_equal(mu1, mu2)
        mu3, _ = build_population(ScenarioSpec(scenario="normal", p=10, n=40, seed=3))
        assert not np.array_equal(mu1, mu3)

    def test_mean_range_respected(self):
        # Uniform(-0.2, 0.2), from the population stream (spawn key (0,))
        spec = ScenarioSpec(scenario="normal", p=50, n=100, seed=4)
        mu, _ = build_population(spec)
        assert np.array_equal(mu, _stream(4, 0).uniform(-0.2, 0.2, size=50))


class TestGenerators:
    def test_normal_shape_and_determinism(self):
        spec = ScenarioSpec(scenario="normal", p=8, n=30, seed=5)
        mu, sigma = build_population(spec)
        a = generate_returns(spec, mu, sigma)
        b = generate_returns(spec, mu, sigma)
        assert (a.p, a.n) == (8, 30)
        assert np.array_equal(a.values, b.values)

    def test_normal_matches_population_moments(self):
        spec = ScenarioSpec(scenario="normal", p=4, n=200_000, seed=1)
        mu, sigma = build_population(spec)
        y = generate_returns(spec, mu, sigma).values
        assert np.allclose(y.mean(axis=1), mu, atol=0.02)
        assert np.allclose(y.var(axis=1), sigma.diagonal(), rtol=0.03)

    def test_t3_variance_scaled_to_population(self):
        spec = ScenarioSpec(scenario="t3", p=3, n=400_000, seed=4)
        mu, sigma = build_population(spec)
        y = generate_returns(spec, mu, sigma).values
        assert np.allclose(y.mean(axis=1), mu, atol=0.02)
        # heavy tails make the variance estimate slow; keep the gate loose
        assert np.allclose(y.var(axis=1), sigma.diagonal(), rtol=0.15)
        # sample quantiles converge fast: q95 of a scaled t3 is known exactly
        centered = y - mu[:, None]
        expected = scipy.stats.t.ppf(0.95, 3) * math.sqrt(1 / 3) * np.sqrt(sigma.diagonal())
        assert np.allclose(np.quantile(centered, 0.95, axis=1), expected, rtol=0.03)

    def test_t3_tails_heavier_than_normal(self):
        spec = ScenarioSpec(scenario="t3", p=3, n=400_000, seed=4)
        mu, sigma = build_population(spec)
        t3 = generate_returns(spec, mu, sigma).values - mu[:, None]
        sd = np.sqrt(sigma.diagonal())[:, None]
        exceed = np.mean(np.abs(t3 / sd) > 3.0)
        assert exceed > 2 * (2 * scipy.stats.norm.sf(3.0))

    def test_dispatch_matches_direct_calls(self):
        """generate_returns runs the spec's scenario sampler on replication stream 0."""
        for scenario in Scenario:
            spec = ScenarioSpec(scenario=scenario, p=5, n=20, seed=6)
            mu, sigma = build_population(spec)
            direct = np.empty((1, 5, 20))
            simulate._sampler(spec, mu, sigma)(direct, [_stream(6, 2, 0)])
            assert np.array_equal(generate_returns(spec, mu, sigma).values, direct[0])
            other = generate_returns(spec, mu, sigma, _stream(6, 2, 1)).values
            assert not np.array_equal(other, direct[0])


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _garch_reference(spec, mu, sigma, rng):
    """The CCC-GARCH(1,1) recursion written out step by step: the paper's
    coefficient laws on the coefficient stream (spawn key ``(1,)``), its
    500-step burn-in, shocks from ``rng``."""
    coefficients = _stream(spec.seed, 1)
    alpha1 = coefficients.uniform(0.0, 0.1, size=spec.p)
    beta1 = coefficients.uniform(0.8, 0.89, size=spec.p)
    burn_in = 500
    variances = np.diag(sigma)
    alpha0 = variances * (1.0 - alpha1 - beta1)
    scale = np.sqrt(variances)
    chol = np.linalg.cholesky(sigma / np.outer(scale, scale))
    h = variances
    expected = np.empty((spec.p, spec.n))
    for t in range(burn_in + spec.n):
        shock = rng.standard_normal(spec.p)  # one draw of p per step
        eps = chol @ shock  # the identity's factor, whose diagonal is 1 only to an ulp
        centered = np.sqrt(h) * eps
        if t >= burn_in:
            expected[:, t - burn_in] = centered + mu
        h = alpha0 + alpha1 * centered**2 + beta1 * h
    return expected


class TestGeneratorOracle:
    """The public generators, bit for bit, against draws written out by hand.

    Each expected panel comes from the replication-0 stream of the spec's seed
    (spawn key ``(2, 0)``) and, for CCC-GARCH, the coefficient stream
    (spawn key ``(1,)``), without calling into the package's samplers.
    """

    P, N = 6, 25

    def population(self, scenario):
        spec = ScenarioSpec(scenario=scenario, p=self.P, n=self.N, seed=17)
        return spec, *build_population(spec)

    @staticmethod
    def scale_shift(z, mu, sigma):
        return np.sqrt(np.diag(sigma))[:, None] * z + mu[:, None]

    def test_normal(self):
        spec, mu, sigma = self.population("normal")
        z = _stream(spec.seed, 2, 0).standard_normal((self.P, self.N))
        expected = self.scale_shift(z, mu, sigma)
        assert np.array_equal(generate_returns(spec, mu, sigma).values, expected)

    def test_t3(self):
        spec, mu, sigma = self.population("t3")
        z = _stream(spec.seed, 2, 0).standard_t(3, size=(self.P, self.N)) * math.sqrt(1 / 3)
        expected = self.scale_shift(z, mu, sigma)
        assert np.array_equal(generate_returns(spec, mu, sigma).values, expected)

    def test_ccc_garch(self):
        spec, mu, sigma = self.population("ccc-garch")
        expected = _garch_reference(spec, mu, sigma, _stream(spec.seed, 2, 0))
        assert np.array_equal(generate_returns(spec, mu, sigma).values, expected)

    @pytest.mark.parametrize(
        "n",
        [
            # the 500-step burn-in fills whole draw blocks, so the kept steps start one
            simulate._GARCH_BLOCK // 2 - 3,  # every kept step in one partial block
            simulate._GARCH_BLOCK + 23,  # a whole block, then a partial one
        ],
    )
    def test_batched_ccc_garch_fill(self, n):
        # a (B, p, n) fill advances B replications together; each slot must
        # be the panel its generator gives alone, and the written-out one
        spec = ScenarioSpec(scenario="ccc-garch", p=self.P, n=n, seed=17)
        mu, sigma = build_population(spec)
        fill = simulate._sampler(spec, mu, sigma)
        slots = 3
        batch = np.empty((slots, self.P, n))
        fill(batch, (_stream(spec.seed, 2, k) for k in range(slots)))
        for k in range(slots):
            alone = np.empty((1, self.P, n))
            fill(alone, [_stream(spec.seed, 2, k)])
            assert np.array_equal(batch[k], alone[0])
            assert np.array_equal(batch[k], _garch_reference(spec, mu, sigma, _stream(spec.seed, 2, k)))


class TestPopulationCheck:
    """``generate_returns`` takes the simulation design's population: a finite
    ``mu`` of shape ``(p,)`` and a finite diagonal ``(p, p)`` ``sigma`` with a
    positive diagonal, whatever the scenario."""

    @staticmethod
    def population(scenario):
        spec = ScenarioSpec(scenario=scenario, p=4, n=10, seed=0)
        return spec, *build_population(spec)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_wrong_size(self, scenario):
        spec, mu, sigma = self.population(scenario)
        for bad_mu, bad_sigma in ((mu[:3], sigma), (mu, sigma[:3, :3]), (mu, sigma[0])):
            with pytest.raises(DimensionMismatch, match=r"need mu of shape \(4,\)"):
                generate_returns(spec, bad_mu, bad_sigma)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_dense_sigma(self, scenario):
        spec, mu, sigma = self.population(scenario)
        for i, j in ((0, 1), (3, 2)):
            dense = sigma.copy()
            dense[i, j] = 0.1
            with pytest.raises(InvalidParams, match="sigma must be diagonal"):
                generate_returns(spec, mu, dense)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_not_finite(self, scenario):
        spec, mu, sigma = self.population(scenario)
        with pytest.raises(InvalidParams, match="must be finite"):
            generate_returns(spec, np.array([0.0, np.inf, 0.0, 0.0]), sigma)
        with pytest.raises(InvalidParams, match="must be finite"):
            generate_returns(spec, mu, np.diag([1.0, np.inf, 1.0, 1.0]))


class TestGarch:
    def test_state_validation(self):
        # the recursion starts at sigma's diagonal, which must be positive;
        # every scenario's sampler checks it
        for scenario in Scenario:
            spec = ScenarioSpec(scenario=scenario, p=2, n=20, seed=0)
            for diagonal in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan]):
                with pytest.raises(InvalidParams, match="sigma must have positive diagonal"):
                    generate_returns(spec, np.zeros(2), np.diag(diagonal))

    def test_unconditional_moments(self):
        spec = ScenarioSpec(scenario="ccc-garch", p=3, n=60_000, seed=9)
        mu, sigma = build_population(spec)
        y = generate_returns(spec, mu, sigma).values
        assert np.allclose(y.mean(axis=1), mu, atol=0.05)
        assert np.allclose(y.var(axis=1), sigma.diagonal(), rtol=0.10)

    def test_volatility_clustering(self):
        # the lag-1 autocorrelation of squared GARCH(1,1) returns is
        # a (1 - a b - b^2) / (1 - 2 a b - b^2) when 3 a^2 + 2 a b + b^2 < 1
        # (Bollerslev 1988), here for the coefficients the paper's laws draw
        spec = ScenarioSpec(scenario="ccc-garch", p=8, n=40_000, seed=10)
        coefficients = _stream(spec.seed, 1)
        a = coefficients.uniform(0.0, 0.1, size=spec.p)
        b = coefficients.uniform(0.8, 0.89, size=spec.p)
        assert np.all(3 * a**2 + 2 * a * b + b**2 < 1.0)
        implied = a * (1 - a * b - b**2) / (1 - 2 * a * b - b**2)
        mu, sigma = build_population(spec)
        sq = (generate_returns(spec, mu, sigma).values - mu[:, None]) ** 2
        lag1 = np.array([np.corrcoef(row[:-1], row[1:])[0, 1] for row in sq])
        assert np.all(np.abs(lag1 - implied) < 0.03)
        assert abs(lag1.mean() - implied.mean()) < 0.01

    def test_reproducible(self):
        spec = ScenarioSpec(scenario="ccc-garch", p=4, n=50, seed=11)
        mu, sigma = build_population(spec)
        assert np.array_equal(
            generate_returns(spec, mu, sigma).values,
            generate_returns(spec, mu, sigma).values,
        )


class TestMonteCarlo:
    def test_shapes_and_truth(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=30, seed=1)
        result = run_monte_carlo(spec, reps=12, kinds=["sample", "consistent"])
        assert isinstance(result, MonteCarloResult)
        assert result.reps == 12
        mu, sigma = build_population(spec)
        assert result.truth == frontier_params(mu, sigma)
        est = result.estimates[EstimatorKind.SAMPLE]
        assert est.shape == (12, 3)
        assert np.all(np.isfinite(est))
        assert result.failures[EstimatorKind.SAMPLE] == 0

    def test_replications_are_distinct_but_reproducible(self):
        spec = ScenarioSpec(scenario="normal", p=6, n=20, seed=2)
        a = run_monte_carlo(spec, reps=5, kinds=["sample"])
        b = run_monte_carlo(spec, reps=5, kinds=["sample"])
        est = a.estimates[EstimatorKind.SAMPLE]
        assert np.array_equal(est, b.estimates[EstimatorKind.SAMPLE])
        assert len({tuple(row) for row in est}) == 5

    def test_jobs_do_not_change_results(self):
        spec = ScenarioSpec(scenario="normal", p=8, n=24, seed=3)
        serial = run_monte_carlo(spec, reps=4, kinds=["consistent"])
        parallel = run_monte_carlo(spec, reps=4, kinds=["consistent"], jobs=2)
        assert np.array_equal(
            serial.estimates[EstimatorKind.CONSISTENT],
            parallel.estimates[EstimatorKind.CONSISTENT],
        )

    def test_failures_recorded_not_raised(self):
        # n = p + 1: the sample estimator works, the unbiased one cannot
        spec = ScenarioSpec(scenario="normal", p=10, n=11, seed=4)
        result = run_monte_carlo(spec, reps=6, kinds=["sample", "unbiased"])
        assert result.failures[EstimatorKind.SAMPLE] == 0
        assert result.failures[EstimatorKind.UNBIASED] == 6
        assert np.all(np.isnan(result.estimates[EstimatorKind.UNBIASED]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all-failed kind is NaN, not a warning
            assert np.all(np.isnan(result.mean_loss(EstimatorKind.UNBIASED)))
            quants = result.loss_quantiles(EstimatorKind.UNBIASED)
        assert quants.shape == (2, 3) and np.all(np.isnan(quants))

    def test_loss_accounting(self):
        spec = ScenarioSpec(scenario="normal", p=5, n=25, seed=5)
        result = run_monte_carlo(spec, reps=8, kinds=["sample"])
        losses = result.losses(EstimatorKind.SAMPLE)
        est = result.estimates[EstimatorKind.SAMPLE]
        manual = (est[:, 1] - result.truth.v_gmv) ** 2
        assert np.allclose(losses[:, 1], manual)
        assert np.allclose(result.mean_loss("sample"), losses.mean(axis=0))
        quants = result.loss_quantiles("sample")
        assert np.array_equal(quants, np.quantile(losses, (0.05, 0.95), axis=0))

    def test_consistent_beats_sample_on_variance(self):
        spec = ScenarioSpec(scenario="normal", p=40, n=80, seed=6)
        result = run_monte_carlo(spec, reps=60, kinds=["sample", "consistent"])
        v_losses = {k: result.mean_loss(k)[1] for k in result.kinds}
        assert v_losses[EstimatorKind.CONSISTENT] < v_losses[EstimatorKind.SAMPLE]

    def test_validation(self):
        spec = ScenarioSpec(scenario="normal", p=5, n=25)
        with pytest.raises(InvalidParams):
            run_monte_carlo(spec, reps=0, kinds=["sample"])
        # more replications than a (reps, 3) array of estimates can address
        with pytest.raises(InvalidParams, match="need reps <= "):
            run_monte_carlo(spec, reps=10**23, kinds=["sample"])
        with pytest.raises(InvalidParams):
            run_monte_carlo(spec, reps=3, kinds=[])
        for jobs in (0, -2, 1.5, "2", None):
            with pytest.raises(InvalidParams, match="jobs"):
                run_monte_carlo(spec, reps=3, kinds=["sample"], jobs=jobs)


def _reference_run(spec, reps, kinds):
    """The engine's per-replication definition, one replication at a time:
    build_population, generate_returns, sample_moments and _estimate_each."""
    estimates = {kind: np.full((reps, 3), np.nan) for kind in kinds}
    reasons = {kind: {} for kind in kinds}
    for index in range(reps):
        mu, sigma = build_population(spec)
        moments = sample_moments(generate_returns(spec, mu, sigma, _stream(spec.seed, 2, index)))
        reports, errors = _estimate_each(moments, kinds)
        for kind, report in reports.items():
            params = report.params
            estimates[kind][index] = (params.r_gmv, params.v_gmv, params.slope)
        for kind, exc in errors.items():
            name = type(exc).__name__
            reasons[kind][name] = reasons[kind].get(name, 0) + 1
    return estimates, reasons


class TestChunkedEngine:
    """run_monte_carlo against the one-replication-at-a-time reference."""

    # p=20, n=60 gives chunks of SIZE replications
    P, N = 20, 60
    SIZE = 81

    def spec(self, scenario, seed=21, n=None):
        return ScenarioSpec(scenario=scenario, p=self.P, n=n or self.N, seed=seed)

    def test_chunk_size_depends_on_shape_only(self):
        assert _chunk_size(self.P, self.N) == self.SIZE == 81
        assert _chunk_size(10, 50) == 218
        assert _chunk_size(100, 200) == 4
        assert _chunk_size(500, 1000) == 1

    @pytest.mark.parametrize("scenario", ["normal", "t3", "ccc-garch"])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_matches_reference_across_chunk_edge(self, scenario, offset):
        spec = self.spec(scenario)
        reps = _chunk_size(spec.p, spec.n) + offset
        result = run_monte_carlo(spec, reps, ALL_KINDS)
        estimates, reasons = _reference_run(spec, reps, ALL_KINDS)
        for kind in ALL_KINDS:
            assert np.array_equal(result.estimates[kind], estimates[kind], equal_nan=True)
            assert np.all(np.isfinite(result.estimates[kind]))
        assert result.failure_reasons == reasons

    def test_failures_match_reference(self):
        # n = p + 1: unbiased, sse and ebe fail in every replication, by class
        spec = self.spec("normal", n=self.P + 1)
        reps = _chunk_size(spec.p, spec.n) + 1
        result = run_monte_carlo(spec, reps, ALL_KINDS)
        estimates, reasons = _reference_run(spec, reps, ALL_KINDS)
        for kind in ALL_KINDS:
            assert np.array_equal(result.estimates[kind], estimates[kind], equal_nan=True)
        assert result.failure_reasons == reasons
        assert result.failures[EstimatorKind.UNBIASED] == reps

    def test_leading_rows_of_longer_run(self):
        spec = self.spec("normal")
        size = _chunk_size(spec.p, spec.n)
        short = run_monte_carlo(spec, size + 3, ALL_KINDS)
        long = run_monte_carlo(spec, 3 * size + 1, ALL_KINDS)
        for kind in ALL_KINDS:
            assert np.array_equal(long.estimates[kind][: size + 3], short.estimates[kind])

    def test_jobs_with_several_chunks(self):
        spec = self.spec("t3")
        reps = 3 * _chunk_size(spec.p, spec.n) + 7
        serial = run_monte_carlo(spec, reps, ALL_KINDS, jobs=1)
        parallel = run_monte_carlo(spec, reps, ALL_KINDS, jobs=2)
        for kind in ALL_KINDS:
            assert np.array_equal(serial.estimates[kind], parallel.estimates[kind])
        assert serial.failure_reasons == parallel.failure_reasons

    @pytest.mark.parametrize(("scenario", "n"), [("normal", P + 1), ("ccc-garch", N)])
    def test_threads_under_frequent_switching(self, scenario, n):
        # four threads on two cores, switching every microsecond: a row
        # written to the wrong place, or a lost failure count (unbiased, sse
        # and ebe fail in every replication at n = p + 1), would show
        spec = self.spec(scenario, n=n)
        reps = 8 * _chunk_size(spec.p, spec.n) + 5
        serial = run_monte_carlo(spec, reps, ALL_KINDS, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_monte_carlo(spec, reps, ALL_KINDS, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        for kind in ALL_KINDS:
            assert np.array_equal(threaded.estimates[kind], serial.estimates[kind], equal_nan=True)
        assert threaded.failure_reasons == serial.failure_reasons

    # 6, 3, 1 and 3 chunks; no worker starts when jobs is invalid
    @pytest.mark.parametrize(
        ("jobs", "reps", "workers"),
        [(2, 5 * SIZE + 1, 2), (8, 2 * SIZE + 1, 3), (4, SIZE, 1), (0, 2 * SIZE + 1, 0)],
    )
    def test_pool_never_exceeds_jobs(self, monkeypatch, jobs, reps, workers):
        started = []

        class Recording(concurrent.futures.Executor):
            """An in-thread stand-in for ThreadPoolExecutor that records its set-up."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def submit(self, fn, *args):
                spans.append(args[-2:])  # (start, stop)
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        spans = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        spec = self.spec("normal")
        if not workers:
            with pytest.raises(InvalidParams, match="need jobs >= 1"):
                run_monte_carlo(spec, reps, ["consistent"], jobs=jobs)
            assert started == spans == []
            return
        result = run_monte_carlo(spec, reps, ["consistent"], jobs=jobs)
        assert started == [workers]
        # one contiguous run of whole chunks per task, covering every replication
        size = _chunk_size(spec.p, spec.n)
        assert len(spans) == workers
        assert spans[0][0] == 0 and spans[-1][1] == reps
        assert all(a[1] == b[0] and a[1] % size == 0 for a, b in zip(spans, spans[1:]))
        monkeypatch.undo()
        serial = run_monte_carlo(spec, reps, ["consistent"])
        kind = EstimatorKind.CONSISTENT
        assert np.array_equal(result.estimates[kind], serial.estimates[kind])

    @pytest.mark.parametrize("reps", [1, 41, 2 * SIZE + 1])
    def test_garch_population_state_drawn_once(self, monkeypatch, reps):
        # the coefficients are per run, not per replication or per span: one
        # draw whatever the number of chunks and threads (at p=20, n=60: 1,
        # 1 and 3 chunks)
        calls = []
        original = simulate._rng_for

        def counted(seed, *key):
            calls.append(key)
            return original(seed, *key)

        monkeypatch.setattr(simulate, "_rng_for", counted)
        for jobs in (1, 2):
            calls.clear()
            run_monte_carlo(self.spec("ccc-garch"), reps, ["sample"], jobs=jobs)
            assert calls.count((simulate._DOMAIN_GARCH,)) == 1

    def test_failing_span_stops_the_others(self, monkeypatch):
        # two spans of 10 chunks each: whichever span reaches its second chunk
        # first raises there; the other's later chunks wait for that failure
        # and then take 0.2 s each, so without a stop between chunks it
        # would run all 10
        spec = self.spec("normal")
        per_span = 10
        lock = threading.Lock()
        calls = Counter()
        failed = threading.Event()
        original = simulate._estimate_stack

        def failing(*args):
            with lock:
                calls[threading.get_ident()] += 1
                count = calls[threading.get_ident()]
                fail = count == 2 and not failed.is_set()
                if fail:
                    failed.set()
            if fail:
                raise RuntimeError("span failed")
            if count > 1:
                assert failed.wait(timeout=60)
                time.sleep(0.2)
            return original(*args)

        monkeypatch.setattr(simulate, "_estimate_stack", failing)
        with pytest.raises(RuntimeError, match="span failed"):
            run_monte_carlo(spec, 2 * per_span * self.SIZE, ["sample"], jobs=2)
        assert failed.is_set() and len(calls) <= 2
        assert 2 in calls.values()  # the failed span stopped where it raised
        assert all(count < per_span for count in calls.values())

    @staticmethod
    def _script(tmp_path, body):
        """A Python process running ``body`` as a plain script, stdout piped."""
        script = tmp_path / "run.py"
        script.write_text(textwrap.dedent(body))
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_script_without_main_guard(self, tmp_path):
        # a spawned process pool re-imports such a script in each worker and
        # breaks; threads start nothing that imports it
        process = self._script(
            tmp_path,
            """
            from hdfrontier import ScenarioSpec, run_monte_carlo

            result = run_monte_carlo(ScenarioSpec("normal", 10, 50, seed=1), 500, ["sample"], jobs=2)
            print(result.failures["sample"])
            """,
        )
        out, _ = process.communicate(timeout=120)
        assert _chunk_size(10, 50) < 500 / 2  # 3 chunks, so 2 threads
        assert (process.returncode, out) == (0, "0\n")

    def test_interrupt_reaches_the_caller(self, tmp_path):
        # a run of 20 s or more on two threads, interrupted half a second in:
        # the spans stop before their next chunk and the caller gets the
        # KeyboardInterrupt within a second
        process = self._script(
            tmp_path,
            """
            from hdfrontier import ScenarioSpec, run_monte_carlo

            print("ready", flush=True)
            try:
                run_monte_carlo(ScenarioSpec("normal", 10, 50, seed=1), 600_000, ["sample"], jobs=2)
            except KeyboardInterrupt:
                print("interrupted", flush=True)
            else:
                print("finished", flush=True)
            """,
        )
        try:
            assert process.stdout.readline() == "ready\n"
            time.sleep(0.5)
            sent = time.monotonic()
            process.send_signal(signal.SIGINT)
            line = process.stdout.readline()
            latency = time.monotonic() - sent
        finally:
            process.kill()
            process.communicate()
        assert line == "interrupted\n"
        assert latency < 1.0

    def test_failure_reasons_by_class(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=12, seed=4)
        result = run_monte_carlo(spec, reps=7, kinds=["sample", "sse"])
        assert result.failure_reasons[EstimatorKind.SSE] == {"TooFewObservations": 7}
        assert result.failure_reasons[EstimatorKind.SAMPLE] == {}
        assert result.failures == {EstimatorKind.SAMPLE: 0, EstimatorKind.SSE: 7}


def _numpy_state(seed, index):
    """The PCG64 state NumPy itself builds for a replication slot."""
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, index))).state


class TestStreamSeeding:
    """The engine's one-pass seeding against NumPy's SeedSequence and PCG64.

    A NumPy release that changes either hash makes these fail, not the
    streams drift silently.
    """

    # chunk edges of the p=10, n=50 shape (chunks of 218 replications)
    EDGES = (0, 217, 218, 219, 435, 436)
    # p=60, n=70 gives chunks of 16 replications
    P, N = 60, 70

    @given(
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**64),
            st.integers(2**64, 2**128),
            st.integers(2**128, 2**200),
            st.sampled_from([2**32, 2**64, 2**128, 18446744073709551616000]),
        ),
        start=st.sampled_from(EDGES),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_states_are_numpys(self, seed, start):
        words = simulate._seed_words(seed, 2, start, 437)
        assert words.dtype == np.uint64 and words.shape == (437 - start, 4)
        for index in (*self.EDGES, start, 436):
            if index < start:
                continue
            row = words[index - start]
            sequence = np.random.SeedSequence(seed, spawn_key=(2, index))
            assert np.array_equal(row, sequence.generate_state(4, np.uint64))
            assert simulate._pcg64_state(row.tolist()) == _numpy_state(seed, index)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 7])
    def test_multiword_index_falls_back(self, seed):
        # indices from 2**32 have a second word; the span crossing it mixes both paths
        start = 2**32 - 2
        words = simulate._seed_words(seed, 2, start, start + 4)
        for offset, row in enumerate(words.tolist()):
            assert simulate._pcg64_state(row) == _numpy_state(seed, start + offset)
        (row,) = simulate._seed_words(seed, 2, 2**40, 2**40 + 1).tolist()
        assert simulate._pcg64_state(row) == _numpy_state(seed, 2**40)

    def test_numpy_integer_seed(self):
        expected = simulate._seed_words(2**40 + 3, 2, 0, 5)
        assert np.array_equal(simulate._seed_words(np.uint64(2**40 + 3), 2, 0, 5), expected)
        with pytest.raises(TypeError):
            simulate._seed_words(3.0, 2, 0, 5)

    def test_reset_generators_draw_numpys_streams(self):
        words = simulate._seed_words(5, 2, 0, 6).tolist()
        shared = [np.random.default_rng(0)]
        for index, rng in enumerate(simulate._reset_streams(shared, words)):
            assert rng is shared[0]
            expected = _stream(5, 2, index)
            assert np.array_equal(rng.standard_normal(7), expected.standard_normal(7))
            assert np.array_equal(rng.standard_t(3, 5), expected.standard_t(3, 5))

    @pytest.mark.parametrize("scenario", ["normal", "t3", "ccc-garch"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_matches_reference_at_a_huge_seed(self, scenario, jobs):
        spec = ScenarioSpec(scenario=scenario, p=self.P, n=self.N, seed=18446744073709551616000)
        reps = _chunk_size(spec.p, spec.n) + 1
        assert reps == 17
        result = run_monte_carlo(spec, reps, ALL_KINDS, jobs=jobs)
        estimates, reasons = _reference_run(spec, reps, ALL_KINDS)
        for kind in ALL_KINDS:
            assert np.array_equal(result.estimates[kind], estimates[kind], equal_nan=True)
        assert result.failure_reasons == reasons


@pytest.fixture(scope="module")
def result():
    spec = ScenarioSpec(scenario="normal", p=20, n=40, seed=7)
    return run_monte_carlo(spec, reps=150, kinds=["consistent"])


class TestHistogram:
    def test_bins_cover_all_values(self, result):
        hist = histogram_data(result, "V")
        assert hist.counts.sum() == 150
        assert np.all(np.diff(hist.edges) > 0)
        assert hist.counts.size >= 10

    def test_overlay_centres(self, result):
        for param, expected in (("R", 0.0), ("V", 0.0), ("s", 20 / math.sqrt(40))):
            hist = histogram_data(result, param)
            assert hist.overlay_mean == pytest.approx(expected)

    def test_overlay_sd_matches_limit_formula(self, result):
        from hdfrontier import asymptotic_variances

        limits = asymptotic_variances(result.truth, 0.5)
        assert histogram_data(result, "V").overlay_sd == pytest.approx(
            math.sqrt(limits.var_v)
        )

    def test_density_integrates_to_one(self, result):
        hist = histogram_data(result, "s")
        integral = np.trapezoid(hist.density_y, hist.density_x)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_grid_covers_tails_and_bins(self, result):
        hist = histogram_data(result, "R")
        assert hist.density_x[0] <= min(hist.edges[0], -6 * hist.overlay_sd)
        assert hist.density_x[-1] >= max(hist.edges[-1], 6 * hist.overlay_sd)
        assert hist.density_x.size == 512

    def test_param_aliases_and_validation(self, result):
        for undocumented in ("r", "v", "S", "slope"):
            with pytest.raises(InvalidParams):
                histogram_data(result, undocumented)

    def test_too_few_reps(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=20, seed=8)
        small = run_monte_carlo(spec, reps=40, kinds=["consistent"])
        with pytest.raises(TooFewReps):
            histogram_data(small, "V")

    def test_kind_must_have_been_run(self):
        spec = ScenarioSpec(scenario="normal", p=4, n=20, seed=8)
        sample_only = run_monte_carlo(spec, reps=3, kinds=["sample"])
        for method in (sample_only.losses, sample_only.mean_loss, sample_only.loss_quantiles):
            with pytest.raises(InvalidParams, match="'consistent' is not among"):
                method("consistent")
        with pytest.raises(InvalidParams, match="'consistent' is not among"):
            histogram_data(sample_only, "V")


class TestFrontierComparison:
    def test_grid_and_curves(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=40, seed=9)
        comp = frontier_comparison(spec, ["sample", "consistent"])
        assert set(comp.curves) == {"population", "sample", "consistent"}
        assert comp.grid.shape == (101,)
        assert all(curve.shape == (101,) for curve in comp.curves.values())
        assert comp.grid[0] == comp.truth.v_gmv
        assert comp.grid[-1] == pytest.approx(20 * comp.truth.v_gmv)
        pop = comp.curves["population"]
        assert pop[0] == pytest.approx(comp.truth.r_gmv)
        defined = pop[np.isfinite(pop)]
        assert np.all(np.diff(defined) >= 0)

    def test_nan_left_of_each_vertex(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=40, seed=9)
        comp = frontier_comparison(spec, ["rte"])
        vertex = comp.reports[EstimatorKind.RTE].params.v_gmv
        curve = comp.curves["rte"]
        assert np.array_equal(np.isnan(curve), comp.grid < vertex)

    def test_negative_slope_draws_flat_curve(self, monkeypatch):
        # a zero-mean population: its true slope is 0, and this dataset's
        # unbiased estimate falls below it
        def zero_mean(spec):
            return np.zeros(spec.p), np.diag(simulate._eigenvalues(spec.p))

        monkeypatch.setattr(simulate, "build_population", zero_mean)
        spec = ScenarioSpec(scenario="normal", p=20, n=50, seed=1)
        comp = frontier_comparison(spec, ["unbiased"])
        report = comp.reports[EstimatorKind.UNBIASED]
        assert report.params.slope < 0.0
        curve = comp.curves["unbiased"]
        right = curve[comp.grid >= report.params.v_gmv]
        assert np.allclose(right, report.params.r_gmv)

    def test_failed_kind_spares_the_others(self, caplog):
        spec = ScenarioSpec(scenario="normal", p=10, n=11, seed=9)
        with caplog.at_level("WARNING", logger="hdfrontier.simulate"):
            comp = frontier_comparison(spec, ["sample", "unbiased"])
        assert list(comp.curves) == ["population", "sample"]
        assert list(comp.reports) == [EstimatorKind.SAMPLE]
        assert np.isfinite(comp.curves["sample"]).any()
        assert "unbiased skipped: unbiased correction needs n >= p + 2" in caplog.text

    def test_range_validation(self):
        spec = ScenarioSpec(scenario="normal", p=5, n=25, seed=0)
        with pytest.raises(InvalidRange):
            frontier_comparison(spec, ["sample"], v_max=1e-12)


class TestCsvOutputs:
    def test_loss_csv_round_trips(self, tmp_path):
        spec = ScenarioSpec(scenario="normal", p=6, n=24, seed=10)
        result = run_monte_carlo(spec, reps=15, kinds=["sample", "consistent"])
        rows = loss_rows(result)
        assert len(rows) == 2 * 3
        path = tmp_path / "losses.csv"
        write_loss_csv(path, rows)
        with open(path, newline="") as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == 6
        for got, expected in zip(read, rows):
            assert float(got["mean_loss"]) == expected["mean_loss"]
            assert got["estimator"] == expected["estimator"]

    def test_histogram_csv_files(self, tmp_path):
        spec = ScenarioSpec(scenario="normal", p=10, n=30, seed=11)
        result = run_monte_carlo(spec, reps=120, kinds=["consistent"])
        hist = histogram_data(result, "V")
        hist_path, density_path = tmp_path / "h.csv", tmp_path / "d.csv"
        write_histogram_csv(hist_path, density_path, hist)
        with open(hist_path, newline="") as handle:
            bins = list(csv.DictReader(handle))
        assert len(bins) == hist.counts.size
        assert sum(int(row["count"]) for row in bins) == 120
        with open(density_path, newline="") as handle:
            density = list(csv.DictReader(handle))
        assert len(density) == 512

    def test_frontier_csv_long_format(self, tmp_path):
        spec = ScenarioSpec(scenario="normal", p=5, n=25, seed=12)
        comp = frontier_comparison(spec, ["sample"])
        path = tmp_path / "frontier.csv"
        write_frontier_csv(path, comp)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 101
        assert {row["kind"] for row in rows} == {"population", "sample"}

    def test_numpy_scalars_written_as_floats(self, tmp_path):
        row = {
            "p": np.int64(6), "n": 24, "c": np.float64(0.25), "scenario": "normal",
            "estimator": "sample", "param": "R", "mean_loss": np.float32(0.1),
            "q05": 0.5, "q95": math.nan,
        }
        path = tmp_path / "losses.csv"
        write_loss_csv(path, [row])
        assert path.read_text().splitlines()[1] == (
            "6,24,0.25,normal,sample,R,0.10000000149011612,0.5,nan"
        )

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = ScenarioSpec(scenario="normal", p=6, n=24, seed=13)
        result = run_monte_carlo(spec, reps=10, kinds=["sample"])
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_loss_csv(first, loss_rows(result))
        write_loss_csv(second, loss_rows(result))
        assert first.read_bytes() == second.read_bytes()
