"""Scenario generators, Monte Carlo harness, and simulation outputs."""

import concurrent.futures
import csv
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from hdfrontier import (
    EstimatorKind,
    InvalidParams,
    InvalidRange,
    InvalidSpectrum,
    MonteCarloResult,
    Scenario,
    ScenarioSpec,
    SpectrumSpec,
    StationarityViolation,
    TooFewReps,
    build_population,
    frontier_comparison,
    frontier_params,
    garch_state,
    generate_ccc_garch,
    generate_normal,
    generate_returns,
    generate_t3,
    histogram_data,
    run_monte_carlo,
    sample_moments,
)
from hdfrontier import simulate
from hdfrontier.estimators import _estimate_each
from hdfrontier.simulate import (
    GarchState,
    _chunk_size,
    loss_rows,
    write_frontier_csv,
    write_histogram_csv,
    write_loss_csv,
)

ALL_KINDS = tuple(EstimatorKind)


class TestSpectrumSpec:
    def test_default_multiplicities(self):
        spec = SpectrumSpec()
        assert spec.multiplicities(7) == (1, 3, 3)
        assert spec.multiplicities(10) == (2, 4, 4)
        assert spec.multiplicities(5) == (1, 2, 2)

    @pytest.mark.parametrize("p", list(range(2, 41)))
    def test_multiplicities_sum_to_p(self, p):
        assert sum(SpectrumSpec().multiplicities(p)) == p

    def test_eigenvalues_grouped(self):
        eigs = SpectrumSpec().eigenvalues(10)
        assert eigs.tolist() == [0.5] * 2 + [1.0] * 4 + [5.0] * 4

    def test_single_group(self):
        spec = SpectrumSpec(groups=((1.0, 2.5),))
        assert spec.eigenvalues(6).tolist() == [2.5] * 6

    def test_validation(self):
        with pytest.raises(InvalidSpectrum):
            SpectrumSpec(groups=())
        with pytest.raises(InvalidSpectrum):
            SpectrumSpec(groups=((0.5, 1.0), (0.6, 2.0)))  # fractions sum past 1
        with pytest.raises(InvalidSpectrum):
            SpectrumSpec(groups=((1.0, -1.0),))
        with pytest.raises(InvalidSpectrum):
            SpectrumSpec().multiplicities(0)

    def test_infeasible_rounding(self):
        # first groups round up past p, leaving the last with negative count
        spec = SpectrumSpec(groups=((0.3, 1.0), (0.3, 2.0), (0.3, 3.0), (0.1, 4.0)))
        with pytest.raises(InvalidSpectrum):
            spec.multiplicities(2)

    def test_zero_multiplicity_is_allowed(self):
        # a group may round to zero; the eigenvalue vector still has length p
        spec = SpectrumSpec(groups=((0.45, 1.0), (0.45, 2.0), (0.1, 3.0)))
        assert spec.multiplicities(2) == (1, 1, 0)
        assert spec.eigenvalues(2).tolist() == [1.0, 2.0]


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
        with pytest.raises(InvalidRange):
            ScenarioSpec(scenario="normal", p=5, n=20, mean_range=(0.3, -0.3))
        with pytest.raises(InvalidParams):
            ScenarioSpec(scenario="normal", p=5, n=20, burn_in=-1)
        with pytest.raises(InvalidParams, match="seed must be non-negative"):
            ScenarioSpec(scenario="normal", p=5, n=20, seed=-1)
        with pytest.raises(ValueError):
            ScenarioSpec(scenario="bogus", p=5, n=20)


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
        spec = ScenarioSpec(scenario="normal", p=50, n=100, mean_range=(0.1, 0.11))
        mu, _ = build_population(spec)
        assert np.all((mu >= 0.1) & (mu <= 0.11))


class TestGenerators:
    def test_normal_shape_and_determinism(self):
        spec = ScenarioSpec(scenario="normal", p=8, n=30, seed=5)
        mu, sigma = build_population(spec)
        a = generate_normal(spec, mu, sigma)
        b = generate_normal(spec, mu, sigma)
        assert (a.p, a.n) == (8, 30)
        assert np.array_equal(a.values, b.values)

    def test_normal_matches_population_moments(self):
        spec = ScenarioSpec(scenario="normal", p=4, n=200_000, seed=1)
        mu, sigma = build_population(spec)
        y = generate_normal(spec, mu, sigma).values
        assert np.allclose(y.mean(axis=1), mu, atol=0.02)
        assert np.allclose(y.var(axis=1), sigma.diagonal(), rtol=0.03)

    def test_t3_variance_scaled_to_population(self):
        spec = ScenarioSpec(scenario="t3", p=3, n=400_000, seed=4)
        mu, sigma = build_population(spec)
        y = generate_t3(spec, mu, sigma).values
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
        t3 = generate_t3(spec, mu, sigma).values - mu[:, None]
        sd = np.sqrt(sigma.diagonal())[:, None]
        exceed = np.mean(np.abs(t3 / sd) > 3.0)
        assert exceed > 2 * (2 * scipy.stats.norm.sf(3.0))

    def test_dispatch_matches_direct_calls(self):
        for name, fn in (("normal", generate_normal), ("t3", generate_t3),
                         ("ccc-garch", generate_ccc_garch)):
            spec = ScenarioSpec(scenario=name, p=5, n=20, seed=6, burn_in=50)
            mu, sigma = build_population(spec)
            assert np.array_equal(
                generate_returns(spec, mu, sigma).values, fn(spec, mu, sigma).values
            )


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _non_diagonal(p):
    """A dense positive definite covariance with unequal variances."""
    a = _stream(99).standard_normal((p, p))
    return a @ a.T / p + np.diag(np.linspace(0.5, 2.0, p))


def _garch_reference(spec, mu, sigma, rng):
    """The CCC-GARCH(1,1) recursion written out step by step: coefficients
    from the coefficient stream (spawn key ``(1,)``), shocks from ``rng``."""
    coefficients = _stream(spec.seed, 1)
    alpha1 = coefficients.uniform(*spec.alpha1_range, size=spec.p)
    beta1 = coefficients.uniform(*spec.beta1_range, size=spec.p)
    variances = np.diag(sigma)
    alpha0 = variances * (1.0 - alpha1 - beta1)
    scale = np.sqrt(variances)
    chol = np.linalg.cholesky(sigma / np.outer(scale, scale))
    h = variances
    expected = np.empty((spec.p, spec.n))
    for t in range(spec.burn_in + spec.n):
        shock = rng.standard_normal(spec.p)  # one draw of p per step
        eps = chol @ shock  # also for diagonal sigma, whose corr diagonal is 1 to an ulp
        centered = np.sqrt(h) * eps
        if t >= spec.burn_in:
            expected[:, t - spec.burn_in] = centered + mu
        h = alpha0 + alpha1 * centered**2 + beta1 * h
    return expected


class TestGeneratorOracle:
    """The public generators, bit for bit, against draws written out by hand.

    Each expected panel comes from the replication-0 stream of the spec's seed
    (spawn key ``(2, 0)``) and, for CCC-GARCH, the coefficient stream
    (spawn key ``(1,)``), without calling into the package's samplers.
    """

    P, N = 6, 25

    def population(self, scenario, diagonal):
        spec = ScenarioSpec(scenario=scenario, p=self.P, n=self.N, seed=17, burn_in=40)
        mu, sigma = build_population(spec)
        return spec, mu, sigma if diagonal else _non_diagonal(self.P)

    @staticmethod
    def scale_shift(z, mu, sigma, diagonal):
        if diagonal:
            return np.sqrt(np.diag(sigma))[:, None] * z + mu[:, None]
        return np.linalg.cholesky(sigma) @ z + mu[:, None]

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_normal(self, diagonal):
        spec, mu, sigma = self.population("normal", diagonal)
        z = _stream(spec.seed, 2, 0).standard_normal((self.P, self.N))
        expected = self.scale_shift(z, mu, sigma, diagonal)
        assert np.array_equal(generate_normal(spec, mu, sigma).values, expected)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_t3(self, diagonal):
        spec, mu, sigma = self.population("t3", diagonal)
        z = _stream(spec.seed, 2, 0).standard_t(3, size=(self.P, self.N)) * math.sqrt(1 / 3)
        expected = self.scale_shift(z, mu, sigma, diagonal)
        assert np.array_equal(generate_t3(spec, mu, sigma).values, expected)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_ccc_garch(self, diagonal):
        spec, mu, sigma = self.population("ccc-garch", diagonal)
        expected = _garch_reference(spec, mu, sigma, _stream(spec.seed, 2, 0))
        assert np.array_equal(generate_ccc_garch(spec, mu, sigma).values, expected)

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize(
        ("burn_in", "n"),
        [
            (0, 25),  # no burn-in: the first step is kept
            (simulate._GARCH_BLOCK + 23, 25),  # burn-in ends inside a draw block
            (9, simulate._GARCH_BLOCK // 2 - 3),  # every step in one partial block
        ],
    )
    def test_batched_ccc_garch_fill(self, diagonal, burn_in, n):
        # a (B, p, n) fill advances B replications together; each slot must
        # be the panel its generator gives alone, and the written-out one
        spec = ScenarioSpec(scenario="ccc-garch", p=self.P, n=n, seed=17, burn_in=burn_in)
        mu, sigma = build_population(spec)
        if not diagonal:
            sigma = _non_diagonal(self.P)
        fill = simulate._sampler(Scenario.CCC_GARCH, spec, mu, sigma)
        slots = 3
        batch = np.empty((slots, self.P, n))
        fill(batch, (_stream(spec.seed, 2, k) for k in range(slots)))
        for k in range(slots):
            alone = np.empty((1, self.P, n))
            fill(alone, [_stream(spec.seed, 2, k)])
            assert np.array_equal(batch[k], alone[0])
            assert np.array_equal(batch[k], _garch_reference(spec, mu, sigma, _stream(spec.seed, 2, k)))


class TestGarch:
    def test_state_starts_at_unconditional_variance(self):
        spec = ScenarioSpec(scenario="ccc-garch", p=6, n=20, seed=7)
        _, sigma = build_population(spec)
        state = garch_state(spec, sigma)
        assert np.allclose(state.h, sigma.diagonal())
        assert np.allclose(
            state.alpha0, sigma.diagonal() * (1 - state.alpha1 - state.beta1)
        )
        assert np.all((state.alpha1 >= 0.0) & (state.alpha1 <= 0.1))
        assert np.all((state.beta1 >= 0.8) & (state.beta1 <= 0.89))
        # diagonal population covariance means an identity correlation target
        assert np.allclose(state.corr, np.eye(6))

    def test_nonstationary_coefficients_rejected(self):
        spec = ScenarioSpec(
            scenario="ccc-garch", p=4, n=20, seed=0, alpha1_range=(0.95, 0.95)
        )
        _, sigma = build_population(spec)
        with pytest.raises(StationarityViolation):
            garch_state(spec, sigma)

    def test_state_validation(self):
        eye = np.eye(2)
        with pytest.raises(InvalidParams):
            GarchState(
                h=np.array([1.0, -1.0]), alpha0=np.ones(2),
                alpha1=np.zeros(2), beta1=np.zeros(2), corr=eye,
            )
        bad_corr = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(InvalidParams):
            GarchState(
                h=np.ones(2), alpha0=np.ones(2),
                alpha1=np.zeros(2), beta1=np.zeros(2), corr=bad_corr,
            )

    def test_unconditional_moments(self):
        spec = ScenarioSpec(scenario="ccc-garch", p=3, n=60_000, seed=9)
        mu, sigma = build_population(spec)
        y = generate_ccc_garch(spec, mu, sigma).values
        assert np.allclose(y.mean(axis=1), mu, atol=0.05)
        assert np.allclose(y.var(axis=1), sigma.diagonal(), rtol=0.10)

    def test_volatility_clustering(self):
        spec = ScenarioSpec(
            scenario="ccc-garch", p=2, n=40_000, seed=10,
            alpha1_range=(0.09, 0.1), beta1_range=(0.88, 0.89),
        )
        mu, sigma = build_population(spec)
        y = generate_ccc_garch(spec, mu, sigma).values
        sq = (y - mu[:, None]) ** 2
        for row in sq:
            lag1 = np.corrcoef(row[:-1], row[1:])[0, 1]
            assert lag1 > 0.02

    def test_reproducible(self):
        spec = ScenarioSpec(scenario="ccc-garch", p=4, n=50, seed=11, burn_in=100)
        mu, sigma = build_population(spec)
        assert np.array_equal(
            generate_ccc_garch(spec, mu, sigma).values,
            generate_ccc_garch(spec, mu, sigma).values,
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
        quants = result.loss_quantiles("sample", qs=(0.5,))
        assert quants.shape == (1, 3)

    def test_consistent_beats_sample_on_variance(self):
        spec = ScenarioSpec(scenario="normal", p=40, n=80, seed=6)
        result = run_monte_carlo(spec, reps=60, kinds=["sample", "consistent"])
        v_losses = {k: result.mean_loss(k)[1] for k in result.kinds}
        assert v_losses[EstimatorKind.CONSISTENT] < v_losses[EstimatorKind.SAMPLE]

    def test_validation(self):
        spec = ScenarioSpec(scenario="normal", p=5, n=25)
        with pytest.raises(InvalidParams):
            run_monte_carlo(spec, reps=0, kinds=["sample"])
        with pytest.raises(InvalidParams):
            run_monte_carlo(spec, reps=3, kinds=[])


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
        return ScenarioSpec(scenario=scenario, p=self.P, n=n or self.N, seed=seed, burn_in=30)

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

    # 6, 3, 1 and 3 chunks
    @pytest.mark.parametrize(
        ("jobs", "reps", "workers"),
        [(2, 5 * SIZE + 1, 2), (8, 2 * SIZE + 1, 3), (4, SIZE, 0), (0, 2 * SIZE + 1, 0)],
    )
    def test_pool_never_exceeds_jobs(self, monkeypatch, jobs, reps, workers):
        started = []

        class Recording:
            """An in-process stand-in for ProcessPoolExecutor that records its set-up."""

            def __init__(self, max_workers, mp_context):
                started.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                spans.extend(zip(*iterables))
                return map(fn, *iterables)

        spans = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        spec = self.spec("normal")
        result = run_monte_carlo(spec, reps, ["consistent"], jobs=jobs)
        assert started == ([(workers, "spawn")] if workers else [])
        # one contiguous run of whole chunks per task, covering every replication
        size = _chunk_size(spec.p, spec.n)
        if workers:
            assert len(spans) == workers
            assert spans[0][0] == 0 and spans[-1][1] == reps
            assert all(a[1] == b[0] and a[1] % size == 0 for a, b in zip(spans, spans[1:]))
        serial = run_monte_carlo(spec, reps, ["consistent"])
        kind = EstimatorKind.CONSISTENT
        assert np.array_equal(result.estimates[kind], serial.estimates[kind])

    @pytest.mark.parametrize("reps", [1, 41, 2 * SIZE + 1])
    def test_garch_population_state_drawn_once(self, monkeypatch, reps):
        # the coefficients and the correlation factor are per run, not per
        # replication: one call each whatever the number of chunks
        calls = Counter()
        for name in ("garch_state", "_sqrt_factor"):
            def counted(*args, _name=name, _original=getattr(simulate, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(simulate, name, counted)
        run_monte_carlo(self.spec("ccc-garch"), reps, ["sample"], jobs=1)
        assert calls == {"garch_state": 1, "_sqrt_factor": 1}

    def test_failure_reasons_by_class(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=12, seed=4)
        result = run_monte_carlo(spec, reps=7, kinds=["sample", "sse"])
        assert result.failure_reasons[EstimatorKind.SSE] == {"TooFewObservations": 7}
        assert result.failure_reasons[EstimatorKind.SAMPLE] == {}
        assert result.failures == {EstimatorKind.SAMPLE: 0, EstimatorKind.SSE: 7}


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
        with pytest.raises(InvalidParams, match="'consistent' is not among"):
            histogram_data(sample_only, "V")


class TestFrontierComparison:
    def test_grid_and_curves(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=40, seed=9)
        comp = frontier_comparison(spec, ["sample", "consistent"], n_points=41)
        assert set(comp.curves) == {"population", "sample", "consistent"}
        assert comp.grid[0] == comp.truth.v_gmv
        assert comp.grid[-1] == pytest.approx(20 * comp.truth.v_gmv)
        pop = comp.curves["population"]
        assert pop[0] == pytest.approx(comp.truth.r_gmv)
        defined = pop[np.isfinite(pop)]
        assert np.all(np.diff(defined) >= 0)

    def test_nan_left_of_each_vertex(self):
        spec = ScenarioSpec(scenario="normal", p=10, n=40, seed=9)
        comp = frontier_comparison(spec, ["rte"], n_points=101)
        vertex = comp.reports[EstimatorKind.RTE].params.v_gmv
        curve = comp.curves["rte"]
        assert np.array_equal(np.isnan(curve), comp.grid < vertex)

    def test_negative_slope_draws_flat_curve(self):
        spec = ScenarioSpec(
            scenario="normal", p=20, n=50, seed=1, mean_range=(0.0, 0.0)
        )
        comp = frontier_comparison(spec, ["unbiased"], n_points=31)
        report = comp.reports[EstimatorKind.UNBIASED]
        assert report.params.slope < 0.0
        curve = comp.curves["unbiased"]
        right = curve[comp.grid >= report.params.v_gmv]
        assert np.allclose(right, report.params.r_gmv)

    def test_failed_kind_spares_the_others(self, caplog):
        spec = ScenarioSpec(scenario="normal", p=10, n=11, seed=9)
        with caplog.at_level("WARNING", logger="hdfrontier.simulate"):
            comp = frontier_comparison(spec, ["sample", "unbiased"], n_points=21)
        assert list(comp.curves) == ["population", "sample"]
        assert list(comp.reports) == [EstimatorKind.SAMPLE]
        assert np.isfinite(comp.curves["sample"]).any()
        assert "unbiased skipped: unbiased correction needs n >= p + 2" in caplog.text

    def test_range_validation(self):
        spec = ScenarioSpec(scenario="normal", p=5, n=25, seed=0)
        with pytest.raises(InvalidRange):
            frontier_comparison(spec, ["sample"], v_max=1e-12)
        with pytest.raises(InvalidRange):
            frontier_comparison(spec, ["sample"], n_points=1)


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
        comp = frontier_comparison(spec, ["sample"], n_points=21)
        path = tmp_path / "frontier.csv"
        write_frontier_csv(path, comp)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 21
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
