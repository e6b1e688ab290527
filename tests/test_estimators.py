"""Sample moments and the estimator family."""

import numpy as np
import pytest
import scipy.linalg

from hdfrontier import (
    EstimateReport,
    EstimatorKind,
    RatioOutOfRange,
    ReturnsMatrix,
    SampleMoments,
    SingularCovariance,
    TooFewObservations,
    ZeroTrace,
    build_population,
    estimate,
    estimate_many,
    merton_constants,
    plugin_frontier,
    precision_ebe,
    precision_rte,
    precision_sse,
    sample_moments,
    unbiased_frontier,
)
from hdfrontier import frontier
from hdfrontier.estimators import _estimate_each, consistent_frontier, sample_frontier
from hdfrontier.simulate import ScenarioSpec, generate_normal

ALL_KINDS = tuple(EstimatorKind)


def _random_moments(p=8, n=30, seed=5):
    rng = np.random.default_rng(seed)
    returns = rng.standard_normal((p, n)) * 0.05 + rng.uniform(-0.1, 0.1, p)[:, None]
    return sample_moments(returns)


def _count_factorizations(monkeypatch) -> list:
    """Record the arguments of every Cholesky factorization the forms kernel makes."""
    calls = []
    potrf = frontier._potrf

    def counting(*args, **kwargs):
        calls.append(args)
        return potrf(*args, **kwargs)

    monkeypatch.setattr(frontier, "_potrf", counting)
    return calls


def _dense_forms(mean, precision):
    ones = np.ones_like(mean)
    return (
        float(mean @ precision @ mean),
        float(ones @ precision @ mean),
        float(ones @ precision @ ones),
    )


class TestReturnsMatrix:
    def test_properties(self):
        m = ReturnsMatrix(np.zeros((3, 7)) + 0.01)
        assert (m.p, m.n) == (3, 7)

    def test_label_mismatch(self):
        with pytest.raises(Exception):
            ReturnsMatrix(np.zeros((3, 7)), asset_labels=("a", "b"))

    def test_rejects_non_finite(self):
        values = np.zeros((2, 4))
        values[1, 2] = np.nan
        with pytest.raises(Exception):
            ReturnsMatrix(values)


class TestSampleMoments:
    def test_divisor_is_n(self):
        # one asset, two observations 1 and 3: mean 2, divisor-n variance 1
        m = sample_moments(np.array([[1.0, 3.0]]))
        assert m.mean[0] == 2.0
        assert m.cov[0, 0] == 1.0
        assert (m.p, m.n) == (1, 2)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((4, 25))
        m = sample_moments(y)
        assert np.allclose(m.mean, y.mean(axis=1))
        assert np.allclose(m.cov, np.cov(y, bias=True), atol=1e-14)

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            sample_moments(np.array([[1.0], [2.0]]))

    def test_accepts_returns_matrix(self):
        y = np.arange(12.0).reshape(3, 4)
        assert np.allclose(sample_moments(ReturnsMatrix(y)).mean, y.mean(axis=1))


class TestSampleAndConsistent:
    def test_sample_matches_dense_inverse(self):
        m = _random_moments()
        inv = np.linalg.inv(m.cov)
        a, b, c = _dense_forms(m.mean, inv)
        report = sample_frontier(m)
        assert report.params.r_gmv == pytest.approx(b / c, rel=1e-10)
        assert report.params.v_gmv == pytest.approx(1.0 / c, rel=1e-10)
        assert report.params.slope == pytest.approx(a - b * b / c, rel=1e-10)
        assert report.kind is EstimatorKind.SAMPLE
        assert report.ratio == pytest.approx(m.p / m.n)

    def test_consistent_scales_sample(self):
        m = _random_moments()
        s = sample_frontier(m).params
        c = consistent_frontier(m).params
        shrink = 1.0 - m.p / m.n
        assert c.r_gmv == s.r_gmv
        assert c.v_gmv == pytest.approx(s.v_gmv / shrink, rel=1e-12)
        assert c.slope == pytest.approx(s.slope * shrink, rel=1e-12)

    def test_singular_names_requirement(self):
        rng = np.random.default_rng(2)
        m = sample_moments(rng.standard_normal((10, 8)))
        with pytest.raises(SingularCovariance, match="n > p"):
            sample_frontier(m)
        for kind in ALL_KINDS:
            if kind is not EstimatorKind.RTE:
                with pytest.raises(SingularCovariance, match="n > p"):
                    estimate(m, kind)

    def test_sample_merton_is_population_merton(self):
        """The estimators and merton_constants share one quadratic-form kernel."""
        rng = np.random.default_rng(21)
        for p, n in ((2, 5), (9, 40), (60, 100)):
            mu = rng.uniform(-0.1, 0.1, p)
            half = rng.standard_normal((p, n))
            sigma = half @ half.T / n
            sigma = 0.5 * (sigma + sigma.T)
            moments = SampleMoments(mean=mu, cov=sigma, n=n, p=p)
            assert estimate(moments, "sample").merton == merton_constants(mu, sigma)

    def test_population_moments_recover_population(self):
        # plugging exact moments in: corrections vanish as n grows
        mu = np.array([0.0, 0.3])
        sigma = np.diag([1.0, 2.0])
        m = SampleMoments(mean=mu, cov=sigma, n=10**9, p=2)
        report = consistent_frontier(m)
        assert report.params.r_gmv == pytest.approx(0.1, rel=1e-8)
        assert report.params.v_gmv == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert report.params.slope == pytest.approx(0.03, rel=1e-6)


class TestUnbiased:
    def test_closed_form_in_n_minus_1_basis(self):
        # V_u = (n-1)/(n-p) * V^(n-1);  s_u = ((n-p-1)/(n-1)) s^(n-1) - (p-1)/n
        m = _random_moments(p=6, n=20)
        n, p = m.n, m.p
        base = sample_frontier(m).params
        v_n1 = base.v_gmv * n / (n - 1)  # divisor-(n-1) version of the estimate
        s_n1 = base.slope * (n - 1) / n
        report = unbiased_frontier(m)
        assert report.params.v_gmv == pytest.approx((n - 1) / (n - p) * v_n1, rel=1e-12)
        assert report.params.slope == pytest.approx(
            (n - p - 1) / (n - 1) * s_n1 - (p - 1) / n, rel=1e-12
        )
        assert report.params.r_gmv == base.r_gmv

    def test_factor_oracle_p100_n200(self):
        # at p=100, n=200 and a divisor-(n-1) slope of exactly 1:
        # s_u = 99/199 - 99/200;  V_u factor = 199/100
        m = _random_moments(p=4, n=12)
        n, p = 200, 100
        s_n1 = 1.0
        s_u = (n - p - 1) / (n - 1) * s_n1 - (p - 1) / n
        assert s_u == pytest.approx(99 / 199 - 99 / 200)
        assert (n - 1) / (n - p) == pytest.approx(199 / 100)

    def test_exactly_unbiased_monte_carlo(self):
        # Gaussian sampling, fixed population: E V_u = V and E s_u = s
        spec = ScenarioSpec(scenario="normal", p=10, n=60, seed=0)
        mu, sigma = build_population(spec)
        from hdfrontier import frontier_params

        truth = frontier_params(mu, sigma)
        reps = 10_000
        rng = np.random.default_rng(np.random.SeedSequence(123))
        v_ratio = np.empty(reps)
        s_hat = np.empty(reps)
        for k in range(reps):
            y = sigma.diagonal()[:, None] ** 0.5 * rng.standard_normal((10, 60)) + mu[:, None]
            report = unbiased_frontier(sample_moments(y))
            v_ratio[k] = report.params.v_gmv / truth.v_gmv
            s_hat[k] = report.params.slope
        se_v = v_ratio.std(ddof=1) / np.sqrt(reps)
        se_s = s_hat.std(ddof=1) / np.sqrt(reps)
        assert abs(v_ratio.mean() - 1.0) < 2.0 * se_v, (v_ratio.mean(), se_v)
        assert abs(s_hat.mean() - truth.slope) < 2.0 * se_s, (s_hat.mean(), truth.slope, se_s)

    def test_negative_slope_flagged(self):
        m = SampleMoments(mean=np.zeros(4), cov=np.eye(4), n=10, p=4)
        report = unbiased_frontier(m)
        assert report.params.slope == pytest.approx(-3 / 10)
        assert "negative-slope" in report.notes

    def test_needs_n_ge_p_plus_2(self):
        rng = np.random.default_rng(3)
        m = sample_moments(rng.standard_normal((5, 6)))
        with pytest.raises(TooFewObservations):
            unbiased_frontier(m)


class TestPrecisionEstimators:
    def test_sse_identity_oracle(self):
        m = SampleMoments(mean=np.full(50, 0.01), cov=np.eye(50), n=100, p=50)
        omega = precision_sse(m)
        assert np.allclose(omega, (100 - 50 - 2) / 99 * np.eye(50), atol=1e-14)

    def test_ebe_identity_oracle(self):
        m = SampleMoments(mean=np.full(50, 0.01), cov=np.eye(50), n=100, p=50)
        omega = precision_ebe(m)
        expected = (48 / 99 + 2548 / 4950) * np.eye(50)
        assert np.allclose(omega, expected, atol=1e-14)

    def test_rte_identity_oracle(self):
        m = SampleMoments(mean=np.full(50, 0.01), cov=np.eye(50), n=100, p=50)
        omega = precision_rte(m)
        assert np.allclose(omega, 50 / (99 + 50) * np.eye(50), atol=1e-14)

    def test_rte_works_when_singular(self):
        rng = np.random.default_rng(4)
        m = sample_moments(rng.standard_normal((12, 9)))  # n <= p
        omega = precision_rte(m)
        assert np.all(np.isfinite(omega))
        report = estimate(m, EstimatorKind.RTE)
        assert np.isfinite(report.params.v_gmv)
        assert report.ratio > 1.0

    def test_sse_needs_n_ge_p_plus_3(self):
        rng = np.random.default_rng(4)
        m = sample_moments(rng.standard_normal((5, 7)))
        with pytest.raises(TooFewObservations):
            precision_sse(m)

    def test_zero_trace_rejected(self):
        m = SampleMoments(mean=np.zeros(3), cov=np.zeros((3, 3)), n=10, p=3)
        with pytest.raises(ZeroTrace):
            precision_rte(m)

    def test_dense_agreement_all_kinds(self):
        """Solve-based reports match explicit-inverse plug-in arithmetic."""
        m = _random_moments(p=7, n=40, seed=9)
        dense = {
            EstimatorKind.SSE: precision_sse(m),
            EstimatorKind.EBE: precision_ebe(m),
            EstimatorKind.RTE: precision_rte(m),
        }
        reports = estimate_many(m, dense)
        for kind, omega in dense.items():
            a, b, c = _dense_forms(m.mean, omega)
            got = reports[kind].params
            assert got.r_gmv == pytest.approx(b / c, rel=1e-10)
            assert got.v_gmv == pytest.approx(1.0 / c, rel=1e-10)
            assert got.slope == pytest.approx(a - b * b / c, rel=1e-10)


class TestPluginFrontier:
    def test_matches_report_pipeline(self):
        m = _random_moments(p=5, n=24, seed=10)
        omega = precision_sse(m)
        direct = plugin_frontier(omega, m.mean, EstimatorKind.SSE, n=m.n)
        via_estimate = estimate(m, EstimatorKind.SSE)
        assert direct.params.v_gmv == pytest.approx(via_estimate.params.v_gmv, rel=1e-12)
        assert direct.params.slope == pytest.approx(via_estimate.params.slope, rel=1e-10)

    def test_rejects_non_pd_precision(self):
        from hdfrontier import NotPositiveDefinite

        with pytest.raises(NotPositiveDefinite):
            plugin_frontier(-np.eye(3), np.zeros(3), EstimatorKind.SSE, n=10)

    def test_ratio_bounds_by_kind(self):
        with pytest.raises(RatioOutOfRange):
            plugin_frontier(np.eye(4), np.full(4, 0.1), EstimatorKind.SAMPLE, n=4)
        report = plugin_frontier(np.eye(4), np.full(4, 0.1), EstimatorKind.RTE, n=4)
        assert report.ratio == 1.0


class TestEstimateMany:
    def test_one_factorization_per_moments(self, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        m = _random_moments(p=6, n=30, seed=13)
        for kind in ("sample", "consistent", "unbiased", "sse", "ebe"):
            estimate(m, kind)
        assert len(calls) == 1
        assert calls[0][0] is m.cov

    def test_failed_factorization_is_cached(self, monkeypatch):
        returns = np.random.default_rng(3).standard_normal((6, 40))
        returns[2] = 0.5  # a constant asset makes S singular
        calls = _count_factorizations(monkeypatch)
        reports, errors = _estimate_each(sample_moments(returns), ALL_KINDS)
        # one failed attempt for the five inv(S) kinds, one for rte's ridged matrix
        assert len(calls) == 2
        assert set(reports) == {EstimatorKind.RTE}
        for kind in ALL_KINDS[:-1]:
            with pytest.raises(SingularCovariance) as fresh:
                estimate(sample_moments(returns), kind)
            assert type(errors[kind]) is SingularCovariance
            assert str(errors[kind]) == str(fresh.value)
            assert isinstance(errors[kind].__cause__, scipy.linalg.LinAlgError)

    def test_matches_individual_estimates(self):
        m = _random_moments(p=6, n=30, seed=12)
        many = estimate_many(m, ALL_KINDS)
        for kind in ALL_KINDS:
            single = estimate(m, kind)
            assert many[kind].params == single.params

    def test_accepts_strings(self):
        m = _random_moments()
        many = estimate_many(m, ["sample", "rte"])
        assert set(many) == {EstimatorKind.SAMPLE, EstimatorKind.RTE}

    def test_unknown_kind(self):
        m = _random_moments()
        with pytest.raises(ValueError):
            estimate_many(m, ["nonsense"])


class TestEquivariance:
    def test_translation_shifts_r_only(self):
        """Adding a constant d to every return shifts r_gmv by d and nothing else."""
        spec = ScenarioSpec(scenario="normal", p=6, n=40, seed=8)
        mu, sigma = build_population(spec)
        y = generate_normal(spec, mu, sigma).values
        d = 0.37
        base = estimate_many(sample_moments(y), ALL_KINDS)
        shifted = estimate_many(sample_moments(y + d), ALL_KINDS)
        for kind in ALL_KINDS:
            b, s = base[kind].params, shifted[kind].params
            assert s.r_gmv == pytest.approx(b.r_gmv + d, rel=1e-9, abs=1e-12)
            assert s.v_gmv == pytest.approx(b.v_gmv, rel=1e-9)
            assert s.slope == pytest.approx(b.slope, rel=1e-8, abs=1e-12)
