"""Sample moments and the estimator family."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hdfrontier import (
    DimensionMismatch,
    EstimateReport,
    EstimatorKind,
    FrontierParams,
    HDFrontierError,
    InvalidParams,
    RatioOutOfRange,
    ReturnsMatrix,
    SampleMoments,
    SingularCovariance,
    TooFewObservations,
    ZeroTrace,
    build_population,
    estimate,
    estimate_many,
    frontier_params,
    precision_ebe,
    precision_rte,
    precision_sse,
    sample_moments,
)
from hdfrontier import estimators, frontier
from hdfrontier.estimators import (
    _estimate_each,
    _estimate_stack,
    _moments,
    _shape_error,
)
from hdfrontier.pipeline import RollingConfig
from hdfrontier.simulate import ScenarioSpec, generate_returns

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

    def test_checks_what_it_is_given(self):
        mean, cov = np.zeros(5), np.eye(5)
        with pytest.raises(DimensionMismatch):  # estimates at the wrong p/n, before the check
            SampleMoments(mean=mean, cov=cov, n=20, p=4)
        with pytest.raises(DimensionMismatch):  # a LAPACK ValueError, before the check
            SampleMoments(mean=mean, cov=np.eye(4), n=20, p=5)
        with pytest.raises(InvalidParams, match="n must be an integer"):
            SampleMoments(mean=mean, cov=cov, n=20.5, p=5)
        with pytest.raises(InvalidParams, match="p must be an integer"):
            SampleMoments(mean=mean, cov=cov, n=20, p=5.0)
        assert SampleMoments(mean=mean, cov=cov, n=np.int64(20), p=5).ratio == 0.25

    def test_accepts_returns_matrix(self):
        y = np.arange(12.0).reshape(3, 4)
        assert np.allclose(sample_moments(ReturnsMatrix(y)).mean, y.mean(axis=1))

    @pytest.mark.parametrize("shape", [(1, 5, 9), (3, 8, 30), (2, 50, 390), (21, 100, 200)])
    def test_work_buffers_give_the_same_bits(self, shape):
        # centred in place in the values' own buffer and the covariance
        # written into a given buffer: the bits of fresh arrays, and no
        # other buffer than the means and NumPy's iteration buffers
        x = np.random.default_rng(4).standard_normal(shape) * 1e-3 + 1e-4
        mean, cov = _moments(x)
        into = np.empty((*shape[:-1], shape[1]))
        tracemalloc.start()
        try:
            got_mean, got_cov = _moments(x, (x, into))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= mean.nbytes + (128 << 10)
        assert got_cov is into
        assert got_mean.tobytes() == mean.tobytes() and into.tobytes() == cov.tobytes()

    @pytest.mark.parametrize("shape", [(5, 9), (40, 60), (1, 5, 9), (3, 8, 30), (21, 100, 200)])
    def test_covariance_is_symmetric_to_the_bit(self, shape):
        # the one-buffer covariance needs no (P + P')/2 pass: matmul of a panel
        # with its own transpose mirrors one triangle
        x = np.random.default_rng(6).standard_normal(shape) * 0.02 + 0.01
        _, cov = _moments(x)
        assert cov.tobytes() == cov.mT.tobytes()
        centered = x - x.mean(axis=-1, keepdims=True)
        product = centered @ centered.mT / shape[-1]
        assert (0.5 * (product + product.mT)).tobytes() == cov.tobytes()


class TestSampleAndConsistent:
    def test_sample_matches_dense_inverse(self):
        m = _random_moments()
        inv = np.linalg.inv(m.cov)
        a, b, c = _dense_forms(m.mean, inv)
        report = estimate(m, "sample")
        assert report.params.r_gmv == pytest.approx(b / c, rel=1e-10)
        assert report.params.v_gmv == pytest.approx(1.0 / c, rel=1e-10)
        assert report.params.slope == pytest.approx(a - b * b / c, rel=1e-10)
        assert report.kind is EstimatorKind.SAMPLE
        assert report.ratio == pytest.approx(m.p / m.n)

    def test_consistent_scales_sample(self):
        m = _random_moments()
        s = estimate(m, "sample").params
        c = estimate(m, "consistent").params
        shrink = 1.0 - m.p / m.n
        assert c.r_gmv == s.r_gmv
        assert c.v_gmv == pytest.approx(s.v_gmv / shrink, rel=1e-12)
        assert c.slope == pytest.approx(s.slope * shrink, rel=1e-12)

    def test_singular_names_requirement(self):
        rng = np.random.default_rng(2)
        m = sample_moments(rng.standard_normal((10, 8)))
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
            assert estimate(moments, "sample").params == frontier_params(mu, sigma)

    def test_report_holds_what_is_estimated(self):
        m = SampleMoments(mean=np.zeros(4), cov=np.eye(4), n=10, p=4)
        names = [f.name for f in dataclasses.fields(estimators.EstimateReport)]
        assert names == ["kind", "params", "p", "n"]
        reports = estimate_many(m, ["sample", "unbiased", "rte"])
        assert [r.ratio for r in reports.values()] == [0.4] * 3
        assert [r.notes for r in reports.values()] == [(), ("negative-slope",), ()]

    def test_population_moments_recover_population(self):
        # plugging exact moments in: corrections vanish as n grows
        mu = np.array([0.0, 0.3])
        sigma = np.diag([1.0, 2.0])
        m = SampleMoments(mean=mu, cov=sigma, n=10**9, p=2)
        report = estimate(m, "consistent")
        assert report.params.r_gmv == pytest.approx(0.1, rel=1e-8)
        assert report.params.v_gmv == pytest.approx(2.0 / 3.0, rel=1e-8)
        assert report.params.slope == pytest.approx(0.03, rel=1e-6)


class TestUnbiased:
    def test_closed_form_in_n_minus_1_basis(self):
        # V_u = (n-1)/(n-p) * V^(n-1);  s_u = ((n-p-1)/(n-1)) s^(n-1) - (p-1)/n
        m = _random_moments(p=6, n=20)
        n, p = m.n, m.p
        base = estimate(m, "sample").params
        v_n1 = base.v_gmv * n / (n - 1)  # divisor-(n-1) version of the estimate
        s_n1 = base.slope * (n - 1) / n
        report = estimate(m, "unbiased")
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
        truth = frontier_params(mu, sigma)
        reps = 10_000
        rng = np.random.default_rng(np.random.SeedSequence(123))
        v_ratio = np.empty(reps)
        s_hat = np.empty(reps)
        for k in range(reps):
            y = sigma.diagonal()[:, None] ** 0.5 * rng.standard_normal((10, 60)) + mu[:, None]
            report = estimate(sample_moments(y), "unbiased")
            v_ratio[k] = report.params.v_gmv / truth.v_gmv
            s_hat[k] = report.params.slope
        se_v = v_ratio.std(ddof=1) / np.sqrt(reps)
        se_s = s_hat.std(ddof=1) / np.sqrt(reps)
        assert abs(v_ratio.mean() - 1.0) < 2.0 * se_v, (v_ratio.mean(), se_v)
        assert abs(s_hat.mean() - truth.slope) < 2.0 * se_s, (s_hat.mean(), truth.slope, se_s)

    def test_negative_slope_flagged(self):
        m = SampleMoments(mean=np.zeros(4), cov=np.eye(4), n=10, p=4)
        report = estimate(m, "unbiased")
        assert report.params.slope == pytest.approx(-3 / 10)
        assert "negative-slope" in report.notes

    def test_needs_n_ge_p_plus_2(self):
        rng = np.random.default_rng(3)
        m = sample_moments(rng.standard_normal((5, 6)))
        with pytest.raises(TooFewObservations):
            estimate(m, "unbiased")


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

    def test_ridged_matches_the_three_buffer_formula(self):
        # (n - 1) S + tr(S) I in one buffer, with the bits of the formula that
        # builds it from three: -0.0 entries, and zero, negative and non-finite traces
        rng = np.random.default_rng(8)
        traces = np.array([2.5, 0.0, -0.0, -3.0, np.inf, -np.inf, np.nan, 1e308])
        covs = rng.standard_normal((len(traces), 4, 4))
        covs[:, 0, 1] = covs[:, 1, 0] = -0.0
        covs[:, 2, 2] = -0.0
        covs[-1] *= 1e308  # entries that overflow
        with np.errstate(all="ignore"):
            old = 39 * covs + np.multiply.outer(traces, np.eye(4))
        assert estimators._ridged(covs, traces, 40).tobytes() == old.tobytes()

    @pytest.mark.parametrize("kind", ["sse", "ebe", "rte"])
    def test_one_factorization_per_precision(self, monkeypatch, kind):
        # the read's Cholesky factor is the one the inverse comes from: no LU inverse
        precision = PRECISION_FUNCTIONS[EstimatorKind(kind)]
        m = _random_moments(p=7, n=40, seed=9)
        expected = precision(m)
        calls = _count_factorizations(monkeypatch)
        monkeypatch.setattr(scipy.linalg, "inv", None)
        omega = precision(m)
        assert len(calls) == 1
        assert omega.tobytes() == expected.tobytes() == omega.T.tobytes()

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


class TestEstimateReport:
    def test_ratio_bounds_by_kind(self):
        params = FrontierParams(0.1, 0.25, 0.0)
        with pytest.raises(RatioOutOfRange):
            EstimateReport(EstimatorKind.SAMPLE, params, 4, 4)
        assert EstimateReport(EstimatorKind.RTE, params, 4, 4).ratio == 1.0


class TestEstimateMany:
    def test_one_factorization_per_moments(self, monkeypatch):
        # one estimate_many call factorizes S once for all its kinds
        calls = _count_factorizations(monkeypatch)
        m = _random_moments(p=6, n=30, seed=13)
        estimate_many(m, ("sample", "consistent", "unbiased", "sse", "ebe"))
        assert len(calls) == 1
        assert np.shares_memory(calls[0][0], m.cov)

    def test_failed_factorization_is_shared(self, monkeypatch):
        returns = np.random.default_rng(3).standard_normal((6, 40))
        returns[2] = 0.5  # a constant asset makes S singular
        calls = _count_factorizations(monkeypatch)
        with pytest.raises(SingularCovariance):
            estimate_many(sample_moments(returns), ALL_KINDS)
        # one failed attempt for the five inv(S) kinds, one for rte's ridged matrix
        assert len(calls) == 2
        reports, errors = _estimate_each(sample_moments(returns), ALL_KINDS)
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
        y = generate_returns(spec, mu, sigma).values
        d = 0.37
        base = estimate_many(sample_moments(y), ALL_KINDS)
        shifted = estimate_many(sample_moments(y + d), ALL_KINDS)
        for kind in ALL_KINDS:
            b, s = base[kind].params, shifted[kind].params
            assert s.r_gmv == pytest.approx(b.r_gmv + d, rel=1e-9, abs=1e-12)
            assert s.v_gmv == pytest.approx(b.v_gmv, rel=1e-9)
            assert s.slope == pytest.approx(b.slope, rel=1e-8, abs=1e-12)


#: the smallest n - p each kind admits, and the message of the rule that a
#: shape with n > p can still break (None: rte, which admits every shape)
SHAPE_RULES = {
    EstimatorKind.SAMPLE: (1, ""),
    EstimatorKind.CONSISTENT: (1, ""),
    EstimatorKind.UNBIASED: (2, "unbiased correction needs n >= p + 2"),
    EstimatorKind.SSE: (3, "scaled-inverse precision needs n >= p + 3"),
    EstimatorKind.EBE: (3, "scaled-inverse precision needs n >= p + 3"),
    EstimatorKind.RTE: (None, ""),
}

#: the precision kinds' public entry points besides estimate
PRECISION_FUNCTIONS = {
    EstimatorKind.SSE: precision_sse,
    EstimatorKind.EBE: precision_ebe,
    EstimatorKind.RTE: precision_rte,
}


def _expected_shape_error(kind, p, n):
    """(class, message) the shape rules name for a p x n panel, or None."""
    need, rule = SHAPE_RULES[kind]
    if need is None or n - p >= need:
        return None
    if n <= p:
        return SingularCovariance, (
            f"sample covariance with p={p}, n={n} is singular: "
            f"estimators based on inv(S) require n > p"
        )
    return TooFewObservations, f"{rule}, got n={n}, p={p}"


class TestShapeRules:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("excess", [-1, 0, 1, 2, 3])
    def test_boundary(self, kind, excess):
        """estimate, a precision kind's own function and precision_sse fail as the rules say."""
        p = 6
        n = p + excess
        m = sample_moments(np.random.default_rng(excess + 10).standard_normal((p, n)))
        calls = [(lambda m: estimate(m, kind), kind), (precision_sse, EstimatorKind.SSE)]
        if kind in PRECISION_FUNCTIONS:
            calls.append((PRECISION_FUNCTIONS[kind], kind))
        for call, rule_kind in calls:
            expected = _expected_shape_error(rule_kind, p, n)
            if expected is None:
                call(m)
            else:
                with pytest.raises(HDFrontierError) as raised:
                    call(m)
                assert (type(raised.value), str(raised.value)) == expected
        error = _shape_error(kind, p, n)
        expected = _expected_shape_error(kind, p, n)
        assert (error is None) if expected is None else ((type(error), str(error)) == expected)
        if n <= p and kind is not EstimatorKind.RTE:
            with pytest.raises(InvalidParams, match=rf"need n > p for kinds \['{kind.value}'\]"):
                RollingConfig(p=p, n=n, kinds=(kind,))
        else:
            assert RollingConfig(p=p, n=n, kinds=(kind,)).kinds == (kind,)

    def test_shape_check_precedes_factorization(self, monkeypatch):
        m = _random_moments(p=6, n=7, seed=2)
        calls = _count_factorizations(monkeypatch)
        for kind in (EstimatorKind.UNBIASED, EstimatorKind.SSE, EstimatorKind.EBE):
            with pytest.raises(TooFewObservations):
                estimate(m, kind)
        assert calls == []

    def test_unfactorizable_cov_with_too_few_observations(self):
        """A shape the rules exclude fails by shape, whatever S is."""
        returns = np.random.default_rng(3).standard_normal((6, 8))
        returns[2] = 0.5  # a constant asset makes S singular
        m = sample_moments(returns)
        with pytest.raises(SingularCovariance):
            estimate(m, EstimatorKind.SAMPLE)
        with pytest.raises(TooFewObservations, match="n >= p \\+ 3"):
            estimate(m, EstimatorKind.SSE)


class TestEstimateManyOrder:
    def test_first_failed_kind_in_request_order(self):
        m = _random_moments(p=6, n=7, seed=4)
        with pytest.raises(TooFewObservations, match="scaled-inverse"):
            estimate_many(m, ["sample", "sse", "unbiased", "rte"])
        with pytest.raises(TooFewObservations, match="unbiased correction"):
            estimate_many(m, ["rte", "unbiased", "sse"])
        singular = _random_moments(p=6, n=5, seed=4)
        with pytest.raises(SingularCovariance, match="n > p"):
            estimate_many(singular, ["rte", "ebe", "sample"])


def _outcome(call):
    """(class, message) of what ``call()`` raises, or None when it returns."""
    try:
        call()
    except HDFrontierError as exc:
        return type(exc), str(exc)
    return None


class TestPrecisionErrorsMatchEstimate:
    """A precision function fails as ``estimate`` fails for its kind."""

    # a constant panel: zero covariance at n=4, rounding-size at n=12
    @pytest.mark.parametrize("n", [4, 12])
    @pytest.mark.parametrize(
        "kind, precision",
        [("sse", precision_sse), ("ebe", precision_ebe), ("rte", precision_rte)],
    )
    def test_constant_panel(self, n, kind, precision):
        def moments():
            return sample_moments(np.full((6, n), 0.1))

        expected = _outcome(lambda: estimate(moments(), kind))
        assert _outcome(lambda: precision(moments())) == expected
        if kind != "rte":
            assert expected is not None and expected[0] is SingularCovariance


#: hand-built slots for the chunk core: what each does to the mean and covariance
SLOT_CASES = (
    "well",            # well-conditioned, random mean
    "constant",        # a constant asset: zero row and column, the factorization fails
    "near_singular",   # smallest eigenvalue 1e-18 to 1e-12 of the largest
    "equal_mean",      # mean along the ones vector: a slope of rounding size
    "zero_mean",       # zero slope, so the unbiased slope is negative
    "zero",            # zero covariance: zero trace
    "tiny",            # covariance near 1e-305: forms beyond the core's bound
    "huge",            # covariance near 5e307: the unbiased variance can overflow
    "opposed",         # identity covariance, mean +-1e160: a overflows while b = 0
    "huge_mean",       # covariance near 1e250, mean near 1e200: r_gmv near 1e200
)


def _slot(case, p, rng):
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    eigs = rng.uniform(0.5, 2.0, p)
    if case == "near_singular":
        eigs[0] = 10.0 ** rng.uniform(-18, -12)
    cov = (basis * eigs) @ basis.T
    cov = 0.5 * (cov + cov.T)
    mean = rng.uniform(-0.3, 0.3, p)
    if case == "constant":
        cov[0, :] = cov[:, 0] = 0.0
    elif case == "equal_mean":
        mean[:] = mean[0]
    elif case == "zero_mean":
        mean[:] = 0.0
    elif case == "zero":
        cov[:] = 0.0
    elif case == "tiny":
        cov *= 1e-305
    elif case == "huge":
        cov *= 5e307
    elif case == "opposed":
        cov = np.eye(p)
        mean = np.resize([1e160, -1e160], p)
    elif case == "huge_mean":
        cov *= 1e250
        mean = rng.uniform(1e200, 2e200, p)
    return mean, cov


class TestExtremeMoments:
    """Moments near the float range fail with an HDFrontierError, and nothing else."""

    def test_huge_covariance_fails_without_numpy_warnings(self):
        m = SampleMoments(mean=np.ones(5), cov=5e307 * np.eye(5), n=20, p=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ALL_KINDS:
                try:
                    estimate(m, kind)
                except HDFrontierError:
                    pass
            with pytest.raises(HDFrontierError):
                estimate(m, "rte")

    def test_r_gmv_whose_square_overflows_estimates(self):
        # r_gmv near 1e200: only ebe fails, on its own mean·mean overflowing
        m = SampleMoments(mean=np.array([1e200, 1.1e200]), cov=1e250 * np.eye(2), n=10, p=2)
        reports, errors = _estimate_each(m, ALL_KINDS)
        assert list(errors) == [EstimatorKind.EBE]
        unbiased = reports[EstimatorKind.UNBIASED].params
        assert unbiased.r_gmv == reports[EstimatorKind.SAMPLE].params.r_gmv == 1.05e200
        assert unbiased.v_gmv == pytest.approx(6.25e249, rel=1e-15)


class TestEstimateStack:
    """The chunk core: a stack of B slots against B stacks of one."""

    @given(
        p=st.integers(2, 7),
        excess=st.sampled_from([1, 2, 3, 9, 40]),
        cases=st.lists(st.sampled_from(SLOT_CASES), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_each_slot(self, p, excess, cases, seed):
        # what makes a chunk's CSV rows the same bytes for any --jobs
        rng = np.random.default_rng(seed)
        slots = [_slot(case, p, rng) for case in cases]
        means = np.array([mean for mean, _ in slots])
        covs = np.array([cov for _, cov in slots])
        n = p + excess
        each = [_estimate_stack(mean[None], cov[None], n, ALL_KINDS) for mean, cov in slots]
        values, errors = _estimate_stack(means, covs, n, ALL_KINDS)
        for row, (one_values, one_errors) in enumerate(each):
            # the one-panel path, which skips the stack's filter, gives the same
            reports, panel_errors = _estimate_each(
                SampleMoments(mean=means[row], cov=covs[row], n=n, p=p), ALL_KINDS
            )
            for kind in ALL_KINDS:
                if 0 in one_errors[kind]:
                    got, want = errors[kind][row], one_errors[kind][0]
                    assert (type(got), str(got)) == (type(want), str(want))
                    other = panel_errors[kind]
                    assert (type(other), str(other)) == (type(want), str(want))
                else:
                    assert row not in errors[kind] and kind in reports
                    params = reports[kind].params
                    panel_bits = [x.hex() for x in (params.r_gmv, params.v_gmv, params.slope)]
                    assert panel_bits == [float(x).hex() for x in values[kind][row]]
                # as hex, so that -0.0 and 0.0 differ, and NaN where the kind failed
                bits = [float(x).hex() for x in values[kind][row]]
                assert bits == [float(x).hex() for x in one_values[kind][0]], (kind, cases[row])

    def test_covers_every_path(self):
        """The hand-built cases reach the plainly valid rows, the clamp, and each failure."""
        rng = np.random.default_rng(1)
        p, n = 5, 7  # n = p + 2: the unbiased kind runs, sse and ebe fail by shape
        cases = SLOT_CASES[:-1]  # all but huge_mean, drawn on its own below
        slots = [_slot(case, p, rng) for case in cases]
        means = np.array([mean for mean, _ in slots])
        covs = np.array([cov for _, cov in slots])
        values, errors = _estimate_stack(means, covs, n, ALL_KINDS)
        sample = EstimatorKind.SAMPLE
        assert np.all(np.isfinite(values[sample][0]))
        assert type(errors[sample][1]) is SingularCovariance
        assert type(errors[EstimatorKind.RTE][5]) is ZeroTrace
        assert values[EstimatorKind.UNBIASED][4, 2] < 0.0
        assert len(errors[EstimatorKind.SSE]) == len(cases)
        # r_gmv near 1e200, whose square overflows: both kinds accept the slot
        mean, cov = _slot("huge_mean", p, rng)
        unbiased = EstimatorKind.UNBIASED
        values, errors = _estimate_stack(mean[None], cov[None], n, [sample, unbiased])
        assert errors == {sample: {}, unbiased: {}}
        assert np.all(np.isfinite(values[unbiased])) and values[unbiased][0, 0] > 1e154
        # this equal-mean slot's unclamped slope is -1.4e-17: clamped to +0.0
        mean, cov = _slot("equal_mean", p, np.random.default_rng(0))
        stack = estimators._MomentStack(mean[None], cov[None], n)
        (a, b, c), _ = estimators._kind_reads(sample, stack)  # the sample constants are the forms
        assert frontier._vertex(a, b, c)[2][0] < 0.0
        clamped, _ = _estimate_stack(mean[None], cov[None], n, [sample])
        assert float(clamped[sample][0, 2]).hex() == "0x0.0p+0"
