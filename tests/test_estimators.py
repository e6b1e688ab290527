"""Sample moments and the estimator family."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hdfrontier import (
    EstimateReport,
    EstimatorKind,
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
    merton_constants,
    plugin_frontier,
    precision_ebe,
    precision_rte,
    precision_sse,
    sample_moments,
    unbiased_frontier,
)
from hdfrontier import estimators, frontier
from hdfrontier.estimators import (
    _estimate_each,
    _estimate_stack,
    _shape_error,
    consistent_frontier,
    sample_frontier,
)
from hdfrontier.pipeline import RollingConfig
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

#: each kind's public entry point besides estimate
PUBLIC_FUNCTIONS = {
    EstimatorKind.SAMPLE: sample_frontier,
    EstimatorKind.CONSISTENT: consistent_frontier,
    EstimatorKind.UNBIASED: unbiased_frontier,
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
        """estimate, the kind's public function and precision_sse fail as the rules say."""
        p = 6
        n = p + excess
        m = sample_moments(np.random.default_rng(excess + 10).standard_normal((p, n)))
        for call, rule_kind in (
            (lambda m: estimate(m, kind), kind),
            (PUBLIC_FUNCTIONS[kind], kind),
            (precision_sse, EstimatorKind.SSE),
        ):
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
    "huge_mean",       # covariance near 1e250, mean near 1e200: r_gmv**2 overflows
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the scalar path on extreme slots
class TestEstimateStack:
    """The chunk core against one ``_estimate_each`` call per slot."""

    @given(
        p=st.integers(2, 7),
        excess=st.sampled_from([1, 2, 3, 9, 40]),
        cases=st.lists(st.sampled_from(SLOT_CASES), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_each_slot(self, p, excess, cases, seed):
        rng = np.random.default_rng(seed)
        slots = [_slot(case, p, rng) for case in cases]
        means = np.array([mean for mean, _ in slots])
        covs = np.array([cov for _, cov in slots])
        n = p + excess
        each, kept = [], []
        for slot in range(len(cases)):
            moments = SampleMoments(mean=means[slot], cov=covs[slot], n=n, p=p)
            try:
                each.append(_estimate_each(moments, ALL_KINDS))
            except OverflowError:  # the unbiased kind's to_merton squares a huge r_gmv
                with pytest.raises(OverflowError):
                    _estimate_stack(means[slot:slot + 1], covs[slot:slot + 1], n, ALL_KINDS)
            else:
                kept.append(slot)
        values, errors = _estimate_stack(means[kept], covs[kept], n, ALL_KINDS)
        for row, (reports, failed) in enumerate(each):
            for kind in ALL_KINDS:
                if kind in reports:
                    params = reports[kind].params
                    want = np.array([params.r_gmv, params.v_gmv, params.slope])
                    assert row not in errors[kind]
                else:
                    want = np.full(3, np.nan)
                    got = errors[kind][row]
                    assert (type(got), str(got)) == (type(failed[kind]), str(failed[kind]))
                assert np.array_equal(values[kind][row], want, equal_nan=True), (kind, cases[kept[row]])

    def test_covers_every_path(self, monkeypatch):
        """The hand-built cases reach the accepted rows, the clamp, and each failure."""
        redone = []  # kinds that a slot's scalar rerun estimated

        def spy(moments, kinds, _each=estimators._estimate_each):
            reports, failed = _each(moments, kinds)
            redone.extend(reports)
            return reports, failed

        monkeypatch.setattr(estimators, "_estimate_each", spy)
        rng = np.random.default_rng(1)
        p, n = 5, 7  # n = p + 2: the unbiased kind runs, sse and ebe fail by shape
        cases = SLOT_CASES[:-1]  # all but huge_mean, which raises
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
        # the sample kind accepts this slot, but the unbiased kind's is redone,
        # and raises as the one-panel path does
        mean, cov = _slot("huge_mean", p, rng)
        redone.clear()
        assert np.all(np.isfinite(_estimate_stack(mean[None], cov[None], n, [sample])[0][sample]))
        assert redone == []
        with pytest.raises(OverflowError):
            _estimate_stack(mean[None], cov[None], n, [EstimatorKind.UNBIASED])
        # this equal-mean slot's slope is -1.4e-17: redone, and clamped to zero
        mean, cov = _slot("equal_mean", p, np.random.default_rng(0))
        clamped, _ = _estimate_stack(mean[None], cov[None], n, [sample])
        assert redone[-1:] == [sample] and clamped[sample][0, 2] == 0.0
