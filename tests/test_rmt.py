"""Spectral transforms, limit-law oracles, and quadratic-form diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from hdfrontier import (
    BranchAmbiguity,
    FrontierParams,
    InvalidParams,
    PoleAtZ,
    SingularMatrix,
    StieltjesPoint,
    TooFewObservations,
    asymptotic_variances,
    demeaned_quadform_diagnostics,
    gaussian_exact_laws,
    m_of_z,
    mp_support,
    sample_noncentral_chisq,
    white_quadform_diagnostics,
    x_of_z,
)


def _random_points(c, count=60, seed=0):
    rng = np.random.default_rng(seed)
    re = rng.uniform(-3.0, 5.0, count)
    im = rng.uniform(0.05, 3.0, count)
    return [StieltjesPoint(complex(a, b), c) for a, b in zip(re, im)]


class TestMpSupport:
    def test_endpoints(self):
        lo, hi = mp_support(0.25)
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(2.25)
        assert mp_support(1.0) == (0.0, 4.0)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            mp_support(0.0)


class TestXTransform:
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 1.0, 1.5])
    def test_solves_quadratic(self, c):
        for pt in _random_points(c):
            x = x_of_z(pt)
            residual = x * x - (1 - c + pt.z) * x + pt.z
            assert abs(residual) < 1e-12 * max(1.0, abs(x) ** 2)

    @pytest.mark.parametrize("c", [0.3, 1.0, 2.0])
    def test_maps_upper_half_plane_to_itself(self, c):
        for pt in _random_points(c, seed=1):
            assert x_of_z(pt).imag > 0.0

    def test_conjugate_symmetry(self):
        pt = StieltjesPoint(1.2 + 0.7j, 0.4)
        mirrored = StieltjesPoint(pt.z.conjugate(), 0.4)
        assert x_of_z(mirrored) == x_of_z(pt).conjugate()

    def test_zero_limit(self):
        # x -> 1 - c as z -> 0+ below the bulk (c < 1)
        x = x_of_z(StieltjesPoint(1e-12, 0.36))
        assert x.imag == 0.0
        assert x.real == pytest.approx(0.64, abs=1e-10)

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.8])
    def test_reference_point_above_bulk_centre(self, c):
        # at z = 1 + c + 2i sqrt(c) the root is exactly 1 + i sqrt(c)(1 + sqrt(2))
        z = complex(1 + c, 2 * math.sqrt(c))
        x = x_of_z(StieltjesPoint(z, c))
        assert x.real == pytest.approx(1.0, abs=1e-12)
        assert x.imag == pytest.approx(math.sqrt(c) * (1 + math.sqrt(2)), rel=1e-12)

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchAmbiguity):
            x_of_z(StieltjesPoint(1.0, 0.25))  # inside [0.25, 2.25]
        with pytest.raises(BranchAmbiguity):
            x_of_z(StieltjesPoint(2.25, 0.25))  # an edge

    def test_real_off_support_is_real(self):
        x = x_of_z(StieltjesPoint(-2.0, 0.5))
        assert x.imag == 0.0
        assert x.real * x.real - (1 - 0.5 - 2.0) * x.real + (-2.0) == pytest.approx(0.0, abs=1e-12)


class TestMTransform:
    @pytest.mark.parametrize("c", [0.2, 0.5, 0.9, 1.0, 1.5])
    def test_solves_quadratic(self, c):
        for pt in _random_points(c, seed=2):
            m, _ = m_of_z(pt)
            residual = c * pt.z * m * m + (pt.z - 1 + c) * m + 1
            assert abs(residual) < 1e-11 * max(1.0, abs(m) ** 2)

    @pytest.mark.parametrize("c", [0.5, 1.5])
    def test_herglotz_property(self, c):
        for pt in _random_points(c, seed=3):
            m, companion = m_of_z(pt)
            assert m.imag > 0.0
            assert companion.imag > 0.0

    def test_companion_definition(self):
        pt = StieltjesPoint(0.3 + 1.1j, 0.6)
        m, companion = m_of_z(pt)
        assert companion == pytest.approx(-(1 - 0.6) / pt.z + 0.6 * m)

    @pytest.mark.parametrize("c", [0.4, 1.3])
    def test_linked_to_x_through_companion_root(self, c):
        # m = 1/(x~ - z) where x~ = z/x is the other root of the x-quadratic
        for pt in _random_points(c, seed=4):
            m, _ = m_of_z(pt)
            companion_root = pt.z / x_of_z(pt)
            assert abs(m - 1.0 / (companion_root - pt.z)) < 1e-10 * abs(m)

    def test_zero_limit_below_one(self):
        m, companion = m_of_z(StieltjesPoint(0.0, 0.5))
        assert m == 2.0
        assert companion is None

    def test_pole_at_zero_for_large_c(self):
        with pytest.raises(PoleAtZ):
            m_of_z(StieltjesPoint(0.0, 1.5))

    def test_real_point_matches_density_integral(self):
        # independent oracle: integrate the spectral density against 1/(t - z)
        c = 0.5
        lo, hi = mp_support(c)

        def integrand(t):
            return math.sqrt((hi - t) * (t - lo)) / (2 * math.pi * c * t) / (t + 1.0)

        expected, err = scipy.integrate.quad(integrand, lo, hi)
        assert err < 1e-9
        m, _ = m_of_z(StieltjesPoint(-1.0, c))
        assert m.imag == 0.0
        assert m.real == pytest.approx(expected, rel=1e-8)

    def test_conjugate_symmetry(self):
        pt = StieltjesPoint(0.5 + 2.0j, 0.7)
        m, comp = m_of_z(pt)
        m_bar, comp_bar = m_of_z(StieltjesPoint(pt.z.conjugate(), 0.7))
        assert m_bar == m.conjugate()
        assert comp_bar == comp.conjugate()

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchAmbiguity):
            m_of_z(StieltjesPoint(1.0, 0.5))


class TestPointAndRegimeValidation:
    def test_point_rejects_non_finite(self):
        with pytest.raises(InvalidParams):
            StieltjesPoint(complex("inf"), 0.5)
        with pytest.raises(InvalidParams):
            StieltjesPoint(1.0, -0.5)

    def test_regime_default_and_bounds(self):
        """The diagnostics take n = round(p/c) and reject a c that is not a positive real."""
        records = demeaned_quadform_diagnostics(0.4, 10, seed=3)
        assert [(r.p, r.n, r.c) for r in records] == [(10, 25, 0.4)] * 3
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidParams):
                demeaned_quadform_diagnostics(bad, 10, seed=3)


class TestCltOracles:
    """The chi-square ratio and noncentral-F limits, read off asymptotic_variances.

    With ``c = p/n``, ``sqrt(n) (Z/(n-p) - 1)`` for ``Z ~ chi2_{n-p}`` has
    variance ``2n/(n-p) = 2/(1-c)``, the consistent GMV variance's limit
    ``var_v / v**2``; and ``c`` times the noncentral-F slope statistic
    (noncentrality ``n s``) centres at ``c + s`` with variance
    ``c**2 ((2/c)(1 + 2s/c) + (2/(1-c))(1 + s/c)**2)``, which is ``var_s``.
    """

    def test_chi2_ratio_moments(self):
        for p, n in ((100, 200), (500, 1000), (10, 110)):
            limits = asymptotic_variances(FrontierParams(0.0, 2.0, 0.1), p / n)
            assert limits.var_v / 2.0**2 == pytest.approx(2.0 * n / (n - p), rel=1e-12)

    def test_noncentral_f_params(self):
        for p, n, s in ((50, 100, 0.0), (50, 100, 0.25), (30, 200, 1.5)):
            c = p / n
            f_variance = (2 / c) * (1 + 2 * s / c) + (2 / (1 - c)) * (1 + s / c) ** 2
            limits = asymptotic_variances(FrontierParams(0.0, 1.0, s), c)
            assert limits.var_s == pytest.approx(c * c * f_variance, rel=1e-12)

    def test_chi2_clt_against_simulation(self):
        p, n, draws = 100, 200, 200_000
        rng = np.random.default_rng(17)
        z = rng.chisquare(n - p, size=draws)
        stat = math.sqrt(n) * (z / (n - p) - 1.0)
        var = asymptotic_variances(FrontierParams(0.0, 1.0, 0.1), p / n).var_v
        assert abs(stat.mean()) < 3 * stat.std(ddof=1) / math.sqrt(draws)
        assert stat.var(ddof=1) == pytest.approx(var, rel=0.03)


class TestNoncentralChisqSampler:
    def test_moments(self):
        rng = np.random.default_rng(5)
        df, delta, draws = 7.0, 3.0, 200_000
        x = sample_noncentral_chisq(df, delta, draws, rng)
        assert x.shape == (draws,)
        se_mean = x.std(ddof=1) / math.sqrt(draws)
        assert abs(x.mean() - (df + delta)) < 3 * se_mean
        assert x.var(ddof=1) == pytest.approx(2 * (df + 2 * delta), rel=0.03)

    def test_zero_noncentrality_is_central(self):
        rng = np.random.default_rng(6)
        x = sample_noncentral_chisq(4.0, 0.0, 100_000, rng)
        assert x.mean() == pytest.approx(4.0, abs=0.05)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParams):
            sample_noncentral_chisq(0.0, 1.0, 10, rng)
        with pytest.raises(InvalidParams):
            sample_noncentral_chisq(3.0, -1.0, 10, rng)


class TestExactGaussianLaws:
    def test_field_oracles(self):
        params = FrontierParams(r_gmv=0.05, v_gmv=0.5, slope=0.1)
        laws = gaussian_exact_laws(params, p=10, n=50)
        assert laws.chi2_df == 40
        assert laws.v_scale == 50.0
        assert laws.f_dfs == (9, 41)
        assert laws.f_noncentrality == pytest.approx(5.0)
        assert laws.s_scale == pytest.approx(41 / 9)

    def test_f_mean_oracle(self):
        params = FrontierParams(r_gmv=0.05, v_gmv=0.5, slope=0.1)
        laws = gaussian_exact_laws(params, p=10, n=50)
        assert laws.f_mean() == pytest.approx(41 * 14 / (9 * 39), rel=1e-12)

    def test_f_mean_needs_df(self):
        params = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.1)
        laws = gaussian_exact_laws(params, p=10, n=11)  # denominator df = 2
        with pytest.raises(InvalidParams):
            laws.f_mean()

    def test_conditional_r_variance(self):
        params = FrontierParams(r_gmv=0.0, v_gmv=0.8, slope=0.1)
        laws = gaussian_exact_laws(params, p=5, n=40)
        assert laws.conditional_r_variance(0.25) == pytest.approx(1.25 * 0.8 / 40)
        with pytest.raises(InvalidParams):
            laws.conditional_r_variance(-0.1)

    def test_validation(self):
        params = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.1)
        with pytest.raises(TooFewObservations):
            gaussian_exact_laws(params, p=10, n=10)
        with pytest.raises(InvalidParams):
            gaussian_exact_laws(params, p=1, n=10)

    def test_variance_law_against_simulation(self):
        """n V_hat / V is chi-square with n - p degrees of freedom."""
        from hdfrontier import estimate, EstimatorKind, sample_moments

        p, n, reps = 5, 25, 4000
        rng = np.random.default_rng(21)
        mu = rng.uniform(-0.1, 0.1, p)
        truth = FrontierParams(
            r_gmv=float(mu.mean()), v_gmv=1.0 / p,
            slope=float(mu @ mu - mu.sum() ** 2 / p),
        )
        laws = gaussian_exact_laws(truth, p, n)
        stats = np.empty(reps)
        s_stats = np.empty(reps)
        for k in range(reps):
            y = rng.standard_normal((p, n)) + mu[:, None]
            report = estimate(sample_moments(y), EstimatorKind.SAMPLE)
            stats[k] = laws.v_scale * report.params.v_gmv / truth.v_gmv
            s_stats[k] = laws.s_scale * report.params.slope
        df = laws.chi2_df
        assert abs(stats.mean() - df) < 3 * math.sqrt(2 * df / reps)
        f_mean = laws.f_mean()
        se = s_stats.std(ddof=1) / math.sqrt(reps)
        assert abs(s_stats.mean() - f_mean) < 3 * se
        # the variance estimate is independent of the slope estimate
        assert abs(np.corrcoef(stats, s_stats)[0, 1]) < 0.05


WHITE_ORACLES = {
    "white-cross-form": 0.09208860410072163,
    "white-mean-form": 0.010637527688059145,
    "white-mixed-form": 0.0008670832363134189,
}

DEMEANED_ORACLES = {
    "demeaned-ones-form": 0.01984784289132085,
    "demeaned-mean-form": 0.06277359847085018,
    "demeaned-cross-form": 0.003252255331421666,
}


class TestWhiteDiagnostics:
    def test_seed0_values_pinned(self):
        records = white_quadform_diagnostics(0.5, 500, seed=0)
        assert [r.check for r in records] == list(WHITE_ORACLES)
        for r in records:
            assert r.value == pytest.approx(WHITE_ORACLES[r.check], rel=1e-6)
            assert (r.p, r.n, r.c, r.seed) == (500, 1000, 0.5, 0)

    def test_record_dict_shape(self):
        record = white_quadform_diagnostics(0.5, 100, seed=3)[0]
        # the measurement only: the pass rule and its fields are the caller's
        assert list(dataclasses.asdict(record)) == ["check", "p", "n", "c", "seed", "value"]

    def test_values_match_manual_reconstruction(self):
        """Pin the RNG contract: xi drawn first (when absent), then X."""
        c, p, seed = 0.5, 60, 7
        n = 120
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        xi = rng.standard_normal(p)
        xi /= np.linalg.norm(xi)
        x = rng.standard_normal((p, n))
        theta = np.ones(p) / math.sqrt(p)
        inv = np.linalg.inv(x @ x.T / n)
        xbar = x.mean(axis=1)
        expected = {
            "white-cross-form": abs(xi @ inv @ theta - 2.0 * (xi @ theta)),
            "white-mean-form": abs(xbar @ inv @ xbar - 0.5),
            "white-mixed-form": abs(xbar @ inv @ theta) / math.sqrt(n),
        }
        for record in white_quadform_diagnostics(c, p, seed=seed):
            assert record.value == pytest.approx(expected[record.check], rel=1e-10)

    def test_supplying_xi_skips_its_draw(self):
        """With xi given, X comes first in the stream, so values change."""
        c, p, seed = 0.5, 60, 7
        theta = np.ones(p) / math.sqrt(p)
        given = white_quadform_diagnostics(c, p, seed=seed, xi=theta)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = rng.standard_normal((p, 120))
        inv = np.linalg.inv(x @ x.T / 120)
        direction_form = abs(theta @ inv @ theta - 2.0)
        assert given[0].value == pytest.approx(direction_form, rel=1e-10)

    def test_median_deviation_shrinks_with_size(self):
        """Medians over 20 seeds fall monotonically along a dyadic size ladder."""
        sizes = (125, 250, 500, 1000)
        medians = {check: [] for check in WHITE_ORACLES}
        for p in sizes:
            per_seed = {check: [] for check in WHITE_ORACLES}
            for seed in range(20):
                for record in white_quadform_diagnostics(0.5, p, seed=seed):
                    per_seed[record.check].append(record.value)
            for check, values in per_seed.items():
                medians[check].append(float(np.median(values)))
        for check, series in medians.items():
            assert all(a > b for a, b in zip(series, series[1:])), (check, series)

    def test_singular_dimension_rejected(self):
        with pytest.raises(SingularMatrix):
            white_quadform_diagnostics(1.0, 10, seed=0)
        with pytest.raises(SingularMatrix):
            white_quadform_diagnostics(2.0, 10, seed=0)

    def test_shape_validation(self):
        with pytest.raises(InvalidParams):
            white_quadform_diagnostics(0.5, 10, seed=0, xi=np.ones(3))
        with pytest.raises(InvalidParams):
            white_quadform_diagnostics(-0.5, 10, seed=0)


class TestDemeanedDiagnostics:
    def test_seed0_values_pinned(self):
        records = demeaned_quadform_diagnostics(0.5, 500, seed=0)
        assert [r.check for r in records] == list(DEMEANED_ORACLES)
        for r in records:
            assert r.value == pytest.approx(DEMEANED_ORACLES[r.check], rel=1e-6)

    def test_growth_exponent_rescales_p_normalized_forms(self):
        """The ones and cross forms grow like p and are divided by it; the mean form is not."""
        c, p, seed = 0.5, 100, 2
        n = 200
        y = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((p, n))
        ybar = y.mean(axis=1)
        centered = y - ybar[:, None]
        inv = np.linalg.inv(centered @ centered.T / n)
        ones = np.ones(p)
        expected = {
            "demeaned-ones-form": abs(ones @ inv @ ones - 2.0 * p) / p,
            "demeaned-mean-form": abs(ybar @ inv @ ybar - 1.0),
            "demeaned-cross-form": abs(ybar @ inv @ ones) / p,
        }
        for record in demeaned_quadform_diagnostics(c, p, seed=seed):
            assert record.value == pytest.approx(expected[record.check], rel=1e-9)
