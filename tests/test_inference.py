"""Plug-in asymptotic variances, intervals, and coverage."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hdfrontier
from hdfrontier import (
    EstimatorKind,
    FrontierParams,
    InvalidLevel,
    InvalidParams,
    InvalidReportKind,
    RatioOutOfRange,
    asymptotic_variances,
    confidence_intervals,
    coverage,
    estimate,
    normal_quantile,
    sample_moments,
    standardized_errors,
)
from hdfrontier.inference import _half_widths


def _consistent_report(p=20, n=80, seed=6):
    rng = np.random.default_rng(seed)
    y = 0.05 * rng.standard_normal((p, n)) + 0.01
    return estimate(sample_moments(y), EstimatorKind.CONSISTENT)


class TestAsymptoticVariances:
    def test_zero_ratio_recovers_classic_limits(self):
        params = FrontierParams(r_gmv=0.1, v_gmv=2 / 3, slope=0.03)
        lim = asymptotic_variances(params, 0.0)
        assert lim.var_r == pytest.approx(1.03 * 2 / 3)
        assert lim.var_v == pytest.approx(2 * (2 / 3) ** 2)
        assert lim.var_s == pytest.approx(4 * 0.03 + 2 * 0.03**2)

    def test_half_ratio_values(self):
        params = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.2)
        lim = asymptotic_variances(params, 0.5)
        assert lim.var_r == pytest.approx(2.4)
        assert lim.var_v == pytest.approx(4.0)
        assert lim.var_s == pytest.approx(2 * 0.9 + 2 * 0.49 / 0.5)

    def test_variances_grow_with_ratio(self):
        params = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.1)
        grid = [asymptotic_variances(params, c) for c in (0.0, 0.3, 0.6, 0.9)]
        for field in ("var_r", "var_v", "var_s"):
            values = [getattr(g, field) for g in grid]
            assert values == sorted(values)

    def test_ratio_bounds(self):
        params = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.1)
        with pytest.raises(RatioOutOfRange):
            asymptotic_variances(params, 1.0)
        with pytest.raises(RatioOutOfRange):
            asymptotic_variances(params, -0.1)

    def test_negative_slope_rejected(self):
        bad = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=-0.5, validate=False)
        with pytest.raises(InvalidParams):
            asymptotic_variances(bad, 0.5)


class TestNormalQuantile:
    def test_standard_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.25) == -normal_quantile(0.75)

    def test_bounds(self):
        for beta in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(InvalidLevel):
                normal_quantile(beta)

    def test_bits_of_scipy_ndtri(self):
        # checked against SciPy 1.17's x86-64 build, whose ndtri evaluates the
        # same Cephes rational approximations in the same operation order; a
        # build that fuses multiply-adds could differ in the last bit
        import scipy.special

        exp_m2 = 0.1353352832366127  # the central branch's edge, exp(-2)
        exp_m32 = math.exp(-32.0)  # sqrt(-2 log y) = 8: the two tail branches meet
        edges = [exp_m2, 1 - exp_m2, 5e-324, 1 - 2**-53, 0.975, 0.5]
        edges += [math.nextafter(exp_m2, 0.0), math.nextafter(exp_m2, 1.0)]
        # from a few ulps below to a few above the switch, in each tail
        edges += [exp_m32 * (1 + k * 1e-15) for k in range(-8, 9)]
        edges += [1 - exp_m32 * (1 + k * 1e-2) for k in range(-8, 9)]
        rng = np.random.default_rng(23)
        grid = rng.random(2000).tolist() + (10.0 ** rng.uniform(-320, -1, 1000)).tolist()
        grid += (1 - 10.0 ** rng.uniform(-16, -1, 1000)).tolist()
        for beta in edges + grid:
            assert normal_quantile(beta).hex() == float(scipy.special.ndtri(beta)).hex(), beta

    def test_importing_the_package_leaves_scipy_special_unloaded(self):
        # in a fresh process: other test modules load scipy.special through scipy.stats
        src = os.path.dirname(os.path.dirname(hdfrontier.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for module in ("hdfrontier", "hdfrontier.cli"):
            code = f"import sys, {module}; print('scipy.special' in sys.modules)"
            done = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert (done.returncode, done.stdout) == (0, "False\n"), (module, done.stderr)

    def test_importing_the_package_skips_scipy_linalg_init(self):
        # scipy.linalg's package init clones NumPy through scipy._lib._array_api,
        # which reads every lazy NumPy submodule; the package's own calls need
        # only numpy.random (seeding) and numpy.ma (np.nanquantile's np.unique)
        absent = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")
        present = ("numpy.random", "numpy.ma")
        src = os.path.dirname(os.path.dirname(hdfrontier.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for module in ("hdfrontier", "hdfrontier.cli"):
            code = f"import sys, {module}; print(*(name in sys.modules for name in {absent + present}))"
            done = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": path},
            )
            expected = " ".join(["False"] * len(absent) + ["True"] * len(present)) + "\n"
            assert (done.returncode, done.stdout) == (0, expected), (module, done.stderr)


class TestConfidenceIntervals:
    def test_centres_and_symmetry(self):
        report = _consistent_report()
        cis = confidence_intervals(report, level=0.9)
        params = report.params
        assert sum(cis.ci_r) / 2 == pytest.approx(params.r_gmv, rel=1e-12)
        assert sum(cis.ci_v) / 2 == pytest.approx(params.v_gmv, rel=1e-12)
        assert sum(cis.ci_s) / 2 == pytest.approx(params.slope, rel=1e-12)
        assert cis.level == 0.9

    def test_width_formula(self):
        report = _consistent_report()
        cis = confidence_intervals(report, level=0.95)
        lim = asymptotic_variances(report.params, report.ratio)
        z = normal_quantile(0.975)
        expect = 2 * z * np.sqrt(lim.var_v / report.n)
        assert cis.ci_v[1] - cis.ci_v[0] == pytest.approx(expect, rel=1e-12)

    def test_widths_increase_with_level(self):
        report = _consistent_report()
        widths = [
            confidence_intervals(report, level=lv).ci_r[1]
            - confidence_intervals(report, level=lv).ci_r[0]
            for lv in (0.5, 0.8, 0.95, 0.99)
        ]
        assert widths == sorted(widths)
        assert widths[0] > 0.0

    def test_center_s_bias_shifts_slope_interval(self):
        report = _consistent_report()
        plain = confidence_intervals(report)
        shifted = confidence_intervals(report, center_s_bias=True)
        centre_plain = sum(plain.ci_s) / 2
        centre_shifted = sum(shifted.ci_s) / 2
        assert centre_shifted == pytest.approx(centre_plain - report.ratio, rel=1e-10)
        # r and v intervals also react through the variance plug-in but stay centred
        assert sum(shifted.ci_r) / 2 == pytest.approx(report.params.r_gmv, rel=1e-12)

    def test_debias_floor_keeps_widths_finite(self):
        # slope below p/n: the de-biased plug-in slope is negative and gets floored
        rng = np.random.default_rng(11)
        y = 0.05 * rng.standard_normal((30, 60))  # zero mean => tiny true slope
        report = estimate(sample_moments(y), EstimatorKind.CONSISTENT)
        cis = confidence_intervals(report, center_s_bias=True)
        for lo, hi in (cis.ci_r, cis.ci_v, cis.ci_s):
            assert np.isfinite(lo) and np.isfinite(hi) and hi > lo

    def test_rejects_other_kinds(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((5, 40))
        report = estimate(sample_moments(y), EstimatorKind.SAMPLE)
        with pytest.raises(InvalidReportKind):
            confidence_intervals(report)

    def test_level_validation(self):
        report = _consistent_report()
        with pytest.raises(InvalidLevel):
            confidence_intervals(report, level=1.0)


class TestHalfWidths:
    def test_arrays_give_each_element_its_scalar_bits(self):
        # NumPy squares an array by multiplication, a scalar by pow; the two
        # differ in the last bit of about one value in a thousand, which moved
        # about one slope half-width in 8,000 before the array path used pow
        rng = np.random.default_rng(12)
        v = rng.uniform(1e-6, 1e-4, 20_000)
        s = rng.uniform(0.0, 1.0, 20_000)
        for center in (False, True):
            stacked = np.column_stack(_half_widths(v, s, 50 / 390, 390, 0.95, center))
            one = [_half_widths(a, b, 50 / 390, 390, 0.95, center) for a, b in zip(v.tolist(), s.tolist())]
            assert np.array_equal(stacked, np.array(one, dtype=float))


class TestCoverage:
    def test_exact_estimates_are_covered(self):
        truth = FrontierParams(r_gmv=0.05, v_gmv=0.8, slope=0.3)
        reps = np.tile([truth.r_gmv, truth.v_gmv, truth.slope], (7, 1))
        got = coverage(reps, truth, ratio=0.25, n=400)
        assert got == {"r_gmv": 1.0, "v_gmv": 1.0, "slope": 1.0}

    def test_distant_estimates_are_not(self):
        truth = FrontierParams(r_gmv=0.05, v_gmv=0.8, slope=0.3)
        reps = np.tile([5.0, 40.0, 9.0], (7, 1))
        got = coverage(reps, truth, ratio=0.25, n=400)
        assert got == {"r_gmv": 0.0, "v_gmv": 0.0, "slope": 0.0}

    def test_shape_validation(self):
        truth = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.1)
        with pytest.raises(InvalidParams):
            coverage(np.zeros((5, 2)), truth, ratio=0.5, n=100)

    def test_monte_carlo_smoke(self):
        """Nominal 95% intervals cover roughly that often at moderate size."""
        rng = np.random.default_rng(3)
        p, n, reps = 30, 150, 300
        mu = rng.uniform(-0.1, 0.1, p)
        truth = FrontierParams(  # population is N(mu, I)
            r_gmv=float(mu.mean()),
            v_gmv=1.0 / p,
            slope=float(mu @ mu - mu.sum() ** 2 / p),
        )
        ests = np.empty((reps, 3))
        for k in range(reps):
            y = rng.standard_normal((p, n)) + mu[:, None]
            rep = estimate(sample_moments(y), EstimatorKind.CONSISTENT)
            ests[k] = (rep.params.r_gmv, rep.params.v_gmv, rep.params.slope)
        got = coverage(ests, truth, ratio=p / n, n=n, center_s_bias=True)
        assert 0.85 <= got["r_gmv"] <= 1.0
        assert 0.85 <= got["v_gmv"] <= 1.0


class TestStandardizedErrors:
    def test_slope_centre_includes_bias_term(self):
        truth = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.2)
        ratio, n = 0.5, 100
        est = np.array([[0.0, 1.0, 0.2 + ratio]])  # slope exactly at biased centre
        out = standardized_errors(est, truth, ratio=ratio, n=n)
        assert np.allclose(out, 0.0)

    def test_array_requires_ratio_and_n(self):
        truth = FrontierParams(r_gmv=0.0, v_gmv=1.0, slope=0.2)
        with pytest.raises(TypeError):
            standardized_errors(np.zeros((4, 3)), truth)
        with pytest.raises(InvalidParams):
            standardized_errors(np.zeros(3), truth, ratio=0.5, n=100)
