"""Population frontier geometry."""

import os
import subprocess
import sys

import numpy as np
import pytest

import hdfrontier
from hdfrontier import (
    AsymmetricMatrix,
    CholeskyFailure,
    DimensionMismatch,
    FrontierParams,
    InvalidConstants,
    InvalidParams,
    InvalidRange,
    MertonConstants,
    frontier_curve,
    frontier_params,
    from_merton,
    merton_constants,
    to_merton,
)

MU_2 = np.array([0.0, 0.3])
SIGMA_2 = np.diag([1.0, 2.0])


class TestMertonConstants:
    def test_two_asset_oracle(self):
        c = merton_constants(MU_2, SIGMA_2)
        assert c.a == pytest.approx(0.045, abs=1e-15)
        assert c.b == pytest.approx(0.15, abs=1e-15)
        assert c.c == pytest.approx(1.5, abs=1e-15)

    def test_identity_zero_mean(self):
        p = 6
        c = merton_constants(np.zeros(p), np.eye(p))
        assert (c.a, c.b, c.c) == (0.0, 0.0, pytest.approx(p))

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(11)
        p = 9
        g = rng.standard_normal((p, p))
        sigma = g @ g.T + p * np.eye(p)
        mu = rng.standard_normal(p)
        inv = np.linalg.inv(sigma)
        ones = np.ones(p)
        c = merton_constants(mu, sigma)
        assert c.a == pytest.approx(mu @ inv @ mu, rel=1e-10)
        assert c.b == pytest.approx(ones @ inv @ mu, rel=1e-10)
        assert c.c == pytest.approx(ones @ inv @ ones, rel=1e-10)

    def test_validation(self):
        with pytest.raises(InvalidConstants):
            MertonConstants(1.0, 2.0, -1.0)
        with pytest.raises(InvalidConstants):
            MertonConstants(-0.5, 0.0, 1.0)
        with pytest.raises(InvalidConstants):
            MertonConstants(1.0, 2.0, 1.0)  # a*c - b^2 = -3
        with pytest.raises(InvalidConstants):
            MertonConstants(float("nan"), 0.0, 1.0, validate=False)
        # validate=False admits out-of-cone finite values
        MertonConstants(1.0, 2.0, 1.0, validate=False)

    def test_input_validation(self):
        with pytest.raises(DimensionMismatch):
            merton_constants([0.1], [[1.0]])
        with pytest.raises(DimensionMismatch):
            merton_constants([0.1, 0.2, 0.3], SIGMA_2)
        with pytest.raises(DimensionMismatch):
            merton_constants(MU_2, np.ones((2, 3)))
        with pytest.raises(InvalidParams):
            merton_constants([0.1, np.inf], SIGMA_2)
        with pytest.raises(AsymmetricMatrix):
            merton_constants(MU_2, [[1.0, 0.5], [0.2, 2.0]])
        with pytest.raises(CholeskyFailure):
            merton_constants(MU_2, [[1.0, 2.0], [2.0, 1.0]])

    def test_mild_asymmetry_symmetrized(self):
        sigma = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        c = merton_constants(MU_2, sigma)
        assert np.isfinite(c.a)


class TestFrontierParams:
    def test_two_asset_oracle(self):
        params = frontier_params(MU_2, SIGMA_2)
        assert params.r_gmv == pytest.approx(0.1, abs=1e-15)
        assert params.v_gmv == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert params.slope == pytest.approx(0.03, abs=1e-15)

    def test_identity_zero_mean(self):
        p = 5
        params = frontier_params(np.zeros(p), np.eye(p))
        assert params.r_gmv == 0.0
        assert params.v_gmv == pytest.approx(1.0 / p)
        assert params.slope == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParams):
            FrontierParams(0.1, 0.0, 0.1)
        with pytest.raises(InvalidParams):
            FrontierParams(0.1, -1.0, 0.1)
        with pytest.raises(InvalidParams):
            FrontierParams(0.1, 1.0, -0.5)
        FrontierParams(0.1, 1.0, -0.5, validate=False)  # estimates may dip below 0


class TestConversions:
    def test_round_trip(self):
        params = frontier_params(MU_2, SIGMA_2)
        back = from_merton(to_merton(params))
        assert back.r_gmv == pytest.approx(params.r_gmv, rel=1e-14)
        assert back.v_gmv == pytest.approx(params.v_gmv, rel=1e-14)
        assert back.slope == pytest.approx(params.slope, rel=1e-12)

    def test_round_trip_is_to_rounding(self):
        # not bit for bit: r_gmv and v_gmv within a relative 1e-15, the slope
        # within 2e-15 * a, as the to_merton docstring states
        rng = np.random.default_rng(8)
        moved = 0
        for r, v, s in zip(rng.normal(0.0, 0.3, 20_000), rng.uniform(0.01, 2.0, 20_000),
                           rng.uniform(0.0, 3.0, 20_000)):
            params = FrontierParams(float(r), float(v), float(s))
            constants = to_merton(params)
            back = from_merton(constants)
            assert abs(back.r_gmv - params.r_gmv) <= 1e-15 * abs(params.r_gmv)
            assert abs(back.v_gmv - params.v_gmv) <= 1e-15 * params.v_gmv
            assert abs(back.slope - params.slope) <= 2e-15 * constants.a
            moved += back != params
        assert moved > 0

    def test_overflowing_square_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="overflows"):
            to_merton(FrontierParams(1e155, 1.0, 0.5))
        assert to_merton(FrontierParams(1e150, 1e300, 0.5)).a == pytest.approx(0.5 + 1e0)

    def test_from_merton_oracle(self):
        params = from_merton(MertonConstants(0.045, 0.15, 1.5))
        assert params.r_gmv == pytest.approx(0.1)
        assert params.v_gmv == pytest.approx(2.0 / 3.0)
        assert params.slope == pytest.approx(0.03)

    def test_tiny_negative_slope_clamped(self):
        # a*c == b^2 up to float slop -> slope clamps to exactly 0
        b, c = 0.3, 1.7
        a = b * b / c * (1.0 - 1e-15)
        params = from_merton(MertonConstants(a, b, c, validate=False))
        assert params.slope == 0.0

    def test_subnormal_negative_slope_clamped(self):
        # a = r^2/v is subnormal here, so a - b^2/c rounds to -3.5e-323,
        # far beyond 1e-12 * a but below the smallest normal float
        params = FrontierParams(r_gmv=1.3871721900081358e-157, v_gmv=14.0, slope=0.0)
        assert from_merton(to_merton(params)).slope == 0.0

    def test_large_negative_slope_rejected(self):
        with pytest.raises(InvalidConstants):
            from_merton(MertonConstants(0.01, 0.3, 1.7, validate=False))

    def test_negative_slope_round_trip_preserved(self):
        params = FrontierParams(0.1, 0.5, -0.02, validate=False)
        constants = to_merton(params)
        assert constants.a == pytest.approx(-0.02 + 0.01 / 0.5)


class TestVarianceAt:
    """The variance at which the frontier reaches a return, read off frontier_curve's rows."""

    def test_oracle(self):
        params = frontier_params(MU_2, SIGMA_2)
        # (0.4 - 0.1)^2 / 0.03 + 2/3 = 3 + 2/3
        v, r = frontier_curve(params, v_max=11.0 / 3.0, n_points=2)[-1]
        assert v == 11.0 / 3.0
        assert r == pytest.approx(0.4)

    def test_vertex(self):
        """r_gmv is reached at v_gmv and nowhere else."""
        params = frontier_params(MU_2, SIGMA_2)
        curve = frontier_curve(params, v_max=3.0)
        assert tuple(curve[0]) == (params.v_gmv, params.r_gmv)
        assert np.all(curve[1:, 1] > params.r_gmv)

    def test_degenerate_slope(self):
        """With a flat frontier every variance reaches only r_gmv."""
        params = FrontierParams(0.1, 1.0, 0.0)
        curve = frontier_curve(params, v_max=4.0, n_points=9)
        assert np.all(curve[:, 1] == 0.1)

    def test_non_finite_target(self):
        params = frontier_params(MU_2, SIGMA_2)
        for v_max in (float("inf"), float("nan")):
            with pytest.raises(InvalidRange):
                frontier_curve(params, v_max=v_max)


class TestCurve:
    def test_shape_and_vertex(self):
        params = frontier_params(MU_2, SIGMA_2)
        curve = frontier_curve(params, v_max=3.0, n_points=33)
        assert curve.shape == (33, 2)
        assert curve[0, 0] == params.v_gmv
        assert curve[0, 1] == params.r_gmv
        assert curve[-1, 0] == 3.0

    def test_monotone_increasing_return(self):
        params = frontier_params(MU_2, SIGMA_2)
        curve = frontier_curve(params, v_max=4.0)
        assert np.all(np.diff(curve[:, 1]) >= 0.0)
        assert np.all(np.diff(curve[:, 0]) > 0.0)

    def test_points_satisfy_parabola(self):
        params = frontier_params(MU_2, SIGMA_2)
        curve = frontier_curve(params, v_max=4.0, n_points=17)
        v, r = curve[:, 0], curve[:, 1]
        lhs = (r - params.r_gmv) ** 2
        rhs = params.slope * (v - params.v_gmv)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_range_validation(self):
        params = frontier_params(MU_2, SIGMA_2)
        with pytest.raises(InvalidRange):
            frontier_curve(params, v_max=params.v_gmv)
        with pytest.raises(InvalidRange):
            frontier_curve(params, v_max=2.0, n_points=1)
        # more points than an (n_points, 2) array can address
        with pytest.raises(InvalidRange, match="n_points must be at most"):
            frontier_curve(params, v_max=2.0, n_points=10**20)


class TestLapackRoutines:
    @pytest.mark.parametrize("first", ["hdfrontier", "scipy.linalg"])
    def test_routines_are_scipy_linalg_s(self, first):
        # frontier loads scipy.linalg._flapack itself; in a fresh process, so
        # that either import may come first
        code = f"""
import sys, numpy as np
import {first}
import hdfrontier.frontier as frontier, scipy.linalg
ours = (frontier._potrf, frontier._potrs, frontier._potri)
theirs = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "potri"), dtype=np.float64)
flapack = sys.modules["scipy.linalg._flapack"]
print(all(a is b for a, b in zip(ours, theirs)),
      all(a is b for a, b in zip(ours, (flapack.dpotrf, flapack.dpotrs, flapack.dpotri))),
      scipy.linalg.LinAlgError is np.linalg.LinAlgError)
"""
        src = os.path.dirname(os.path.dirname(hdfrontier.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout) == (0, "True True True\n"), done.stderr
