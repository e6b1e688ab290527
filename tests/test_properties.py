"""Property-based invariants across the estimation stack."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hdfrontier import (
    EstimatorKind,
    FrontierParams,
    MertonConstants,
    ReturnPanel,
    StieltjesPoint,
    aggregate_frequency,
    confidence_intervals,
    estimate,
    estimate_many,
    from_merton,
    frontier_curve,
    m_of_z,
    sample_moments,
    to_merton,
    winsorize,
    x_of_z,
)

ALL_KINDS = tuple(EstimatorKind)

finite = dict(allow_nan=False, allow_infinity=False)


def _panel(seed, days, rows_per_day, p=3):
    rng = np.random.default_rng(seed)
    base = dt.datetime(2024, 3, 4, 10, 0)
    stamps = tuple(
        base + dt.timedelta(days=d, minutes=5 * i)
        for d in range(days)
        for i in range(rows_per_day)
    )
    values = rng.standard_normal((len(stamps), p))
    return ReturnPanel(stamps, values, tuple(f"a{i}" for i in range(p)), 5.0)


class TestMertonRoundTrip:
    @given(
        slope=st.floats(0.0, 10.0, **finite),
        b=st.floats(-10.0, 10.0, **finite),
        c=st.floats(1e-3, 1e3, **finite),
    )
    @settings(deadline=None, max_examples=60)
    def test_params_to_merton_and_back(self, slope, b, c):
        merton = MertonConstants(a=slope + b * b / c, b=b, c=c)
        params = from_merton(merton)
        back = to_merton(params)
        assert back.a == pytest.approx(merton.a, rel=1e-9, abs=1e-12)
        assert back.b == pytest.approx(merton.b, rel=1e-9, abs=1e-12)
        assert back.c == pytest.approx(merton.c, rel=1e-9)

    @given(
        r=st.floats(-5.0, 5.0, **finite),
        v=st.floats(1e-3, 1e3, **finite),
        slope=st.floats(0.0, 10.0, **finite),
    )
    @settings(deadline=None, max_examples=60)
    def test_merton_to_params_and_back(self, r, v, slope):
        params = FrontierParams(r_gmv=r, v_gmv=v, slope=slope)
        back = from_merton(to_merton(params))
        assert back.r_gmv == pytest.approx(r, rel=1e-9, abs=1e-12)
        assert back.v_gmv == pytest.approx(v, rel=1e-9)
        # slope is recovered as a - b^2/c; cancellation error scales with r^2/v
        assert back.slope == pytest.approx(slope, rel=1e-9, abs=1e-12 * (1 + r * r / v))


class TestFrontierCurveInverse:
    @given(
        r=st.floats(-2.0, 2.0, **finite),
        v=st.floats(1e-2, 10.0, **finite),
        slope=st.floats(1e-4, 5.0, **finite),
        # from 1e-3, so that the cancellation in R - r stays far inside rel=1e-9
        gap=st.floats(1e-3, 20.0, **finite),
    )
    @settings(deadline=None, max_examples=60)
    def test_variance_at_inverts_the_parabola(self, r, v, slope, gap):
        """Every (V, R) row of frontier_curve lies on (R - r)**2 = s (V - v)."""
        params = FrontierParams(r_gmv=r, v_gmv=v, slope=slope)
        curve = frontier_curve(params, v + gap, n_points=17)
        np.testing.assert_allclose((curve[:, 1] - r) ** 2, slope * (curve[:, 0] - v), rtol=1e-9)


class TestEstimatorEquivariance:
    @given(
        seed=st.integers(0, 2**31),
        p=st.integers(3, 6),
        extra=st.integers(4, 30),
        shift=st.floats(-1.0, 1.0, **finite),
    )
    @settings(deadline=None, max_examples=30)
    def test_translation(self, seed, p, extra, shift):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((p, p + extra))
        base = estimate_many(sample_moments(y), ALL_KINDS)
        moved = estimate_many(sample_moments(y + shift), ALL_KINDS)
        for kind in ALL_KINDS:
            b, m = base[kind].params, moved[kind].params
            assert m.r_gmv == pytest.approx(b.r_gmv + shift, rel=1e-7, abs=1e-9)
            assert m.v_gmv == pytest.approx(b.v_gmv, rel=1e-7)
            assert m.slope == pytest.approx(b.slope, rel=1e-6, abs=1e-8)

    @given(
        seed=st.integers(0, 2**31),
        p=st.integers(3, 6),
        extra=st.integers(4, 30),
        scale=st.floats(0.1, 10.0, **finite),
    )
    @settings(deadline=None, max_examples=30)
    def test_scaling(self, seed, p, extra, scale):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((p, p + extra)) + 0.1
        base = estimate_many(sample_moments(y), ALL_KINDS)
        scaled = estimate_many(sample_moments(y * scale), ALL_KINDS)
        for kind in ALL_KINDS:
            b, s = base[kind].params, scaled[kind].params
            assert s.r_gmv == pytest.approx(b.r_gmv * scale, rel=1e-7, abs=1e-9)
            assert s.v_gmv == pytest.approx(b.v_gmv * scale**2, rel=1e-7)
            assert s.slope == pytest.approx(b.slope, rel=1e-6, abs=1e-8)


class TestPipelineInvariants:
    @given(
        seed=st.integers(0, 2**31),
        days=st.integers(1, 4),
        rows=st.integers(5, 30),
        low=st.floats(0.0, 0.45, **finite),
        width=st.floats(0.1, 0.55, **finite),
    )
    @settings(deadline=None, max_examples=30)
    def test_winsorize_idempotent(self, seed, days, rows, low, width):
        panel = _panel(seed, days, rows)
        quantiles = (low, min(low + width, 1.0))
        once = winsorize(panel, quantiles)
        twice = winsorize(once, quantiles)
        assert np.array_equal(once.values, twice.values)

    @given(
        seed=st.integers(0, 2**31),
        days=st.integers(1, 3),
        k1=st.integers(1, 3),
        k2=st.integers(1, 3),
        blocks=st.integers(1, 4),
    )
    @settings(deadline=None, max_examples=30)
    def test_aggregation_telescopes(self, seed, days, k1, k2, blocks):
        panel = _panel(seed, days, rows_per_day=k1 * k2 * blocks)
        nested = aggregate_frequency(aggregate_frequency(panel, k1), k2)
        flat = aggregate_frequency(panel, k1 * k2)
        assert nested.timestamps == flat.timestamps
        assert np.allclose(nested.values, flat.values, atol=1e-12)
        assert nested.frequency_minutes == flat.frequency_minutes

    @given(
        seed=st.integers(0, 2**31),
        days=st.integers(1, 4),
        rows=st.integers(2, 20),
        k=st.integers(1, 6),
    )
    @settings(deadline=None, max_examples=30)
    def test_aggregation_preserves_sums_of_complete_days(self, seed, days, rows, k):
        panel = _panel(seed, days, rows_per_day=k * max(1, rows // k))
        agg = aggregate_frequency(panel, k)
        assert np.allclose(
            agg.values.sum(axis=0), panel.values.sum(axis=0), atol=1e-10
        )


class TestInferenceInvariants:
    @given(
        seed=st.integers(0, 2**31),
        levels=st.lists(
            st.floats(0.01, 0.99, **finite), min_size=2, max_size=5, unique=True
        ),
    )
    @settings(deadline=None, max_examples=30)
    def test_interval_width_monotone_in_level(self, seed, levels):
        # the interval reads the normal quantile at 0.5 + 0.5 * level, which
        # rounds levels one ulp apart (0.01 and 0.010000000000000002) together
        assume(len({0.5 + 0.5 * lv for lv in levels}) == len(levels))
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((6, 30)) * 0.02 + 0.01
        report = estimate(sample_moments(y), EstimatorKind.CONSISTENT)
        widths = [
            confidence_intervals(report, level=lv).ci_v[1]
            - confidence_intervals(report, level=lv).ci_v[0]
            for lv in sorted(levels)
        ]
        assert all(a < b for a, b in zip(widths, widths[1:]))


class TestTransformInvariants:
    @given(
        re=st.floats(-4.0, 6.0, **finite),
        im=st.floats(0.05, 4.0, **finite),
        c=st.floats(0.05, 3.0, **finite),
    )
    @settings(deadline=None, max_examples=80)
    def test_upper_half_plane_and_quadratics(self, re, im, c):
        pt = StieltjesPoint(complex(re, im), c)
        x = x_of_z(pt)
        m, companion = m_of_z(pt)
        assert x.imag > 0.0
        assert m.imag > 0.0
        assert abs(x * x - (1 - c + pt.z) * x + pt.z) < 1e-10 * max(1.0, abs(x) ** 2)
        assert abs(c * pt.z * m * m + (pt.z - 1 + c) * m + 1) < 1e-9 * max(
            1.0, abs(m) ** 2
        )
        assert companion == pytest.approx(-(1 - c) / pt.z + c * m)

    @given(
        re=st.floats(-4.0, 6.0, **finite),
        im=st.floats(0.05, 4.0, **finite),
        c=st.floats(0.05, 3.0, **finite),
    )
    @settings(deadline=None, max_examples=80)
    def test_conjugate_symmetry(self, re, im, c):
        pt = StieltjesPoint(complex(re, im), c)
        mirror = StieltjesPoint(complex(re, -im), c)
        assert x_of_z(mirror) == x_of_z(pt).conjugate()
        assert m_of_z(mirror)[0] == m_of_z(pt)[0].conjugate()
