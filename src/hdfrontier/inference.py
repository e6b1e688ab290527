"""Asymptotic inference for the consistent frontier estimator.

Under i.i.d. Gaussian sampling with ``p/n -> c`` in [0, 1), the centred and
``sqrt(n)``-scaled consistent estimates of ``(r_gmv, v_gmv, slope)`` are
asymptotically normal with variances

    var_r = (1 + (s + c)/(1 - c)) * v,
    var_v = 2 * v**2 / (1 - c),
    var_s = 2*(c + 2*s) + 2*(c + s)**2 / (1 - c),

and vanishing cross-correlations.  The slope's Gaussian limit is centred at
``s + p/n``, not ``s``: the consistent slope keeps an additive bias of one
concentration ratio.  Confidence intervals can either ignore the bias
(intervals for ``s + p/n`` in effect) or subtract it, via ``center_s_bias``.

Setting ``c = 0`` recovers the classic fixed-dimension limits
``((1 + s) v, 2 v**2, 4 s + 2 s**2)``.

Everything here is a plug-in: unknown population quantities in the variance
formulas are replaced by their consistent estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLevel, InvalidParams, InvalidReportKind, RatioOutOfRange
from .estimators import EstimateReport, EstimatorKind
from .frontier import FrontierParams

__all__ = [
    "AsymptoticVariances",
    "ConfidenceIntervals",
    "asymptotic_variances",
    "normal_quantile",
    "confidence_intervals",
    "coverage",
    "standardized_errors",
]


@dataclass(frozen=True)
class AsymptoticVariances:
    """Limiting variances of ``sqrt(n) * (estimate - center)`` per parameter."""

    var_r: float
    var_v: float
    var_s: float


@dataclass(frozen=True, slots=True)
class ConfidenceIntervals:
    """Two-sided plug-in intervals at a common confidence level."""

    level: float
    ci_r: tuple[float, float]
    ci_v: tuple[float, float]
    ci_s: tuple[float, float]


def asymptotic_variances(params: FrontierParams, ratio: float) -> AsymptoticVariances:
    """Limiting variances at given frontier parameters and concentration ratio.

    Parameters
    ----------
    params : FrontierParams
        The point (population or estimated) at which to evaluate.
    ratio : float
        Concentration ratio ``c = lim p/n`` in [0, 1).  ``ratio=0`` gives the
        classic fixed-dimension formulas.
    """
    if not 0.0 <= ratio < 1.0:
        raise RatioOutOfRange(f"ratio must lie in [0, 1), got {ratio}")
    s, v = params.slope, params.v_gmv
    if s < 0.0:
        raise InvalidParams(f"asymptotic variances need slope >= 0, got {s}")
    return AsymptoticVariances(*_limit_variances(v, s, ratio))


def _limit_variances(v, s, ratio: float) -> tuple:
    """(var_r, var_v, var_s) of the module docstring, elementwise on arrays.

    An array gives each element the bits that the element alone gives.
    """
    one_minus = 1.0 - ratio
    return (
        (1.0 + (s + ratio) / one_minus) * v,
        2.0 * v * v / one_minus,
        2.0 * (ratio + 2.0 * s) + 2.0 * _square(ratio + s) / one_minus,
    )


def _square(x):
    """``x ** 2`` as a Python or NumPy scalar computes it, also elementwise.

    A scalar's ``**`` calls the C library's ``pow``; NumPy squares an array
    by multiplication instead, which gives another last bit for about one
    value in a thousand.
    """
    if np.ndim(x) == 0:
        return x**2
    return np.reshape([t**2 for t in np.ravel(x).tolist()], np.shape(x))


#: Cephes ndtri's coefficients, highest power first; each denominator starts
#: with the leading 1 that Cephes' p1evl implies, which gives the same bits
#: (1.0 * x is exact).  (_P0, _Q0) serve |y - 0.5| <= 0.5 - exp(-2), (_P1, _Q1)
#: the tails with 2 <= sqrt(-2 log y) < 8 and (_P2, _Q2) those beyond.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coefs: tuple) -> float:
    """Horner's rule, one multiply and one add per step, as Cephes' polevl."""
    total = coefs[0]
    for coef in coefs[1:]:
        total = total * x + coef
    return total


def normal_quantile(beta: float) -> float:
    """Standard normal quantile (inverse CDF) at probability ``beta``.

    Evaluated by Cephes ``ndtri`` (S. L. Moshier's rational approximations,
    which ``scipy.special.ndtri`` also evaluates), with its coefficients,
    branches and operation order, so that it returns the same bits as
    ``scipy.special.ndtri`` on an x86-64 SciPy build; the port spares every
    process the import of ``scipy.special``.  ``statistics.NormalDist``'s
    ``inv_cdf`` uses another algorithm and is one ulp off at 0.975, which
    would move interval endpoints.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidLevel(f"quantile probability must lie in (0, 1), got {beta}")
    y, negate = float(beta), True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q)
    return -x if negate else x


def _half_widths(v, s, ratio: float, n: int, level: float, center_s_bias: bool):
    """Vectorized plug-in half-widths; returns (s_center, hw_r, hw_v, hw_s).

    ``v`` and ``s`` are consistent estimates (scalars or same-shape arrays).
    With ``center_s_bias`` the de-biased slope ``s - p/n`` is used both as the
    interval centre and inside the variance formulas, floored at zero under
    the square roots so a slightly negative de-biased slope cannot produce
    NaN widths.
    """
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must lie in (0, 1), got {level}")
    if not 0.0 < ratio < 1.0:
        raise RatioOutOfRange(f"p/n must lie in (0, 1), got {ratio}")
    z = normal_quantile(0.5 + 0.5 * level)
    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    s_center = s - ratio if center_s_bias else s
    var_r, var_v, var_s = _limit_variances(v, np.maximum(s_center, 0.0), ratio)
    root_n = np.sqrt(float(n))
    return (
        s_center,
        z * np.sqrt(var_r) / root_n,
        z * np.sqrt(var_v) / root_n,
        z * np.sqrt(var_s) / root_n,
    )


def confidence_intervals(
    report: EstimateReport, level: float = 0.95, center_s_bias: bool = False
) -> ConfidenceIntervals:
    """Two-sided plug-in intervals from a consistent-frontier report.

    Parameters
    ----------
    report : EstimateReport
        Must come from the consistent estimator; the variance formulas are
        derived for that centring and do not transfer to other kinds.
    level : float
        Confidence level in (0, 1), default 0.95.
    center_s_bias : bool
        If True, recentre the slope interval at ``slope - p/n``, removing
        the additive finite-sample bias of the consistent slope.  The same
        de-biased value feeds the variance plug-in (floored at zero).

    Raises
    ------
    InvalidReportKind
        If the report's kind is not ``EstimatorKind.CONSISTENT``.
    """
    if report.kind is not EstimatorKind.CONSISTENT:
        raise InvalidReportKind(
            f"confidence intervals are calibrated for the consistent estimator, "
            f"got kind={report.kind.value!r}"
        )
    params = report.params
    s_center, hw_r, hw_v, hw_s = _half_widths(
        params.v_gmv, params.slope, report.ratio, report.n, level, center_s_bias
    )
    return _intervals(
        level, params.r_gmv, params.v_gmv, float(s_center), float(hw_r), float(hw_v), float(hw_s)
    )


def _intervals(level, r, v, s_center, hw_r, hw_v, hw_s, factor=1.0) -> ConfidenceIntervals:
    """Intervals from the centres and the half-widths of :func:`_half_widths`.

    The ``r_gmv`` and ``v_gmv`` endpoints are scaled by ``factor``, as a
    report's point estimates are scaled to a longer horizon; a factor of one
    leaves their bits as they are.
    """
    return ConfidenceIntervals(
        level=level,
        ci_r=((r - hw_r) * factor, (r + hw_r) * factor),
        ci_v=((v - hw_v) * factor, (v + hw_v) * factor),
        ci_s=(s_center - hw_s, s_center + hw_s),
    )


def coverage(
    estimates: np.ndarray,
    truth: FrontierParams,
    ratio: float,
    n: int,
    level: float = 0.95,
    center_s_bias: bool = False,
) -> dict[str, float]:
    """Empirical coverage of the plug-in intervals over Monte Carlo estimates.

    Parameters
    ----------
    estimates : ndarray, shape (reps, 3)
        Consistent estimates per repetition, columns ``(r_gmv, v_gmv, slope)``.
    truth : FrontierParams
        Population parameters the intervals should cover.
    ratio : float
        ``p/n`` of the experiment.
    n : int
        Sample size per repetition.

    Returns
    -------
    dict with keys ``"r_gmv"``, ``"v_gmv"``, ``"slope"`` mapping to the
    fraction of repetitions whose interval contains the true value.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[1] != 3:
        raise InvalidParams(f"estimates must have shape (reps, 3), got {estimates.shape}")
    r, v, s = estimates[:, 0], estimates[:, 1], estimates[:, 2]
    s_center, hw_r, hw_v, hw_s = _half_widths(v, s, ratio, n, level, center_s_bias)
    return {
        "r_gmv": float(np.mean(np.abs(r - truth.r_gmv) <= hw_r)),
        "v_gmv": float(np.mean(np.abs(v - truth.v_gmv) <= hw_v)),
        "slope": float(np.mean(np.abs(s_center - truth.slope) <= hw_s)),
    }


def standardized_errors(estimates, truth: FrontierParams, ratio: float, n: int) -> np.ndarray:
    """Centre and scale consistent estimates by their limiting law.

    Columns of the result are ``sqrt(n) * (est - center) / sd`` with centres
    ``(r_gmv, v_gmv, slope + p/n)`` — note the slope's bias term — and
    standard deviations from :func:`asymptotic_variances` evaluated at the
    *true* parameters.  Under the Gaussian model each column is
    asymptotically standard normal and columns are asymptotically
    independent.

    Parameters
    ----------
    estimates : array_like, shape (reps, 3)
        Consistent estimates with columns ``(r_gmv, v_gmv, slope)``.
    truth : FrontierParams
    ratio : float
        ``p/n`` of the experiment (also the slope-centring shift).
    n : int
        Sample size.

    Returns
    -------
    ndarray, shape (reps, 3)
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[1] != 3:
        raise InvalidParams(f"estimates must have shape (reps, 3), got {estimates.shape}")
    limits = asymptotic_variances(truth, ratio)
    sds = np.sqrt([limits.var_r, limits.var_v, limits.var_s])
    centers = np.array([truth.r_gmv, truth.v_gmv, truth.slope + ratio])
    return np.sqrt(float(n)) * (estimates - centers) / sds
