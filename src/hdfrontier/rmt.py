"""Random-matrix transforms and limit-law oracles.

This module provides the deterministic-equivalent machinery behind the
high-dimensional results, exposed both as library functions and as test
infrastructure:

- the quadratic-root transform ``x(z)`` and Stieltjes transform ``m(z)``
  associated with the Marchenko-Pastur law of ratio ``c``;
- Monte Carlo diagnostics that measure how far random quadratic forms in
  inverse sample covariances sit from their almost-sure limits, for white
  (uncentred) and de-meaned sample covariances;
- the exact finite-sample Gaussian laws of the frontier estimators;
- a Poisson-mixture sampler for the noncentral chi-square.

Conventions: ``c`` is the concentration ratio ``p/n``; the support of the
Marchenko-Pastur law is ``[(1-sqrt(c))^2, (1+sqrt(c))^2]``; and all sample
covariances here use divisor ``n``, matching the estimators module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchAmbiguity,
    InvalidParams,
    PoleAtZ,
    SingularMatrix,
    TooFewObservations,
)
from .frontier import FrontierParams

__all__ = [
    "StieltjesPoint",
    "DiagnosticRecord",
    "ExactGaussianLaws",
    "mp_support",
    "x_of_z",
    "m_of_z",
    "white_quadform_diagnostics",
    "demeaned_quadform_diagnostics",
    "gaussian_exact_laws",
    "sample_noncentral_chisq",
]


@dataclass(frozen=True)
class StieltjesPoint:
    """An evaluation point ``z`` together with a concentration ratio ``c``.

    ``z`` may be complex or real; real points on the Marchenko-Pastur
    support (branch cut) are rejected by the transforms themselves rather
    than by this constructor.  ``z = 0`` is admitted as the analytic limit
    point when ``c < 1``.
    """

    z: complex
    c: float

    def __post_init__(self) -> None:
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidParams(f"z must be finite, got {z}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise InvalidParams(f"c must be a positive real, got {self.c}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "c", float(self.c))


def mp_support(c: float) -> tuple[float, float]:
    """Endpoints ``(1 -/+ sqrt(c))**2`` of the Marchenko-Pastur bulk."""
    if not (math.isfinite(c) and c > 0.0):
        raise InvalidParams(f"c must be a positive real, got {c}")
    root = math.sqrt(c)
    return ((1.0 - root) ** 2, (1.0 + root) ** 2)


def _discriminant(z: complex, c: float) -> complex:
    # (1 - c + z)**2 - 4z, expanded: z**2 - 2(1+c)z + (1-c)**2
    return z * z - 2.0 * (1.0 + c) * z + (1.0 - c) ** 2


def _off_support(z: float, c: float) -> None:
    """Raise ``BranchAmbiguity`` if the real ``z`` lies on the support of the law of ``c``."""
    lo, hi = mp_support(c)
    if lo <= z <= hi:
        raise BranchAmbiguity(
            f"z = {z} lies on the support [{lo:.6g}, {hi:.6g}]; "
            f"the transform needs a one-sided limit there"
        )


def x_of_z(pt: StieltjesPoint) -> complex:
    """The root of ``x**2 - (1 - c + z)x + z = 0`` mapping C+ to C+.

    For ``Im z > 0`` the two roots have imaginary parts of opposite sign
    and the one with ``Im x > 0`` is returned (the principal square root
    gets an explicit sign correction when needed).  Real ``z`` off the
    support yields the real limit ``(1 - c + z + sqrt(D))/2`` with the
    nonnegative square root; in particular ``x -> 1 - c`` as ``z -> 0+``
    for ``c < 1``.  Lower half-plane points go through the conjugate
    symmetry ``x(conj z) = conj(x(z))``.

    Raises
    ------
    BranchAmbiguity
        For real ``z`` on the support (including the branch points), where
        the two roots collide or a one-sided limit would be required.
    """
    z, c = pt.z, pt.c
    if z.imag < 0.0:
        return x_of_z(StieltjesPoint(z.conjugate(), c)).conjugate()
    disc = _discriminant(z, c)
    if z.imag == 0.0:
        _off_support(z.real, c)
        return complex(0.5 * (1.0 - c + z.real + math.sqrt(disc.real)))
    w = cmath.sqrt(disc)
    x = 0.5 * (1.0 - c + z + w)
    if x.imag <= 0.0:
        x = 0.5 * (1.0 - c + z - w)
    if x.imag <= 0.0:  # pragma: no cover - roots straddle the real axis off the cut
        raise BranchAmbiguity(f"no root with positive imaginary part at z = {z}")
    return x


def m_of_z(pt: StieltjesPoint) -> tuple[complex, complex | None]:
    """Stieltjes transform ``m(z)`` and its companion ``-(1-c)/z + c m(z)``.

    ``m`` solves ``c z m**2 + (z - 1 + c) m + 1 = 0`` on the branch with
    ``Im m > 0`` for ``Im z > 0`` (the defining property of a Stieltjes
    transform of a measure on the real line).  The two roots of the
    ``x``-quadratic multiply to ``z``, and ``m = 1/(x~ - z)`` holds for the
    companion root ``x~ = z / x(z)`` — not for :func:`x_of_z` itself, whose
    branch is pinned by its upper-half-plane mapping property instead; off
    the real axis ``m`` is computed that way, from :func:`x_of_z`.

    Real ``z`` off the support is evaluated through a small upper-half-plane
    lift (``delta = 1e-9 (1 + |z|)``) and returned with zero imaginary
    part.  At ``z = 0`` the analytic limit ``m = 1/(1 - c)`` applies for
    ``c < 1``; the companion has a pole there and is returned as ``None``.

    Raises
    ------
    PoleAtZ
        At ``z = 0`` when ``c >= 1`` (the spectral law then has mass at the
        origin and ``m`` diverges).
    BranchAmbiguity
        For real ``z`` on the support.
    """
    z, c = pt.z, pt.c
    if z == 0:
        if c >= 1.0:
            raise PoleAtZ(
                f"m(z) has a pole at z = 0 for c = {c} >= 1 (point mass at the origin)"
            )
        return complex(1.0 / (1.0 - c)), None
    if z.imag < 0.0:
        m, companion = m_of_z(StieltjesPoint(z.conjugate(), c))
        return m.conjugate(), None if companion is None else companion.conjugate()
    if z.imag == 0.0:
        _off_support(z.real, c)
        delta = 1e-9 * (1.0 + abs(z.real))
        m_lifted, _ = m_of_z(StieltjesPoint(complex(z.real, delta), c))
        m = complex(m_lifted.real)
    else:
        m = 1.0 / (z / x_of_z(pt) - z)
    companion = -(1.0 - c) / z + c * m
    return m, companion


@dataclass(frozen=True)
class ExactGaussianLaws:
    """Exact finite-sample laws of the frontier estimates under Gaussian data.

    All statistics are expressed in this package's divisor-``n`` moment
    convention (the classical statements use divisor ``n-1``; the scales
    below absorb the conversion):

    - ``v_scale * (v_hat / v)``            is chi-square with ``chi2_df`` df;
    - ``s_scale * s_hat``                  is noncentral F with ``f_dfs`` df
      and noncentrality ``f_noncentrality``;
    - given ``s_hat``, the return estimate is normal with mean ``r`` and
      variance ``conditional_r_variance(s_hat)``;
    - the variance estimate is independent of the (return, slope) pair.
    """

    r: float
    v: float
    s: float
    p: int
    n: int
    chi2_df: int
    v_scale: float
    f_dfs: tuple[int, int]
    f_noncentrality: float
    s_scale: float

    def f_mean(self) -> float:
        """Exact mean ``d2 (d1 + ncp) / (d1 (d2 - 2))`` of the slope statistic."""
        d1, d2 = self.f_dfs
        if d2 <= 2:
            raise InvalidParams(f"the F mean needs denominator df > 2, got {d2}")
        return d2 * (d1 + self.f_noncentrality) / (d1 * (d2 - 2.0))

    def conditional_r_variance(self, s_hat: float) -> float:
        """Variance of the return estimate given the (divisor-n) slope estimate."""
        if s_hat < 0.0:
            raise InvalidParams(f"slope estimate must be >= 0, got {s_hat}")
        return (1.0 + s_hat) * self.v / self.n


def gaussian_exact_laws(params: FrontierParams, p: int, n: int) -> ExactGaussianLaws:
    """Exact sampling laws of the sample frontier estimates (Gaussian data).

    Parameters
    ----------
    params : FrontierParams
        Population values ``(r, v, s)``.
    p, n : int
        Panel dimensions; requires ``n > p`` and ``p >= 2``.

    Returns
    -------
    ExactGaussianLaws
        With ``chi2_df = n - p``, ``v_scale = n``, ``f_dfs = (p-1, n-p+1)``,
        ``f_noncentrality = n s`` and ``s_scale = (n-p+1)/(p-1)``.
    """
    if n <= p:
        raise TooFewObservations(f"need n > p, got n={n}, p={p}")
    if p < 2:
        raise InvalidParams(f"the slope law needs p >= 2, got p={p}")
    return ExactGaussianLaws(
        r=params.r_gmv,
        v=params.v_gmv,
        s=params.slope,
        p=p,
        n=n,
        chi2_df=n - p,
        v_scale=float(n),
        f_dfs=(p - 1, n - p + 1),
        f_noncentrality=n * params.slope,
        s_scale=(n - p + 1) / (p - 1),
    )


def sample_noncentral_chisq(df: float, noncentrality: float, size: int, rng) -> np.ndarray:
    """Draw noncentral chi-square variates via the Poisson mixture.

    A noncentral chi-square with ``df`` degrees of freedom and noncentrality
    ``delta`` is a central chi-square with ``df + 2K`` degrees where
    ``K ~ Poisson(delta / 2)`` — exact, and built entirely from the two
    standard generators.
    """
    if df <= 0.0:
        raise InvalidParams(f"degrees of freedom must be positive, got {df}")
    if noncentrality < 0.0:
        raise InvalidParams(f"noncentrality must be >= 0, got {noncentrality}")
    mix = rng.poisson(0.5 * noncentrality, size=size)
    return rng.chisquare(df + 2.0 * mix)


@dataclass(frozen=True)
class DiagnosticRecord:
    """One diagnostic: a measured deviation; the caller's pass rule judges it."""

    check: str
    p: int
    n: int
    c: float
    seed: int
    value: float


def _record(check: str, p: int, n: int, seed: int, value: float) -> DiagnosticRecord:
    return DiagnosticRecord(check, p, n, p / n, seed, float(value))


def _diag_dimensions(c: float, p: int) -> int:
    if not (math.isfinite(c) and c > 0.0):
        raise InvalidParams(f"c must be a positive real, got {c}")
    if p < 2:
        raise InvalidParams(f"need p >= 2, got {p}")
    n = round(p / c)
    if n <= p:
        raise SingularMatrix(
            f"diagnostics need n > p for an invertible sample covariance; "
            f"c = {c}, p = {p} gives n = {n}"
        )
    return n


def white_quadform_diagnostics(c: float, p: int, seed: int, xi=None) -> list[DiagnosticRecord]:
    """Measure quadratic forms in an inverse white Wishart against their limits.

    Draws ``X`` (``p x n``, i.i.d. standard normal, ``n = round(p/c)``) and
    forms ``S~ = X X'/n`` (no centring).  With ``theta`` the normalized
    all-ones direction and the unit vector ``xi`` (default: an independent
    random direction, drawn *before* ``X``), reports

    - ``white-cross-form``: ``|xi' inv(S~) theta - (1-c)^{-1} xi' theta|``,
    - ``white-mean-form`` : ``|xbar' inv(S~) xbar - c|``,
    - ``white-mixed-form``: ``|xbar' inv(S~) theta| / sqrt(n)``,

    where ``xbar`` is the row-mean vector of ``X`` and the limits use the
    realized ratio ``p/n``.  Passing ``xi = theta`` turns the cross form
    into the pure direction form ``|theta' inv(S~) theta - (1-c)^{-1}|``.

    Note the cross form fluctuates like a normalized chi-square and sits
    near 0.06 in the median at ``p = 500``, ``c = 0.5`` — well above the
    mean and mixed forms, which are an order of magnitude tighter.

    Raises
    ------
    SingularMatrix
        If ``round(p/c) <= p`` (the white Wishart would be singular).
    """
    n = _diag_dimensions(c, p)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    theta = np.ones(p) / math.sqrt(p)
    if xi is None:
        xi = rng.standard_normal(p)
        xi /= np.linalg.norm(xi)
    else:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (p,):
            raise InvalidParams(f"xi must have shape ({p},), got {xi.shape}")
    x = rng.standard_normal((p, n))
    gram = x @ x.T / n
    xbar = x.mean(axis=1)
    try:
        sol = np.linalg.solve(gram, np.column_stack([theta, xbar]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - a.s. invertible
        raise SingularMatrix(f"white Gram matrix is singular: {exc}") from exc
    ratio = p / n
    inv_edge = 1.0 / (1.0 - ratio)
    cross = abs(float(xi @ sol[:, 0]) - inv_edge * float(xi @ theta))
    mean_form = abs(float(xbar @ sol[:, 1]) - ratio)
    mixed = abs(float(xbar @ sol[:, 0])) / math.sqrt(n)
    return [
        _record("white-cross-form", p, n, seed, cross),
        _record("white-mean-form", p, n, seed, mean_form),
        _record("white-mixed-form", p, n, seed, mixed),
    ]


def demeaned_quadform_diagnostics(c: float, p: int, seed: int) -> list[DiagnosticRecord]:
    """Measure quadratic forms in the inverse de-meaned sample covariance.

    Draws ``Y`` (``p x n``, i.i.d. standard normal, ``n = round(p/c)``),
    forms the divisor-``n`` de-meaned covariance ``S`` and reports, with
    ``ybar`` the sample mean (the ones and cross forms grow like ``p``, so
    they are divided by it),

    - ``demeaned-ones-form`` : ``|1' inv(S) 1 - (1-c)^{-1} p| / p``,
    - ``demeaned-mean-form`` : ``|ybar' inv(S) ybar - c/(1-c)|``,
    - ``demeaned-cross-form``: ``|ybar' inv(S) 1| / p``.

    The mean form is noisy: its sampling fluctuation at ``p = 500``,
    ``c = 0.5`` has median near 0.04 with occasional excursions past 0.2,
    so single-seed comparisons against tight thresholds are unreliable —
    compare medians across seeds instead.

    Raises
    ------
    SingularMatrix
        If ``round(p/c) <= p``.
    """
    n = _diag_dimensions(c, p)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ones = np.ones(p)
    y = rng.standard_normal((p, n))
    ybar = y.mean(axis=1)
    centered = y - ybar[:, None]
    cov = centered @ centered.T / n
    try:
        sol = np.linalg.solve(cov, np.column_stack([ones, ybar]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - a.s. invertible
        raise SingularMatrix(f"de-meaned sample covariance is singular: {exc}") from exc
    ratio = p / n
    ones_form = abs(float(ones @ sol[:, 0]) - p / (1.0 - ratio)) / p
    mean_form = abs(float(ybar @ sol[:, 1]) - ratio / (1.0 - ratio))
    cross_form = abs(float(ybar @ sol[:, 0])) / p
    return [
        _record("demeaned-ones-form", p, n, seed, ones_form),
        _record("demeaned-mean-form", p, n, seed, mean_form),
        _record("demeaned-cross-form", p, n, seed, cross_form),
    ]
