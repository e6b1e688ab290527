"""Closed-form geometry of the mean-variance efficient frontier.

Everything in this module is population-level algebra: given a mean vector
``mu`` and a positive-definite covariance ``sigma``, the frontier in the
(variance, expected-return) plane is the parabola

    (R - r_gmv)**2 = slope * (V - v_gmv),

whose three parameters derive from the classic quadratic forms

    a = mu' inv(sigma) mu,   b = 1' inv(sigma) mu,   c = 1' inv(sigma) 1,

via ``r_gmv = b/c``, ``v_gmv = 1/c`` and ``slope = a - b**2/c``.  The same
parabola is often written with the Merton constants (a, b, c) directly; both
parameterisations are supported and interconvertible.

No matrix is ever inverted explicitly: all quadratic forms go through one
Cholesky factorization and triangular solves.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AsymmetricMatrix,
    CholeskyFailure,
    DimensionMismatch,
    InvalidConstants,
    InvalidParams,
    InvalidRange,
)

__all__ = [
    "MertonConstants",
    "FrontierParams",
    "merton_constants",
    "frontier_params",
    "from_merton",
    "to_merton",
    "frontier_curve",
]

#: relative tolerance for accepting (and averaging away) covariance asymmetry
SYMMETRY_RTOL = 1e-10

#: relative tolerance below which a tiny negative slope is clamped to zero
SLOPE_CLAMP_RTOL = 1e-12

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _cauchy_schwarz_gap(a, b, c):
    """``a*c - b**2`` and the float slop it may fall below zero by; floats or ``(B,)`` arrays."""
    maximum = max if isinstance(a, float) else np.maximum  # equal on finite floats, 10x cheaper
    return a * c - b * b, 1e-10 * maximum(maximum(a * c, b * b), 1e-300)


@dataclass(frozen=True, slots=True)
class MertonConstants:
    """The three scalars (a, b, c) = (mu'Σ⁻¹mu, 1'Σ⁻¹mu, 1'Σ⁻¹1).

    ``c`` must be positive and, by Cauchy-Schwarz, ``a*c - b**2 >= 0`` for any
    genuine (mu, sigma) pair.  Constructing with ``validate=False`` skips the
    inequality checks; this is used internally for finite-sample estimates
    whose bias correction can push them slightly outside the population cone.
    """

    a: float
    b: float
    c: float
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        vals = (self.a, self.b, self.c)
        if not all(map(math.isfinite, vals)):
            raise InvalidConstants(f"constants must be finite, got {vals}")
        if not validate:
            return
        if self.c <= 0.0:
            raise InvalidConstants(f"c = 1'inv(sigma)1 must be positive, got {self.c}")
        if self.a < 0.0:
            raise InvalidConstants(f"a = mu'inv(sigma)mu must be nonnegative, got {self.a}")
        gap, slop = _cauchy_schwarz_gap(self.a, self.b, self.c)
        if gap < -slop:
            raise InvalidConstants(f"a*c - b^2 must be nonnegative (Cauchy-Schwarz), got {gap}")


@dataclass(frozen=True, slots=True)
class FrontierParams:
    """Vertex and curvature of the frontier parabola.

    Attributes
    ----------
    r_gmv : float
        Expected return of the global minimum variance portfolio.
    v_gmv : float
        Variance of the global minimum variance portfolio (positive).
    slope : float
        Curvature parameter ``s = a - b**2/c`` (nonnegative for populations;
        ``validate=False`` admits negative finite-sample estimates).
    """

    r_gmv: float
    v_gmv: float
    slope: float
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        vals = (self.r_gmv, self.v_gmv, self.slope)
        if not all(map(math.isfinite, vals)):
            raise InvalidParams(f"parameters must be finite, got {vals}")
        if self.v_gmv <= 0.0:
            raise InvalidParams(f"v_gmv must be positive, got {self.v_gmv}")
        if validate and self.slope < 0.0:
            raise InvalidParams(f"slope must be nonnegative, got {self.slope}")


def _as_mean(mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1:
        raise DimensionMismatch(f"mean vector must be 1-D, got shape {mu.shape}")
    if mu.size < 2:
        raise DimensionMismatch("mean vector needs at least two assets")
    if not np.all(np.isfinite(mu)):
        raise InvalidParams("mean vector contains non-finite entries")
    return mu


def _as_covariance(sigma, p: int) -> np.ndarray:
    """Validate shape/symmetry and return the symmetrized matrix."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {sigma.shape}")
    if sigma.shape[0] != p:
        raise DimensionMismatch(
            f"covariance is {sigma.shape[0]}x{sigma.shape[0]} but mean has length {p}"
        )
    if not np.all(np.isfinite(sigma)):
        raise InvalidParams("covariance contains non-finite entries")
    asym = np.abs(sigma - sigma.T).max()
    scale = np.abs(sigma).max()
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise AsymmetricMatrix(
            f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} relative"
        )
    return 0.5 * (sigma + sigma.T)


#: the LAPACK routines behind scipy.linalg.cho_factor and cho_solve, called
#: directly: the wrappers' checks cost more than the factorization at small p.
#: Their flags go by position, which spares f2py's keyword parsing:
#: potrf(a, lower, clean), potrs(c, b, lower) and potri(c, lower, overwrite_c).
_potrf, _potrs, _potri = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "potri"), dtype=np.float64)


def _quadratic_forms(mu: np.ndarray, sigma: np.ndarray):
    """(a, b, c) in ``inv(sigma)``, one Cholesky factorization per matrix.

    The package's one factor-and-solve for these forms, shared by the
    population constants and every estimator so that they cannot drift
    apart.  ``(B, p)`` means and ``(B, p, p)`` matrices give ``((a, b, c),
    failures)``: ``(B,)`` forms, NaN in each slot whose matrix is not positive
    definite, and ``failures`` mapping that slot to LAPACK's ``potrf`` info.
    One potrf and potrs per slot, then stacked ``(B, 1, p) @ (B, p, 1)`` dot
    products: a slot's forms do not depend on the stack around it.
    """
    ones = np.ones(mu.shape[-1])
    rhs = np.empty(mu.shape + (2,))  # per slot, the columns (ones, mu)
    rhs[..., 0] = 1.0
    rhs[..., 1] = mu
    sols = np.empty((len(mu), 2, mu.shape[1]))  # slot i is the transposed solution
    failures = {}
    for slot, matrix in enumerate(sigma):
        # a negative info flags an illegal argument, which these calls never pass
        factor, info = _potrf(matrix, True, False)
        if info > 0:
            sols[slot], failures[slot] = np.nan, info
        else:
            sols[slot] = _potrs(factor, rhs[slot], True)[0].T
    solved_ones, solved_mu = sols[:, 0, :, None], sols[:, 1, :, None]
    a = mu[:, None, :] @ solved_mu
    return (a.ravel(), (ones @ solved_mu).ravel(), (ones @ solved_ones).ravel()), failures


def _inverses(sigma: np.ndarray):
    """``(inverses, failures)`` of a ``(B, p, p)`` stack, each from one ``potrf`` and
    ``potri`` with its lower triangle mirrored; NaN and failures as in :func:`_quadratic_forms`."""
    inverses, failures = np.empty_like(sigma), {}
    for slot, matrix in enumerate(sigma):
        factor, info = _potrf(matrix, True, False)
        if info > 0:
            inverses[slot], failures[slot] = np.nan, info
        else:
            inverses[slot] = _potri(factor, True, True)[0]
    np.copyto(inverses, inverses.mT, where=~np.tri(sigma.shape[-1], dtype=bool))
    return inverses, failures


def _cholesky_failure(info: int, error=CholeskyFailure, what="covariance is not positive definite"):
    """``error`` for a matrix whose ``potrf`` stopped at leading minor ``info``, LAPACK's as its cause."""
    cause = scipy.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    failure = error(f"{what}: {cause}")
    failure.__cause__ = cause
    return failure


def merton_constants(mu, sigma) -> MertonConstants:
    """Compute (a, b, c) = (mu'Σ⁻¹mu, 1'Σ⁻¹mu, 1'Σ⁻¹1).

    Parameters
    ----------
    mu : array_like, shape (p,)
        Mean vector, p >= 2.
    sigma : array_like, shape (p, p)
        Positive-definite covariance matrix, symmetric within 1e-10 relative
        tolerance (small asymmetry is averaged away).

    Returns
    -------
    MertonConstants

    Raises
    ------
    DimensionMismatch, AsymmetricMatrix, CholeskyFailure
    """
    mu = _as_mean(mu)
    sigma = _as_covariance(sigma, mu.size)
    with np.errstate(over="ignore"):  # a form beyond the float range is inf, which is rejected
        (a, b, c), failures = _quadratic_forms(mu[None], sigma[None])
    if failures:
        raise _cholesky_failure(failures[0])
    a, b, c = float(a[0]), float(b[0]), float(c[0])
    # float slop guard: a is a PD quadratic form, clamp a tiny negative result
    if a < 0 and a > -1e-12 * max(abs(b), 1.0):
        a = 0.0
    return MertonConstants(a, b, c)


def _vertex(a, b, c):
    """(r_gmv, v_gmv, unclamped slope) of Merton constants.

    Floats and ``(B,)`` arrays alike, with the same operations in the same order.
    """
    return b / c, 1.0 / c, a - b * b / c


def _clamped_slope(slope: float, a: float) -> float:
    if slope < 0.0:
        # below the smallest normal float, rounding error is absolute, not relative
        tolerance = max(SLOPE_CLAMP_RTOL * a, _SMALLEST_NORMAL)
        if slope > -tolerance:
            return 0.0
        raise InvalidConstants(
            f"slope {slope} is negative beyond rounding tolerance {-tolerance:.3e}"
        )
    return slope


def from_merton(constants: MertonConstants) -> FrontierParams:
    """Map Merton constants to the parabola's vertex/curvature form."""
    if constants.c <= 0.0:
        raise InvalidConstants(f"c must be positive, got {constants.c}")
    r_gmv, v_gmv, slope = _vertex(constants.a, constants.b, constants.c)
    return FrontierParams(r_gmv=r_gmv, v_gmv=v_gmv, slope=_clamped_slope(slope, constants.a))


def to_merton(params: FrontierParams) -> MertonConstants:
    """Inverse of :func:`from_merton`, to rounding.

    ``from_merton(to_merton(params))`` is ``params`` up to rounding, not bit
    for bit: ``r_gmv`` and ``v_gmv`` within a relative ``1e-15``, and
    ``slope`` within ``2e-15 * a``, since ``slope = a - b**2/c`` cancels
    when ``r_gmv**2 / v_gmv`` dwarfs it.  Raises InvalidParams when
    ``r_gmv**2`` overflows.
    """
    if params.v_gmv <= 0.0:
        raise InvalidParams(f"v_gmv must be positive, got {params.v_gmv}")
    c = 1.0 / params.v_gmv
    b = params.r_gmv / params.v_gmv
    try:
        square = params.r_gmv**2
    except OverflowError:
        raise InvalidParams(f"r_gmv**2 overflows the float range, r_gmv={params.r_gmv}") from None
    a = params.slope + square / params.v_gmv
    return MertonConstants(a, b, c, validate=params.slope >= 0.0)


def frontier_params(mu, sigma) -> FrontierParams:
    """Frontier vertex and curvature straight from (mu, sigma)."""
    return from_merton(merton_constants(mu, sigma))


def _upper_branch(params: FrontierParams, v: np.ndarray) -> np.ndarray:
    """``r_gmv + sqrt(slope (v - v_gmv))`` per ``v``: NaN left of the vertex, flat if slope < 0."""
    gap = v - params.v_gmv
    slope = max(params.slope, 0.0)
    return np.where(gap >= 0.0, params.r_gmv + np.sqrt(np.maximum(slope * gap, 0.0)), np.nan)


#: the most grid points whose ``(n_points, 2)`` float array NumPy can address
_MAX_POINTS = np.iinfo(np.intp).max // 16


def frontier_curve(params: FrontierParams, v_max: float, n_points: int = 65) -> np.ndarray:
    """Upper frontier branch sampled on an even variance grid.

    Parameters
    ----------
    params : FrontierParams
    v_max : float
        Right edge of the variance grid; must exceed ``params.v_gmv``.
    n_points : int
        Number of grid points (>= 2).

    Returns
    -------
    ndarray, shape (n_points, 2)
        Columns ``(V, R)`` with ``R = r_gmv + sqrt(slope * (V - v_gmv))``.
        The first row is exactly the vertex ``(v_gmv, r_gmv)``.
    """
    if not np.isfinite(v_max) or v_max <= params.v_gmv:
        raise InvalidRange(f"v_max must exceed v_gmv = {params.v_gmv}, got {v_max}")
    if n_points < 2:
        raise InvalidRange(f"n_points must be at least 2, got {n_points}")
    if n_points > _MAX_POINTS:
        raise InvalidRange(f"n_points must be at most {_MAX_POINTS}, got {n_points}")
    v = np.linspace(params.v_gmv, v_max, n_points)
    return np.column_stack([v, _upper_branch(params, v)])
