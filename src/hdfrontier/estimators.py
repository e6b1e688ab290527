"""Finite-sample estimators of the efficient frontier.

Three families live here:

1. **Moment plug-ins.**  The *sample* frontier plugs the sample mean and
   sample covariance (divisor ``n``) straight into the population formulas.
   In high dimensions (p comparable to n) this overstates the slope by a
   factor close to ``1/(1 - p/n)``; multiplying all three Merton constants by
   ``1 - p/n`` yields the *consistent* estimator, and a further exact
   finite-sample correction yields the *unbiased* estimator (mean-exact for
   Gaussian returns, at the price of admitting negative slope estimates).

2. **Precision-matrix plug-ins.**  Instead of inverting the sample
   covariance, substitute a better-behaved estimator of ``inv(sigma)``:
   a de-biasing rescale of the inverse sample covariance (``sse``), an
   empirical-Bayes variant that adds an identity component (``ebe``), or a
   ridge-type estimator defined even when ``p >= n`` (``rte``).

3. **Dispatch.**  :func:`estimate` / :func:`estimate_many` compute any subset
   of the above from one set of sample moments.  The moments cache their
   ``inv(S)`` quadratic forms, so all kinds that need them share a single
   Cholesky factorization.

All estimators report frontier parameters, the underlying Merton constants,
and the concentration ratio ``p/n`` in a uniform :class:`EstimateReport`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    HDFrontierError,
    InvalidParams,
    NotPositiveDefinite,
    RatioOutOfRange,
    SingularCovariance,
    TooFewObservations,
    ZeroTrace,
)
from .frontier import FrontierParams, MertonConstants, _quadratic_forms, from_merton, to_merton

__all__ = [
    "ReturnsMatrix",
    "SampleMoments",
    "EstimatorKind",
    "EstimateReport",
    "sample_moments",
    "sample_frontier",
    "consistent_frontier",
    "unbiased_frontier",
    "precision_sse",
    "precision_ebe",
    "precision_rte",
    "plugin_frontier",
    "estimate",
    "estimate_many",
]


@dataclass(frozen=True, eq=False)
class ReturnsMatrix:
    """An assets-by-observations panel of returns.

    Attributes
    ----------
    values : ndarray, shape (p, n)
        One row per asset, one column per observation.
    asset_labels : tuple of str, optional
        Row labels; length must equal ``p`` when given.
    """

    values: np.ndarray
    asset_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatch(f"returns must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InvalidParams("returns contain non-finite entries")
        object.__setattr__(self, "values", values)
        if self.asset_labels is not None:
            labels = tuple(str(s) for s in self.asset_labels)
            if len(labels) != values.shape[0]:
                raise DimensionMismatch(
                    f"{len(labels)} labels for {values.shape[0]} assets"
                )
            object.__setattr__(self, "asset_labels", labels)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SampleMoments:
    """Sample mean and covariance of a returns panel.

    The covariance uses divisor ``n`` (maximum-likelihood normalisation):
    ``cov = (Y - mean) (Y - mean)' / n``.  The quadratic forms in its inverse
    are computed on first use and cached, so every estimator kind read from
    one instance shares one Cholesky factorization, or one failed attempt.
    """

    mean: np.ndarray
    cov: np.ndarray
    n: int
    p: int

    @property
    def ratio(self) -> float:
        """Concentration ratio p/n."""
        return self.p / self.n

    @property
    def forms(self) -> tuple[float, float, float]:
        """(a, b, c) in ``inv(cov)``, factorized at most once.

        Raises SingularCovariance if ``n <= p`` or ``cov`` is not positive
        definite; a failure is cached too, and raised again on every read.
        """
        forms = self._forms_or_error
        if isinstance(forms, SingularCovariance):
            raise forms.with_traceback(None)
        return forms

    @functools.cached_property
    def _forms_or_error(self) -> tuple[float, float, float] | SingularCovariance:
        error = _shape_error(EstimatorKind.SAMPLE, self.p, self.n)
        if error is not None:
            return error
        try:
            return _quadratic_forms(self.mean, self.cov)
        except CholeskyFailure as exc:  # keeps the LAPACK error as the cause
            error = SingularCovariance(
                f"sample covariance is not positive definite (p={self.p}, "
                f"n={self.n}; estimators based on inv(S) require n > p): {exc.__cause__}"
            )
            error.__cause__ = exc.__cause__
            return error


class EstimatorKind(str, enum.Enum):
    """Names for the supported frontier estimators."""

    SAMPLE = "sample"          # raw moment plug-in
    CONSISTENT = "consistent"  # Merton constants scaled by (1 - p/n)
    UNBIASED = "unbiased"      # exact Gaussian mean correction
    SSE = "sse"                # scaled inverse sample covariance
    EBE = "ebe"                # empirical-Bayes precision (adds identity part)
    RTE = "rte"                # ridge-type precision, defined for any p/n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SCALED_INVERSE = (3, "scaled-inverse precision needs n >= p + 3")

#: per kind, the smallest n - p it admits and the rule an n > p shape can still
#: break; every inv(S) kind needs n > p, and rte's ridge admits every shape
_SHAPE_RULES = {
    EstimatorKind.SAMPLE: (1, ""),
    EstimatorKind.CONSISTENT: (1, ""),
    EstimatorKind.UNBIASED: (2, "unbiased correction needs n >= p + 2"),
    EstimatorKind.SSE: _SCALED_INVERSE,
    EstimatorKind.EBE: _SCALED_INVERSE,
    EstimatorKind.RTE: (-math.inf, ""),
}


def _shape_error(kind: EstimatorKind, p: int, n: int) -> HDFrontierError | None:
    """The error a ``p x n`` panel raises for ``kind``, or None if the kind admits it."""
    need, rule = _SHAPE_RULES[kind]
    if n - p >= need:
        return None
    if n <= p:
        return SingularCovariance(
            f"sample covariance with p={p}, n={n} is singular: "
            f"estimators based on inv(S) require n > p"
        )
    return TooFewObservations(f"{rule}, got n={n}, p={p}")


def _require_shape(kind: EstimatorKind, moments: SampleMoments) -> None:
    if moments.n - moments.p < _SHAPE_RULES[kind][0]:  # builds no object on success
        raise _shape_error(kind, moments.p, moments.n)


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's output, with enough context to interpret it.

    Attributes
    ----------
    kind : EstimatorKind
    params : FrontierParams
        Estimated vertex and curvature.
    merton : MertonConstants
        The (a, b, c) triple the parameters derive from.
    p, n : int
        Panel dimensions behind the estimate.
    ratio : float
        Concentration ratio ``p/n``.  Must lie in (0, 1) except for the
        ridge-type estimator, which is defined for any positive ratio.
    notes : tuple of str
        Free-form quality flags, e.g. ``"negative-slope-clamped-in-merton"``.
    """

    kind: EstimatorKind
    params: FrontierParams
    merton: MertonConstants
    p: int
    n: int
    ratio: float
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if _SHAPE_RULES[self.kind][0] > 0 and not 0.0 < self.ratio < 1.0:
            raise RatioOutOfRange(
                f"{self.kind.value} estimates require p/n in (0, 1), got {self.ratio}"
            )
        if self.ratio <= 0.0:
            raise RatioOutOfRange(f"p/n must be positive, got {self.ratio}")


def sample_moments(returns) -> SampleMoments:
    """Sample mean and divisor-``n`` covariance of a returns panel.

    Parameters
    ----------
    returns : ReturnsMatrix or array_like, shape (p, n)
        Assets in rows, observations in columns.

    Raises
    ------
    TooFewObservations
        If fewer than two observations are supplied.
    """
    if not isinstance(returns, ReturnsMatrix):
        returns = ReturnsMatrix(np.asarray(returns, dtype=float))
    if returns.n < 2:
        raise TooFewObservations(
            f"need at least 2 observations to form a covariance, got {returns.n}"
        )
    mean, cov = _moments(returns.values)
    return SampleMoments(mean=mean, cov=cov, n=returns.n, p=returns.p)


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and divisor-``n`` covariance of each ``(p, n)`` panel in a ``(..., p, n)`` stack.

    Stacked panels give the same bits as one panel at a time: the mean and
    the elementwise steps act slice by slice, and ``matmul`` runs the same
    BLAS product on each slice.
    """
    mean = values.mean(axis=-1)
    centered = values - mean[..., None]
    cov = centered @ np.swapaxes(centered, -1, -2)
    cov /= values.shape[-1]
    cov = cov + np.swapaxes(cov, -1, -2)
    cov *= 0.5
    return mean, cov


def _report(kind, merton, moments, params=None, notes=()) -> EstimateReport:
    return EstimateReport(
        kind=kind,
        params=from_merton(merton) if params is None else params,
        merton=merton,
        p=moments.p,
        n=moments.n,
        ratio=moments.ratio,
        notes=tuple(notes),
    )


def sample_frontier(moments: SampleMoments) -> EstimateReport:
    """Raw plug-in: population formulas applied to the sample moments.

    Consistent only when ``p/n -> 0``; for ``p/n -> c > 0`` the GMV variance
    is understated by the factor ``1 - c`` and the slope inflated by roughly
    ``c/(1 - c) + c/(1 - c)**2`` plus a multiplicative distortion.
    """
    return _report(EstimatorKind.SAMPLE, MertonConstants(*moments.forms), moments)


def consistent_frontier(moments: SampleMoments) -> EstimateReport:
    """Ratio-consistent frontier: Merton constants scaled by ``1 - p/n``.

    Under either Gaussian or heavy-tailed i.i.d. sampling with ``p/n -> c``
    in (0, 1), each rescaled constant converges almost surely to its
    population counterpart.  Relative to the raw sample frontier this leaves
    ``r_gmv`` unchanged, multiplies the GMV variance by ``1/(1 - p/n)`` and
    the slope by ``1 - p/n``.  The slope retains an additive bias of roughly
    ``p/n`` in finite samples (it converges to ``s + c``, not ``s``, when the
    centering at ``s`` alone is used); downstream inference can recenter.
    """
    a, b, c = moments.forms
    shrink = 1.0 - moments.ratio
    merton = MertonConstants(shrink * a, shrink * b, shrink * c)
    return _report(EstimatorKind.CONSISTENT, merton, moments)


def unbiased_frontier(moments: SampleMoments) -> EstimateReport:
    """Exactly mean-unbiased frontier parameters for Gaussian returns.

    With divisor-``n`` sample moments and ``p < n - 1``:

    - ``r_gmv`` is already unbiased and is left untouched;
    - ``v_gmv`` is multiplied by ``n / (n - p)``;
    - the slope becomes ``(n - p - 1)/n * slope_sample - (p - 1)/n``,
      which can be negative — the report keeps the signed value so that
      averaging across repetitions stays unbiased, and flags it in
      ``notes`` when it happens.

    (Equivalently, in the divisor-``n-1`` convention these read
    ``(n-1)/(n-p) * v`` and ``(n-p-1)/(n-1) * s - (p-1)/n``.)
    """
    _require_shape(EstimatorKind.UNBIASED, moments)
    n, p = moments.n, moments.p
    base = from_merton(MertonConstants(*moments.forms))
    v_u = base.v_gmv * n / (n - p)
    s_u = base.slope * (n - p - 1) / n - (p - 1) / n
    params = FrontierParams(base.r_gmv, v_u, s_u, validate=False)
    notes = ("negative-slope",) if s_u < 0 else ()
    return _report(EstimatorKind.UNBIASED, to_merton(params), moments, params, notes)


def _require_trace(moments: SampleMoments) -> float:
    trace = float(np.trace(moments.cov))
    if trace <= 0.0:
        raise ZeroTrace(f"sample covariance trace must be positive, got {trace}")
    return trace


def precision_sse(moments: SampleMoments) -> np.ndarray:
    """Scaled inverse sample covariance, ``(n - p - 2)/(n - 1) * inv(S)``.

    The scale removes the leading inflation of Wishart inverse moments, so
    quadratic forms in this matrix track the population forms.  Requires
    ``n > p + 2`` so that the scale is positive and ``inv(S)`` exists.
    """
    _require_shape(EstimatorKind.SSE, moments)
    n, p = moments.n, moments.p
    try:
        inv = scipy.linalg.inv(moments.cov, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"sample covariance is singular: {exc}") from exc
    return (n - p - 2) / (n - 1) * 0.5 * (inv + inv.T)


def precision_ebe(moments: SampleMoments) -> np.ndarray:
    """Empirical-Bayes precision: the scaled inverse plus an identity part.

    ``(n - p - 2)/(n - 1) inv(S)  +  (p**2 + p - 2)/((n - 1) tr S) I``.

    The identity component shrinks the precision toward a multiple of I,
    which dominates the plain scaled inverse in quadratic loss.
    """
    trace = _require_trace(moments)
    n, p = moments.n, moments.p
    base = precision_sse(moments)
    ridge = (p * p + p - 2) / ((n - 1) * trace)
    return base + ridge * np.eye(p)


def precision_rte(moments: SampleMoments) -> np.ndarray:
    """Ridge-type precision ``p * inv((n - 1) S + tr(S) I)``.

    The trace ridge keeps the matrix to invert positive definite for any
    ``p/n``, including ``p >= n`` where ``inv(S)`` does not exist.
    """
    trace = _require_trace(moments)
    n, p = moments.n, moments.p
    ridged = (n - 1) * moments.cov + trace * np.eye(p)
    try:
        inv = scipy.linalg.inv(ridged, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - ridge makes this PD
        raise NotPositiveDefinite(f"ridged covariance is singular: {exc}") from exc
    return p * 0.5 * (inv + inv.T)


def plugin_frontier(precision, mean, kind: EstimatorKind, n: int) -> EstimateReport:
    """Frontier parameters from an explicit precision-matrix estimate.

    Parameters
    ----------
    precision : array_like, shape (p, p)
        Symmetric positive-definite estimate of ``inv(sigma)``.
    mean : array_like, shape (p,)
        Mean estimate.
    kind : EstimatorKind
        Label recorded in the report (normally one of the precision kinds).
    n : int
        Sample size behind the estimates, for the report's ``p/n`` ratio.

    Notes
    -----
    Positive definiteness of the precision guarantees, via Cauchy-Schwarz,
    a nonnegative slope — no unvalidated constructions are needed here.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1 or mean.size < 2:
        raise DimensionMismatch(f"mean must be a 1-D vector of length >= 2, got shape {mean.shape}")
    precision = np.asarray(precision, dtype=float)
    if precision.shape != (mean.size, mean.size):
        raise DimensionMismatch(
            f"precision shape {precision.shape} does not match mean length {mean.size}"
        )
    try:
        scipy.linalg.cho_factor(precision, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"precision estimate is not positive definite: {exc}") from exc
    ones = np.ones(mean.size)
    pm = precision @ mean
    merton = MertonConstants(float(mean @ pm), float(ones @ pm), float(ones @ precision @ ones))
    p = mean.size
    return EstimateReport(
        kind=kind,
        params=from_merton(merton),
        merton=merton,
        p=p,
        n=int(n),
        ratio=p / int(n),
    )


# The precision plug-ins below never form their matrices: sse and ebe are
# affine in inv(S) and I, so their forms are affine in the cached forms and in
# (||mean||^2, sum(mean), p); rte needs one solve against its ridged matrix.


def _sse_forms(moments: SampleMoments) -> tuple[float, float, float]:
    scale = (moments.n - moments.p - 2) / (moments.n - 1)
    return tuple(scale * form for form in moments.forms)


def _sse_frontier(moments: SampleMoments) -> EstimateReport:
    return _report(EstimatorKind.SSE, MertonConstants(*_sse_forms(moments)), moments)


def _ebe_frontier(moments: SampleMoments) -> EstimateReport:
    a, b, c = _sse_forms(moments)
    n, p, mean = moments.n, moments.p, moments.mean
    ridge = (p * p + p - 2) / ((n - 1) * _require_trace(moments))
    merton = MertonConstants(
        a + ridge * float(mean @ mean),
        b + ridge * float(mean.sum()),
        c + ridge * p,
    )
    return _report(EstimatorKind.EBE, merton, moments)


def _rte_frontier(moments: SampleMoments) -> EstimateReport:
    n, p = moments.n, moments.p
    ridged = (n - 1) * moments.cov + _require_trace(moments) * np.eye(p)
    a, b, c = _quadratic_forms(moments.mean, ridged)
    return _report(EstimatorKind.RTE, MertonConstants(p * a, p * b, p * c), moments)


_ESTIMATORS = {
    EstimatorKind.SAMPLE: sample_frontier,
    EstimatorKind.CONSISTENT: consistent_frontier,
    EstimatorKind.UNBIASED: unbiased_frontier,
    EstimatorKind.SSE: _sse_frontier,
    EstimatorKind.EBE: _ebe_frontier,
    EstimatorKind.RTE: _rte_frontier,
}


def estimate(moments: SampleMoments, kind: EstimatorKind) -> EstimateReport:
    """Compute one estimator from sample moments.  See :func:`estimate_many`."""
    kind = EstimatorKind(kind)
    _require_shape(kind, moments)
    return _ESTIMATORS[kind](moments)


def estimate_many(
    moments: SampleMoments, kinds
) -> dict[EstimatorKind, EstimateReport]:
    """Compute several frontier estimators from one set of sample moments.

    All kinds that need quadratic forms in ``inv(S)`` read the forms cached
    on ``moments``, so they share a single Cholesky factorization.  A kind
    whose shape rule (see :func:`_shape_error`) rules out ``p x n`` fails
    before any factorization; the first failing kind, in request order,
    raises its error.

    Parameters
    ----------
    moments : SampleMoments
    kinds : iterable of EstimatorKind or str

    Returns
    -------
    dict mapping each requested kind to its :class:`EstimateReport`.
    """
    reports, errors = _estimate_each(moments, [EstimatorKind(k) for k in kinds])
    if errors:
        raise next(iter(errors.values()))
    return reports


def _estimate_each(moments: SampleMoments, kinds) -> tuple[dict, dict]:
    """(reports, errors) in request order: one failing kind spares the rest."""
    reports, errors = {}, {}
    for kind in kinds:
        try:
            reports[kind] = estimate(moments, kind)
        except HDFrontierError as exc:
            errors[kind] = exc
    return reports, errors
