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
   Cholesky factorization.  One table entry per kind (``_KINDS``) states
   its shape rule, what it reads (the forms of S or of a ridged S, and the
   extras ``mean·mean``, ``sum(mean)`` and ``tr S``), its arithmetic after
   the forms and its correction step.  The same entry is evaluated on
   floats for one panel and on ``(B,)`` arrays for a Monte Carlo chunk
   (:func:`_estimate_stack`), with the same operations in the same order,
   so a chunk gives each replication the bits of the one-panel path.  A
   chunk slot that is not plainly valid is recomputed through the
   one-panel path, which owns the error classes.

All estimators report frontier parameters, the underlying Merton constants,
and the concentration ratio ``p/n`` in a uniform :class:`EstimateReport`.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
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
from .frontier import (
    FrontierParams,
    MertonConstants,
    _quadratic_forms,
    _vertex,
    from_merton,
    to_merton,
)

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

    # what _kind_constants reads beyond ``forms``; _MomentStack reads a chunk

    def _trace(self) -> float:
        """``tr S``; raises ZeroTrace unless it is positive."""
        trace = float(np.trace(self.cov))
        if trace <= 0.0:
            raise ZeroTrace(f"sample covariance trace must be positive, got {trace}")
        return trace

    def _extras(self) -> tuple[float, float, float]:
        """``(mean·mean, sum(mean), tr S)``."""
        return float(self.mean @ self.mean), float(self.mean.sum()), self._trace()


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


# Each kind's arithmetic after its forms, written once.  These functions run
# on Python floats (``estimate``) and on ``(B,)`` float64 arrays (the chunk
# core, ``_estimate_stack``) with the same IEEE operations in the same order,
# so both give the same bits.  The precision plug-ins never form their
# matrices: sse and ebe are affine in inv(S) and I, so their constants are
# affine in the forms and in (mean·mean, sum(mean), p); rte reads the forms
# of its ridged matrix.  ``extras`` is (mean·mean, sum(mean), tr S), for ebe.


def _scaled(scale, forms):
    a, b, c = forms
    return scale * a, scale * b, scale * c


def _sse_constants(forms, p, n, extras):
    return _scaled((n - p - 2) / (n - 1), forms)


def _ebe_constants(forms, p, n, extras):
    a, b, c = _sse_constants(forms, p, n, extras)
    mean_sq, mean_sum, trace = extras
    ridge = (p * p + p - 2) / ((n - 1) * trace)
    return a + ridge * mean_sq, b + ridge * mean_sum, c + ridge * p


def _unbiased(r_gmv, v_gmv, slope, p, n):
    """The unbiased kind's parameters from those of the sample kind."""
    return r_gmv, v_gmv * n / (n - p), slope * (n - p - 1) / n - (p - 1) / n


@dataclass(frozen=True)
class _Rule:
    """How one estimator kind is computed: the facts every caller reads.

    need, shape_rule : the smallest ``n - p`` the kind admits, and the rule
        that a too-small ``n > p`` shape breaks (every inv(S) kind needs
        ``n > p``; rte's ridge admits every shape)
    constants : its Merton constants from ``(forms, p, n, extras)``
    ridged : it reads the forms of ``(n - 1) S + tr(S) I``, not those of S
    extras : it reads ``(mean·mean, sum(mean), tr S)``
    correct : maps the vertex parameters of its constants to its own, which
        may have a negative slope; its report's constants are then
        ``to_merton`` of the corrected parameters
    """

    need: float
    shape_rule: str
    constants: Callable
    ridged: bool = False
    extras: bool = False
    correct: Callable | None = None


_SCALED_INVERSE = "scaled-inverse precision needs n >= p + 3"

_KINDS = {
    EstimatorKind.SAMPLE: _Rule(1, "", lambda forms, p, n, extras: forms),
    EstimatorKind.CONSISTENT: _Rule(
        1, "", lambda forms, p, n, extras: _scaled(1.0 - p / n, forms)
    ),
    EstimatorKind.UNBIASED: _Rule(
        2, "unbiased correction needs n >= p + 2", lambda forms, p, n, extras: forms,
        correct=_unbiased,
    ),
    EstimatorKind.SSE: _Rule(3, _SCALED_INVERSE, _sse_constants),
    EstimatorKind.EBE: _Rule(3, _SCALED_INVERSE, _ebe_constants, extras=True),
    EstimatorKind.RTE: _Rule(
        -math.inf, "", lambda forms, p, n, extras: _scaled(p, forms), ridged=True
    ),
}


def _shape_error(kind: EstimatorKind, p: int, n: int) -> HDFrontierError | None:
    """The error a ``p x n`` panel raises for ``kind``, or None if the kind admits it."""
    rule = _KINDS[kind]
    if n - p >= rule.need:
        return None
    if n <= p:
        return SingularCovariance(
            f"sample covariance with p={p}, n={n} is singular: "
            f"estimators based on inv(S) require n > p"
        )
    return TooFewObservations(f"{rule.shape_rule}, got n={n}, p={p}")


def _require_shape(kind: EstimatorKind, moments: SampleMoments) -> None:
    if moments.n - moments.p < _KINDS[kind].need:  # builds no object on success
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
        if _KINDS[self.kind].need > 0 and not 0.0 < self.ratio < 1.0:
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


def sample_frontier(moments: SampleMoments) -> EstimateReport:
    """Raw plug-in: population formulas applied to the sample moments.

    Consistent only when ``p/n -> 0``; for ``p/n -> c > 0`` the GMV variance
    is understated by the factor ``1 - c`` and the slope inflated by roughly
    ``c/(1 - c) + c/(1 - c)**2`` plus a multiplicative distortion.
    """
    return estimate(moments, EstimatorKind.SAMPLE)


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
    return estimate(moments, EstimatorKind.CONSISTENT)


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
    return estimate(moments, EstimatorKind.UNBIASED)


def precision_sse(moments: SampleMoments) -> np.ndarray:
    """Scaled inverse sample covariance, ``(n - p - 2)/(n - 1) * inv(S)``.

    The scale removes the leading inflation of Wishart inverse moments, so
    quadratic forms in this matrix track the population forms.  Requires
    ``n > p + 2`` so that the scale is positive and ``inv(S)`` exists.
    """
    _require_shape(EstimatorKind.SSE, moments)
    moments.forms  # fails as estimate(moments, "sse") does when S is not positive definite
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
    base = precision_sse(moments)
    trace = moments._trace()
    n, p = moments.n, moments.p
    ridge = (p * p + p - 2) / ((n - 1) * trace)
    return base + ridge * np.eye(p)


def precision_rte(moments: SampleMoments) -> np.ndarray:
    """Ridge-type precision ``p * inv((n - 1) S + tr(S) I)``.

    The trace ridge keeps the matrix to invert positive definite for any
    ``p/n``, including ``p >= n`` where ``inv(S)`` does not exist.
    """
    ridged = _ridged(moments.cov, moments._trace(), moments.n)
    try:
        inv = scipy.linalg.inv(ridged, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - ridge makes this PD
        raise NotPositiveDefinite(f"ridged covariance is singular: {exc}") from exc
    return moments.p * 0.5 * (inv + inv.T)


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


def _ridged(cov, trace, n):
    """``(n - 1) S + tr(S) I``, for one matrix or a ``(B, p, p)`` stack with ``(B,)`` traces."""
    return (n - 1) * cov + np.multiply.outer(trace, np.eye(cov.shape[-1]))


def _kind_constants(kind: EstimatorKind, source):
    """A kind's Merton constants, from the reads its rule names.

    ``source`` is one panel's :class:`SampleMoments`, whose reads give
    floats and raise the kind's error, or a chunk's :class:`_MomentStack`,
    whose reads give ``(B,)`` arrays, NaN in each slot where they fail.
    """
    rule = _KINDS[kind]
    if rule.ridged:
        forms = _quadratic_forms(source.mean, _ridged(source.cov, source._trace(), source.n))
    else:
        forms = source.forms
    extras = source._extras() if rule.extras else None
    return rule.constants(forms, source.p, source.n, extras)


def estimate(moments: SampleMoments, kind: EstimatorKind) -> EstimateReport:
    """Compute one estimator from sample moments.  See :func:`estimate_many`."""
    kind = EstimatorKind(kind)
    _require_shape(kind, moments)
    p, n = moments.p, moments.n
    merton = MertonConstants(*_kind_constants(kind, moments))
    params = from_merton(merton)
    notes = ()
    correct = _KINDS[kind].correct
    if correct is not None:
        corrected = correct(params.r_gmv, params.v_gmv, params.slope, p, n)
        params = FrontierParams(*corrected, validate=False)
        merton = to_merton(params)
        notes = ("negative-slope",) if params.slope < 0 else ()
    return EstimateReport(
        kind=kind, params=params, merton=merton, p=p, n=n, ratio=moments.ratio, notes=notes
    )


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


class _MomentStack:
    """A chunk's sample moments, read as the kind rules read :class:`SampleMoments`.

    Each read gives ``(B,)`` arrays over the ``(B, p)`` means and
    ``(B, p, p)`` covariances of ``n`` observations each, with the bits the
    one-panel read gives, and NaN in each slot where that read raises: a
    covariance that is not positive definite, or a trace that is not positive.
    """

    def __init__(self, means: np.ndarray, covs: np.ndarray, n: int) -> None:
        self.mean, self.cov, self.n, self.p = means, covs, n, means.shape[1]

    @functools.cached_property
    def forms(self):
        return _quadratic_forms(self.mean, self.cov)

    def _trace(self) -> np.ndarray:
        traces = np.trace(self.cov, axis1=1, axis2=2)
        return np.where(traces > 0.0, traces, np.nan)

    def _extras(self):
        means = self.mean
        mean_sq = means[:, None, :] @ means[:, :, None]  # the bits of each slot's mean @ mean
        return mean_sq.ravel(), means.sum(axis=1), self._trace()


#: the chunk core accepts a slot only if its values lie within this bound, far
#: inside the float range, so that what the one-panel path derives from them
#: (to_merton's constants, the Cauchy-Schwarz check) cannot overflow either
_ACCEPT_BOUND = 1e300


def _bounded(*values) -> np.ndarray:
    """Per slot, whether every value lies within ``_ACCEPT_BOUND`` (False for NaN)."""
    return np.logical_and.reduce([np.abs(value) <= _ACCEPT_BOUND for value in values])


def _estimate_stack(means: np.ndarray, covs: np.ndarray, n: int, kinds) -> tuple[dict, dict]:
    """Each kind over ``(B, p)`` means and ``(B, p, p)`` covariances of ``n`` observations.

    Returns ``(values, errors)``: ``values[kind]`` holds one row
    ``(r_gmv, v_gmv, slope)`` per slot, NaN where the kind failed, and
    ``errors[kind]`` maps each failed slot to its exception.  Each slot gets
    what :func:`_estimate_each` gives its own moments, bit for bit, and
    raises what it raises.

    A shape failure (:func:`_shape_error`) holds for the whole stack.  Other
    kinds are computed for all slots at once by :func:`_kind_constants` and
    the arithmetic that :func:`estimate` runs on floats, and a slot is
    accepted only where its values pass every check of ``MertonConstants``,
    ``FrontierParams`` and the slope clamp with room to spare: bounded,
    ``c > 0``, ``v > 0``, ``a >= 0`` and a slope that needs no clamp (which
    implies Cauchy-Schwarz).  Every other slot, a failed read included, is
    recomputed by :func:`_estimate_each` on its own moments, so the error
    classes and messages are stated in one place.
    """
    size, p = means.shape
    stack = _MomentStack(means, covs, n)
    values = {kind: np.full((size, 3), np.nan) for kind in kinds}
    errors = {kind: {} for kind in kinds}
    accepted = {}
    with np.errstate(all="ignore"):  # a rejected slot may divide by zero or overflow
        for kind in kinds:
            error = _shape_error(kind, p, n)
            if error is not None:
                errors[kind] = dict.fromkeys(range(size), error)
                continue
            a, b, c = _kind_constants(kind, stack)
            r_gmv, v_gmv, slope = _vertex(a, b, c)
            ok = (c > 0.0) & (a >= 0.0) & (v_gmv > 0.0) & (slope >= 0.0)
            ok &= _bounded(a, b, c, r_gmv, v_gmv, slope)
            correct = _KINDS[kind].correct
            if correct is not None:
                r_gmv, v_gmv, slope = correct(r_gmv, v_gmv, slope, p, n)
                # to_merton squares r_gmv with Python's ``**``, which raises
                # OverflowError instead of giving inf, and divides by v_gmv
                square = r_gmv * r_gmv
                ok &= _bounded(v_gmv, square, square / v_gmv, square / (v_gmv * v_gmv))
            values[kind][ok] = np.column_stack([r_gmv, v_gmv, slope])[ok]
            accepted[kind] = ok
    pending = np.zeros(size, dtype=bool)
    for ok in accepted.values():
        pending |= ~ok
    for slot in np.flatnonzero(pending).tolist():
        moments = SampleMoments(mean=means[slot], cov=covs[slot], n=n, p=p)
        reports, failed = _estimate_each(moments, [k for k, ok in accepted.items() if not ok[slot]])
        for kind, report in reports.items():
            params = report.params
            values[kind][slot] = (params.r_gmv, params.v_gmv, params.slope)
        for kind, exc in failed.items():
            errors[kind][slot] = exc
    return values, errors
