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

3. **Dispatch.**  One table entry per kind (``_KINDS``) states its shape
   rule, what it reads (the forms of S or of a ridged S, and the extras
   ``mean·mean``, ``sum(mean)`` and ``tr S``), its arithmetic after the
   forms and its correction step.  That arithmetic runs in one place,
   :func:`_stack_constants`, on ``(B,)`` arrays over a stack of sample
   moments: a Monte Carlo chunk or a rolling block (:func:`_estimate_stack`),
   or the stack of one :func:`estimate_many` makes of one panel.  Each read is
   made once per call, so the kinds of one call share one factorization per
   slot.  A slot's error comes from its shape, from the read that failed for
   it, or from the validators of :mod:`.frontier` run on its own values.

All estimators report the three frontier parameters, with the panel
dimensions behind them, in a uniform :class:`EstimateReport`.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

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
    _cauchy_schwarz_gap,
    _cholesky_failure,
    _quadratic_forms,
    _vertex,
    from_merton,
)

__all__ = [
    "ReturnsMatrix",
    "SampleMoments",
    "EstimatorKind",
    "EstimateReport",
    "sample_moments",
    "precision_sse",
    "precision_ebe",
    "precision_rte",
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


def _integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is integral (NumPy integers are), else ``InvalidParams``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParams(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class SampleMoments:
    """Sample mean and covariance of a returns panel.

    The covariance uses divisor ``n`` (maximum-likelihood normalisation):
    ``cov = (Y - mean) (Y - mean)' / n``.  ``p`` and ``n`` are integers,
    ``mean`` has shape ``(p,)`` and ``cov`` shape ``(p, p)``.
    """

    mean: np.ndarray
    cov: np.ndarray
    n: int
    p: int

    def __post_init__(self) -> None:
        _integer("n", self.n)
        _integer("p", self.p)
        if np.shape(self.mean) != (self.p,) or np.shape(self.cov) != (self.p, self.p):
            shapes = f"{np.shape(self.mean)} and {np.shape(self.cov)}"
            raise DimensionMismatch(f"p={self.p} needs a mean and covariance, got shapes {shapes}")

    @property
    def ratio(self) -> float:
        """Concentration ratio p/n."""
        return self.p / self.n


class EstimatorKind(str, enum.Enum):
    """Names for the supported frontier estimators; :func:`estimate` computes each.

    - ``sample``: the population formulas applied to the sample moments.
      Consistent only when ``p/n -> 0``; for ``p/n -> c > 0`` the GMV
      variance is understated by the factor ``1 - c`` and the slope
      inflated by roughly ``c/(1 - c) + c/(1 - c)**2`` plus a
      multiplicative distortion.
    - ``consistent``: the sample Merton constants scaled by ``1 - p/n``.
      Under Gaussian or heavy-tailed i.i.d. sampling with ``p/n -> c`` in
      (0, 1) each rescaled constant converges almost surely to its
      population counterpart.  Against the sample kind, ``r_gmv`` is
      unchanged, the GMV variance is multiplied by ``1/(1 - p/n)`` and the
      slope by ``1 - p/n``.  The slope keeps an additive bias of roughly
      ``p/n``: it converges to ``s + c``, not ``s``, and downstream
      inference can recenter it.
    - ``unbiased``: exactly mean-unbiased for Gaussian returns (see
      :func:`_unbiased`).
    - ``sse``, ``ebe``, ``rte``: the precision-matrix plug-ins
      :func:`precision_sse`, :func:`precision_ebe` and :func:`precision_rte`.
    """

    SAMPLE = "sample"          # raw moment plug-in
    CONSISTENT = "consistent"  # Merton constants scaled by (1 - p/n)
    UNBIASED = "unbiased"      # exact Gaussian mean correction
    SSE = "sse"                # scaled inverse sample covariance
    EBE = "ebe"                # empirical-Bayes precision (adds identity part)
    RTE = "rte"                # ridge-type precision, defined for any p/n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(kind.value for kind in cls)
        raise InvalidParams(f"unknown estimator kind {value!r}; valid: {valid}")


# Each kind's arithmetic after its forms, written once, on the ``(B,)`` arrays
# of ``_estimate_stack``.  The precision plug-ins never form their matrices: sse
# and ebe are affine in inv(S) and I, so their constants are affine in the forms
# and in (mean·mean, sum(mean), p); rte reads the forms of its ridged matrix.


def _scaled(scale, forms):
    a, b, c = forms
    return scale * a, scale * b, scale * c


def _sse_constants(forms, stack):
    return _scaled((stack.n - stack.p - 2) / (stack.n - 1), forms)


def _ebe_constants(forms, stack):
    a, b, c = _sse_constants(forms, stack)
    means, p = stack.mean, stack.p
    ridge = (p * p + p - 2) / ((stack.n - 1) * stack.trace)
    mean_sq = means[:, None, :] @ means[:, :, None]  # the bits of each slot's mean @ mean
    return a + ridge * mean_sq.ravel(), b + ridge * means.sum(axis=1), c + ridge * p


def _unbiased(r_gmv, v_gmv, slope, p, n):
    """The unbiased kind's parameters from those of the sample kind.

    With divisor-``n`` sample moments and ``p < n - 1``:

    - ``r_gmv`` is already unbiased and is left untouched;
    - ``v_gmv`` is multiplied by ``n / (n - p)``;
    - the slope becomes ``(n - p - 1)/n * slope_sample - (p - 1)/n``, which
      can be negative: the report keeps the signed value, so that averages
      across repetitions stay unbiased, and notes it.

    In the divisor-``n-1`` convention these read ``(n-1)/(n-p) * v`` and
    ``(n-p-1)/(n-1) * s - (p-1)/n``.
    """
    return r_gmv, v_gmv * n / (n - p), slope * (n - p - 1) / n - (p - 1) / n


@dataclass(frozen=True)
class _Rule:
    """How one estimator kind is computed: the facts every caller reads.

    need, shape_rule : the smallest ``n - p`` the kind admits, and the rule
        that a too-small ``n > p`` shape breaks (every inv(S) kind needs
        ``n > p``; rte's ridge admits every shape)
    constants : its Merton constants from ``(forms, stack)``, a
        :class:`_MomentStack`
    ridged : it reads the forms of ``(n - 1) S + tr(S) I``, not those of S
    extras : it reads ``mean·mean``, ``sum(mean)`` and ``tr S`` after its forms
    correct : maps the vertex parameters of its constants to its own, which
        may have a negative slope
    """

    need: float
    shape_rule: str
    constants: Callable
    ridged: bool = False
    extras: bool = False
    correct: Callable | None = None


_SCALED_INVERSE = "scaled-inverse precision needs n >= p + 3"

_KINDS = {
    EstimatorKind.SAMPLE: _Rule(1, "", lambda forms, stack: forms),
    EstimatorKind.CONSISTENT: _Rule(
        1, "", lambda forms, stack: _scaled(1.0 - stack.p / stack.n, forms)
    ),
    EstimatorKind.UNBIASED: _Rule(
        2, "unbiased correction needs n >= p + 2", lambda forms, stack: forms, correct=_unbiased
    ),
    EstimatorKind.SSE: _Rule(3, _SCALED_INVERSE, _sse_constants),
    EstimatorKind.EBE: _Rule(3, _SCALED_INVERSE, _ebe_constants, extras=True),
    EstimatorKind.RTE: _Rule(-math.inf, "", lambda forms, stack: _scaled(stack.p, forms), ridged=True),
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


@dataclass(frozen=True, slots=True)
class EstimateReport:
    """One estimator's output: the frontier parameters and the panel behind them.

    Attributes
    ----------
    kind : EstimatorKind
    params : FrontierParams
        Estimated vertex and curvature; ``to_merton(report.params)`` gives
        the Merton constants they correspond to.
    p, n : int
        Panel dimensions behind the estimate.  Their ratio must lie in
        (0, 1) except for the ridge-type estimator, which is defined for any
        positive ratio.
    """

    kind: EstimatorKind
    params: FrontierParams
    p: int
    n: int

    def __post_init__(self) -> None:
        ratio = self.ratio
        if _KINDS[self.kind].need > 0 and not 0.0 < ratio < 1.0:
            raise RatioOutOfRange(f"{self.kind.value} estimates require p/n in (0, 1), got {ratio}")
        if ratio <= 0.0:
            raise RatioOutOfRange(f"p/n must be positive, got {ratio}")

    @property
    def ratio(self) -> float:
        """Concentration ratio ``p/n``."""
        return self.p / self.n

    @property
    def notes(self) -> tuple[str, ...]:
        """Quality flags: ``"negative-slope"`` for a corrected kind's slope below zero."""
        return ("negative-slope",) if _KINDS[self.kind].correct and self.params.slope < 0 else ()


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


def _moments(values: np.ndarray, work=(None, None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Mean and divisor-``n`` covariance of each ``(p, n)`` panel in a ``(..., p, n)`` stack.

    Stacked panels give the same bits as one panel at a time: the mean and
    the elementwise steps act slice by slice, and ``matmul`` runs the same
    BLAS product on each slice.  ``work`` may name ``(centered, product,
    cov)`` buffers of the shapes of the values, the product and the
    covariance, which the steps then write into, with the same bits;
    ``centered`` may be ``values`` itself, which centres it in place.
    """
    centered, product, cov = work
    mean = np.add.reduce(values, axis=-1)  # what ``values.mean(axis=-1)`` computes
    mean /= values.shape[-1]
    centered = np.subtract(values, mean[..., None], out=centered)
    product = np.matmul(centered, centered.mT, out=product)
    product /= values.shape[-1]
    cov = np.add(product, product.mT, out=cov)
    cov *= 0.5
    return mean, cov


def _checked_reads(kind: EstimatorKind, moments: SampleMoments) -> _MomentStack:
    """``moments`` as a stack of one, once it passes what ``estimate(moments, kind)``
    checks before its constants: the kind's shape rule, then its reads."""
    stack = _MomentStack(moments.mean[None], moments.cov[None], moments.n)
    with np.errstate(all="ignore"):  # a read beyond the float range fails, without a warning
        error = _shape_error(kind, moments.p, moments.n) or _kind_reads(kind, stack)[1].get(0)
    if error is not None:
        raise error
    return stack


def precision_sse(moments: SampleMoments) -> np.ndarray:
    """Scaled inverse sample covariance, ``(n - p - 2)/(n - 1) * inv(S)``.

    The scale removes the leading inflation of Wishart inverse moments, so
    quadratic forms in this matrix track the population forms.  Requires
    ``n > p + 2`` so that the scale is positive and ``inv(S)`` exists.
    """
    _checked_reads(EstimatorKind.SSE, moments)
    return _scaled_inverse(moments)


def _scaled_inverse(moments: SampleMoments) -> np.ndarray:
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
    trace = float(_checked_reads(EstimatorKind.EBE, moments).trace[0])
    n, p = moments.n, moments.p
    ridge = (p * p + p - 2) / ((n - 1) * trace)
    return _scaled_inverse(moments) + ridge * np.eye(p)


def precision_rte(moments: SampleMoments) -> np.ndarray:
    """Ridge-type precision ``p * inv((n - 1) S + tr(S) I)``.

    The trace ridge keeps the matrix to invert positive definite for any
    ``p/n``, including ``p >= n`` where ``inv(S)`` does not exist.
    """
    trace = float(_checked_reads(EstimatorKind.RTE, moments).trace[0])
    ridged = _ridged(moments.cov, trace, moments.n)
    try:
        inv = scipy.linalg.inv(ridged, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - ridge makes this PD
        raise NotPositiveDefinite(f"ridged covariance is singular: {exc}") from exc
    return moments.p * 0.5 * (inv + inv.T)


def _ridged(cov, trace, n):
    """``(n - 1) S + tr(S) I``, for one matrix or a ``(B, p, p)`` stack with ``(B,)`` traces.

    Entries beyond the float range become ``inf`` or NaN without a NumPy
    warning; the factorization then fails with the estimator's own error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (n - 1) * cov + np.multiply.outer(trace, np.eye(cov.shape[-1]))


class _MomentStack:
    """``(B, p)`` means and ``(B, p, p)`` covariances of ``n`` observations, and
    the reads the kind rules share, each made once."""

    def __init__(self, means: np.ndarray, covs: np.ndarray, n: int) -> None:
        self.mean, self.cov, self.n, self.p = means, covs, n, means.shape[1]

    @functools.cached_property
    def forms(self):
        """``((a, b, c), failures)`` in ``inv(S)``, from :func:`frontier._quadratic_forms`."""
        return _quadratic_forms(self.mean, self.cov)

    @functools.cached_property
    def trace(self) -> np.ndarray:
        """``tr S`` per slot; a sum beyond the float range is ``inf``."""
        return np.trace(self.cov, axis1=1, axis2=2)


def _zero_traces(errors: dict, trace: np.ndarray) -> None:
    """Give each slot without an error yet whose ``tr S`` is not positive its ZeroTrace."""
    for slot in np.flatnonzero(trace <= 0.0).tolist():
        message = f"sample covariance trace must be positive, got {float(trace[slot])}"
        errors.setdefault(slot, ZeroTrace(message))


def _kind_reads(kind: EstimatorKind, stack: _MomentStack):
    """``((a, b, c), errors)``: a kind's ``(B,)`` forms (of rte's ridged matrix
    for rte), meaningless in a failed slot, and each failed slot's first failed
    read in the kind's order: ``tr S > 0`` before the ridged factorization for
    rte, the factorization of S before ``tr S > 0`` for ebe."""
    rule = _KINDS[kind]
    errors = {}
    if rule.ridged:
        _zero_traces(errors, stack.trace)
        forms, failures = _quadratic_forms(stack.mean, _ridged(stack.cov, stack.trace, stack.n))
        failure = (CholeskyFailure,)
    else:
        forms, failures = stack.forms
        failure = SingularCovariance, (
            f"sample covariance is not positive definite (p={stack.p}, n={stack.n}; "
            f"estimators based on inv(S) require n > p)"
        )
    for slot, info in failures.items():  # with LAPACK's error as the cause
        errors.setdefault(slot, _cholesky_failure(info, *failure))
    if rule.extras:
        _zero_traces(errors, stack.trace)
    return forms, errors


def estimate(moments: SampleMoments, kind: EstimatorKind) -> EstimateReport:
    """Compute one estimator from sample moments.  See :func:`estimate_many`."""
    kind = EstimatorKind(kind)
    return estimate_many(moments, [kind])[kind]


def estimate_many(moments: SampleMoments, kinds) -> dict[EstimatorKind, EstimateReport]:
    """Compute several frontier estimators from one set of sample moments.

    All kinds that need quadratic forms in ``inv(S)`` share the one Cholesky
    factorization this call makes; each call factorizes afresh.  A kind
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
    """(reports, errors) in request order, from a stack of one: one failing kind spares the rest.

    Its constants go straight to :func:`_validated`: on one slot, the filter of
    :func:`_estimate_stack` would cost more than it saves."""
    p, n = moments.p, moments.n
    stack = _MomentStack(moments.mean[None], moments.cov[None], n)
    with np.errstate(all="ignore"):  # a failed read may divide by zero or overflow
        constants, failed = _stack_constants(stack, kinds)
    reports, errors = {}, {kind: failed[kind][0] for kind in kinds if failed[kind]}
    for kind in kinds:
        if kind not in errors:
            try:
                params = _validated(kind, constants[kind], 0, p, n)
                reports[kind] = EstimateReport(kind, params, p, n)
            except HDFrontierError as exc:
                errors[kind] = exc
    return reports, {kind: errors[kind] for kind in kinds if kind in errors}


def _stack_constants(stack: _MomentStack, kinds) -> tuple[dict, dict]:
    """``(constants, errors)``: each kind's ``(B,)`` Merton constants over a stack,
    and its failed slots so far: every slot where its shape rule fails, else
    each slot whose read fails (:func:`_kind_reads`)."""
    constants, errors = {}, {}
    for kind in kinds:
        error = _shape_error(kind, stack.p, stack.n)
        if error is not None:
            errors[kind] = dict.fromkeys(range(len(stack.mean)), error)
            continue
        forms, errors[kind] = _kind_reads(kind, stack)
        constants[kind] = _KINDS[kind].constants(forms, stack)
    return constants, errors


def _validated(kind, constants, slot: int, p: int, n: int) -> FrontierParams:
    """One slot's parameters for a kind, from its constants as floats, through the validators
    of :mod:`.frontier` (a clamped slope too) and the correction step; or their error."""
    a, b, c = constants
    params = from_merton(MertonConstants(float(a[slot]), float(b[slot]), float(c[slot])))
    correct = _KINDS[kind].correct
    if correct is None:
        return params
    return FrontierParams(*correct(params.r_gmv, params.v_gmv, params.slope, p, n), validate=False)


def _estimate_stack(means: np.ndarray, covs: np.ndarray, n: int, kinds) -> tuple[dict, dict]:
    """Each kind over ``(B, p)`` means and ``(B, p, p)`` covariances of ``n`` observations.

    Returns ``(values, errors)``: ``values[kind]`` holds one row
    ``(r_gmv, v_gmv, slope)`` per slot, the parameters of its report, and
    NaN where the kind failed; ``errors[kind]`` maps each failed slot, in
    ascending order, to its exception.  A slot's outcome depends on its own
    moments only: a stack of B slots gives what B stacks of one give, and
    what :func:`_estimate_each` gives each slot's moments.

    A slot's error is the first of: the kind's shape rule (for the whole
    stack), a failed read, and what :func:`_validated` raises on its floats,
    run only where a value is not finite or fails a validator's check or
    needs a clamp, before or after the correction step.
    """
    size, p = means.shape
    values = dict(zip(kinds, np.full((len(kinds), size, 3), np.nan)))
    with np.errstate(all="ignore"):  # a failed slot may divide by zero or overflow
        constants, errors = _stack_constants(_MomentStack(means, covs, n), kinds)
        for kind, (a, b, c) in constants.items():
            rows, failed = values[kind], errors[kind]
            r_gmv, v_gmv, slope = _vertex(a, b, c)
            gap, slop = _cauchy_schwarz_gap(a, b, c)
            ok = np.isfinite([a, b, c, r_gmv, v_gmv, slope]).all(axis=0)
            ok &= (c > 0.0) & (a >= 0.0) & (gap >= -slop) & (v_gmv > 0.0) & (slope >= 0.0)
            correct = _KINDS[kind].correct
            if correct is not None:
                r_gmv, v_gmv, slope = correct(r_gmv, v_gmv, slope, p, n)
                ok &= np.isfinite([r_gmv, v_gmv, slope]).all(axis=0) & (v_gmv > 0.0)
            ok[list(failed)] = False
            rows[ok] = np.column_stack([r_gmv, v_gmv, slope])[ok]
            for slot in sorted(set(np.flatnonzero(~ok).tolist()) - failed.keys()):
                try:  # the validators, on this slot's floats
                    params = _validated(kind, (a, b, c), slot, p, n)
                    rows[slot] = params.r_gmv, params.v_gmv, params.slope
                except HDFrontierError as exc:
                    failed[slot] = exc
    return values, {kind: dict(sorted(failed.items())) for kind, failed in errors.items()}
