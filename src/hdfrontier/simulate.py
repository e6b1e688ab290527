"""Monte Carlo experiments for the frontier estimators.

The experiment design is fixed by three ingredients:

- a **population**: diagonal covariance whose spectrum is given by a
  :class:`SpectrumSpec` (default: 20% eigenvalues at 0.5, 40% at 1, 40% at
  5) and a mean vector drawn once per (spec, seed) from a uniform law;
- a **scenario**: i.i.d. Gaussian columns, i.i.d. heavy-tailed t(3) columns
  (scaled to unit entry variance, so fourth moments do not exist), or a
  CCC-GARCH(1,1) process whose unconditional covariance equals the
  population covariance;
- an **engine** that runs independent replications in fixed-size chunks,
  re-estimating the frontier with any set of estimator kinds, and
  aggregates quadratic losses, histogram data for the standardized errors,
  and frontier-curve overlays.

Reproducibility contract: every random draw derives from
``SeedSequence(seed, spawn_key=(domain, index))`` with fixed domain codes
(0: population mean, 1: GARCH coefficients, 2: replication data), so results
are identical for any job count and any execution order.
"""

from __future__ import annotations

import concurrent.futures
import enum
import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParams,
    InvalidRange,
    InvalidSpectrum,
    StationarityViolation,
    TooFewReps,
)
from .estimators import (
    EstimatorKind,
    ReturnsMatrix,
    _estimate_each,
    _estimate_stack,
    _moments,
    sample_moments,
)
from .frontier import FrontierParams, _upper_branch, frontier_params
from .inference import asymptotic_variances
from .pipeline import _write_csv

__all__ = [
    "Scenario",
    "SpectrumSpec",
    "ScenarioSpec",
    "GarchState",
    "MonteCarloResult",
    "HistogramData",
    "FrontierComparison",
    "PARAM_LABELS",
    "build_population",
    "generate_normal",
    "generate_t3",
    "generate_ccc_garch",
    "generate_returns",
    "garch_state",
    "run_monte_carlo",
    "histogram_data",
    "frontier_comparison",
    "loss_rows",
    "write_loss_csv",
    "write_histogram_csv",
    "write_frontier_csv",
]

logger = logging.getLogger(__name__)

#: column labels for the three frontier parameters, in report order
PARAM_LABELS = ("R", "V", "s")

#: seed-derivation domains (spawn_key prefixes)
_DOMAIN_POPULATION = 0
_DOMAIN_GARCH = 1
_DOMAIN_REPLICATION = 2


class Scenario(str, enum.Enum):
    """Data-generating processes for the simulation study."""

    NORMAL = "normal"
    STUDENT_T3 = "t3"
    CCC_GARCH = "ccc-garch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SpectrumSpec:
    """Population spectrum as (fraction, eigenvalue) groups.

    Multiplicities use round-half-up of ``fraction * p`` per group with the
    remainder assigned to the last group, so they always sum to ``p``.
    """

    groups: tuple[tuple[float, float], ...] = ((0.2, 0.5), (0.4, 1.0), (0.4, 5.0))

    def __post_init__(self) -> None:
        groups = tuple((float(f), float(v)) for f, v in self.groups)
        if not groups:
            raise InvalidSpectrum("spectrum needs at least one group")
        fractions = [f for f, _ in groups]
        values = [v for _, v in groups]
        if any(not math.isfinite(f) or f <= 0.0 for f in fractions):
            raise InvalidSpectrum(f"fractions must be positive, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise InvalidSpectrum(f"fractions must sum to 1, got {sum(fractions)}")
        if any(not math.isfinite(v) or v <= 0.0 for v in values):
            raise InvalidSpectrum(f"eigenvalues must be positive, got {values}")
        object.__setattr__(self, "groups", groups)

    def multiplicities(self, p: int) -> tuple[int, ...]:
        """Group sizes for dimension ``p`` (remainder into the last group)."""
        if p < 1:
            raise InvalidSpectrum(f"need p >= 1, got {p}")
        counts = [int(math.floor(f * p + 0.5)) for f, _ in self.groups[:-1]]
        counts.append(p - sum(counts))
        if counts[-1] < 0:
            raise InvalidSpectrum(
                f"rounded multiplicities {counts} are infeasible for p={p}"
            )
        return tuple(counts)

    def eigenvalues(self, p: int) -> np.ndarray:
        """The length-``p`` eigenvalue vector (grouped, ascending groups as given)."""
        return np.repeat(
            [v for _, v in self.groups], self.multiplicities(p)
        ).astype(float)


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one simulation configuration."""

    scenario: Scenario
    p: int
    n: int
    seed: int = 0
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)
    mean_range: tuple[float, float] = (-0.2, 0.2)
    alpha1_range: tuple[float, float] = (0.0, 0.1)
    beta1_range: tuple[float, float] = (0.8, 0.89)
    burn_in: int = 500

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        if self.p < 2:
            raise InvalidParams(f"need p >= 2, got p={self.p}")
        if self.n < 2:
            raise InvalidParams(f"need n >= 2, got n={self.n}")
        if self.seed < 0:
            raise InvalidParams(f"seed must be non-negative, got {self.seed}")
        for name in ("mean_range", "alpha1_range", "beta1_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise InvalidRange(f"{name} must be a finite (low, high) pair, got {(lo, hi)}")
        if self.burn_in < 0:
            raise InvalidParams(f"burn_in must be >= 0, got {self.burn_in}")

    @property
    def ratio(self) -> float:
        return self.p / self.n


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (domain, index...) slot under one seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def build_population(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and covariance for a spec.

    The covariance is diagonal with the spectrum's eigenvalues (any
    rotation would induce the same sampling laws for the rotation-invariant
    scenarios, so the eigenbasis is used directly).  The mean is drawn once
    from ``Uniform(mean_range)`` using the population seed domain — the
    same (mu, sigma) for every replication of the spec.
    """
    eigs = spec.spectrum.eigenvalues(spec.p)
    rng = _rng_for(spec.seed, _DOMAIN_POPULATION)
    mu = rng.uniform(spec.mean_range[0], spec.mean_range[1], size=spec.p)
    return mu, np.diag(eigs)


def _sqrt_factor(sigma: np.ndarray) -> tuple[np.ndarray, bool]:
    """(factor, is_diagonal): elementwise sqrt for diagonal sigma, else Cholesky."""
    sigma = np.asarray(sigma, dtype=float)
    # the off-diagonal part is zero exactly when it adds no nonzero entries
    if np.count_nonzero(sigma) == np.count_nonzero(np.diagonal(sigma)):
        return np.sqrt(np.diag(sigma)), True
    return np.linalg.cholesky(sigma), False


def _draw_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


#: variance multiplier making t(3) entries unit-variance: Var t3 = 3/(3-2) = 3
_T3_SCALE = math.sqrt(1.0 / 3.0)


def _draw_t3(rng: np.random.Generator, out: np.ndarray) -> None:
    np.multiply(rng.standard_t(3, size=out.shape), _T3_SCALE, out=out)


@dataclass(frozen=True, eq=False)
class GarchState:
    """Coefficients and state of a CCC-GARCH(1,1) system.

    All vectors have length ``p``.  Stationarity requires
    ``alpha1 + beta1 < 1`` elementwise; ``alpha0`` is then pinned by the
    target unconditional variances ``h_bar = alpha0 / (1 - alpha1 - beta1)``.
    """

    h: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray
    corr: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        a0 = np.asarray(self.alpha0, dtype=float)
        a1 = np.asarray(self.alpha1, dtype=float)
        b1 = np.asarray(self.beta1, dtype=float)
        corr = np.asarray(self.corr, dtype=float)
        p = h.shape[0]
        for name, arr in (("h", h), ("alpha0", a0), ("alpha1", a1), ("beta1", b1)):
            if arr.shape != (p,) or not np.all(np.isfinite(arr)):
                raise InvalidParams(f"{name} must be a finite length-{p} vector")
        if np.any(a1 < 0.0) or np.any(b1 < 0.0):
            raise InvalidParams("alpha1 and beta1 must be nonnegative")
        # check stationarity before alpha0's sign: a variance-targeted alpha0
        # goes nonpositive exactly when the coefficients are nonstationary,
        # and the coefficient violation is the actionable diagnosis
        if np.any(a1 + b1 >= 1.0):
            worst = float(np.max(a1 + b1))
            raise StationarityViolation(
                f"alpha1 + beta1 must be < 1 elementwise, max is {worst}"
            )
        if np.any(h <= 0.0) or np.any(a0 <= 0.0):
            raise InvalidParams("conditional variances and alpha0 must be positive")
        if corr.shape != (p, p) or not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise InvalidParams("corr must be p x p with unit diagonal")
        for name, arr in (("h", h), ("alpha0", a0), ("alpha1", a1), ("beta1", b1), ("corr", corr)):
            object.__setattr__(self, name, arr)


def garch_state(spec: ScenarioSpec, sigma: np.ndarray) -> GarchState:
    """Draw the CCC-GARCH coefficient vectors for a spec.

    ``alpha1 ~ Uniform(alpha1_range)`` and ``beta1 ~ Uniform(beta1_range)``
    come from the dedicated coefficient seed domain, so they are fixed
    across replications of the same spec.  ``alpha0`` is set to
    ``diag(sigma) * (1 - alpha1 - beta1)``, making the unconditional
    variance of each asset equal its population variance; the correlation
    matrix is ``sigma`` rescaled to unit diagonal.
    """
    sigma = np.asarray(sigma, dtype=float)
    rng = _rng_for(spec.seed, _DOMAIN_GARCH)
    alpha1 = rng.uniform(spec.alpha1_range[0], spec.alpha1_range[1], size=spec.p)
    beta1 = rng.uniform(spec.beta1_range[0], spec.beta1_range[1], size=spec.p)
    variances = np.diag(sigma)
    if np.any(variances <= 0.0):
        raise InvalidParams("sigma must have positive diagonal")
    scale = np.sqrt(variances)
    corr = sigma / np.outer(scale, scale)
    alpha0 = variances * (1.0 - alpha1 - beta1)
    return GarchState(h=variances.copy(), alpha0=alpha0, alpha1=alpha1, beta1=beta1, corr=corr)


#: steps of CCC-GARCH shocks each replication draws at a time: consecutive
#: blocks give the same stream as one draw, and the buffers stay small
_GARCH_BLOCK = 50


def _sampler(scenario: Scenario, spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray):
    """``fill(x, rngs)``: one finished ``(p, n)`` panel of ``scenario`` per slot of ``x``.

    Slot ``i`` of the ``(B, p, n)`` stack ``x`` draws from the ``i``-th
    generator of ``rngs``.  What depends on the population only (the
    covariance factor, and for CCC-GARCH the coefficients and the factor of
    their correlation matrix) is computed here, once per sampler.

    The CCC-GARCH recursion advances all ``B`` slots together, one step at a
    time, over flat ``(B * p,)`` state, with the same elementwise operations
    in the same order as a one-slot recursion, so each panel is bit for bit
    the one its generator gives alone.  Each slot draws its shocks in blocks
    of ``_GARCH_BLOCK`` steps, step ``t``'s ``p`` normals after step
    ``t - 1``'s; a non-diagonal correlation factor is applied per slot and
    per step, as one matrix-vector product.
    """
    if scenario is not Scenario.CCC_GARCH:
        draw = _draw_normal if scenario is Scenario.NORMAL else _draw_t3
        factor, diagonal = _sqrt_factor(sigma)

        def fill(x: np.ndarray, rngs) -> None:
            for slot, rng in zip(x, rngs):
                draw(rng, slot)
            if diagonal:
                x *= factor[:, None]
            else:
                x[...] = factor @ x
            x += mu[:, None]

        return fill

    state = garch_state(spec, sigma)
    factor, diagonal = _sqrt_factor(state.corr)
    p, n, burn_in = spec.p, spec.n, spec.burn_in
    total = burn_in + n

    def fill(x: np.ndarray, rngs) -> None:
        rngs = list(rngs)
        size = len(x)
        alpha0, alpha1, beta1, h = (
            np.tile(v, size) for v in (state.alpha0, state.alpha1, state.beta1, state.h)
        )
        work = np.empty(size * p)
        burned = np.empty(size * p)  # the centered returns of a burn-in step
        kept = np.empty((n, size * p))  # time-major: row t is step burn_in + t of every slot
        draws = np.empty((size, _GARCH_BLOCK, p))
        shocks = np.empty((_GARCH_BLOCK, size, p))  # row i is every slot's eps of one step
        for start in range(0, total, _GARCH_BLOCK):
            steps = min(_GARCH_BLOCK, total - start)
            for block, rng in zip(draws, rngs):
                rng.standard_normal(out=block[:steps])
            if diagonal:
                np.multiply(draws[:, :steps].transpose(1, 0, 2), factor, out=shocks[:steps])
            else:
                for i in range(steps):
                    for slot in range(size):
                        np.matmul(factor, draws[slot, i], out=shocks[i, slot])
            for t, eps in enumerate(shocks[:steps].reshape(steps, size * p), start):
                centered = kept[t - burn_in] if t >= burn_in else burned
                # positional outputs: the ufuncs' fastest calling path
                np.sqrt(h, work)
                np.multiply(work, eps, centered)
                # h = alpha0 + alpha1 * centered**2 + beta1 * h, in that order
                np.square(centered, work)
                np.multiply(alpha1, work, work)
                np.add(alpha0, work, work)
                np.multiply(beta1, h, h)
                np.add(work, h, h)
        np.add(kept.reshape(n, size, p).transpose(1, 2, 0), mu[:, None], out=x)

    return fill


def _generate(scenario: Scenario, spec, mu, sigma, rng) -> ReturnsMatrix:
    """One panel of ``scenario``, from replication stream 0 unless ``rng`` is given."""
    if rng is None:
        rng = _rng_for(spec.seed, _DOMAIN_REPLICATION, 0)
    x = np.empty((1, spec.p, spec.n))
    _sampler(scenario, spec, mu, sigma)(x, [rng])
    return ReturnsMatrix(x[0])


def generate_normal(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """i.i.d. Gaussian columns with mean ``mu`` and covariance ``sigma``."""
    return _generate(Scenario.NORMAL, spec, mu, sigma, rng)


def generate_t3(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """i.i.d. t(3) columns scaled so each entry has variance one.

    The scale acts on the variance (factor 1/3), giving
    ``Var = (1/3) * 3/(3-2) = 1`` per entry, so every column has covariance
    ``sigma`` exactly — while fourth moments remain infinite.
    """
    return _generate(Scenario.STUDENT_T3, spec, mu, sigma, rng)


def generate_ccc_garch(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """CCC-GARCH(1,1) panel whose unconditional covariance equals ``sigma``.

    Per asset, the conditional variance follows

        h[t] = alpha0 + alpha1 * (y[t-1] - mu)**2 + beta1 * h[t-1],

    with cross-sectional dependence only through the constant correlation
    of the innovations.  The recursion starts at the unconditional
    variances and a burn-in of ``spec.burn_in`` steps is discarded.
    """
    return _generate(Scenario.CCC_GARCH, spec, mu, sigma, rng)


def generate_returns(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """Dispatch to the spec's scenario generator."""
    return _generate(spec.scenario, spec, mu, sigma, rng)


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Estimates and losses across replications of one spec.

    ``estimates[kind]`` is a ``(reps, 3)`` array with columns
    ``(r_gmv, v_gmv, slope)``; rows of failed replications are NaN and
    counted in ``failures[kind]``, and ``failure_reasons[kind]`` splits that
    count by exception class name.
    """

    spec: ScenarioSpec
    truth: FrontierParams
    kinds: tuple[EstimatorKind, ...]
    estimates: dict
    failures: dict
    reps: int
    failure_reasons: dict = field(default_factory=dict)

    def losses(self, kind: EstimatorKind) -> np.ndarray:
        """Quadratic losses (est - truth)**2, shape (reps, 3), NaN rows kept."""
        target = np.array([self.truth.r_gmv, self.truth.v_gmv, self.truth.slope])
        return (self.estimates[EstimatorKind(kind)] - target) ** 2

    def mean_loss(self, kind: EstimatorKind) -> np.ndarray:
        """Mean quadratic loss per parameter, ignoring failed replications.

        NaN, without NumPy's empty-slice warning, for a kind that failed in
        every replication (a failed replication is a NaN row).
        """
        losses = self.losses(kind)
        if np.isnan(losses).all():
            return np.full(losses.shape[1], np.nan)
        return np.nanmean(losses, axis=0)

    def loss_quantiles(self, kind: EstimatorKind, qs=(0.05, 0.95)) -> np.ndarray:
        """Loss quantiles per parameter, shape (len(qs), 3); NaN as in :meth:`mean_loss`."""
        losses = self.losses(kind)
        if np.isnan(losses).all():
            return np.full((len(qs), losses.shape[1]), np.nan)
        return np.nanquantile(losses, qs, axis=0)


#: byte cap on one chunk's draws and covariances: 218 replications at
#: p=10, n=50, 4 at p=100, n=200 (so the CCC-GARCH recursion advances
#: several at once) and one at p=500, n=1000
_CHUNK_BYTES = 1 << 20


def _chunk_size(p: int, n: int) -> int:
    """Replications per chunk; it depends on ``(p, n)`` only, so never on ``jobs``."""
    return max(1, _CHUNK_BYTES // (8 * p * (n + p)))


def _replicate_span(spec, kinds, mu, sigma, start, stop) -> tuple[dict, dict]:
    """Replications ``start`` to ``stop - 1``, chunk by chunk.  Top-level for pickling.

    The span's one sampler, built here in the worker, fills each
    ``(chunk, p, n)`` buffer with one panel per replication, drawn from that
    replication's own generator; the chunk is reduced to sample moments in
    one stacked step, and the estimator core evaluates each kind once over
    the whole chunk (:func:`estimators._estimate_stack`), with the bits of
    one replication at a time.  Returns ``(estimates, reasons)``:
    ``estimates[kind]`` has one ``(r, v, s)`` row per replication, NaN when
    the kind failed, and ``reasons[kind]`` counts failures by class name.
    """
    size = _chunk_size(spec.p, spec.n)
    fill = _sampler(spec.scenario, spec, mu, sigma)
    estimates = {kind: np.full((stop - start, 3), np.nan) for kind in kinds}
    reasons = {kind: Counter() for kind in kinds}
    buffer = np.empty((min(size, stop - start), spec.p, spec.n))
    for first in range(start, stop, size):
        x = buffer[: min(size, stop - first)]
        fill(x, (_rng_for(spec.seed, _DOMAIN_REPLICATION, first + k) for k in range(len(x))))
        # held until the next chunk's moments replace them: freed right after
        # the estimators instead, at p=500 the allocator hands the memory back
        # and each replication takes about 1,700 more page faults (10-20% slower)
        means, covs = _moments(x)
        values, errors = _estimate_stack(means, covs, spec.n, kinds)
        rows = slice(first - start, first - start + len(x))
        for kind in kinds:
            estimates[kind][rows] = values[kind]
            reasons[kind].update(type(exc).__name__ for exc in errors[kind].values())
    return estimates, reasons


def run_monte_carlo(
    spec: ScenarioSpec, reps: int, kinds, jobs: int = 1
) -> MonteCarloResult:
    """Run independent replications and collect per-kind estimates.

    Parameters
    ----------
    spec : ScenarioSpec
    reps : int
        Number of replications (>= 1).
    kinds : iterable of EstimatorKind or str
    jobs : int
        Most worker processes to start; results are identical for any value
        because each replication's generator stream depends only on
        (seed, index), and the chunks only on (p, n).

    Notes
    -----
    The replications run in fixed-size chunks of consecutive indices (see
    :func:`_replicate_span`).  With ``jobs > 1`` the chunks are split into
    ``min(jobs, chunks)`` contiguous runs, one per spawned worker.
    Estimator failures in a replication (e.g. a singular sample covariance)
    are recorded as NaN rows and counted per kind and per exception class,
    not raised.
    """
    if reps < 1:
        raise InvalidParams(f"need reps >= 1, got {reps}")
    kinds = tuple(EstimatorKind(k) for k in kinds)
    if not kinds:
        raise InvalidParams("need at least one estimator kind")
    mu, sigma = build_population(spec)
    truth = frontier_params(mu, sigma)
    size = _chunk_size(spec.p, spec.n)
    chunks = -(-reps // size)
    tasks = min(jobs, chunks)
    run_span = functools.partial(_replicate_span, spec, kinds, mu, sigma)
    if tasks > 1:
        import multiprocessing  # only worker pools need it

        bounds = [min(reps, size * (chunks * task // tasks)) for task in range(tasks + 1)]
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(tasks, mp_context=context) as pool:
            parts = list(pool.map(run_span, bounds[:-1], bounds[1:]))
    else:
        parts = [run_span(0, reps)]
    estimates = {kind: np.concatenate([part[0][kind] for part in parts]) for kind in kinds}
    failure_reasons = {kind: sum((part[1][kind] for part in parts), Counter()) for kind in kinds}
    return MonteCarloResult(
        spec=spec,
        truth=truth,
        kinds=kinds,
        estimates=estimates,
        failures={kind: failure_reasons[kind].total() for kind in kinds},
        reps=reps,
        failure_reasons=failure_reasons,
    )


@dataclass(frozen=True, eq=False)
class HistogramData:
    """Histogram of scaled estimation errors plus the limiting normal overlay."""

    param: str
    kind: EstimatorKind
    edges: np.ndarray
    counts: np.ndarray
    density_x: np.ndarray
    density_y: np.ndarray
    overlay_mean: float
    overlay_sd: float


def histogram_data(
    result: MonteCarloResult, param: str, kind: EstimatorKind = EstimatorKind.CONSISTENT
) -> HistogramData:
    """Bin the scaled errors ``sqrt(n) (estimate - truth)`` for one parameter.

    The slope's values are centred at the true slope itself, so its
    limiting normal overlay is centred at ``p/sqrt(n)`` — the additive bias
    made visible rather than subtracted.  Bin edges follow the
    Freedman-Diaconis rule with a floor of 10 bins; the overlay density is
    evaluated on a 512-point grid covering both the bins and six standard
    deviations around the overlay mean.

    Raises
    ------
    TooFewReps
        If fewer than 100 replications are available.
    InvalidParams
        If ``param`` is unknown or ``kind`` was not run.
    """
    if param not in PARAM_LABELS:
        raise InvalidParams(f"param must be one of {PARAM_LABELS}, got {param!r}")
    kind = EstimatorKind(kind)
    if kind not in result.kinds:
        raise InvalidParams(f"kind {kind.value!r} is not among the run's kinds")
    column = PARAM_LABELS.index(param)
    estimates = result.estimates[kind][:, column]
    estimates = estimates[np.isfinite(estimates)]
    if estimates.size < 100:
        raise TooFewReps(
            f"histograms need >= 100 successful replications, got {estimates.size}"
        )
    truth = [result.truth.r_gmv, result.truth.v_gmv, result.truth.slope][column]
    spec = result.spec
    values = math.sqrt(spec.n) * (estimates - truth)
    edges = np.histogram_bin_edges(values, bins="fd")
    if edges.size - 1 < 10:
        edges = np.histogram_bin_edges(values, bins=10)
    counts, edges = np.histogram(values, bins=edges)
    limits = asymptotic_variances(result.truth, spec.ratio)
    variance = [limits.var_r, limits.var_v, limits.var_s][column]
    sd = math.sqrt(variance)
    mean = spec.p / math.sqrt(spec.n) if column == 2 else 0.0
    lo = min(edges[0], mean - 6.0 * sd)
    hi = max(edges[-1], mean + 6.0 * sd)
    grid = np.linspace(lo, hi, 512)
    density = np.exp(-0.5 * ((grid - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    return HistogramData(
        param=param,
        kind=kind,
        edges=edges,
        counts=counts,
        density_x=grid,
        density_y=density,
        overlay_mean=mean,
        overlay_sd=sd,
    )


@dataclass(frozen=True, eq=False)
class FrontierComparison:
    """Estimated frontier curves on a common variance grid."""

    spec: ScenarioSpec
    truth: FrontierParams
    grid: np.ndarray
    curves: dict
    reports: dict


def frontier_comparison(
    spec: ScenarioSpec, kinds, v_max: float | None = None, n_points: int = 101
) -> FrontierComparison:
    """Estimate the frontier once and tabulate all curves on one grid.

    One dataset is generated (replication stream 0), each requested kind is
    estimated, and every curve — population included, under key
    ``"population"`` — is evaluated on an even variance grid from the
    population GMV variance to ``v_max`` (default: 20x that variance).
    Grid points left of a curve's own vertex are NaN (the curve does not
    exist there); a negative unbiased slope estimate yields a flat curve at
    its vertex return.  A kind that fails on the dataset gets no curve and
    no report, and is logged.
    """
    kinds = tuple(EstimatorKind(k) for k in kinds)
    mu, sigma = build_population(spec)
    truth = frontier_params(mu, sigma)
    if v_max is None:
        v_max = 20.0 * truth.v_gmv
    if not (math.isfinite(v_max) and v_max > truth.v_gmv):
        raise InvalidRange(f"v_max must exceed the population v_gmv, got {v_max}")
    if n_points < 2:
        raise InvalidRange(f"need n_points >= 2, got {n_points}")
    reports, errors = _estimate_each(sample_moments(generate_returns(spec, mu, sigma)), kinds)
    for kind, exc in errors.items():
        logger.warning("frontier overlay: %s skipped: %s", kind.value, exc)
    grid = np.linspace(truth.v_gmv, v_max, n_points)
    curves = {"population": _upper_branch(truth, grid)}
    for kind, report in reports.items():
        curves[kind.value] = _upper_branch(report.params, grid)
    return FrontierComparison(spec=spec, truth=truth, grid=grid, curves=curves, reports=reports)


def loss_rows(result: MonteCarloResult) -> list[dict]:
    """Flatten a result into loss-table rows (one per kind x parameter)."""
    rows = []
    for kind in result.kinds:
        means = result.mean_loss(kind)
        quants = result.loss_quantiles(kind)
        for column, label in enumerate(PARAM_LABELS):
            rows.append(
                {
                    "p": result.spec.p,
                    "n": result.spec.n,
                    "c": result.spec.p / result.spec.n,
                    "scenario": result.spec.scenario.value,
                    "estimator": kind.value,
                    "param": label,
                    "mean_loss": float(means[column]),
                    "q05": float(quants[0, column]),
                    "q95": float(quants[1, column]),
                }
            )
    return rows


_LOSS_COLUMNS = ("p", "n", "c", "scenario", "estimator", "param", "mean_loss", "q05", "q95")


def write_loss_csv(path, rows) -> None:
    """Write loss-table rows with deterministic float formatting."""
    _write_csv(path, _LOSS_COLUMNS, ([row[col] for col in _LOSS_COLUMNS] for row in rows))


def write_histogram_csv(hist_path, density_path, hist: HistogramData) -> None:
    """Write histogram bins and the overlay density as two CSV files."""
    _write_csv(
        hist_path,
        ("bin_left", "bin_right", "count"),
        zip(hist.edges[:-1], hist.edges[1:], map(int, hist.counts)),
    )
    _write_csv(density_path, ("x", "density"), zip(hist.density_x, hist.density_y))


def write_frontier_csv(path, comparison: FrontierComparison) -> None:
    """Write frontier curves in long format: one (V, R, kind) row per point."""
    _write_csv(
        path,
        ("V", "R", "kind"),
        (
            (v, r, kind_name)
            for kind_name, values in comparison.curves.items()
            for v, r in zip(comparison.grid, values)
        ),
    )
