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
import csv
import enum
import functools
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
    SampleMoments,
    _estimate_each,
    _moments,
    estimate_many,
    sample_moments,
)
from .frontier import FrontierParams, frontier_params
from .inference import asymptotic_variances

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
        for name in ("mean_range", "alpha1_range", "beta1_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise InvalidRange(f"{name} must be a finite (low, high) pair, got {(lo, hi)}")
        if self.burn_in < 0:
            raise InvalidParams(f"burn_in must be >= 0, got {self.burn_in}")

    @property
    def ratio(self) -> float:
        return self.p / self.n

    def to_dict(self) -> dict:
        """JSON-ready description (used by run manifests)."""
        return {
            "scenario": self.scenario.value,
            "p": self.p,
            "n": self.n,
            "seed": self.seed,
            "spectrum": [list(g) for g in self.spectrum.groups],
            "mean_range": list(self.mean_range),
            "alpha1_range": list(self.alpha1_range),
            "beta1_range": list(self.beta1_range),
            "burn_in": self.burn_in,
        }


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


def _scale_shift(x: np.ndarray, mu: np.ndarray, factor: np.ndarray, diagonal: bool) -> np.ndarray:
    """``factor x + mu`` for each ``(p, n)`` panel of ``x``, in place when ``factor`` is diagonal."""
    if diagonal:
        x *= factor[:, None]
    else:
        x = factor @ x
    x += mu[:, None]
    return x


def _draw_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


#: variance multiplier making t(3) entries unit-variance: Var t3 = 3/(3-2) = 3
_T3_SCALE = math.sqrt(1.0 / 3.0)


def _draw_t3(rng: np.random.Generator, out: np.ndarray) -> None:
    np.multiply(rng.standard_t(3, size=out.shape), _T3_SCALE, out=out)


def _generate_iid(spec, mu, sigma, rng, draw) -> ReturnsMatrix:
    if rng is None:
        rng = _rng_for(spec.seed, _DOMAIN_REPLICATION, 0)
    x = np.empty((spec.p, spec.n))
    draw(rng, x)
    return ReturnsMatrix(_scale_shift(x, mu, *_sqrt_factor(sigma)))


def generate_normal(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """i.i.d. Gaussian columns with mean ``mu`` and covariance ``sigma``."""
    return _generate_iid(spec, mu, sigma, rng, _draw_normal)


def generate_t3(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """i.i.d. t(3) columns scaled so each entry has variance one.

    The scale acts on the variance (factor 1/3), giving
    ``Var = (1/3) * 3/(3-2) = 1`` per entry, so every column has covariance
    ``sigma`` exactly — while fourth moments remain infinite.
    """
    return _generate_iid(spec, mu, sigma, rng, _draw_t3)


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
    if rng is None:
        rng = _rng_for(spec.seed, _DOMAIN_REPLICATION, 0)
    state = garch_state(spec, sigma)
    factor, diagonal = _sqrt_factor(state.corr)
    h = state.h.copy()
    out = np.empty((spec.p, spec.n))
    total = spec.burn_in + spec.n
    # row t holds step t's draws: the same stream as one draw of p per step
    shocks = rng.standard_normal((total, spec.p))
    if diagonal:
        shocks *= factor
    for t in range(total):
        eps = shocks[t] if diagonal else factor @ shocks[t]
        centered = np.sqrt(h) * eps
        if t >= spec.burn_in:
            out[:, t - spec.burn_in] = centered + mu
        h = state.alpha0 + state.alpha1 * centered**2 + state.beta1 * h
    return ReturnsMatrix(out)


_GENERATORS = {
    Scenario.NORMAL: generate_normal,
    Scenario.STUDENT_T3: generate_t3,
    Scenario.CCC_GARCH: generate_ccc_garch,
}

#: scenarios whose replications draw straight into the engine's buffer
_IID_DRAWS = {Scenario.NORMAL: _draw_normal, Scenario.STUDENT_T3: _draw_t3}


def generate_returns(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """Dispatch to the spec's scenario generator."""
    return _GENERATORS[spec.scenario](spec, mu, sigma, rng)


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
        """Mean quadratic loss per parameter, ignoring failed replications."""
        return np.nanmean(self.losses(kind), axis=0)

    def loss_quantiles(self, kind: EstimatorKind, qs=(0.05, 0.95)) -> np.ndarray:
        """Loss quantiles per parameter, shape (len(qs), 3)."""
        return np.nanquantile(self.losses(kind), qs, axis=0)


#: byte cap on one chunk's draws and covariances: 54 replications at
#: p=10, n=50 and one at p=500, n=1000
_CHUNK_BYTES = 1 << 18


def _chunk_size(p: int, n: int) -> int:
    """Replications per chunk; it depends on ``(p, n)`` only, so never on ``jobs``."""
    return max(1, _CHUNK_BYTES // (8 * p * (n + p)))


def _replicate_span(spec, kinds, mu, sigma, start, stop) -> tuple[dict, dict]:
    """Replications ``start`` to ``stop - 1``, chunk by chunk.  Top-level for pickling.

    Each replication draws from its own generator into its slice of one
    ``(chunk, p, n)`` buffer; the chunk is then scaled, shifted and reduced
    to sample moments in stacked steps, and each replication's moments go
    through the estimators on their own.  Returns ``(estimates, reasons)``:
    ``estimates[kind]`` has one ``(r, v, s)`` row per replication, NaN when
    the kind failed, and ``reasons[kind]`` counts failures by class name.
    """
    size = _chunk_size(spec.p, spec.n)
    draw = _IID_DRAWS.get(spec.scenario)
    factor, diagonal = _sqrt_factor(sigma)
    estimates = {kind: np.full((stop - start, 3), np.nan) for kind in kinds}
    reasons = {kind: Counter() for kind in kinds}
    buffer = np.empty((min(size, stop - start), spec.p, spec.n))
    for first in range(start, stop, size):
        x = buffer[: min(size, stop - first)]
        for slot, index in enumerate(range(first, first + len(x))):
            rng = _rng_for(spec.seed, _DOMAIN_REPLICATION, index)
            if draw is None:
                x[slot] = generate_ccc_garch(spec, mu, sigma, rng).values
            else:
                draw(rng, x[slot])
        if draw is not None:
            x = _scale_shift(x, mu, factor, diagonal)
        means, covs = _moments(x)
        for slot in range(len(x)):
            moments = SampleMoments(mean=means[slot], cov=covs[slot], n=spec.n, p=spec.p)
            reports, errors = _estimate_each(moments, kinds)
            row = first - start + slot
            for kind, report in reports.items():
                params = report.params
                estimates[kind][row] = (params.r_gmv, params.v_gmv, params.slope)
            for kind, exc in errors.items():
                reasons[kind][type(exc).__name__] += 1
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
    """
    if param not in PARAM_LABELS:
        raise InvalidParams(f"param must be one of {PARAM_LABELS}, got {param!r}")
    kind = EstimatorKind(kind)
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
    its vertex return.
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
    rng = _rng_for(spec.seed, _DOMAIN_REPLICATION, 0)
    data = generate_returns(spec, mu, sigma, rng)
    reports = estimate_many(sample_moments(data), kinds)
    grid = np.linspace(truth.v_gmv, v_max, n_points)

    def curve(params: FrontierParams) -> np.ndarray:
        gap = grid - params.v_gmv
        slope = max(params.slope, 0.0)
        return np.where(gap >= 0.0, params.r_gmv + np.sqrt(np.maximum(slope * gap, 0.0)), np.nan)

    curves = {"population": curve(truth)}
    for kind in kinds:
        curves[kind.value] = curve(reports[kind].params)
    return FrontierComparison(spec=spec, truth=truth, grid=grid, curves=curves, reports=reports)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats (deterministic, locale-free)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_LOSS_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in _LOSS_COLUMNS])


def write_histogram_csv(hist_path, density_path, hist: HistogramData) -> None:
    """Write histogram bins and the overlay density as two CSV files."""
    with open(hist_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("bin_left", "bin_right", "count"))
        for left, right, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
            writer.writerow((_fmt(float(left)), _fmt(float(right)), int(count)))
    with open(density_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("x", "density"))
        for x, y in zip(hist.density_x, hist.density_y):
            writer.writerow((_fmt(float(x)), _fmt(float(y))))


def write_frontier_csv(path, comparison: FrontierComparison) -> None:
    """Write frontier curves in long format: one (V, R, kind) row per point."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("V", "R", "kind"))
        for kind_name, values in comparison.curves.items():
            for v, r in zip(comparison.grid, values):
                writer.writerow((_fmt(float(v)), _fmt(float(r)), kind_name))
