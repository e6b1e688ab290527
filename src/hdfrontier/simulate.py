"""Monte Carlo experiments for the frontier estimators.

The experiment design is fixed by three ingredients:

- a **population**: diagonal covariance with the paper's spectrum (20% of
  the eigenvalues at 0.5, 40% at 1 and 40% at 5) and a mean vector drawn
  once per (spec, seed) from ``Uniform(-0.2, 0.2)``;
- a **scenario**: i.i.d. Gaussian columns, i.i.d. heavy-tailed t(3) columns
  (scaled to unit entry variance, so fourth moments do not exist), or a
  CCC-GARCH(1,1) process whose unconditional covariance equals the
  population covariance, with ``alpha1 ~ Uniform(0, 0.1)`` and
  ``beta1 ~ Uniform(0.8, 0.89)`` per asset and a 500-step burn-in;
- an **engine** that runs independent replications in fixed-size chunks,
  re-estimating the frontier with any set of estimator kinds, and
  aggregates quadratic losses, histogram data for the standardized errors,
  and frontier-curve overlays.

Reproducibility contract: every random draw derives from
``SeedSequence(seed, spawn_key=(domain, index))`` with fixed domain codes
(0: population mean, 1: GARCH coefficients, 2: replication data), so results
are identical for any job count and any execution order.  The engine does
not build those objects per replication: :func:`_seed_words` runs
``SeedSequence``'s hash over a whole span of indices at once, and each
replication's ``PCG64`` state follows from its words (:func:`_pcg64_state`),
so the streams are the ones ``PCG64(SeedSequence(...))`` gives.
"""

from __future__ import annotations

import concurrent.futures
import enum
import functools
import logging
import math
import operator
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParams, InvalidRange, TooFewReps
from .estimators import (
    EstimatorKind,
    ReturnsMatrix,
    _estimate_each,
    _estimate_stack,
    _integer,
    _moments,
    sample_moments,
)
from .frontier import FrontierParams, _upper_branch, frontier_params
from .inference import asymptotic_variances
from .pipeline import _write_csv

__all__ = [
    "Scenario",
    "ScenarioSpec",
    "MonteCarloResult",
    "HistogramData",
    "FrontierComparison",
    "PARAM_LABELS",
    "MIN_HISTOGRAM_REPS",
    "build_population",
    "generate_returns",
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

#: the fewest successful replications a histogram is binned from
MIN_HISTOGRAM_REPS = 100

#: seed-derivation domains (spawn_key prefixes)
_DOMAIN_POPULATION = 0
_DOMAIN_GARCH = 1
_DOMAIN_REPLICATION = 2

#: the paper's simulation design: the population spectrum as (fraction,
#: eigenvalue) groups, the law of the mean, the laws of the CCC-GARCH
#: coefficients and the recursion steps discarded before a panel starts
_SPECTRUM = ((0.2, 0.5), (0.4, 1.0), (0.4, 5.0))
_MEAN_RANGE = (-0.2, 0.2)
_ALPHA1_RANGE = (0.0, 0.1)
_BETA1_RANGE = (0.8, 0.89)
_BURN_IN = 500


class Scenario(str, enum.Enum):
    """Data-generating processes for the simulation study.

    - ``normal``: i.i.d. Gaussian columns with mean ``mu`` and covariance ``sigma``.
    - ``t3``: i.i.d. t(3) columns scaled by ``sqrt(1/3)``, which makes each
      entry's variance ``(1/3) * 3/(3-2) = 1``, so every column has
      covariance ``sigma`` exactly while fourth moments stay infinite.
    - ``ccc-garch``: a CCC-GARCH(1,1) panel whose unconditional covariance
      equals ``sigma`` (see :func:`_sampler`).
    """

    NORMAL = "normal"
    STUDENT_T3 = "t3"
    CCC_GARCH = "ccc-garch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(scenario.value for scenario in cls)
        raise InvalidParams(f"unknown scenario {value!r}; valid: {valid}")


def _eigenvalues(p: int) -> np.ndarray:
    """The length-``p`` population spectrum, grouped as in ``_SPECTRUM``.

    Each group but the last has ``fraction * p`` eigenvalues, rounded half
    up; the last takes the remainder, which is never negative for ``p >= 2``.
    """
    counts = [math.floor(fraction * p + 0.5) for fraction, _ in _SPECTRUM[:-1]]
    counts.append(p - sum(counts))
    return np.repeat([value for _, value in _SPECTRUM], counts)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation configuration; the rest of the design is the paper's (see the module)."""

    scenario: Scenario
    p: int
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        for name in ("p", "n", "seed"):
            _integer(name, getattr(self, name))
        if self.p < 2:
            raise InvalidParams(f"need p >= 2, got p={self.p}")
        if self.n < 2:
            raise InvalidParams(f"need n >= 2, got n={self.n}")
        if self.seed < 0:
            raise InvalidParams(f"seed must be non-negative, got {self.seed}")

    @property
    def ratio(self) -> float:
        return self.p / self.n


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (domain, index...) slot under one seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# NumPy's SeedSequence (O'Neill's seed_seq hash over a 4-word uint32 pool)
# and PCG64's set-seed (O'Neill, "PCG", HMC-CS-2014-0905)
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words, one word for zero."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value, constant: int):
    """``(hash, next constant)``: one ``hashmix`` step, on an int or a uint32 array."""
    value = value ^ constant
    constant = constant * _HASH_MULT_A & _MASK32
    value = value * constant & _MASK32
    return value ^ value >> 16, constant


def _mix(x: int, y):
    """NumPy's ``mix`` of a pool word ``x`` with a hash ``y`` (an int or a uint32 array)."""
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int, domain: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(domain, i)).generate_state(4, np.uint64)``
    for each ``i`` in ``range(start, stop)``, as a ``(stop - start, 4)`` array.

    The entropy is the seed's words (zero-padded to the pool size), the
    domain's and the index's.  All but the index word are the same for
    every ``i``, so the pool and hash constant they leave are computed once,
    on Python ints; the index word is hashed in, and the state words drawn
    out, in one uint32 pass over the span.  An index of ``2**32`` or more has
    more than one word; such indices go through ``SeedSequence`` itself.
    """
    entropy = _uint32_words(operator.index(seed))  # a NumPy integer too, as SeedSequence takes
    entropy += [0] * (_POOL_WORDS - len(entropy)) + _uint32_words(domain)
    constant = _HASH_INIT_A
    pool = []
    for word in entropy[:_POOL_WORDS]:
        value, constant = _hashmix(word, constant)
        pool.append(value)
    for source in range(_POOL_WORDS):
        for target in range(_POOL_WORDS):
            if source != target:
                value, constant = _hashmix(pool[source], constant)
                pool[target] = _mix(pool[target], value)
    for word in entropy[_POOL_WORDS:]:
        for target in range(_POOL_WORDS):
            value, constant = _hashmix(word, constant)
            pool[target] = _mix(pool[target], value)
    split = min(stop, max(start, 1 << 32))
    index = np.arange(start, split, dtype=np.uint32)
    mixed = []
    for word in pool:
        value, constant = _hashmix(index, constant)
        mixed.append(_mix(word, value))
    constant = _HASH_INIT_B
    halves = np.empty((2 * _POOL_WORDS, split - start), dtype=np.uint64)
    for k, half in enumerate(halves):
        value = mixed[k % _POOL_WORDS] ^ constant
        constant = constant * _HASH_MULT_B & _MASK32
        value *= constant
        half[:] = value ^ value >> 16
    words = (halves[0::2] | halves[1::2] << 32).T  # uint64 word j is halves 2j (low), 2j + 1
    if split < stop:
        words = np.vstack(
            [words]
            + [
                np.random.SeedSequence(seed, spawn_key=(domain, i)).generate_state(4, np.uint64)
                for i in range(split, stop)
            ]
        )
    return words


def _pcg64_state(words) -> dict:
    """The ``PCG64.state`` that four seed words give: two LCG steps from zero."""
    seed0, seed1, inc0, inc1 = words
    inc = (inc0 << 65 | inc1 << 1 | 1) & _MASK128
    state = ((inc + (seed0 << 64 | seed1)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _reset_streams(generators: list, words):
    """Yield ``generators[k % len(generators)]`` set to the stream of ``words[k]``.

    A generator is set only when it is asked for, so one generator serves a
    caller that finishes each slot's draws before it takes the next slot.
    """
    for k, row in enumerate(words):
        rng = generators[k % len(generators)]
        rng.bit_generator.state = _pcg64_state(row)
        yield rng


def build_population(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and covariance for a spec.

    The covariance is diagonal with the paper's eigenvalues (any rotation
    would induce the same sampling laws for the rotation-invariant
    scenarios, so the eigenbasis is used directly).  The mean is drawn once
    from ``Uniform(-0.2, 0.2)`` using the population seed domain — the
    same (mu, sigma) for every replication of the spec.
    """
    rng = _rng_for(spec.seed, _DOMAIN_POPULATION)
    mu = rng.uniform(*_MEAN_RANGE, size=spec.p)
    return mu, np.diag(_eigenvalues(spec.p))


def _draw_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


#: variance multiplier making t(3) entries unit-variance: Var t3 = 3/(3-2) = 3
_T3_SCALE = math.sqrt(1.0 / 3.0)


def _draw_t3(rng: np.random.Generator, out: np.ndarray) -> None:
    np.multiply(rng.standard_t(3, size=out.shape), _T3_SCALE, out=out)


#: steps of CCC-GARCH shocks each replication draws at a time: consecutive
#: blocks give the same stream as one draw, and the buffers stay small
_GARCH_BLOCK = 50


def _sampler(spec: ScenarioSpec, mu, sigma):
    """``fill(x, rngs)``: one finished ``(p, n)`` panel of the spec's scenario per slot of ``x``.

    Slot ``i`` of the ``(B, p, n)`` stack ``x`` draws from the ``i``-th
    generator of ``rngs``.  The population is checked as
    :func:`generate_returns` states, and what depends on it only (the
    scale, and for CCC-GARCH the coefficients) is computed here, once.

    Per asset, the CCC-GARCH conditional variance follows

        h[t] = alpha0 + alpha1 * (y[t-1] - mu)**2 + beta1 * h[t-1],

    with innovations whose constant correlation is ``sigma`` rescaled to
    unit diagonal: the identity, so the assets are independent.  Its
    square-root factor, ``sqrt(variances / scale**2)``, is 1 only to an ulp;
    the shocks are still multiplied by it, which fixes their bits.  ``alpha1``
    and then ``beta1`` are drawn from the coefficient seed domain, so they
    are fixed across replications of the spec, and ``alpha0`` is
    ``diag(sigma) * (1 - alpha1 - beta1)``: each asset's unconditional
    variance is its population variance.  The recursion starts there, and
    its first ``_BURN_IN`` steps are discarded.

    The CCC-GARCH recursion advances all ``B`` slots together, one step at a
    time, over flat ``(B * p,)`` state, with the same elementwise operations
    in the same order as a one-slot recursion, so each panel is bit for bit
    the one its generator gives alone.  Each slot draws its shocks in blocks
    of ``_GARCH_BLOCK`` steps, step ``t``'s ``p`` normals after step
    ``t - 1``'s.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p = spec.p
    if mu.shape != (p,) or sigma.shape != (p, p):
        raise DimensionMismatch(
            f"need mu of shape ({p},) and sigma of shape ({p}, {p}), got {mu.shape} and {sigma.shape}"
        )
    variances = np.diag(sigma)
    if not np.all(variances > 0.0):
        raise InvalidParams("sigma must have positive diagonal")
    # with a positive diagonal, sigma is diagonal exactly when it has p nonzero entries
    if np.count_nonzero(sigma) != p:
        raise InvalidParams("sigma must be diagonal, as the simulation design's covariance is")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(variances))):
        raise InvalidParams("mu and sigma must be finite")
    scale = np.sqrt(variances)
    if spec.scenario is not Scenario.CCC_GARCH:
        draw = _draw_normal if spec.scenario is Scenario.NORMAL else _draw_t3

        def fill(x: np.ndarray, rngs) -> None:
            for slot, rng in zip(x, rngs):
                draw(rng, slot)
            x *= scale[:, None]
            x += mu[:, None]

        return fill

    coefficients = _rng_for(spec.seed, _DOMAIN_GARCH)
    alpha1 = coefficients.uniform(*_ALPHA1_RANGE, size=spec.p)
    beta1 = coefficients.uniform(*_BETA1_RANGE, size=spec.p)
    alpha0 = variances * (1.0 - alpha1 - beta1)
    factor = np.sqrt(variances / (scale * scale))
    n, burn_in = spec.n, _BURN_IN
    total = burn_in + n

    def fill(x: np.ndarray, rngs) -> None:
        rngs = list(rngs)
        size = len(x)
        a0, a1, b1, h = (np.tile(v, size) for v in (alpha0, alpha1, beta1, variances))
        work = np.empty(size * p)
        burned = np.empty(size * p)  # the centered returns of a burn-in step
        kept = np.empty((n, size * p))  # time-major: row t is step burn_in + t of every slot
        draws = np.empty((size, _GARCH_BLOCK, p))
        shocks = np.empty((_GARCH_BLOCK, size, p))  # row i is every slot's eps of one step
        for start in range(0, total, _GARCH_BLOCK):
            steps = min(_GARCH_BLOCK, total - start)
            for block, rng in zip(draws, rngs):
                rng.standard_normal(out=block[:steps])
            np.multiply(draws[:, :steps].transpose(1, 0, 2), factor, out=shocks[:steps])
            for t, eps in enumerate(shocks[:steps].reshape(steps, size * p), start):
                centered = kept[t - burn_in] if t >= burn_in else burned
                # positional outputs: the ufuncs' fastest calling path
                np.sqrt(h, work)
                np.multiply(work, eps, centered)
                # h = alpha0 + alpha1 * centered**2 + beta1 * h, in that order
                np.square(centered, work)
                np.multiply(a1, work, work)
                np.add(a0, work, work)
                np.multiply(b1, h, h)
                np.add(work, h, h)
        np.add(kept.reshape(n, size, p).transpose(1, 2, 0), mu[:, None], out=x)

    return fill


def generate_returns(
    spec: ScenarioSpec, mu: np.ndarray, sigma: np.ndarray, rng=None
) -> ReturnsMatrix:
    """One panel of the spec's scenario, from replication stream 0 unless ``rng`` is given.

    Its columns have mean ``mu`` and covariance ``sigma`` (for CCC-GARCH,
    unconditionally); see :class:`Scenario` and :func:`_sampler`.  The
    population is the simulation design's: ``mu`` finite of shape ``(p,)``
    and ``sigma`` a finite diagonal ``(p, p)`` matrix with a positive
    diagonal, as :func:`build_population` returns.

    Raises ``DimensionMismatch`` if ``mu`` or ``sigma`` does not have
    ``spec.p`` assets, and ``InvalidParams`` if ``sigma`` is not diagonal,
    has a variance that is not positive, or either is not finite.
    """
    if rng is None:
        rng = _rng_for(spec.seed, _DOMAIN_REPLICATION, 0)
    x = np.empty((1, spec.p, spec.n))
    _sampler(spec, mu, sigma)(x, [rng])
    return ReturnsMatrix(x[0])


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

    def _run_kind(self, kind) -> EstimatorKind:
        """``kind`` as an :class:`EstimatorKind`, or ``InvalidParams`` if the run left it out."""
        kind = EstimatorKind(kind)
        if kind not in self.kinds:
            raise InvalidParams(f"kind {kind.value!r} is not among the run's kinds")
        return kind

    def losses(self, kind: EstimatorKind) -> np.ndarray:
        """Quadratic losses (est - truth)**2, shape (reps, 3), NaN rows kept.

        Raises ``InvalidParams`` if ``kind`` was not run.
        """
        target = np.array([self.truth.r_gmv, self.truth.v_gmv, self.truth.slope])
        return (self.estimates[self._run_kind(kind)] - target) ** 2

    def mean_loss(self, kind: EstimatorKind) -> np.ndarray:
        """Mean quadratic loss per parameter, ignoring failed replications.

        NaN, without NumPy's empty-slice warning, for a kind that failed in
        every replication (a failed replication is a NaN row).
        """
        losses = self.losses(kind)
        if np.isnan(losses).all():
            return np.full(losses.shape[1], np.nan)
        return np.nanmean(losses, axis=0)

    def loss_quantiles(self, kind: EstimatorKind) -> np.ndarray:
        """The 5% and 95% loss quantiles per parameter, shape (2, 3); NaN as in :meth:`mean_loss`."""
        losses = self.losses(kind)
        if np.isnan(losses).all():
            return np.full((2, losses.shape[1]), np.nan)
        return np.nanquantile(losses, (0.05, 0.95), axis=0)


#: byte cap on one chunk's draws and covariances: 218 replications at
#: p=10, n=50, 4 at p=100, n=200 (so the CCC-GARCH recursion advances
#: several at once) and one at p=500, n=1000
_CHUNK_BYTES = 1 << 20


def _chunk_size(p: int, n: int) -> int:
    """Replications per chunk; it depends on ``(p, n)`` only, so never on ``jobs``."""
    return max(1, _CHUNK_BYTES // (8 * p * (n + p)))


def _replicate_span(spec, kinds, fill, estimates, stopping, start, stop) -> dict:
    """Replications ``start`` to ``stop - 1``, chunk by chunk, into their rows of ``estimates``.

    The run's sampler ``fill`` fills each ``(chunk, p, n)`` buffer with one
    panel per replication, drawn from that replication's own stream: the
    span's seed words are hashed in one pass (:func:`_seed_words`), and a
    reused generator is set to each replication's ``PCG64`` state before its
    draws.  The chunk is reduced to sample moments in one stacked step, and
    the estimator core evaluates each kind once over the whole chunk
    (:func:`estimators._estimate_stack`), with the bits of one replication
    at a time.  A failed kind leaves its row NaN.  No chunk starts once
    ``stopping`` is set.  Returns each kind's failures by class name.
    """
    size = min(_chunk_size(spec.p, spec.n), stop - start)
    reasons = {kind: Counter() for kind in kinds}
    buffer = np.empty((size, spec.p, spec.n))
    # each chunk is centred in place, and its product and covariance reuse
    # two buffers: the estimators keep no view of the covariances
    products, covariances = np.empty((2, size, spec.p, spec.p))
    words = _seed_words(spec.seed, _DOMAIN_REPLICATION, start, stop)
    # the CCC-GARCH fill interleaves its slots' draws, so each slot needs a
    # generator of its own; the other fills draw one slot after another
    shared = spec.scenario is not Scenario.CCC_GARCH
    generators = [np.random.default_rng(0) for _ in range(1 if shared else len(buffer))]
    for first in range(start, stop, size):
        if stopping.is_set():
            break
        x = buffer[: min(size, stop - first)]
        fill(x, _reset_streams(generators, words[first - start : first - start + len(x)].tolist()))
        means, covs = _moments(x, (x, products[: len(x)], covariances[: len(x)]))
        values, errors = _estimate_stack(means, covs, spec.n, kinds)
        for kind in kinds:
            estimates[kind][first : first + len(x)] = values[kind]
            reasons[kind].update(type(exc).__name__ for exc in errors[kind].values())
    return reasons


#: the most replications whose ``(reps, 3)`` float array of estimates NumPy can address
_MAX_REPS = np.iinfo(np.intp).max // 24


def _check_reps(reps: int) -> None:
    if reps < 1:
        raise InvalidParams(f"need reps >= 1, got {reps}")
    if reps > _MAX_REPS:
        raise InvalidParams(f"need reps <= {_MAX_REPS}, got {reps}")


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
        Most worker threads (>= 1); results are identical for any value
        because each replication's generator stream depends only on
        (seed, index), and the chunks only on (p, n).

    Notes
    -----
    The replications run in fixed-size chunks of consecutive indices (see
    :func:`_replicate_span`), split into ``min(jobs, chunks)`` contiguous
    spans, one per thread; a span that raises, or an interrupt, stops the
    others before their next chunk.  Estimator failures in a replication
    (e.g. a singular sample covariance) are recorded as NaN rows and counted
    per kind and per exception class, not raised.
    """
    _check_reps(reps)
    if (jobs := _integer("jobs", jobs)) < 1:
        raise InvalidParams(f"need jobs >= 1, got {jobs}")
    kinds = tuple(EstimatorKind(k) for k in kinds)
    if not kinds:
        raise InvalidParams("need at least one estimator kind")
    mu, sigma = build_population(spec)
    truth = frontier_params(mu, sigma)
    size = _chunk_size(spec.p, spec.n)
    chunks = -(-reps // size)
    tasks = min(jobs, chunks)
    bounds = [min(reps, size * (chunks * task // tasks)) for task in range(tasks + 1)]
    fill = _sampler(spec, mu, sigma)
    estimates = {kind: np.full((reps, 3), np.nan) for kind in kinds}
    stopping = threading.Event()
    run_span = functools.partial(_replicate_span, spec, kinds, fill, estimates, stopping)
    with concurrent.futures.ThreadPoolExecutor(tasks) as pool:
        spans = [pool.submit(run_span, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        try:  # until every span ends, one raises, or this thread is interrupted
            concurrent.futures.wait(spans, return_when=concurrent.futures.FIRST_EXCEPTION)
        finally:  # the spans still running stop; result() raises a failed one's error
            stopping.set()
    failure_reasons = {kind: sum((span.result()[kind] for span in spans), Counter()) for kind in kinds}
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
        If fewer than ``MIN_HISTOGRAM_REPS`` replications succeeded.
    InvalidParams
        If ``param`` is unknown or ``kind`` was not run.
    """
    if param not in PARAM_LABELS:
        raise InvalidParams(f"param must be one of {PARAM_LABELS}, got {param!r}")
    kind = result._run_kind(kind)
    column = PARAM_LABELS.index(param)
    estimates = result.estimates[kind][:, column]
    estimates = estimates[np.isfinite(estimates)]
    if estimates.size < MIN_HISTOGRAM_REPS:
        raise TooFewReps(
            f"histograms need >= {MIN_HISTOGRAM_REPS} successful replications, "
            f"got {estimates.size}"
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
    spec: ScenarioSpec, kinds, v_max: float | None = None
) -> FrontierComparison:
    """Estimate the frontier once and tabulate all curves on one grid.

    One dataset is generated (replication stream 0), each requested kind is
    estimated, and every curve — population included, under key
    ``"population"`` — is evaluated on an even 101-point variance grid from
    the population GMV variance to ``v_max`` (default: 20x that variance).
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
    reports, errors = _estimate_each(sample_moments(generate_returns(spec, mu, sigma)), kinds)
    for kind, exc in errors.items():
        logger.warning("frontier overlay: %s skipped: %s", kind.value, exc)
    grid = np.linspace(truth.v_gmv, v_max, 101)
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
