"""Empirical pipeline: panel ingestion, cleaning, and rolling estimation.

The intended flow mirrors a desk workflow for intraday portfolio data:

1. :func:`ingest_csv` reads a ``timestamp,ASSET1,ASSET2,...`` file into a
   :class:`ReturnPanel`, dropping (and counting) rows with missing cells;
2. :func:`aggregate_frequency` sums log-returns over k-blocks within each
   trading day (blocks never span days);
3. :func:`rolling_estimate` advances a fixed-size estimation window through
   the panel — winsorizing within each window, estimating the frontier with
   the requested estimator kinds, rescaling to the target holding horizon —
   and emits one record per (window, kind).  It works a block of windows at
   a time, with a block size derived from the window length and the step:
   the winsor bounds come from one sort of the rows the block's windows
   share, and the estimator core runs once per block, with the bits of one
   window at a time;
4. :func:`write_rolling_csv` serializes those records deterministically.

Returns are treated as log-returns throughout so that time aggregation is
additive, which is what the variance scaling in :func:`scale_to_horizon`
presumes.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import logging
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyPanel,
    HDFrontierError,
    InvalidParams,
    InvalidRange,
    ParseError,
    RaggedDayWarning,
    WindowTooShort,
)
from .estimators import (
    EstimateReport,
    EstimatorKind,
    _estimate_stack,
    _integer,
    _moments,
    _shape_error,
)
from .frontier import FrontierParams
from .inference import ConfidenceIntervals, _half_widths, _intervals

__all__ = [
    "ReturnPanel",
    "RollingConfig",
    "WindowEstimate",
    "ingest_csv",
    "winsorize",
    "aggregate_frequency",
    "scale_to_horizon",
    "rolling_estimate",
    "write_rolling_csv",
    "ROLLING_CSV_COLUMNS",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """Time-ordered return observations for a fixed cross-section.

    Attributes
    ----------
    timestamps : tuple of datetime.datetime
        Strictly increasing observation times.
    values : ndarray, shape (T, p)
        One row per timestamp, one column per asset; finite.
    asset_labels : tuple of str
    frequency_minutes : float
        Minutes per observation.
    dropped_rows : int
        Rows discarded during ingestion because of missing values.
    """

    timestamps: tuple
    values: np.ndarray
    asset_labels: tuple
    frequency_minutes: float
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InvalidParams(f"values must be 2-D (T, p), got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InvalidParams("panel values must be finite")
        timestamps = tuple(self.timestamps)
        labels = tuple(str(label) for label in self.asset_labels)
        if len(timestamps) != values.shape[0]:
            raise InvalidParams(
                f"{len(timestamps)} timestamps for {values.shape[0]} rows"
            )
        if len(labels) != values.shape[1]:
            raise InvalidParams(f"{len(labels)} labels for {values.shape[1]} columns")
        try:
            decreasing = any(b <= a for a, b in zip(timestamps, timestamps[1:]))
        except TypeError as exc:  # naive and timezone-aware times, say
            raise InvalidParams(f"timestamps cannot be ordered: {exc}") from None
        if decreasing:
            raise InvalidParams("timestamps must be strictly increasing")
        if not (math.isfinite(self.frequency_minutes) and self.frequency_minutes > 0):
            raise InvalidParams(
                f"frequency_minutes must be positive, got {self.frequency_minutes}"
            )
        if self.dropped_rows < 0:
            raise InvalidParams("dropped_rows must be >= 0")
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "asset_labels", labels)
        object.__setattr__(self, "frequency_minutes", float(self.frequency_minutes))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RollingConfig:
    """Settings for rolling-window estimation.

    ``step`` is the number of observations the window advances per move;
    ``None`` means one trading day (the panel's modal rows-per-day).
    ``assets`` optionally names the columns to use; otherwise the first
    ``p`` columns are taken.  Windows with ``n <= p`` are allowed only when
    every kind is defined for any ``p/n`` (the ridge-type estimator).
    """

    p: int = 200
    n: int = 375
    step: int | None = None
    frequency_minutes: float = 5.0
    target_horizon_minutes: float = 60.0
    winsor_quantiles: tuple[float, float] = (0.01, 0.99)
    kinds: tuple = (EstimatorKind.SAMPLE, EstimatorKind.CONSISTENT)
    level: float = 0.95
    assets: tuple | None = None

    def __post_init__(self) -> None:
        _integer("p", self.p)
        _integer("n", self.n)
        if self.step is not None:
            _integer("step", self.step)
        if self.p < 2:
            raise InvalidParams(f"need p >= 2, got p={self.p}")
        if self.n < 2:
            raise InvalidParams(f"need n >= 2 observations, got n={self.n}")
        object.__setattr__(self, "kinds", tuple(EstimatorKind(k) for k in self.kinds))
        if not self.kinds:
            raise InvalidParams("need at least one estimator kind")
        needs_n_above_p = [k.value for k in self.kinds if _shape_error(k, self.p, self.n)]
        if self.n <= self.p and needs_n_above_p:
            raise InvalidParams(
                f"need n > p for kinds {needs_n_above_p}, got n={self.n}, p={self.p}"
            )
        if self.step is not None and self.step < 1:
            raise InvalidParams(f"step must be >= 1 observations, got {self.step}")
        # any positive length is accepted here; rolling_estimate rejects a
        # panel it cannot reach by integer aggregation
        if not (math.isfinite(self.frequency_minutes) and self.frequency_minutes > 0):
            raise InvalidParams(
                f"frequency_minutes must be positive, got {self.frequency_minutes}"
            )
        if not (math.isfinite(self.target_horizon_minutes) and self.target_horizon_minutes > 0):
            raise InvalidParams("target_horizon_minutes must be positive")
        low, high = self.winsor_quantiles
        # the closed endpoints (0, 1) are allowed: they make winsorization
        # the identity, which is the documented way to switch it off
        if not (0.0 <= low < high <= 1.0):
            raise InvalidRange(
                f"winsor_quantiles must satisfy 0 <= low < high <= 1, got {(low, high)}"
            )
        if not (0.0 < self.level < 1.0):
            raise InvalidRange(f"level must be in (0, 1), got {self.level}")
        if self.assets is not None:
            object.__setattr__(self, "assets", tuple(str(a) for a in self.assets))

    def to_dict(self) -> dict:
        """JSON-ready description (used by run manifests)."""
        return {
            "p": self.p,
            "n": self.n,
            "step": self.step,
            "frequency_minutes": self.frequency_minutes,
            "target_horizon_minutes": self.target_horizon_minutes,
            "winsor_quantiles": list(self.winsor_quantiles),
            "kinds": [k.value for k in self.kinds],
            "level": self.level,
            "assets": list(self.assets) if self.assets is not None else None,
        }


@dataclass(frozen=True, eq=False, slots=True)
class WindowEstimate:
    """One rolling-window result: horizon-scaled report plus optional CIs.

    ``end`` (the last observation's time) tells apart windows sharing a ``date``.
    """

    date: dt.date
    kind: EstimatorKind
    report: EstimateReport
    cis: ConfidenceIntervals | None
    end: dt.datetime | None = None


def _parse_timestamp(cell: str, line: int) -> dt.datetime:
    text = cell.strip()
    if not text:
        raise ParseError("empty timestamp cell", line=line)
    try:
        return dt.datetime.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"unparseable timestamp {text!r}: {exc}", line=line) from None


def _parse_row(row: list, line: int, width: int, previous) -> tuple:
    """A data row's timestamp, and its values or None when one is missing (empty or not finite).

    Raises ParseError for a wrong field count, an unparseable cell, or a
    timestamp that does not come after ``previous`` (None for the first row).
    """
    if len(row) != width + 1:
        raise ParseError(f"expected {width + 1} fields, got {len(row)}", line=line)
    stamp = _parse_timestamp(row[0], line)
    if previous is not None:
        try:
            later = stamp > previous
        except TypeError:  # one of the two has a time zone and the other not
            raise ParseError(
                f"timestamp {stamp.isoformat()} cannot be ordered after {previous.isoformat()}",
                line=line,
            ) from None
        if not later:
            raise ParseError(f"timestamp {stamp.isoformat()} does not increase", line=line)
    parsed: list[float] = []
    missing = False
    for cell in row[1:]:
        text = cell.strip()
        if not text:
            missing = True
            continue
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"unparseable number {text!r}", line=line) from None
        if not math.isfinite(value):
            missing = True
        else:
            parsed.append(value)
    return stamp, None if missing else parsed


def _each_row(handle, width: int) -> tuple:
    """``(timestamps, values, dropped)`` of the data rows, parsed one row at a time."""
    timestamps: list[dt.datetime] = []
    rows: list[list[float]] = []
    dropped = 0
    previous = None
    for line, row in enumerate(csv.reader(handle), start=2):
        if not row:
            continue
        previous, parsed = _parse_row(row, line, width, previous)
        if parsed is None:
            dropped += 1
        else:
            timestamps.append(previous)
            rows.append(parsed)
    return timestamps, np.array(rows), dropped


class _Declined(Exception):
    """A line that only the row-wise parser may decide on."""


def _fast_rows(handle, width: int) -> tuple | None:
    """What :func:`_each_row` gives, through NumPy's C parser; None where it cannot tell.

    A line that holds a quote, is longer than the ``csv`` field limit or has
    no comma is declined.  A row with an empty cell is parsed on its own by
    :func:`_parse_row`, which drops it or raises; the value cells of the
    other rows stream into ``np.loadtxt``, whose float parser strips the
    same whitespace as ``str.strip`` and gives ``float``'s bits.  Rows with
    a non-finite value are then dropped.  Any error, a cell that ``float``
    accepts and NumPy does not (``1_000``, say) included, declines the
    whole file, so that the row-wise parser raises its own error.
    """
    stamps, blank = [], []  # every data row's timestamp cell; the rows parsed on their own
    limit = csv.field_size_limit()

    def value_cells():
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue  # csv reads an empty line as no row
            stamp, comma, cells = line.partition(",")
            if '"' in line or len(line) > limit or not comma:
                raise _Declined
            stamps.append(stamp)
            if not cells or ",," in cells or cells[0] == "," or cells[-1] == ",":
                blank.append(len(stamps) - 1)
                _parse_row(line.split(","), 0, width, None)
            else:
                yield cells

    try:
        cells = value_cells()
        first = next(cells, None)
        if first is None:
            return None
        values = np.loadtxt(itertools.chain((first,), cells), delimiter=",", comments=None, ndmin=2)
        times = [_parse_timestamp(stamp, 0) for stamp in stamps]
        rows = len(times) - len(blank)
        if values.shape != (rows, width) or any(b <= a for a, b in zip(times, times[1:])):
            return None
    except (_Declined, ValueError, TypeError, ParseError):
        return None
    finite = np.isfinite(values).all(axis=1)
    kept = np.delete(np.arange(len(times)), blank)[finite]
    if not finite.all():
        values = values[finite]
    return [times[i] for i in kept.tolist()], values, len(times) - len(kept)


def _mode(values):
    """The most common of ``values``, the smallest among the ties."""
    tally = Counter(values)
    top = max(tally.values())
    return min(value for value, count in tally.items() if count == top)


def ingest_csv(source) -> ReturnPanel:
    """Read a return panel from ``timestamp,ASSET1,ASSET2,...`` CSV.

    Rows containing a missing value (empty cell, or a non-finite number)
    are dropped and counted in ``dropped_rows``; malformed cells and
    non-increasing timestamps raise :class:`ParseError` with the offending
    line number.  The observation frequency is inferred as the most common
    spacing between consecutive same-day timestamps.

    The rows are parsed by NumPy's C parser (``np.loadtxt``), and a row with
    an empty cell on its own.  A file that this fast path does not accept
    (a quoted field, a cell that NumPy reads otherwise than ``float``, any
    malformed row) is read again one row at a time by the ``csv`` module,
    the only parser that raises :class:`ParseError` for a data row.  Both
    give the same panel, bit for bit.

    Raises
    ------
    ParseError
        Structural problems: bytes that do not decode, a cell longer than
        ``csv.field_size_limit()``, bad header, wrong field count,
        unparseable cells, non-monotone timestamps, or a panel too short to
        infer the sampling frequency.
    EmptyPanel
        No data rows survive ingestion.
    """
    panel = _ingest(source, _fast_rows)
    return panel if panel is not None else _ingest(source, _each_row)


def _ingest(source, read_rows) -> ReturnPanel | None:
    """:func:`ingest_csv` with the data rows read by ``read_rows``; None if it declines."""
    try:
        with open(source, newline="") as handle:
            header = next(csv.reader(handle), None)
            if header is None:
                raise EmptyPanel(f"{source} has no content")
            if len(header) < 2 or header[0].strip().lower() != "timestamp":
                raise ParseError(
                    "header must be 'timestamp' followed by asset labels, "
                    f"got {header!r}",
                    line=1,
                )
            labels = tuple(cell.strip() for cell in header[1:])
            rows = read_rows(handle, len(labels))
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that are not text, an over-long cell
        raise ParseError(f"unreadable CSV text: {exc}") from None
    if rows is None:
        return None
    timestamps, values, dropped = rows
    if not timestamps:
        raise EmptyPanel(f"{source} contains no complete data rows")
    if len(timestamps) < 2:
        raise ParseError("cannot infer sampling frequency from a single row")
    diffs = [
        (b - a).total_seconds() / 60.0
        for a, b in zip(timestamps, timestamps[1:])
        if a.date() == b.date()
    ]
    if not diffs:
        diffs = [(b - a).total_seconds() / 60.0 for a, b in zip(timestamps, timestamps[1:])]
    return ReturnPanel(
        timestamps=tuple(timestamps),
        values=values,
        asset_labels=labels,
        frequency_minutes=_mode(diffs),
        dropped_rows=dropped,
    )


def _bound_ranks(rows: int, quantiles) -> tuple[int, int] | None:
    """The winsor bounds' rows ``(lo, hi)`` in a column-sorted window of ``rows`` rows.

    Rows ``floor((rows - 1) low)`` and ``ceil((rows - 1) high)``:
    ``np.quantile``'s ``lower``/``higher`` index rule in the same float
    expression, so the bounds are exactly its bounds.  None when they are
    the column extremes, which make the clip the identity.
    """
    last = rows - 1
    low, high = quantiles
    lo = int(np.floor(last * np.asarray(low)))
    hi = int(np.ceil(last * np.asarray(high)))
    return None if lo == 0 and hi == last else (lo, hi)


def _window_bounds(columns: np.ndarray, starts, n: int, ranks) -> tuple[np.ndarray, np.ndarray]:
    """Winsor bounds of the windows ``columns[:, start:start + n]``, as two ``(p, B)`` arrays.

    ``columns`` is ``(p, T)`` and ``starts`` are evenly spaced.  When the
    first and last start are at most ``hi - lo - 1`` rows apart, the rows
    from the last window's start to the first window's end lie in every
    window, and they are sorted once.  Rank ``lo`` of a window is rank
    ``lo`` among the ``lo + 1`` smallest shared values, the ``n - hi``
    largest and the window's own rows outside the shared part; rank ``hi``
    is the ``n - hi``-th largest of the same values.  A rank is a value, so
    these are the bounds that the window's own full sort gives.  One window
    is all shared rows: its bounds are rows ``lo`` and ``hi`` of its sort.
    Windows further apart are each sorted on their own.  The bounds are
    copies, so the sorted values are freed on return.
    """
    lo, hi = ranks
    first, last = starts[0], starts[-1]
    own = last - first
    if own > hi - lo - 1:
        bounds = [_window_bounds(columns, [start], n, ranks) for start in starts]
        return np.hstack([low for low, _ in bounds]), np.hstack([high for _, high in bounds])
    shared = np.sort(columns[:, last : first + n], axis=1)
    if own == 0:
        return shared[:, lo, None].copy(), shared[:, hi, None].copy()
    width, top = shared.shape[1], n - hi
    offsets = np.arange(own)
    begins = np.asarray(starts)[:, None]
    rows = begins + offsets + width * (offsets >= last - begins)  # (B, own), skipping the shared rows
    candidates = np.empty((columns.shape[0], len(starts), lo + 1 + own + top))
    candidates[:, :, : lo + 1] = shared[:, None, : lo + 1]
    candidates[:, :, lo + 1 : lo + 1 + own] = columns[:, rows]
    candidates[:, :, lo + 1 + own :] = shared[:, None, width - top :]
    candidates.sort(axis=2)
    return candidates[:, :, lo].copy(), candidates[:, :, lo + 1 + own].copy()


def _winsorized(values: np.ndarray, quantiles) -> np.ndarray:
    """Clip each column of a ``(T, p)`` array to its order-statistic bounds.

    The bounds are those of :func:`_bound_ranks`, from one sort of the
    whole array (:func:`_window_bounds` on one window).  Bounds at the
    column extremes make the clip the identity, so ``values`` is returned
    unsorted.
    """
    ranks = _bound_ranks(values.shape[0], quantiles)
    if ranks is None:
        return values
    lower, upper = _window_bounds(values.T, [0], values.shape[0], ranks)
    return np.clip(values, lower[:, 0], upper[:, 0])


def winsorize(panel: ReturnPanel, quantiles=(0.01, 0.99)) -> ReturnPanel:
    """Clamp each asset's returns to its empirical quantile bounds.

    Bounds are order statistics (lower/higher interpolation), so the
    operation is idempotent: re-winsorizing at the same quantiles is the
    identity.  ``quantiles=(0, 1)`` clamps to the min/max and is therefore
    a no-op.
    """
    low, high = quantiles
    if not (0.0 <= low < high <= 1.0):
        raise InvalidRange(f"need 0 <= low < high <= 1, got {(low, high)}")
    return ReturnPanel(
        timestamps=panel.timestamps,
        values=_winsorized(panel.values, quantiles),
        asset_labels=panel.asset_labels,
        frequency_minutes=panel.frequency_minutes,
        dropped_rows=panel.dropped_rows,
    )


def _day_slices(timestamps) -> list[list[int]]:
    """Indices grouped into consecutive same-date runs."""
    groups: list[list[int]] = []
    current_date = None
    for index, stamp in enumerate(timestamps):
        if stamp.date() != current_date:
            groups.append([])
            current_date = stamp.date()
        groups[-1].append(index)
    return groups


def aggregate_frequency(panel: ReturnPanel, k: int) -> ReturnPanel:
    """Sum log-returns over consecutive ``k``-blocks within each day.

    Blocks never span days.  A day whose row count is not divisible by
    ``k`` has its trailing partial block dropped, with a
    :class:`RaggedDayWarning`.  Each aggregated row keeps the timestamp of
    the last observation it covers; the frequency field is multiplied by
    ``k``.  Aggregation composes: doing k1 then k2 equals doing k1*k2 when
    both divide the days evenly.
    """
    if k < 1 or k != int(k):
        raise InvalidParams(f"k must be a positive integer, got {k}")
    k = int(k)
    if k == 1:
        return panel
    stamps: list[dt.datetime] = []
    rows: list[np.ndarray] = []
    ragged_days = 0
    for day in _day_slices(panel.timestamps):
        blocks = len(day) // k
        if len(day) % k:
            ragged_days += 1
        for b in range(blocks):
            chunk = day[b * k : (b + 1) * k]
            stamps.append(panel.timestamps[chunk[-1]])
            rows.append(panel.values[chunk].sum(axis=0))
    if ragged_days:
        warnings.warn(
            f"{ragged_days} day(s) had a trailing partial block of < {k} rows dropped",
            RaggedDayWarning,
            stacklevel=2,
        )
    if not rows:
        raise EmptyPanel(f"no complete {k}-blocks remain after aggregation")
    return ReturnPanel(
        timestamps=tuple(stamps),
        values=np.vstack(rows),
        asset_labels=panel.asset_labels,
        frequency_minutes=panel.frequency_minutes * k,
        dropped_rows=panel.dropped_rows,
    )


def scale_to_horizon(
    report: EstimateReport, from_minutes: float, to_minutes: float
) -> EstimateReport:
    """Rescale an estimate to a different holding horizon.

    With additive (log) returns over ``f = to/from`` periods, the expected
    return and variance both scale by ``f``.  The slope is kept as the
    per-period slope of the ``from`` frequency: the frontier of f-period
    returns has slope ``f * slope``, so the returned ``r_gmv`` and ``v_gmv``
    are horizon-scaled while ``slope`` is not, and the three do not lie on
    one frontier.  ``rolling.csv`` carries them as they are: its ``slope``
    column is per period of ``frequency_minutes``.  The round trip
    a → b → a gives back ``r_gmv`` and ``v_gmv`` to rounding (within a
    relative 1e-15), not bit for bit, and ``slope`` exactly.
    """
    if not (from_minutes > 0 and to_minutes > 0):
        raise InvalidParams(
            f"horizons must be positive, got {from_minutes} -> {to_minutes}"
        )
    factor = to_minutes / from_minutes
    if factor == 1.0:
        return report
    r_gmv, v_gmv, slope = report.params.r_gmv, report.params.v_gmv, report.params.slope
    scaled = FrontierParams(r_gmv * factor, v_gmv * factor, slope, validate=False)
    return EstimateReport(report.kind, scaled, report.p, report.n)


def _modal_day_length(panel: ReturnPanel) -> int:
    return _mode(len(day) for day in _day_slices(panel.timestamps))


#: the fewest windows in a block: below four, the estimator core's vectorized
#: pass costs more per window than one window at a time (two kinds at p=50:
#: 173 us for one slot, 70 us a slot over four, 41 us over sixteen)
_MIN_BLOCK = 4


def _block_size(n: int, step: int) -> int:
    """Windows per block: about ``sqrt(n / step)``, and at least ``_MIN_BLOCK``.

    A block sorts its shared rows once and each window its own ``(B-1) step``
    rows (:func:`_window_bounds`), so ``sqrt(n / step)`` about balances the
    two; windows that overlap less are still estimated a block at a time.
    """
    return max(_MIN_BLOCK, math.isqrt(n // step))


def _block_moments(columns: np.ndarray, starts, n: int, quantiles, clipped, means, covs):
    """Winsorized sample moments of the windows ``columns[:, start:start + n]``.

    Returns ``(B, p)`` means and ``(B, p, p)`` covariances: the first ``B``
    rows of ``means`` and ``covs``, buffers that every block reuses.  The
    bounds come from :func:`_window_bounds`; each window is clipped into
    ``clipped``, a reused C-ordered ``(p, n)`` buffer, unless a bound is
    zero: a zero bound's sign is its sort's choice among equal zeros, and
    ``np.maximum`` and ``np.clip`` keep different zeros on a tie, so such a
    window is clipped on its own by :func:`_winsorized`.  Each window is
    centred into ``clipped`` and its covariance written into ``covs``.
    """
    ranks = _bound_ranks(n, quantiles)
    if ranks is not None:
        lower, upper = _window_bounds(columns, starts, n, ranks)
        nonzero = (lower != 0.0).all(axis=0) & (upper != 0.0).all(axis=0)
    means, covs = means[: len(starts)], covs[: len(starts)]
    for j, start in enumerate(starts):
        window = columns[:, start : start + n]
        if ranks is not None and nonzero[j]:
            np.maximum(window, lower[:, j, None], out=clipped)
            window = np.minimum(clipped, upper[:, j, None], out=clipped)
        elif ranks is not None:
            window = _winsorized(window.T, quantiles).T
        means[j] = _moments(window, (clipped, None, covs[j]))[0]
    return means, covs


def rolling_estimate(panel: ReturnPanel, config: RollingConfig) -> list[WindowEstimate]:
    """Advance an estimation window through the panel.

    The panel is first aggregated so its observation frequency matches
    ``config.frequency_minutes`` (which must be an integer multiple of the
    panel's).  For each window position the first ``config.p`` assets (or
    ``config.assets``) over ``config.n`` consecutive observations are
    winsorized, each estimator kind is run, and the report is scaled to the
    target horizon.  Confidence intervals are attached to consistent-kind
    reports only, computed at the native frequency and scaled linearly with
    the point estimates.

    Windows are estimated a block at a time, with the bits that one window
    at a time gives.  The block size follows from ``n`` and the step (see
    :func:`_block_size`); a block's winsor bounds come from one sort of the
    rows that all its windows share, or from one sort per window when they
    share too few (:func:`_window_bounds`), each window is clipped and
    reduced to its sample moments, and the block's moments go through the
    estimator core (``estimators._estimate_stack``) and the interval
    half-widths in one call each.

    A kind that fails on a window (say, its sample covariance cannot be
    factorized, or its horizon-scaled parameters overflow) loses that
    window's record, with a logged warning; the other kinds keep theirs.
    Results are ordered by window position.

    Raises
    ------
    WindowTooShort
        Panel has fewer than ``config.n`` rows (after aggregation) or fewer
        than ``config.p`` usable assets.
    InvalidParams
        Frequency mismatch that is not an integer aggregation, unknown asset
        labels, or ``n <= p`` with a kind that needs ``n > p``.
    """
    kinds = config.kinds
    ratio = config.frequency_minutes / panel.frequency_minutes
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9:
        raise InvalidParams(
            f"cannot aggregate a {panel.frequency_minutes}-minute panel to "
            f"{config.frequency_minutes} minutes (non-integer factor {ratio})"
        )
    if k > 1:
        panel = aggregate_frequency(panel, k)
    if config.assets is not None:
        missing = [a for a in config.assets if a not in panel.asset_labels]
        if missing:
            raise InvalidParams(f"assets not in panel: {missing}")
        columns = [panel.asset_labels.index(a) for a in config.assets]
    else:
        columns = list(range(min(config.p, panel.n_assets)))
    if len(columns) < config.p:
        raise WindowTooShort(
            f"window needs p={config.p} assets, panel provides {len(columns)}"
        )
    columns = columns[: config.p]
    if panel.n_rows < config.n:
        raise WindowTooShort(
            f"window needs n={config.n} observations, panel has {panel.n_rows}"
        )
    p, n = config.p, config.n
    step = config.step if config.step is not None else _modal_day_length(panel)
    factor = config.target_horizon_minutes / config.frequency_minutes
    # a list index gives an F-ordered copy, so ``columns`` is C-ordered (p, T)
    # and a window is a slice of contiguous rows; the moments' last bits
    # depend on that layout, which the C-ordered clip buffer keeps
    columns = panel.values[:, columns].T
    starts = range(0, panel.n_rows - n + 1, step)
    size = min(_block_size(n, step), len(starts))
    # the block's rows are read before the next block overwrites them:
    # _estimate_stack returns new arrays and keeps no view
    buffers = np.empty((p, n)), np.empty((size, p)), np.empty((size, p, p))
    results: list[WindowEstimate] = []
    for first in range(0, len(starts), size):
        block = starts[first : first + size]
        means, covs = _block_moments(columns, block, n, config.winsor_quantiles, *buffers)
        values, errors = _estimate_stack(means, covs, n, kinds)
        if EstimatorKind.CONSISTENT in values:
            consistent = values[EstimatorKind.CONSISTENT]
            half_widths = np.column_stack(
                _half_widths(consistent[:, 1], consistent[:, 2], p / n, n, config.level, False)
            ).tolist()
        params = {kind: rows.tolist() for kind, rows in values.items()}
        for j, start in enumerate(block):
            end = panel.timestamps[start + n - 1]
            date = end.date()
            for kind, failed in errors.items():
                if j in failed:
                    logger.warning("window ending %s: %s skipped: %s", end, kind.value, failed[j])
            for kind, rows in params.items():
                if j in errors[kind]:
                    continue
                r_gmv, v_gmv, slope = rows[j]
                try:
                    scaled = FrontierParams(r_gmv * factor, v_gmv * factor, slope, validate=False)
                except HDFrontierError as exc:  # the scaled parameters leave the float range
                    logger.warning("window ending %s: %s skipped: %s", end, kind.value, exc)
                    continue
                report = EstimateReport(kind, scaled, p, n)
                cis = None
                if kind is EstimatorKind.CONSISTENT:
                    cis = _intervals(config.level, r_gmv, v_gmv, *half_widths[j], factor)
                results.append(
                    WindowEstimate(date=date, kind=kind, report=report, cis=cis, end=end)
                )
    return results


ROLLING_CSV_COLUMNS = (
    "date",
    "estimator",
    "r_gmv",
    "v_gmv",
    "slope",
    "ci_r_lo",
    "ci_r_hi",
    "ci_v_lo",
    "ci_v_hi",
    "ci_s_lo",
    "ci_s_hi",
    "p",
    "n",
    "frequency_minutes",
)


#: rows joined before each write to the file
_WRITE_BATCH = 1024

#: the cell types whose ``str`` is what ``csv.writer`` writes for them
_PLAIN_CELLS = frozenset((str, int, float))


def _write_csv(path, header, rows) -> None:
    """Write one CSV table; float cells (NumPy's too) as ``repr(float(x))``.

    The shortest round-trip ``repr`` is locale-free and byte-stable, which
    makes reruns byte-identical; ``csv`` alone would format a NumPy scalar
    its own way.  A row of plain ``str``, ``int`` and ``float`` cells, whose
    ``str`` is that ``repr``, is joined with commas unless a cell needs
    quoting (a comma, a quote or a line break, or one empty cell), and the
    lines are written a batch at a time; any other row goes through
    ``csv.writer``, so the bytes are its bytes.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        batch = []
        for row in rows:
            if _PLAIN_CELLS.issuperset(map(type, row)):
                line = ",".join(map(str, row))
                quoted = '"' in line or "\r" in line or "\n" in line
                if line.count(",") == len(row) - 1 and line and not quoted:
                    batch.append(line + "\r\n")
                    if len(batch) == _WRITE_BATCH:
                        handle.writelines(batch)
                        batch.clear()
                    continue
            handle.writelines(batch)
            batch.clear()
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )
        handle.writelines(batch)


def write_rolling_csv(path, windows, frequency_minutes: float) -> None:
    """Serialize rolling results; CI cells are empty for kinds without CIs."""
    frequency = float(frequency_minutes)
    _write_csv(
        path,
        ROLLING_CSV_COLUMNS,
        (
            (
                window.date.isoformat(),
                window.kind.value,
                window.report.params.r_gmv,
                window.report.params.v_gmv,
                window.report.params.slope,
                *(
                    (*window.cis.ci_r, *window.cis.ci_v, *window.cis.ci_s)
                    if window.cis is not None
                    else ("",) * 6
                ),
                window.report.p,
                window.report.n,
                frequency,
            )
            for window in windows
        ),
    )
