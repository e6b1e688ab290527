"""Empirical pipeline: panel ingestion, cleaning, and rolling estimation.

The intended flow mirrors a desk workflow for intraday portfolio data:

1. :func:`ingest_csv` reads a ``timestamp,ASSET1,ASSET2,...`` file into a
   :class:`ReturnPanel`, dropping (and counting) rows with missing cells;
2. :func:`aggregate_frequency` sums log-returns over k-blocks within each
   trading day (blocks never span days);
3. :func:`rolling_estimate` advances a fixed-size estimation window through
   the panel — winsorizing within each window, estimating the frontier with
   the requested estimator kinds, rescaling to the target holding horizon —
   and emits one record per (window, kind);
4. :func:`write_rolling_csv` serializes those records deterministically.

Returns are treated as log-returns throughout so that time aggregation is
additive, which is what the variance scaling in :func:`scale_to_horizon`
presumes.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptyPanel,
    InvalidParams,
    InvalidRange,
    ParseError,
    RaggedDayWarning,
    WindowTooShort,
)
from .estimators import (
    _ANY_RATIO_KINDS,
    EstimateReport,
    EstimatorKind,
    _estimate_each,
    sample_moments,
)
from .frontier import FrontierParams, MertonConstants
from .inference import ConfidenceIntervals, confidence_intervals

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
        if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
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
        if self.p < 2:
            raise InvalidParams(f"need p >= 2, got p={self.p}")
        if self.n < 2:
            raise InvalidParams(f"need n >= 2 observations, got n={self.n}")
        object.__setattr__(self, "kinds", tuple(EstimatorKind(k) for k in self.kinds))
        needs_n_above_p = [k.value for k in self.kinds if k not in _ANY_RATIO_KINDS]
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


@dataclass(frozen=True, eq=False)
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


def ingest_csv(source) -> ReturnPanel:
    """Read a return panel from ``timestamp,ASSET1,ASSET2,...`` CSV.

    Rows containing a missing value (empty cell, or a non-finite number)
    are dropped and counted in ``dropped_rows``; malformed cells and
    non-increasing timestamps raise :class:`ParseError` with the offending
    line number.  The observation frequency is inferred as the most common
    spacing between consecutive same-day timestamps.

    Raises
    ------
    ParseError
        Structural problems: bad header, wrong field count, unparseable
        cells, non-monotone timestamps, or a panel too short to infer the
        sampling frequency.
    EmptyPanel
        No data rows survive ingestion.
    """
    with open(source, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyPanel(f"{source} has no content")
        if len(header) < 2 or header[0].strip().lower() != "timestamp":
            raise ParseError(
                "header must be 'timestamp' followed by asset labels, "
                f"got {header!r}",
                line=1,
            )
        labels = tuple(cell.strip() for cell in header[1:])
        width = len(labels)
        timestamps: list[dt.datetime] = []
        rows: list[list[float]] = []
        dropped = 0
        previous: dt.datetime | None = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width + 1:
                raise ParseError(
                    f"expected {width + 1} fields, got {len(row)}", line=line_no
                )
            stamp = _parse_timestamp(row[0], line_no)
            if previous is not None and stamp <= previous:
                raise ParseError(
                    f"timestamp {stamp.isoformat()} does not increase", line=line_no
                )
            previous = stamp
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
                    raise ParseError(f"unparseable number {text!r}", line=line_no) from None
                if not math.isfinite(value):
                    missing = True
                else:
                    parsed.append(value)
            if missing:
                dropped += 1
                continue
            timestamps.append(stamp)
            rows.append(parsed)
    if not rows:
        raise EmptyPanel(f"{source} contains no complete data rows")
    if len(rows) < 2:
        raise ParseError("cannot infer sampling frequency from a single row")
    diffs = [
        (b - a).total_seconds() / 60.0
        for a, b in zip(timestamps, timestamps[1:])
        if a.date() == b.date()
    ]
    if not diffs:
        diffs = [(b - a).total_seconds() / 60.0 for a, b in zip(timestamps, timestamps[1:])]
    tally = Counter(diffs)
    top = max(tally.values())
    frequency = min(d for d, count in tally.items() if count == top)
    return ReturnPanel(
        timestamps=tuple(timestamps),
        values=np.array(rows),
        asset_labels=labels,
        frequency_minutes=frequency,
        dropped_rows=dropped,
    )


def _winsorized(values: np.ndarray, quantiles) -> np.ndarray:
    """Clip each column of a ``(T, p)`` array to its order-statistic bounds.

    The bounds are rows ``floor((T-1) low)`` and ``ceil((T-1) high)`` of the
    column-sorted array: ``np.quantile``'s ``lower``/``higher`` index rule in
    the same float expression, so the bounds are exactly its bounds, at a
    fraction of the cost of its partitions.  Bounds at the column extremes
    make the clip the identity, so ``values`` is returned unsorted.
    """
    last = values.shape[0] - 1
    low, high = quantiles
    lo = int(np.floor(last * np.asarray(low)))
    hi = int(np.ceil(last * np.asarray(high)))
    if lo == 0 and hi == last:
        return values
    ordered = np.sort(values, axis=0)
    return np.clip(values, ordered[lo], ordered[hi])


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
    column is per period of ``frequency_minutes``.  The Merton constants are
    recomputed from the returned parameters, so the report is internally
    consistent.  The round trip a → b → a is the identity.
    """
    if not (from_minutes > 0 and to_minutes > 0):
        raise InvalidParams(
            f"horizons must be positive, got {from_minutes} -> {to_minutes}"
        )
    factor = to_minutes / from_minutes
    if factor == 1.0:
        return report
    r = report.params.r_gmv * factor
    v = report.params.v_gmv * factor
    s = report.params.slope
    valid = s >= 0.0
    params = FrontierParams(r, v, s, validate=valid)
    merton = MertonConstants(s + r * r / v, r / v, 1.0 / v, validate=valid)
    return EstimateReport(
        kind=report.kind,
        params=params,
        merton=merton,
        p=report.p,
        n=report.n,
        ratio=report.ratio,
        notes=report.notes,
    )


def _scaled_intervals(cis: ConfidenceIntervals, factor: float) -> ConfidenceIntervals:
    """CIs transform linearly with the point estimates: endpoints scale by f."""
    if factor == 1.0:
        return cis
    return ConfidenceIntervals(
        level=cis.level,
        ci_r=(cis.ci_r[0] * factor, cis.ci_r[1] * factor),
        ci_v=(cis.ci_v[0] * factor, cis.ci_v[1] * factor),
        ci_s=cis.ci_s,
    )


def _modal_day_length(panel: ReturnPanel) -> int:
    counts = Counter(len(day) for day in _day_slices(panel.timestamps))
    top = max(counts.values())
    return min(length for length, c in counts.items() if c == top)


def rolling_estimate(
    panel: ReturnPanel, config: RollingConfig, kinds=None
) -> list[WindowEstimate]:
    """Advance an estimation window through the panel.

    The panel is first aggregated so its observation frequency matches
    ``config.frequency_minutes`` (which must be an integer multiple of the
    panel's).  For each window position the first ``config.p`` assets (or
    ``config.assets``) over ``config.n`` consecutive observations are
    winsorized, each estimator kind is run, and the report is scaled to the
    target horizon.  Confidence intervals are attached to consistent-kind
    reports only, computed at the native frequency and scaled linearly with
    the point estimates.

    A kind that fails on a window (say, its sample covariance cannot be
    factorized) loses that window's record, with a logged warning; the other
    kinds keep theirs.  Results are ordered by window position.

    Raises
    ------
    WindowTooShort
        Panel has fewer than ``config.n`` rows (after aggregation) or fewer
        than ``config.p`` usable assets.
    InvalidParams
        Frequency mismatch that is not an integer aggregation, unknown asset
        labels, or ``n <= p`` with a kind that needs ``n > p``.
    """
    if kinds is not None:
        config = replace(config, kinds=kinds)  # validates the override
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
    step = config.step if config.step is not None else _modal_day_length(panel)
    factor = config.target_horizon_minutes / config.frequency_minutes
    # windows are row slices of this fancy-indexed copy, passed transposed to
    # sample_moments: another memory layout changes the moments' last bits
    selected = panel.values[:, columns]
    results: list[WindowEstimate] = []
    for start in range(0, panel.n_rows - config.n + 1, step):
        stop = start + config.n
        end = panel.timestamps[stop - 1]
        window = _winsorized(selected[start:stop], config.winsor_quantiles)
        reports, errors = _estimate_each(sample_moments(window.T), kinds)
        for kind, exc in errors.items():
            logger.warning("window ending %s: %s skipped: %s", end, kind.value, exc)
        for kind in kinds:
            native = reports.get(kind)
            if native is None:
                continue
            cis = None
            if kind is EstimatorKind.CONSISTENT:
                cis = _scaled_intervals(
                    confidence_intervals(native, level=config.level), factor
                )
            scaled = scale_to_horizon(
                native, config.frequency_minutes, config.target_horizon_minutes
            )
            results.append(
                WindowEstimate(date=end.date(), kind=kind, report=scaled, cis=cis, end=end)
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


def _fmt(value: float) -> str:
    return repr(float(value))


def write_rolling_csv(path, windows, frequency_minutes: float) -> None:
    """Serialize rolling results; CI cells are empty for kinds without CIs."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ROLLING_CSV_COLUMNS)
        for window in windows:
            cis = window.cis
            ci_cells = (
                [
                    _fmt(cis.ci_r[0]),
                    _fmt(cis.ci_r[1]),
                    _fmt(cis.ci_v[0]),
                    _fmt(cis.ci_v[1]),
                    _fmt(cis.ci_s[0]),
                    _fmt(cis.ci_s[1]),
                ]
                if cis is not None
                else [""] * 6
            )
            writer.writerow(
                [
                    window.date.isoformat(),
                    window.kind.value,
                    _fmt(window.report.params.r_gmv),
                    _fmt(window.report.params.v_gmv),
                    _fmt(window.report.params.slope),
                    *ci_cells,
                    window.report.p,
                    window.report.n,
                    _fmt(frequency_minutes),
                ]
            )
