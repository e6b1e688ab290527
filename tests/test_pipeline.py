"""Panel ingestion, cleaning, aggregation, and rolling estimation."""

import csv
import datetime as dt
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdfrontier import (
    ConfidenceIntervals,
    EmptyPanel,
    EstimateReport,
    EstimatorKind,
    FrontierParams,
    HDFrontierError,
    InvalidParams,
    InvalidRange,
    ParseError,
    RaggedDayWarning,
    ReturnPanel,
    ReturnsMatrix,
    RollingConfig,
    WindowEstimate,
    WindowTooShort,
    aggregate_frequency,
    confidence_intervals,
    estimate,
    estimate_many,
    ingest_csv,
    rolling_estimate,
    sample_moments,
    scale_to_horizon,
    winsorize,
    write_rolling_csv,
)
from hdfrontier import pipeline
from hdfrontier.pipeline import (
    ROLLING_CSV_COLUMNS,
    _WRITE_BATCH,
    _block_size,
    _bound_ranks,
    _each_row,
    _fast_rows,
    _ingest,
    _modal_day_length,
    _window_bounds,
    _winsorized,
    _write_csv,
)


def make_panel(days=8, rows_per_day=30, p=4, seed=0, frequency=5.0, scale=0.01):
    rng = np.random.default_rng(seed)
    stamps = []
    base = dt.datetime(2024, 1, 1, 9, 30)
    for day in range(days):
        start = base + dt.timedelta(days=day)
        stamps.extend(start + dt.timedelta(minutes=frequency * i) for i in range(rows_per_day))
    values = scale * rng.standard_normal((len(stamps), p)) + 0.0005
    labels = tuple(f"A{i}" for i in range(p))
    return ReturnPanel(
        timestamps=tuple(stamps),
        values=values,
        asset_labels=labels,
        frequency_minutes=frequency,
    )


def write_panel_csv(path, rows, header=("timestamp", "AAA", "BBB")):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


class TestReturnPanel:
    def test_properties(self):
        panel = make_panel(days=2, rows_per_day=5, p=3)
        assert panel.n_rows == 10
        assert panel.n_assets == 3

    def test_validation(self):
        stamps = (dt.datetime(2024, 1, 1, 9, 30), dt.datetime(2024, 1, 1, 9, 35))
        good = np.zeros((2, 2))
        with pytest.raises(InvalidParams):
            ReturnPanel(stamps, np.array([[np.nan, 0.0], [0.0, 0.0]]), ("a", "b"), 5.0)
        with pytest.raises(InvalidParams):
            ReturnPanel(stamps[:1], good, ("a", "b"), 5.0)
        with pytest.raises(InvalidParams):
            ReturnPanel(stamps, good, ("a",), 5.0)
        with pytest.raises(InvalidParams):
            ReturnPanel(stamps[::-1], good, ("a", "b"), 5.0)
        with pytest.raises(InvalidParams):
            ReturnPanel(stamps, good, ("a", "b"), 0.0)
        with pytest.raises(InvalidParams):
            ReturnPanel(stamps, good, ("a", "b"), 5.0, dropped_rows=-1)
        aware = stamps[1].replace(tzinfo=dt.timezone.utc)
        with pytest.raises(InvalidParams, match="timestamps cannot be ordered"):
            ReturnPanel((stamps[0], aware), good, ("a", "b"), 5.0)


class TestIngestCsv:
    def test_round_trip(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "panel.csv",
            [
                ["2024-01-01T09:30:00", "0.01", "-0.02"],
                ["2024-01-01T09:35:00", "0.005", "0.0"],
                ["2024-01-01T09:40:00", "-0.001", "0.002"],
            ],
        )
        panel = ingest_csv(path)
        assert panel.asset_labels == ("AAA", "BBB")
        assert panel.frequency_minutes == 5.0
        assert panel.dropped_rows == 0
        assert panel.values.tolist() == [[0.01, -0.02], [0.005, 0.0], [-0.001, 0.002]]
        assert panel.timestamps[0] == dt.datetime(2024, 1, 1, 9, 30)

    @pytest.mark.parametrize(
        "stamps, first",
        [
            (("2024-01-02T09:30:00Z", "2024-01-02T09:35:00Z"),
             dt.datetime(2024, 1, 2, 9, 30, tzinfo=dt.timezone.utc)),
            (("20240102T093000", "20240102T093500"), dt.datetime(2024, 1, 2, 9, 30)),
        ],
    )
    def test_python_311_timestamp_forms(self, tmp_path, stamps, first):
        # datetime.fromisoformat reads a "Z" suffix and the basic format from Python 3.11 on
        path = write_panel_csv(tmp_path / "panel.csv", [[stamp, "0.01", "0.0"] for stamp in stamps])
        panel = ingest_csv(path)
        assert panel.timestamps[0] == first
        assert panel.frequency_minutes == 5.0

    def test_missing_and_non_finite_cells_drop_rows(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "panel.csv",
            [
                ["2024-01-01T09:30:00", "0.01", "-0.02"],
                ["2024-01-01T09:35:00", "", "0.0"],
                ["2024-01-01T09:40:00", "nan", "0.002"],
                ["2024-01-01T09:45:00", "0.02", "0.001"],
            ],
        )
        panel = ingest_csv(path)
        assert panel.n_rows == 2
        assert panel.dropped_rows == 2
        # frequency comes from surviving rows: 15 minutes apart
        assert panel.frequency_minutes == 15.0

    def test_header_errors(self, tmp_path):
        path = write_panel_csv(tmp_path / "bad.csv", [], header=("time", "AAA"))
        with pytest.raises(ParseError, match="line 1"):
            ingest_csv(path)

    def test_field_count_error_names_line(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "bad.csv",
            [
                ["2024-01-01T09:30:00", "0.01", "-0.02"],
                ["2024-01-01T09:35:00", "0.01"],
            ],
        )
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(path)

    def test_unparseable_cells(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "bad.csv",
            [["2024-01-01T09:30:00", "0.01", "oops"],
             ["2024-01-01T09:35:00", "0.01", "0.0"]],
        )
        with pytest.raises(ParseError, match="oops"):
            ingest_csv(path)
        path2 = write_panel_csv(
            tmp_path / "bad2.csv",
            [["not-a-time", "0.01", "0.0"],
             ["2024-01-01T09:35:00", "0.01", "0.0"]],
        )
        with pytest.raises(ParseError, match="timestamp"):
            ingest_csv(path2)

    def test_non_monotone_timestamps(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "bad.csv",
            [
                ["2024-01-01T09:35:00", "0.01", "0.0"],
                ["2024-01-01T09:30:00", "0.01", "0.0"],
            ],
        )
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(path)

    def test_empty_inputs(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyPanel):
            ingest_csv(empty)
        header_only = write_panel_csv(tmp_path / "h.csv", [])
        with pytest.raises(EmptyPanel):
            ingest_csv(header_only)

    def test_single_row_cannot_infer_frequency(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "one.csv", [["2024-01-01T09:30:00", "0.01", "0.0"]]
        )
        with pytest.raises(ParseError, match="frequency"):
            ingest_csv(path)

    def test_frequency_ignores_overnight_gaps(self, tmp_path):
        rows = [
            ["2024-01-01T09:30:00", "0.01", "0.0"],
            ["2024-01-01T09:35:00", "0.01", "0.0"],
            ["2024-01-02T09:30:00", "0.01", "0.0"],
            ["2024-01-02T09:35:00", "0.01", "0.0"],
        ]
        panel = ingest_csv(write_panel_csv(tmp_path / "two_days.csv", rows))
        assert panel.frequency_minutes == 5.0

    def test_daily_data_falls_back_to_cross_day_diffs(self, tmp_path):
        rows = [
            ["2024-01-01", "0.01", "0.0"],
            ["2024-01-02", "0.01", "0.0"],
            ["2024-01-03", "0.01", "0.0"],
        ]
        panel = ingest_csv(write_panel_csv(tmp_path / "daily.csv", rows))
        assert panel.frequency_minutes == 1440.0

    def test_frequency_tie_breaks_to_smallest(self, tmp_path):
        rows = [
            ["2024-01-01T09:30:00", "0.01", "0.0"],
            ["2024-01-01T09:35:00", "0.01", "0.0"],
            ["2024-01-01T09:45:00", "0.01", "0.0"],
        ]
        panel = ingest_csv(write_panel_csv(tmp_path / "tie.csv", rows))
        assert panel.frequency_minutes == 5.0


def _panel_fields(panel):
    values = panel.values
    return (panel.timestamps, values.shape, values.dtype, values.tobytes(), panel.asset_labels,
            panel.frequency_minutes, panel.dropped_rows)


def _ingest_outcome(path, read_rows):
    """What ``_ingest`` gives: the panel's fields, an error's class and message, or None."""
    try:
        panel = _ingest(path, read_rows)
    except HDFrontierError as exc:
        return type(exc), str(exc)
    return None if panel is None else _panel_fields(panel)


#: cells that each path must read alike: blank, whitespace, quoted, non-finite
#: spellings, an underscore, the line-like \x0b and \x0c, and a comment sign
_ODD_CELLS = (
    "", " ", "\t", '"0.125"', '"1,5"', '""', "nan", "NaN", "-inf", "Infinity", "+inf",
    "1_000", "0.5\x0b", "\x0c-0.25", "#", "0.1#", " 0.75 ", "1e-3", "-0.0", "\x85", "0x10",
)

_MUTATIONS = (
    "cell", "cell", "cell", "stamp", "swap", "repeat", "trailing-comma", "drop-cell",
    "extra-cell", "empty-line", "comment-line", "ending", "aware",
)


@st.composite
def _mutated_csv(draw):
    """A small panel CSV with a few mutations, as text with its own line endings."""
    width = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 7))
    start = dt.datetime(2024, 1, 2, 9, 30)
    sep = draw(st.sampled_from(["T", " "]))
    lines = [["timestamp", *(f"A{j}" for j in range(width))]]
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    for i in range(n_rows):
        stamp = (start + dt.timedelta(days=i // 4, minutes=5 * i)).isoformat(sep=sep)
        lines.append([stamp, *(repr(draw(finite)) for _ in range(width))])
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    endings = [ending] * len(lines)
    mutations = draw(st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(1, 99), st.integers(0, 99)),
        max_size=4,
    ))
    inserted = []
    for kind, a, b in mutations:
        row = 1 + a % (len(lines) - 1) if len(lines) > 1 else 0
        line = lines[row]
        if kind == "cell" and len(line) > 1:
            line[1 + b % (len(line) - 1)] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "stamp":
            line[0] = draw(st.sampled_from(["", " " + line[0], f'"{line[0]}"', "2024-13-01"]))
        elif kind == "swap" and row > 1:
            lines[row][0], lines[row - 1][0] = lines[row - 1][0], lines[row][0]
        elif kind == "repeat" and row > 1:
            line[0] = lines[row - 1][0]
        elif kind == "trailing-comma":
            line.append("")
        elif kind == "drop-cell" and len(line) > 1:
            line.pop()
        elif kind == "extra-cell":
            line.append("0.5")
        elif kind in ("empty-line", "comment-line"):
            inserted.append((row, [] if kind == "empty-line" else ["# note"]))
        elif kind == "ending":
            endings[row] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        elif kind == "aware":
            line[0] = line[0] + "+00:00"
    for row, line in inserted:
        lines.insert(row, line)
        endings.insert(row, ending)
    text = "".join(",".join(line) + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestIngestPaths:
    """NumPy's parser and the row-wise parser give the same panel, or the same error."""

    @given(text=_mutated_csv())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_fast_path_agrees_with_the_row_wise_path(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mutated.csv"
        with open(path, "w", newline="") as handle:
            handle.write(text)
        rows = _ingest_outcome(path, _each_row)
        assert rows is not None
        fast = _ingest_outcome(path, _fast_rows)
        assert fast is None or fast == rows
        try:
            panel = ingest_csv(path)
        except HDFrontierError as exc:
            assert (type(exc), str(exc)) == rows
        else:
            assert _panel_fields(panel) == rows

    @pytest.mark.parametrize("blanks", [0, 3])
    def test_clean_and_blank_panels_never_fall_back(self, tmp_path, monkeypatch, blanks):
        panel = make_panel(days=3, rows_per_day=20, p=5, seed=3)
        rows = [[stamp.isoformat(sep=" "), *map(repr, values)]
                for stamp, values in zip(panel.timestamps, panel.values.tolist())]
        for i in range(blanks):
            rows[7 * i + 2][1 + i] = ""
        rows[30][2] = "nan"  # a non-finite value drops its row too
        header = ("timestamp", *panel.asset_labels)
        path = write_panel_csv(tmp_path / "panel.csv", rows, header=header)
        want = _ingest_outcome(path, _each_row)

        def refuse(handle, width):
            raise AssertionError("the row-wise parser ran")

        monkeypatch.setattr(pipeline, "_each_row", refuse)
        got = ingest_csv(path)
        assert got.dropped_rows == blanks + 1
        assert _panel_fields(got) == want

    def test_mixed_time_zones_are_a_parse_error(self, tmp_path):
        path = write_panel_csv(
            tmp_path / "tz.csv",
            [["2024-01-01T09:30:00+00:00", "0.01", "0.0"],
             ["2024-01-01T09:35:00", "0.01", "0.0"]],
        )
        with pytest.raises(ParseError, match="line 3: timestamp .* cannot be ordered after"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            # a Latin-1 header, which UTF-8 cannot decode
            (b"timestamp,caf\xe9\n2024-01-01T09:30:00,0.1\n", "can't decode byte 0xe9"),
            # a cell one character past the csv module's field limit
            (
                b"timestamp,A\n2024-01-01T09:30:00,0.1\n2024-01-01T09:35:00,"
                + b"1" * (csv.field_size_limit() + 1) + b"\n",
                "field larger than field limit",
            ),
        ],
        ids=["latin-1-header", "over-long-cell"],
    )
    def test_unreadable_text_is_a_parse_error(self, tmp_path, content, message):
        path = tmp_path / "panel.csv"
        path.write_bytes(content)
        rows = _ingest_outcome(path, _each_row)
        assert rows[0] is ParseError and message in rows[1]
        assert _ingest_outcome(path, _fast_rows) in (None, rows)
        with pytest.raises(ParseError, match=f"unreadable CSV text: .*{message}"):
            ingest_csv(path)


class TestWinsorize:
    def test_clamps_to_order_statistics(self):
        panel = make_panel(days=4, rows_per_day=25, p=3, seed=1)
        clipped = winsorize(panel, (0.1, 0.9))
        lower = np.quantile(panel.values, 0.1, axis=0, method="lower")
        upper = np.quantile(panel.values, 0.9, axis=0, method="higher")
        assert np.array_equal(clipped.values, np.clip(panel.values, lower, upper))
        assert clipped.timestamps == panel.timestamps

    def test_idempotent(self):
        panel = make_panel(days=3, rows_per_day=20, p=2, seed=2)
        once = winsorize(panel, (0.05, 0.95))
        twice = winsorize(once, (0.05, 0.95))
        assert np.array_equal(once.values, twice.values)

    def test_full_range_is_identity(self, monkeypatch):
        panel = make_panel(days=2, rows_per_day=15, p=2, seed=3)

        def no_sort(*args, **kwargs):
            raise AssertionError("winsorize((0, 1)) sorted its input")

        monkeypatch.setattr(np, "sort", no_sort)
        assert np.array_equal(winsorize(panel, (0.0, 1.0)).values, panel.values)

    def test_bounds_are_numpy_quantile_bounds_exactly(self):
        # (m - 1) q at, just below and just above an integer is where the
        # floor/ceil index rule can go wrong (0.07 * 100 == 7.000000000000001)
        rng = np.random.default_rng(16)
        fixed = (0.01, 0.05, 0.07, 0.1, 0.25, 0.5, 0.75, 0.9, 0.93, 0.95, 0.99)
        for m in range(2, 401):
            values = rng.standard_normal((m, 3))
            qs = set(fixed)
            for k in {1, m // 3, m // 2, m - 2}:
                if 0 < k < m - 1:
                    q = k / (m - 1)
                    qs.update((q, float(np.nextafter(q, 0.0)), float(np.nextafter(q, 1.0))))
            qs = sorted(qs)
            lowers = np.quantile(values, qs, axis=0, method="lower")
            uppers = np.quantile(values, qs, axis=0, method="higher")
            for q, lower, upper in zip(qs, lowers, uppers):
                assert np.array_equal(
                    _winsorized(values, (q, 1.0)), np.clip(values, lower, values.max(axis=0))
                ), (m, q, "low")
                assert np.array_equal(
                    _winsorized(values, (0.0, q)), np.clip(values, values.min(axis=0), upper)
                ), (m, q, "high")

    def test_columns_treated_independently(self):
        values = np.zeros((10, 2))
        values[:, 0] = np.arange(10.0)
        values[:, 1] = 5.0
        values[0, 1] = 5.0  # constant column stays untouched
        stamps = tuple(
            dt.datetime(2024, 1, 1, 9, 30) + dt.timedelta(minutes=5 * i) for i in range(10)
        )
        panel = ReturnPanel(stamps, values, ("a", "b"), 5.0)
        clipped = winsorize(panel, (0.2, 0.8))
        assert clipped.values[:, 1].tolist() == [5.0] * 10
        assert clipped.values[:, 0].min() > values[:, 0].min()

    def test_invalid_quantiles(self):
        panel = make_panel(days=2, rows_per_day=10, p=2)
        with pytest.raises(InvalidRange):
            winsorize(panel, (0.5, 0.5))
        with pytest.raises(InvalidRange):
            winsorize(panel, (-0.1, 0.9))


class TestAggregateFrequency:
    def test_identity_at_k1(self):
        panel = make_panel(days=2, rows_per_day=10, p=2)
        assert aggregate_frequency(panel, 1) is panel

    def test_sums_blocks_and_keeps_last_timestamp(self):
        panel = make_panel(days=1, rows_per_day=4, p=2, seed=4)
        agg = aggregate_frequency(panel, 2)
        assert agg.n_rows == 2
        assert np.allclose(agg.values[0], panel.values[:2].sum(axis=0))
        assert np.allclose(agg.values[1], panel.values[2:].sum(axis=0))
        assert agg.timestamps == (panel.timestamps[1], panel.timestamps[3])
        assert agg.frequency_minutes == 10.0

    def test_blocks_never_span_days(self):
        panel = make_panel(days=2, rows_per_day=3, p=2, seed=5)
        with pytest.warns(RaggedDayWarning):
            agg = aggregate_frequency(panel, 2)
        assert agg.n_rows == 2  # one full block per day, partials dropped
        assert np.allclose(agg.values[0], panel.values[:2].sum(axis=0))
        assert np.allclose(agg.values[1], panel.values[3:5].sum(axis=0))

    def test_composes(self):
        panel = make_panel(days=3, rows_per_day=12, p=2, seed=6)
        two_step = aggregate_frequency(aggregate_frequency(panel, 2), 3)
        one_step = aggregate_frequency(panel, 6)
        assert np.allclose(two_step.values, one_step.values)
        assert two_step.timestamps == one_step.timestamps
        assert two_step.frequency_minutes == one_step.frequency_minutes == 30.0

    def test_ragged_warning_counts_days(self):
        panel = make_panel(days=3, rows_per_day=5, p=2, seed=7)
        with pytest.warns(RaggedDayWarning, match="3 day"):
            aggregate_frequency(panel, 2)

    def test_nothing_left_raises(self):
        panel = make_panel(days=2, rows_per_day=3, p=2, seed=8)
        with pytest.warns(RaggedDayWarning):
            with pytest.raises(EmptyPanel):
                aggregate_frequency(panel, 4)

    def test_k_validation(self):
        panel = make_panel(days=1, rows_per_day=4, p=2)
        with pytest.raises(InvalidParams):
            aggregate_frequency(panel, 0)


class TestScaleToHorizon:
    def _report(self):
        rng = np.random.default_rng(9)
        y = 0.01 * rng.standard_normal((5, 40)) + 0.001
        return estimate_many(sample_moments(y), ["consistent"])[EstimatorKind.CONSISTENT]

    def test_scales_r_and_v_keeps_slope(self):
        report = self._report()
        scaled = scale_to_horizon(report, 5.0, 60.0)
        assert scaled.params.r_gmv == pytest.approx(report.params.r_gmv * 12)
        assert scaled.params.v_gmv == pytest.approx(report.params.v_gmv * 12)
        assert scaled.params.slope == report.params.slope
        assert scaled.kind is report.kind
        assert (scaled.p, scaled.n) == (report.p, report.n)

    def test_scaled_report_is_built_from_scaled_params(self):
        report = self._report()
        r, v, s = report.params.r_gmv, report.params.v_gmv, report.params.slope
        scaled = scale_to_horizon(report, 5.0, 30.0)
        params = FrontierParams(r * 6.0, v * 6.0, s)
        assert scaled == EstimateReport(report.kind, params, report.p, report.n)
        assert (scaled.ratio, scaled.notes) == (report.ratio, report.notes)

    def test_identity_factor_returns_same_object(self):
        report = self._report()
        assert scale_to_horizon(report, 60.0, 60.0) is report

    def test_round_trip(self):
        report = self._report()
        back = scale_to_horizon(scale_to_horizon(report, 5.0, 60.0), 60.0, 5.0)
        assert back.params.r_gmv == pytest.approx(report.params.r_gmv, rel=1e-14)
        assert back.params.v_gmv == pytest.approx(report.params.v_gmv, rel=1e-14)

    def test_negative_slope_report_survives(self):
        from hdfrontier import SampleMoments

        m = SampleMoments(mean=np.zeros(4), cov=np.eye(4), n=10, p=4)
        report = estimate(m, "unbiased")
        scaled = scale_to_horizon(report, 5.0, 60.0)
        assert scaled.params.slope == report.params.slope < 0.0
        assert scaled.notes == report.notes

    def test_round_trip_to_rounding(self):
        # r_gmv and v_gmv come back within a relative 1e-15, not bit for bit;
        # the slope is never scaled
        rng = np.random.default_rng(31)
        moved = 0
        for _ in range(300):
            y = 0.01 * rng.standard_normal((4, 30)) + rng.uniform(-0.01, 0.01, (4, 1))
            report = estimate(sample_moments(y), "consistent")
            back = scale_to_horizon(scale_to_horizon(report, 5.0, 60.0), 60.0, 5.0)
            assert back.params.r_gmv == pytest.approx(report.params.r_gmv, rel=1e-15, abs=0)
            assert back.params.v_gmv == pytest.approx(report.params.v_gmv, rel=1e-15, abs=0)
            assert back.params.slope == report.params.slope
            moved += back.params != report.params
        assert moved > 0

    def test_horizon_validation(self):
        report = self._report()
        with pytest.raises(InvalidParams):
            scale_to_horizon(report, 0.0, 60.0)
        with pytest.raises(InvalidParams):
            scale_to_horizon(report, 5.0, -1.0)


class TestModalDayLength:
    def test_uses_most_common_day(self):
        long_days = make_panel(days=3, rows_per_day=30, p=2)
        short_day = make_panel(days=1, rows_per_day=20, p=2)
        stamps = long_days.timestamps + tuple(
            t + dt.timedelta(days=10) for t in short_day.timestamps
        )
        values = np.vstack([long_days.values, short_day.values])
        panel = ReturnPanel(stamps, values, ("a", "b"), 5.0)
        assert _modal_day_length(panel) == 30

    def test_tie_breaks_to_smallest(self):
        a = make_panel(days=2, rows_per_day=30, p=2)
        b = make_panel(days=2, rows_per_day=20, p=2)
        stamps = a.timestamps + tuple(t + dt.timedelta(days=10) for t in b.timestamps)
        panel = ReturnPanel(stamps, np.vstack([a.values, b.values]), ("a", "b"), 5.0)
        assert _modal_day_length(panel) == 20


class TestRollingEstimate:
    CONFIG = dict(p=4, n=60, frequency_minutes=5.0, target_horizon_minutes=60.0)

    def test_window_count_and_order(self):
        panel = make_panel(days=8, rows_per_day=30, p=4, seed=10)
        config = RollingConfig(**self.CONFIG)
        windows = rolling_estimate(panel, config)
        # starts 0, 30, ..., 180 -> 7 windows x 2 kinds
        assert len(windows) == 7 * 2
        dates = [w.date for w in windows]
        assert dates == sorted(dates)
        assert {w.kind for w in windows} == {EstimatorKind.SAMPLE, EstimatorKind.CONSISTENT}

    def test_step_override(self):
        panel = make_panel(days=8, rows_per_day=30, p=4, seed=10)
        windows = rolling_estimate(panel, RollingConfig(step=15, kinds=("sample",), **self.CONFIG))
        assert len(windows) == 13  # starts 0..180 by 15

    def test_first_window_matches_manual_computation(self):
        panel = make_panel(days=8, rows_per_day=30, p=4, seed=10)
        config = RollingConfig(**self.CONFIG)
        windows = rolling_estimate(panel, config)
        first_consistent = next(w for w in windows if w.kind is EstimatorKind.CONSISTENT)

        segment = winsorize(
            ReturnPanel(
                panel.timestamps[:60], panel.values[:60], panel.asset_labels, 5.0
            ),
            config.winsor_quantiles,
        )
        native = estimate_many(
            sample_moments(ReturnsMatrix(segment.values.T)), config.kinds
        )[EstimatorKind.CONSISTENT]
        factor = 12.0
        assert first_consistent.report.params.r_gmv == pytest.approx(
            native.params.r_gmv * factor, rel=1e-12
        )
        assert first_consistent.report.params.slope == pytest.approx(
            native.params.slope, rel=1e-12
        )
        native_cis = confidence_intervals(native, level=config.level)
        assert first_consistent.cis.ci_v[0] == pytest.approx(
            native_cis.ci_v[0] * factor, rel=1e-12
        )
        # the slope interval is horizon-invariant (memory layout of the
        # column selection permits last-ulp differences, hence approx)
        assert first_consistent.cis.ci_s == pytest.approx(native_cis.ci_s, rel=1e-12)
        assert first_consistent.date == panel.timestamps[59].date()

    def test_cis_only_on_consistent(self):
        panel = make_panel(days=8, rows_per_day=30, p=4, seed=10)
        windows = rolling_estimate(panel, RollingConfig(**self.CONFIG))
        for window in windows:
            if window.kind is EstimatorKind.CONSISTENT:
                assert window.cis is not None
                assert window.cis.level == 0.95
            else:
                assert window.cis is None

    def test_internal_aggregation_matches_preaggregated(self):
        panel = make_panel(days=10, rows_per_day=30, p=4, seed=11)
        for minutes, k in ((10.0, 2), (15.0, 3)):
            config = RollingConfig(
                p=4, n=60 // k, frequency_minutes=minutes, target_horizon_minutes=60.0,
                kinds=("consistent",),
            )
            direct = rolling_estimate(panel, config)
            pre = rolling_estimate(aggregate_frequency(panel, k), config)
            assert len(direct) == len(pre) > 0
            for a, b in zip(direct, pre):
                assert a.date == b.date
                assert a.report.params == b.report.params

    def test_non_integer_aggregation_rejected(self):
        panel = make_panel(days=4, rows_per_day=30, p=4, frequency=30.0)
        config = RollingConfig(p=4, n=30, frequency_minutes=5.0)
        with pytest.raises(InvalidParams, match="aggregate"):
            rolling_estimate(panel, config)
        panel = make_panel(days=4, rows_per_day=30, p=4, frequency=5.0)
        config = RollingConfig(p=4, n=30, frequency_minutes=7.5)
        with pytest.raises(InvalidParams, match="aggregate"):
            rolling_estimate(panel, config)

    def test_asset_selection(self):
        panel = make_panel(days=8, rows_per_day=30, p=5, seed=12)
        config = RollingConfig(
            p=2, n=60, frequency_minutes=5.0, assets=("A3", "A1"), step=60, kinds=("sample",)
        )
        windows = rolling_estimate(panel, config)
        manual_values = panel.values[:60][:, [3, 1]]
        segment = winsorize(
            ReturnPanel(panel.timestamps[:60], manual_values, ("A3", "A1"), 5.0),
            config.winsor_quantiles,
        )
        native = estimate_many(sample_moments(ReturnsMatrix(segment.values.T)), ["sample"])
        expected = scale_to_horizon(native[EstimatorKind.SAMPLE], 5.0, 60.0)
        assert windows[0].report.params == expected.params

    def test_unknown_assets_rejected(self):
        panel = make_panel(days=4, rows_per_day=30, p=3)
        config = RollingConfig(p=2, n=60, frequency_minutes=5.0, assets=("A0", "ZZ"))
        with pytest.raises(InvalidParams, match="ZZ"):
            rolling_estimate(panel, config)

    def test_window_too_short(self):
        panel = make_panel(days=2, rows_per_day=30, p=4)
        with pytest.raises(WindowTooShort):
            rolling_estimate(panel, RollingConfig(p=4, n=90, frequency_minutes=5.0))
        with pytest.raises(WindowTooShort):
            rolling_estimate(panel, RollingConfig(p=10, n=30, frequency_minutes=5.0))

    def test_singular_windows_skipped_with_log(self, caplog):
        base = make_panel(days=4, rows_per_day=30, p=1, seed=13)
        values = np.hstack([base.values, np.zeros_like(base.values)])  # constant column
        panel = ReturnPanel(base.timestamps, values, ("a", "b"), 5.0)
        config = RollingConfig(p=2, n=60, frequency_minutes=5.0)
        with caplog.at_level(logging.WARNING, logger="hdfrontier.pipeline"):
            windows = rolling_estimate(panel, config)
        assert windows == []
        assert any("skipped" in record.message for record in caplog.records)

    def test_failing_kind_keeps_the_other_kinds(self, caplog):
        # n = p + 1: the sample estimate exists, the unbiased one needs n >= p + 2
        panel = make_panel(days=1, rows_per_day=200, p=50, seed=18)
        config = RollingConfig(p=50, n=51, step=1, kinds=("sample", "unbiased"))
        with caplog.at_level(logging.WARNING, logger="hdfrontier.pipeline"):
            windows = rolling_estimate(panel, config)
        assert len(windows) == 150
        assert {w.kind for w in windows} == {EstimatorKind.SAMPLE}
        skipped = [r.message for r in caplog.records if "skipped" in r.message]
        assert len(skipped) == 150
        assert all("unbiased" in message for message in skipped)

    def test_rte_runs_with_n_at_most_p(self):
        panel = make_panel(days=4, rows_per_day=30, p=50, seed=19)
        config = RollingConfig(
            p=50, n=40, step=30, frequency_minutes=5.0, target_horizon_minutes=60.0,
            kinds=("rte",),
        )
        windows = rolling_estimate(panel, config)
        assert len(windows) == 3  # starts 0, 30, 60
        # the pipeline's column selection, whose memory layout the last bits
        # of the moments depend on
        selected = panel.values[:, list(range(50))]
        segment = winsorize(
            ReturnPanel(panel.timestamps[:40], selected[:40], panel.asset_labels, 5.0),
            config.winsor_quantiles,
        )
        native = estimate_many(sample_moments(segment.values.T), ["rte"])[EstimatorKind.RTE]
        assert native.ratio > 1.0
        assert windows[0].report.params == scale_to_horizon(native, 5.0, 60.0).params

    def test_n_at_most_p_rejected_for_kinds_that_need_n_above_p(self):
        config = RollingConfig(p=50, n=40, frequency_minutes=5.0, kinds=("rte",))
        with pytest.raises(InvalidParams, match=r"\['sample', 'consistent'\]"):
            replace(config, kinds=("sample", "rte", "consistent"))
        with pytest.raises(InvalidParams, match="unbiased"):
            RollingConfig(p=50, n=50, kinds=("rte", "unbiased"))

    @pytest.mark.parametrize("step", [1, 7])
    @pytest.mark.parametrize("quantiles", [(0.01, 0.99), (0.0, 1.0), (0.2, 0.8)])
    def test_records_match_the_panel_reference_loop(self, quantiles, step):
        # the per-window path before windows became array slices: a
        # ReturnPanel per window, np.quantile bounds, np.clip, then the
        # estimators; records must agree to the last bit
        panel = make_panel(days=4, rows_per_day=30, p=6, seed=17)
        kinds = (EstimatorKind.SAMPLE, EstimatorKind.CONSISTENT, EstimatorKind.UNBIASED)
        config = RollingConfig(
            p=5, n=40, step=step, frequency_minutes=5.0, target_horizon_minutes=60.0,
            winsor_quantiles=quantiles, kinds=kinds,
        )
        selected = panel.values[:, list(range(5))]
        labels = panel.asset_labels[:5]
        expected = []
        for start in range(0, panel.n_rows - config.n + 1, step):
            stop = start + config.n
            window = ReturnPanel(panel.timestamps[start:stop], selected[start:stop], labels, 5.0)
            lower = np.quantile(window.values, quantiles[0], axis=0, method="lower")
            upper = np.quantile(window.values, quantiles[1], axis=0, method="higher")
            clipped = np.clip(window.values, lower, upper)
            moments = sample_moments(ReturnsMatrix(clipped.T, asset_labels=labels))
            reports = estimate_many(moments, kinds)
            for kind in kinds:
                cis = None
                if kind is EstimatorKind.CONSISTENT:
                    raw = confidence_intervals(reports[kind], level=config.level)
                    cis = (*(x * 12.0 for x in raw.ci_r + raw.ci_v), *raw.ci_s)
                scaled = scale_to_horizon(reports[kind], 5.0, 60.0).params
                expected.append((window.timestamps[-1].date(), kind, scaled, cis))
        got = [
            (w.date, w.kind, w.report.params,
             None if w.cis is None else (*w.cis.ci_r, *w.cis.ci_v, *w.cis.ci_s))
            for w in rolling_estimate(panel, config)
        ]
        assert len(got) == len(expected) > 0
        for g, e in zip(got, expected):
            assert g[:2] == e[:2]
            params = (g[2].r_gmv, g[2].v_gmv, g[2].slope)
            assert params == (e[2].r_gmv, e[2].v_gmv, e[2].slope)
            assert g[3] == e[3]

    def test_overflowing_window_loses_only_its_records(self, caplog):
        # returns near 1e150 in the last two windows: v_gmv near 1e297, which
        # a horizon factor of 1e11 scales beyond the float range
        rng = np.random.default_rng(0)
        values = 1e-3 * rng.standard_normal((40, 3))
        values[20:] = 1e150 * (1.0 + 0.1 * rng.standard_normal((20, 3)))
        stamps = make_panel(days=1, rows_per_day=40, p=3).timestamps
        panel = ReturnPanel(stamps, values, ("a", "b", "c"), 5.0)
        for horizon, kept in ((5.0, ["sample", "unbiased"] * 4),
                              (5e11, ["sample", "unbiased"] * 2)):
            config = RollingConfig(
                p=3, n=10, step=10, frequency_minutes=5.0, target_horizon_minutes=horizon,
                kinds=("sample", "unbiased"),
            )
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hdfrontier.pipeline"):
                windows = rolling_estimate(panel, config)
            assert [w.kind.value for w in windows] == kept
            skipped = [r.message for r in caplog.records if "skipped" in r.message]
            assert len(skipped) == 8 - len(kept)
            assert all("parameters must be finite" in message for message in skipped)

    def test_winsorization_tames_outliers(self):
        panel = make_panel(days=8, rows_per_day=30, p=4, seed=14)
        spiked = panel.values.copy()
        spiked[10, 0] = 40.0
        panel = ReturnPanel(panel.timestamps, spiked, panel.asset_labels, 5.0)
        tight = RollingConfig(winsor_quantiles=(0.05, 0.95), kinds=("sample",), **self.CONFIG)
        off = replace(tight, winsor_quantiles=(0.0, 1.0))
        v_tight = rolling_estimate(panel, tight)[0].report.params.v_gmv
        v_off = rolling_estimate(panel, off)[0].report.params.v_gmv
        assert v_tight < v_off


def _record_bits(window):
    """Every field of a WindowEstimate, floats as hex so that -0.0 and 0.0 differ."""
    report, cis = window.report, window.cis
    floats = (*(getattr(report.params, f) for f in ("r_gmv", "v_gmv", "slope")), report.ratio)
    if cis is not None:
        floats += (cis.level, *cis.ci_r, *cis.ci_v, *cis.ci_s)
    return (window.date, window.end, window.kind, report.kind, report.p, report.n,
            report.notes, cis is None, tuple(float(x).hex() for x in floats))


def _one_window_at_a_time(panel, config):
    """rolling_estimate as a loop over windows of the public pieces: (records, skip lines)."""
    panel = aggregate_frequency(panel, round(config.frequency_minutes / panel.frequency_minutes))
    selected = panel.values[:, list(range(config.p))]  # the pipeline's column copy and layout
    low, high = config.winsor_quantiles
    factor = config.target_horizon_minutes / config.frequency_minutes
    records, skipped = [], []
    for start in range(0, panel.n_rows - config.n + 1, config.step):
        stop = start + config.n
        values = selected[start:stop]
        lower = np.quantile(values, low, axis=0, method="lower")
        upper = np.quantile(values, high, axis=0, method="higher")
        moments = sample_moments(np.clip(values, lower, upper).T)
        end = panel.timestamps[stop - 1]
        reports = {}
        for kind in config.kinds:
            try:
                reports[kind] = estimate(moments, kind)
            except HDFrontierError as exc:
                skipped.append(f"window ending {end}: {kind.value} skipped: {exc}")
        for kind, native in reports.items():
            cis = None
            if kind is EstimatorKind.CONSISTENT:
                raw = confidence_intervals(native, level=config.level)
                cis = ConfidenceIntervals(
                    raw.level, tuple(x * factor for x in raw.ci_r),
                    tuple(x * factor for x in raw.ci_v), raw.ci_s,
                )
            scaled = scale_to_horizon(native, config.frequency_minutes,
                                      config.target_horizon_minutes)
            records.append(WindowEstimate(end.date(), kind, scaled, cis, end))
    return records, skipped


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


class TestRollingBlocks:
    """Windows estimated a block at a time against one window at a time, bit for bit."""

    @given(
        p=st.integers(2, 5),
        excess=st.sampled_from([1, 2, 3, 20, 100]),
        rte_only=st.booleans(),
        step=st.sampled_from(["1", "3", "n-1", "n+2"]),
        quantiles=st.sampled_from([(0.0, 1.0), (0.01, 0.99), (0.25, 0.75)]),
        constant=st.booleans(),
        k=st.sampled_from([1, 2]),
        unit_factor=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_matches_one_window_at_a_time(
        self, p, excess, rte_only, step, quantiles, constant, k, unit_factor, seed
    ):
        # rte alone runs at n <= p; with every kind, n = p + 1 and p + 2
        # fail some kinds by shape on every window
        n = max(2, p + 1 - excess) if rte_only else p + excess
        step = {"1": 1, "3": 3, "n-1": n - 1, "n+2": n + 2}[step]
        kinds = ("rte",) if rte_only else tuple(EstimatorKind)
        panel = make_panel(days=8, rows_per_day=30, p=p + 1, seed=seed)
        if constant:  # asset 0 is 0 for rows 40 to 159: windows inside fail
            values = panel.values.copy()
            values[40:160, 0] = 0.0
            panel = ReturnPanel(panel.timestamps, values, panel.asset_labels, 5.0)
        minutes = 5.0 * k
        config = RollingConfig(
            p=p, n=n, step=step, frequency_minutes=minutes,
            target_horizon_minutes=minutes if unit_factor else 60.0,
            winsor_quantiles=quantiles, kinds=kinds,
        )
        want, want_lines = _one_window_at_a_time(panel, config)
        handler = _Lines()
        logger = logging.getLogger("hdfrontier.pipeline")
        logger.addHandler(handler)
        try:
            got = rolling_estimate(panel, config)
        finally:
            logger.removeHandler(handler)
        assert [_record_bits(w) for w in got] == [_record_bits(w) for w in want]
        assert handler.lines == want_lines
        for a, b in zip(got, want):
            assert a.report == b.report and a.cis == b.cis

    def test_block_size(self):
        sizes = [_block_size(390, step) for step in (1, 3, 30, 78, 389, 390, 392)]
        assert sizes == [19, 11, 4, 4, 4, 4, 4]

    @given(
        rows=st.integers(2, 60),
        step=st.integers(1, 12),
        windows=st.integers(1, 8),
        low=st.floats(0.0, 0.5),
        width=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_shared_row_bounds_are_the_full_sort_bounds(self, rows, step, windows, low, width, seed):
        # values on a coarse grid, so that ties are common; windows further
        # apart than the bounds' ranks allow are sorted one by one
        quantiles = (low, min(1.0, low + width))
        ranks = _bound_ranks(rows, quantiles)
        if ranks is None:
            return
        rng = np.random.default_rng(seed)
        columns = rng.integers(-5, 6, (3, rows + (windows - 1) * step)).astype(float)
        starts = range(0, (windows - 1) * step + 1, step)
        lower, upper = _window_bounds(columns, starts, rows, ranks)
        # own memory, not views that keep the sorted values alive
        assert lower.base is None and upper.base is None
        for j, start in enumerate(starts):
            ordered = np.sort(columns[:, start:start + rows], axis=1)
            assert np.array_equal(lower[:, j], ordered[:, ranks[0]])
            assert np.array_equal(upper[:, j], ordered[:, ranks[1]])


class TestRollingConfig:
    def test_defaults_and_coercion(self):
        config = RollingConfig(kinds=("sample", "rte"))
        assert config.kinds == (EstimatorKind.SAMPLE, EstimatorKind.RTE)
        assert config.step is None
        d = config.to_dict()
        assert d["kinds"] == ["sample", "rte"]
        assert d["assets"] is None

    def test_validation(self):
        with pytest.raises(InvalidParams):
            RollingConfig(p=1)
        with pytest.raises(InvalidParams):
            RollingConfig(p=10, n=10)
        with pytest.raises(InvalidParams):
            RollingConfig(step=0)
        with pytest.raises(InvalidParams):
            RollingConfig(p=2, n=1, kinds=("rte",))
        with pytest.raises(InvalidParams, match="at least one estimator kind"):
            RollingConfig(kinds=())
        for minutes in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(InvalidParams):
                RollingConfig(frequency_minutes=minutes)
        with pytest.raises(InvalidRange):
            RollingConfig(winsor_quantiles=(0.9, 0.1))
        with pytest.raises(InvalidRange):
            RollingConfig(level=1.5)
        for name, value in (("p", 2.5), ("n", 10.5), ("step", 1.5)):
            with pytest.raises(InvalidParams, match=f"{name} must be an integer, got {value}"):
                RollingConfig(**{"p": 2, "n": 10, name: value})
        assert RollingConfig(p=np.int64(2), n=np.int64(10), step=np.int64(1)).n == 10

    def test_winsor_endpoints_allowed(self):
        config = RollingConfig(winsor_quantiles=(0.0, 1.0))
        assert config.winsor_quantiles == (0.0, 1.0)


class TestWriteRollingCsv:
    def _windows(self):
        panel = make_panel(days=6, rows_per_day=30, p=4, seed=15)
        config = RollingConfig(p=4, n=60, frequency_minutes=5.0, step=60)
        return rolling_estimate(panel, config)

    def test_layout(self, tmp_path):
        windows = self._windows()
        path = tmp_path / "rolling.csv"
        write_rolling_csv(path, windows, 5.0)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == ROLLING_CSV_COLUMNS
        assert len(rows) == len(windows) + 1
        sample_row = next(row for row in rows[1:] if row[1] == "sample")
        assert sample_row[5:11] == [""] * 6  # no CI cells
        consistent_row = next(row for row in rows[1:] if row[1] == "consistent")
        assert all(cell for cell in consistent_row[5:11])
        assert float(consistent_row[2])  # parses
        assert consistent_row[0] == windows[0].date.isoformat()
        assert consistent_row[13] == "5.0"

    def test_floats_round_trip(self, tmp_path):
        windows = self._windows()
        path = tmp_path / "rolling.csv"
        write_rolling_csv(path, windows, 5.0)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        for row, window in zip(rows, windows):
            assert float(row["r_gmv"]) == window.report.params.r_gmv
            assert float(row["v_gmv"]) == window.report.params.v_gmv
            assert int(row["p"]) == window.report.p

    def test_rewrite_is_byte_identical(self, tmp_path):
        windows = self._windows()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rolling_csv(a, windows, 5.0)
        write_rolling_csv(b, windows, 5.0)
        assert a.read_bytes() == b.read_bytes()


def _csv_module_bytes(path, header, rows) -> bytes:
    """The table as ``csv.writer`` writes it, float cells formatted as ``_write_csv`` states."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )
    return path.read_bytes()


class TestWriteCsv:
    """``_write_csv`` writes the bytes of the ``csv`` module, batch after batch."""

    ROWS = [
        ("plain", 1, 0.1, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e300),
        (np.float64(0.2), np.float64(-0.0), np.float32(0.1), np.int64(7), np.float64("nan")),
        ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", ",", '"'),
        ("a,b", 1), ('say "hi"', 2.5), ("two\nlines", 3), ("cr\rhere",), ('"',), (",",),
        ("",), (), ("", ""), (" lead", "trail ", "\t", "\x0b\x0c"), (None, 1.5), (True, False),
        ("x",), (0,), (-1, 2**70, 3.0), ("é", "€", " "),
    ]

    def test_bytes_match_the_csv_module(self, tmp_path):
        header = ("a", "b,c", 'd"e')
        _write_csv(tmp_path / "got.csv", header, self.ROWS)
        want = _csv_module_bytes(tmp_path / "want.csv", header, self.ROWS)
        assert (tmp_path / "got.csv").read_bytes() == want

    def test_batches_keep_the_row_order(self, tmp_path):
        # quoted and NumPy rows between plain ones, across several batches
        rows = [(i, 0.5 * i, f"r{i}") if i % 97 else (i, np.float64(i), "q,uoted")
                for i in range(2 * _WRITE_BATCH + 5)]
        _write_csv(tmp_path / "got.csv", ("i", "x", "s"), iter(rows))
        want = _csv_module_bytes(tmp_path / "want.csv", ("i", "x", "s"), rows)
        assert (tmp_path / "got.csv").read_bytes() == want

    def test_rolling_csv_matches_the_csv_module(self, tmp_path):
        panel = make_panel(days=5, rows_per_day=30, p=4, seed=21)
        config = RollingConfig(p=4, n=60, step=5, frequency_minutes=5.0)
        windows = rolling_estimate(panel, config)
        write_rolling_csv(tmp_path / "rolling.csv", windows, 5.0)
        rows = [
            (w.date.isoformat(), w.kind.value, w.report.params.r_gmv, w.report.params.v_gmv,
             w.report.params.slope,
             *((*w.cis.ci_r, *w.cis.ci_v, *w.cis.ci_s) if w.cis is not None else ("",) * 6),
             w.report.p, w.report.n, 5.0)
            for w in windows
        ]
        want = _csv_module_bytes(tmp_path / "want.csv", ROLLING_CSV_COLUMNS, rows)
        assert len(windows) > 30
        assert (tmp_path / "rolling.csv").read_bytes() == want
