import csv
import datetime as dt

import numpy as np
import pytest

from mmstt import ingest
from mmstt.ingest import AcquisitionCalendar, IngestError, PointTable


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


HEADER5 = "pid,easting,northing,mean_velocity,acceleration,seasonality," \
    "D_20180101,D_20180107,D_20180113,D_20180119,D_20180125"


def test_counts_points_and_calendar(tmp_path):
    f = write_lines(tmp_path / "a.csv", [
        HEADER5,
        "p1,0.0,0.0,1.0,0.0,0.5,0.1,0.2,0.3,0.4,0.5",
        "p2,10.0,5.0,-1.0,0.1,0.0,1,2,3,4,5",
        "p3,3.0,7.0,0.0,0.0,0.0,0,0,0,0,0",
    ])
    res = ingest.parse_csv(f)
    assert len(res.points) == 3
    assert len(res.calendar) == 5
    assert res.n_dropped == 0
    assert res.points.series.shape == (3, len(res.calendar))
    assert res.points.ids[0] == "p1"
    assert res.points.priors[1, 0] == -1.0


def test_nan_displacement_dropped_and_counted(tmp_path):
    f = write_lines(tmp_path / "a.csv", [
        HEADER5,
        "p1,0,0,0,0,0,0.1,NaN,0.3,0.4,0.5",
        "p2,0,0,0,0,0,1,2,3,4,5",
    ])
    res = ingest.parse_csv(f)
    assert res.points.ids == ["p2"]
    assert res.n_dropped == 1
    assert res.dropped[0][0] == 1
    assert "missing" in res.dropped[0][1]


def test_unparseable_field_rejected_with_row_number(tmp_path):
    f = write_lines(tmp_path / "a.csv", [
        HEADER5,
        "p1,0,0,0,0,0,1,2,3,4,5",
        "p2,oops,0,0,0,0,1,2,3,4,5",
        "p3,0,0,0,0,0,1,2,bad,4,5",
    ])
    res = ingest.parse_csv(f)
    assert len(res.points) == 1
    rows = [r for r, _ in res.dropped]
    assert rows == [2, 3]
    assert "static" in res.dropped[0][1]


def test_day_of_year_from_date_columns(tmp_path):
    f = write_lines(tmp_path / "a.csv", [
        "pid,easting,northing,mean_velocity,acceleration,seasonality,D_20180101,D_20180107",
        "p1,0,0,0,0,0,1,2",
    ])
    res = ingest.parse_csv(f)
    assert res.calendar.days_of_year == [1.0, 7.0]


def test_missing_mandatory_column(tmp_path):
    f = write_lines(tmp_path / "a.csv", [
        "pid,easting,northing,mean_velocity,acceleration,D_20180101",
        "p1,0,0,0,0,1",
    ])
    with pytest.raises(IngestError, match="seasonality"):
        ingest.parse_csv(f)


class TestDayOfYear:
    def test_jan_first(self):
        assert ingest.day_of_year(dt.date(2018, 1, 1)) == 1.0

    def test_non_leap_dec31(self):
        assert ingest.day_of_year(dt.date(2018, 12, 31)) == 365.0

    def test_leap_year_oracle(self):
        # independent calendar arithmetic: count days since Jan 1
        d = dt.date(2020, 12, 31)
        assert ingest.day_of_year(d) == (d - dt.date(2020, 1, 1)).days + 1 == 366.0


def test_calendar_requires_strictly_increasing_dates():
    with pytest.raises(IngestError, match="strictly increasing"):
        AcquisitionCalendar((dt.date(2018, 1, 8), dt.date(2018, 1, 1)))


def test_write_parse_round_trip_exact(tmp_path):
    cal = AcquisitionCalendar((dt.date(2019, 3, 1), dt.date(2019, 3, 9)))
    pts = PointTable(
        ["a", "b"],
        xy=np.array([[1.25, -3.5], [0.0, 1e6]]),
        priors=np.array([[0.1234567890123456, -7.1e-12, 2.0], [1.0 / 3.0, 2.0 / 7.0, 0.0]]),
        series=np.array([[0.1, -9.87654321e3], [1e-30, 5.5]]),
    )
    path = tmp_path / "round.csv"
    ingest.write_csv(path, pts, cal)
    res = ingest.parse_csv(path)
    assert res.calendar.dates == cal.dates
    assert res.n_dropped == 0
    back = res.points
    assert back.ids == pts.ids
    assert np.array_equal(back.xy, pts.xy)
    assert np.array_equal(back.priors, pts.priors)
    assert np.array_equal(back.series, pts.series)


def test_write_csv_bytes_match_csv_writer(tmp_path):
    cal = AcquisitionCalendar((dt.date(2019, 3, 1), dt.date(2019, 3, 9), dt.date(2019, 3, 17)))
    pts = PointTable(
        ["a,b", 'q"t', " lead", "", "line\nbreak", "cr\rhere", "plain"],
        xy=np.array([[-0.0, 1e-30], [1e300, 5e-324], [0.1, -2.5], [3.0, 4.0], [5.0, 6.0],
                     [7.0, 8.0], [9.0, 1e6]]),
        priors=np.tile([-0.0, 1.0 / 3.0, 2.5e-310], (7, 1)),
        series=np.array([[1e-30, -0.0, 5e-324], [1e300, -1e300, 0.0], [0.1, 0.2, 0.3],
                         [1.0, 2.0, 3.0], [-4.0, -5.0, -6.0], [1e16, 1e-16, 123456789.0],
                         [np.pi, -np.e, 7.0]]),
    )
    path = tmp_path / "fast.csv"
    ingest.write_csv(path, pts, cal)

    reference = tmp_path / "reference.csv"
    with reference.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ingest.STATIC_COLUMNS) + ["D_20190301", "D_20190309", "D_20190317"])
        for pid, row in zip(pts.ids, np.hstack([pts.xy, pts.priors, pts.series])):
            writer.writerow([pid, *map(repr, row.tolist())])
    assert path.read_bytes() == reference.read_bytes()
    assert ingest.parse_csv(path).points.ids == pts.ids


def test_row_with_several_faults_reports_the_first(tmp_path):
    f = write_lines(tmp_path / "a.csv", [
        HEADER5,
        "p1,0,0,0,0,0,1,,x,NaN,5",       # blank before unparseable
        "p2,0,0,0,0,0,1,NaN,x,,5",       # NaN before unparseable
        "p3,0,0,0,0,0,1,x,,NaN,5",       # unparseable before blank and NaN
        "p4,0,inf,0,0,0,1,x,,NaN,5",     # a non-finite static outranks the series
        "p5,0,0,0,0,0, ,2,3,4,inf",      # blank after stripping, before inf
        "p6,inf,oops,0,0,0,1,2,3,4,5",   # an unparseable static outranks a non-finite one
        "p7,0,0,0,0,0,1,2,3,4,5",
    ])
    res = ingest.parse_csv(f)
    assert res.points.ids == ["p7"]
    assert res.dropped == [
        (1, "missing displacement"),
        (2, "missing displacement"),
        (3, "unparseable displacement 'x'"),
        (4, "non-finite static field"),
        (5, "missing displacement"),
        (6, "unparseable static field: could not convert string to float: 'oops'"),
    ]


def test_byte_order_mark_is_ignored(tmp_path):
    f = tmp_path / "excel.csv"
    f.write_text("\ufeff" + HEADER5 + "\np1,0,0,0,0,0,1,2,3,4,5\n", encoding="utf-8")
    res = ingest.parse_csv(f)
    assert res.points.ids == ["p1"]
    assert res.n_dropped == 0


def test_non_utf8_file_is_named(tmp_path):
    f = tmp_path / "latin1.csv"
    f.write_bytes((HEADER5 + "\np\xe9,0,0,0,0,0,1,2,3,4,5\n").encode("latin-1"))
    with pytest.raises(IngestError, match="latin1.csv: not UTF-8 text"):
        ingest.parse_csv(f)
