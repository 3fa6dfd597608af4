"""Parsing of EGMS-Level-3-style persistent-scatterer CSV files.

Expected layout: header row with `pid,easting,northing,mean_velocity,
acceleration,seasonality` followed by one displacement column per acquisition
named `D_YYYYMMDD` (values in mm). UTF-8, ',' delimiter, '.' decimal point.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path

STATIC_COLUMNS = ("pid", "easting", "northing", "mean_velocity", "acceleration", "seasonality")
DATE_COLUMN_PREFIX = "D_"


class IngestError(ValueError):
    pass


def day_of_year(date: dt.date) -> float:
    """1-based ordinal day within the year (366 on leap-year Dec 31)."""
    return float(date.timetuple().tm_yday)


@dataclass(frozen=True)
class AcquisitionCalendar:
    """Strictly increasing acquisition dates shared by every point in a dataset."""

    dates: tuple[dt.date, ...]

    def __post_init__(self):
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise IngestError(f"calendar dates not strictly increasing: {a} then {b}")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def days_of_year(self) -> list[float]:
        return [day_of_year(d) for d in self.dates]


@dataclass
class MeasurementPoint:
    """One persistent-scatterer record: location, static priors, displacement series."""

    point_id: str
    easting: float
    northing: float
    mean_velocity: float   # mm/year
    acceleration: float    # mm/year^2
    seasonality: float     # mm amplitude
    series: list[float] = field(default_factory=list)  # mm, aligned with the calendar


@dataclass
class ParseResult:
    points: list[MeasurementPoint]
    calendar: AcquisitionCalendar
    dropped: list[tuple[int, str]]  # (1-based data row number, reason)

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


def _parse_date_header(name: str):
    if not name.startswith(DATE_COLUMN_PREFIX):
        return None
    try:
        return dt.datetime.strptime(name[len(DATE_COLUMN_PREFIX):], "%Y%m%d").date()
    except ValueError:
        raise IngestError(f"malformed date column {name!r} (want D_YYYYMMDD)") from None


def _rows(reader, path):
    """The reader's rows, with a malformed row (such as a field over the csv
    module's size limit) reported as an IngestError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None


def parse_csv(path) -> ParseResult:
    """Parse one CSV file into points plus the acquisition calendar.

    Rows with unparseable numeric fields are rejected with row-numbered
    diagnostics; rows with missing (empty or NaN) displacements are dropped
    and counted. Both end up in `ParseResult.dropped`.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = _rows(csv.reader(fh), path)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None

        missing = [c for c in STATIC_COLUMNS if c not in header]
        if missing:
            raise IngestError(f"{path}: missing mandatory columns {missing}")
        col_index = {name: i for i, name in enumerate(header)}
        date_cols = [(i, _parse_date_header(name)) for i, name in enumerate(header)
                     if name.startswith(DATE_COLUMN_PREFIX)]
        if not date_cols:
            raise IngestError(f"{path}: no D_YYYYMMDD displacement columns")
        calendar = AcquisitionCalendar(tuple(d for _, d in date_cols))

        points: list[MeasurementPoint] = []
        dropped: list[tuple[int, str]] = []
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                dropped.append((row_no, f"expected {len(header)} fields, got {len(row)}"))
                continue
            try:
                statics = [float(row[col_index[c]]) for c in STATIC_COLUMNS[1:]]
            except ValueError as exc:
                dropped.append((row_no, f"unparseable static field: {exc}"))
                continue
            if any(not math.isfinite(v) for v in statics):
                dropped.append((row_no, "non-finite static field"))
                continue

            series: list[float] = []
            bad = None
            for i, _ in date_cols:
                raw = row[i].strip()
                if raw == "":
                    bad = (row_no, "missing displacement")
                    break
                try:
                    v = float(raw)
                except ValueError:
                    bad = (row_no, f"unparseable displacement {raw!r}")
                    break
                if not math.isfinite(v):
                    bad = (row_no, "missing displacement")
                    break
                series.append(v)
            if bad is not None:
                dropped.append(bad)
                continue

            points.append(MeasurementPoint(row[col_index["pid"]], *statics, series=series))

    return ParseResult(points=points, calendar=calendar, dropped=dropped)


def write_csv(path, points: list[MeasurementPoint], calendar: AcquisitionCalendar) -> None:
    """Write points in the parse_csv layout. Floats are printed with repr so a
    parse of the output reproduces every finite value exactly."""
    for p in points:
        if len(p.series) != len(calendar):
            raise IngestError(
                f"point {p.point_id}: series length {len(p.series)} != calendar length {len(calendar)}"
            )
    header = list(STATIC_COLUMNS) + [f"D_{d.strftime('%Y%m%d')}" for d in calendar.dates]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in points:
            row = [p.point_id] + [
                repr(v) for v in (p.easting, p.northing, p.mean_velocity, p.acceleration, p.seasonality)
            ]
            row += [repr(v) for v in p.series]
            writer.writerow(row)
