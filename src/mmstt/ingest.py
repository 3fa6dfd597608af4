"""Parsing of EGMS-Level-3-style persistent-scatterer CSV files.

Expected layout: header row with `pid,easting,northing,mean_velocity,
acceleration,seasonality` followed by one displacement column per acquisition
named `D_YYYYMMDD` (values in mm). UTF-8 with or without a byte-order mark,
',' delimiter, '.' decimal point. A parsed file is one `PointTable`.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
class PointTable:
    """Persistent scatterers as columns; row i of every array is point i."""

    ids: list[str]
    xy: np.ndarray      # (n, 2) easting, northing
    priors: np.ndarray  # (n, 3) mean_velocity mm/year, acceleration mm/year^2, seasonality mm
    series: np.ndarray  # (n, T) displacement in mm, aligned with the calendar

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class ParseResult:
    points: PointTable
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
    module's size limit) reported as an IngestError naming its line, and
    text that is not UTF-8 as one naming the file."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text: {exc}") from None


def _fault(statics: list[str], displacements: list[str]) -> str:
    """Why a row's numeric cells do not all read as finite floats. Statics
    are judged before displacements, and the first faulty displacement
    decides: a blank or non-finite one is missing."""
    try:
        values = [float(c) for c in statics]
    except ValueError as exc:
        return f"unparseable static field: {exc}"
    if not all(map(math.isfinite, values)):
        return "non-finite static field"
    for raw in map(str.strip, displacements):
        try:
            if not (raw and math.isfinite(float(raw))):
                break
        except ValueError:
            return f"unparseable displacement {raw!r}"
    return "missing displacement"


def parse_csv(path) -> ParseResult:
    """Parse one CSV file into a point table plus the acquisition calendar.

    A row whose numeric cells do not all read as finite floats is dropped
    with its 1-based row number and the reason `_fault` gives; so is a row
    with the wrong number of fields. A leading byte-order mark is ignored.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
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

        n_statics = len(STATIC_COLUMNS) - 1
        numeric = [col_index[c] for c in STATIC_COLUMNS[1:]] + [i for i, _ in date_cols]
        ids: list[str] = []
        rows: list[np.ndarray] = []
        dropped: list[tuple[int, str]] = []
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                dropped.append((row_no, f"expected {len(header)} fields, got {len(row)}"))
                continue
            cells = [row[i] for i in numeric]
            try:
                values = np.array(cells, dtype=np.float64)  # float() of each cell
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                dropped.append((row_no, _fault(cells[:n_statics], cells[n_statics:])))
                continue
            ids.append(row[col_index["pid"]])
            rows.append(values)

    table = np.array(rows).reshape(len(rows), len(numeric))
    points = PointTable(ids, table[:, :2], table[:, 2:n_statics], table[:, n_statics:])
    return ParseResult(points=points, calendar=calendar, dropped=dropped)


def write_csv(path, points: PointTable, calendar: AcquisitionCalendar) -> None:
    """Write points in the parse_csv layout, as csv.writer would. Floats are
    printed with repr so a parse of the output reproduces every finite value."""
    if points.series.shape[1] != len(calendar):
        raise IngestError(f"series length {points.series.shape[1]} != calendar length {len(calendar)}")
    header = list(STATIC_COLUMNS) + [f"D_{d.strftime('%Y%m%d')}" for d in calendar.dates]
    numbers = np.hstack([points.xy, points.priors, points.series])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for pid, row in zip(points.ids, numbers):
            # csv's quoting of a field; a float list's repr joins float reprs by ", "
            if any(c in pid for c in ',"\r\n'):
                pid = '"' + pid.replace('"', '""') + '"'
            fh.write(f"{pid},{repr(row.tolist())[1:-1].replace(', ', ',')}\r\n")
