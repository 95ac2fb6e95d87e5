"""Annual memento selection: one snapshot per interval, first memento as pivot.

Two target modes exist. The drifting anchor advances each target from the
previously *chosen* memento's datetime; the fixed grid lays targets at
pivot + k * interval. Both pick, per target, the not-yet-passed memento
closest to the target, ties going to the earlier one.
"""

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from dateutil.relativedelta import relativedelta

from .errors import BadTimestamp, TimestampMismatch
from .linkformat import MementoRecord, TimeMap
from .timefmt import parse_ts14, uri_ts14

_INTERVAL_RE = re.compile(r"^(\d+)\s*([yd])$")

URI_AGREEMENT_TOLERANCE = timedelta(hours=24)


@dataclass(frozen=True)
class Interval:
    """A sampling stride: whole calendar years, a fixed number of days, or both."""

    years: int = 0
    days: float = 0.0

    def __post_init__(self):
        if self.years == 0 and self.days == 0:
            raise ValueError("interval must be non-zero")

    def advance(self, dt: datetime, k: int = 1) -> datetime:
        out = dt
        if self.years:
            out = out + relativedelta(years=self.years * k)
        if self.days:
            out = out + timedelta(days=self.days * k)
        return out

    def __str__(self) -> str:
        if self.days == 0:
            return f"{self.years}y"
        if self.years == 0:
            days = int(self.days) if float(self.days).is_integer() else self.days
            return f"{days}d"
        return f"{self.years}y+{self.days}d"


ONE_YEAR = Interval(years=1)


def parse_interval(text: str) -> Interval:
    """Parse "1y" (calendar years) or "365d" (fixed days)."""
    m = _INTERVAL_RE.match(text.strip().lower())
    if m is None:
        raise ValueError(f"interval must look like '1y' or '365d', got {text!r}")
    value, unit = int(m.group(1)), m.group(2)
    return Interval(years=value) if unit == "y" else Interval(days=value)


def extract_date(m: MementoRecord) -> datetime:
    """Return the record's datetime, cross-checked against any 14-digit
    timestamp embedded in its URI path.

    The two sources must agree to within 24 hours; archives stamp the URI at
    capture time, so a larger gap means corrupt input.
    """
    dt = m.datetime
    ts = uri_ts14(m.uri)
    if ts is None or (dt.tzinfo is timezone.utc and int(ts) == _ts14_value(dt)):
        return dt  # no URI timestamp, or one naming the record's own second
    try:
        uri_dt = parse_ts14(ts)
    except BadTimestamp:
        return dt  # digits that encode no instant are not a timestamp
    if abs(uri_dt - dt) > URI_AGREEMENT_TOLERANCE:
        raise TimestampMismatch(
            f"datetime attribute {dt.isoformat()} vs URI timestamp {ts} in {m.uri}")
    return dt


def _ts14_value(dt: datetime) -> int:
    """YYYYMMDDHHMMSS as a number: equal to int(ts) exactly when the 14 digits
    of ts name the same second as dt's fields."""
    return ((((dt.year * 100 + dt.month) * 100 + dt.day) * 100
             + dt.hour) * 100 + dt.minute) * 100 + dt.second


@dataclass(frozen=True)
class Selection:
    target: datetime
    chosen: MementoRecord
    deviation: timedelta


@dataclass(frozen=True)
class AnnualSample:
    selections: tuple[Selection, ...]

    def __len__(self) -> int:
        return len(self.selections)


def select_annual(tm: TimeMap, interval: Interval = ONE_YEAR,
                  fixed_grid: bool = False) -> AnnualSample:
    """Pick one memento per interval from a TimeMap.

    The first memento is the pivot (deviation zero). Each further target is
    matched by the memento dated strictly after the previous pick that
    minimizes |datetime - target|; ties break toward the earlier memento.
    Selection stops when no memento remains after the last pick.
    """
    if not tm.mementos:
        raise ValueError("TimeMap has no mementos to sample")
    records = list(tm.mementos)
    dts = [extract_date(m) for m in records]

    pivot_dt = dts[0]
    selections = [Selection(target=pivot_dt, chosen=records[0], deviation=timedelta(0))]
    prev_dt = pivot_dt
    k = 1
    n = len(records)
    while True:
        lo = bisect_right(dts, prev_dt)
        if lo >= n:
            break
        target = interval.advance(pivot_dt, k) if fixed_grid else interval.advance(prev_dt, 1)
        pos = bisect_left(dts, target, lo)
        best = None
        for idx in (pos - 1, pos):
            if lo <= idx < n:
                dev = abs(dts[idx] - target)
                if best is None or dev < best[0]:
                    best = (dev, idx)
        assert best is not None
        # land on the first record among equal datetimes (URI tie order)
        chosen_idx = bisect_left(dts, dts[best[1]], lo)
        selections.append(Selection(
            target=target,
            chosen=records[chosen_idx],
            deviation=dts[chosen_idx] - target,
        ))
        prev_dt = dts[chosen_idx]
        k += 1

    return AnnualSample(selections=tuple(selections))
