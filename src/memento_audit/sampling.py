"""Annual memento selection: one snapshot per interval, first memento as pivot.

Two target modes exist. The drifting anchor advances each target from the
previously *chosen* memento's datetime; the fixed grid lays targets at
pivot + k * interval. Both pick, per target, the not-yet-passed memento
closest to the target, ties going to the earlier one.

`sample_timemap` samples a TimeMap body from linkformat's one-pass index,
reading back the records of the picks alone; `select_annual`, which samples
a parsed TimeMap, is the reference the tests hold it to.  Both run the one
selection loop, `_select`, over the mementos' datetimes as seconds since the
epoch: a link-format datetime (RFC 1123) is always a whole UTC second.
"""

import calendar
import re
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import BinaryIO

from .linkformat import MementoRecord, TimeMap, index_timemap, records_at, uri_date_error
from .timefmt import EPOCH, SECOND

_INTERVAL_RE = re.compile(r"^(\d+)\s*([yd])$")


@dataclass(frozen=True)
class Interval:
    """A sampling stride: whole calendar years or a fixed number of days."""

    years: int = 0
    days: float = 0.0

    def __post_init__(self):
        if (self.years == 0) == (self.days == 0):
            raise ValueError("interval must be a non-zero number of years or of days")

    def advance(self, dt: datetime, k: int = 1) -> datetime:
        """`dt` k intervals on; a year step keeps the month and day, and 29
        February becomes 28 February in a common year.  ValueError past the
        year 9999."""
        if self.years:
            year = dt.year + self.years * k
            leap_day = (dt.month, dt.day) == (2, 29) and not calendar.isleap(year)
            return dt.replace(year=year, day=28 if leap_day else dt.day)
        return dt + timedelta(days=self.days * k)

    def __str__(self) -> str:
        if self.years:
            return f"{self.years}y"
        days = int(self.days) if float(self.days).is_integer() else self.days
        return f"{days}d"


ONE_YEAR = Interval(years=1)


def parse_interval(text: str) -> Interval:
    """Parse "1y" (calendar years) or "365d" (fixed days)."""
    m = _INTERVAL_RE.match(text.strip().lower())
    if m is None:
        raise ValueError(f"interval must look like '1y' or '365d', got {text!r}")
    value, unit = int(m.group(1)), m.group(2)
    return Interval(years=value) if unit == "y" else Interval(days=value)


def extract_date(m: MementoRecord) -> datetime:
    """Return the record's datetime, cross-checked against the memento
    timestamp in its URI, if it has one.

    The two sources must agree to within 24 hours; archives stamp the URI at
    capture time, so a larger gap means corrupt input.
    """
    error = uri_date_error(m.uri, m.datetime)
    if error is not None:
        raise error
    return m.datetime


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
    seconds = [(extract_date(m) - EPOCH) // SECOND for m in tm.mementos]
    return _select(seconds, tm.mementos.__getitem__, interval, fixed_grid)


def sample_timemap(body: BinaryIO, pieces: Iterator[str], interval: Interval = ONE_YEAR,
                   fixed_grid: bool = False) -> AnnualSample:
    """select_annual(parse_link_format(text)), where `pieces` yields the text
    of the TimeMap `body`, a binary file: the same sample, or the same
    error, in memory bounded by index_timemap's 16 bytes per memento plus
    one piece.  The records of the chosen mementos, and of the mementos
    dated to the same second as one, are read back from the body once
    `pieces` is spent.  As from the whole text, an undecodable byte anywhere
    outranks a parse error, and a parse error outranks a URI timestamp that
    disagrees with its datetime.
    """
    seconds, starts, mismatch = index_timemap(pieces)
    if not seconds:
        raise ValueError("TimeMap has no mementos to sample")
    if mismatch is not None:
        raise mismatch
    return _select(seconds, lambda i: records_at(body, seconds, starts, i)[0], interval,
                   fixed_grid)


def _select(seconds: Sequence[int], record_at: Callable[[int], MementoRecord],
            interval: Interval, fixed_grid: bool) -> AnnualSample:
    """The selection loop of select_annual.  `seconds` holds the mementos'
    datetimes as seconds since the epoch, in ascending order; record_at(i)
    is the record of the first memento in URI order among those dated like
    the i-th."""
    pivot = record_at(0)
    selections = [Selection(target=pivot.datetime, chosen=pivot, deviation=timedelta(0))]
    prev, prev_dt = seconds[0], pivot.datetime
    n = len(seconds)
    k = 1
    while (lo := bisect_right(seconds, prev)) < n:
        target = interval.advance(pivot.datetime, k) if fixed_grid else interval.advance(prev_dt)
        offset = target - EPOCH
        pos = bisect_left(seconds, -(-offset // SECOND), lo)  # the first at or after target
        prev = min((seconds[i] for i in (pos - 1, pos) if lo <= i < n),
                   key=lambda second: abs(timedelta(seconds=second) - offset))
        # land on the first record among equal datetimes (URI tie order)
        chosen = record_at(bisect_left(seconds, prev, lo))
        prev_dt = chosen.datetime
        selections.append(Selection(target=target, chosen=chosen, deviation=prev_dt - target))
        k += 1
    return AnnualSample(selections=tuple(selections))
