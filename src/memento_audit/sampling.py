"""Annual memento selection: one snapshot per interval, first memento as pivot.

Two target modes exist. The drifting anchor advances each target from the
previously *chosen* memento's datetime; the fixed grid lays targets at
pivot + k * interval. Both pick, per target, the not-yet-passed memento
closest to the target, ties going to the earlier one.

`select_annual` samples a parsed TimeMap.  `sample_timemap` samples a TimeMap
body in one pass over its text, keeping a fixed-width index per memento in
place of its record.  Both run the one selection loop, `_select`, over the
mementos' datetimes as seconds since the epoch: a link-format datetime
(RFC 1123) is always a whole UTC second.
"""

import calendar
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from datetime import datetime, timedelta
from operator import attrgetter
from typing import BinaryIO

from .errors import AuditError, BadTimestamp, TimestampMismatch
from .linkformat import MementoRecord, TimeMap, memento_at, memento_entries
from .replay import MEMENTO_SHAPE_RE
from .timefmt import EPOCH, SECOND, parse_ts14

_INTERVAL_RE = re.compile(r"^(\d+)\s*([yd])$")

URI_AGREEMENT_TOLERANCE = timedelta(hours=24)


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


def _uri_date_error(uri: str, dt: datetime) -> TimestampMismatch | None:
    """The error to raise when `uri`'s memento timestamp, the one that
    replay.to_replay_uri reads, lies more than 24 hours from `dt`, else None."""
    shape = MEMENTO_SHAPE_RE.match(uri)
    if shape is None:
        return None  # no memento timestamp: the pick fails on its own in audit
    ts = shape.group(2)
    try:
        uri_dt = parse_ts14(ts)
    except BadTimestamp:
        return None  # digits that encode no instant are not a timestamp
    if abs(uri_dt - dt) > URI_AGREEMENT_TOLERANCE:
        return TimestampMismatch(
            f"datetime attribute {dt.isoformat()} vs URI timestamp {ts} in {uri}")
    return None


def extract_date(m: MementoRecord) -> datetime:
    """Return the record's datetime, cross-checked against the memento
    timestamp in its URI, if it has one.

    The two sources must agree to within 24 hours; archives stamp the URI at
    capture time, so a larger gap means corrupt input.
    """
    error = _uri_date_error(m.uri, m.datetime)
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
    error, in memory bounded by 16 bytes per memento plus one piece.

    Each memento entry leaves only its second since the epoch and its byte
    offset in `body`.  The records of the chosen mementos, and of the
    mementos dated to the same second as one, are read back from the body
    once `pieces` is spent.
    As from the whole text, an undecodable byte anywhere outranks a parse
    error, and a parse error outranks a URI timestamp that disagrees with
    its datetime.  A TimeMap out of datetime order also costs a sort, which
    holds a list of ints per memento while it runs.
    """
    seconds, starts = array("q"), array("q")
    ascending = True
    mismatch = None  # ((second, URI), error) of the first bad entry in that order
    try:
        for byte, uri, second, digits, _, _ in memento_entries(pieces):
            if seconds and second < seconds[-1]:
                ascending = False
            seconds.append(second)
            starts.append(byte)
            shape = MEMENTO_SHAPE_RE.match(uri)
            if shape is None or shape[2] == digits:
                continue  # no memento timestamp, or one naming the entry's own second
            error = _uri_date_error(uri, EPOCH + timedelta(seconds=second))
            if error is not None and (mismatch is None or (second, uri) < mismatch[0]):
                mismatch = (second, uri), error
    except AuditError:
        for _ in pieces:  # a body that is not UTF-8 raises that before a parse error
            pass
        raise
    if not seconds:
        raise ValueError("TimeMap has no mementos to sample")
    if mismatch is not None:
        raise mismatch[1]
    if not ascending:  # a stable sort: entries of one second stay in text order
        order = sorted(range(len(seconds)), key=seconds.__getitem__)
        seconds = array("q", map(seconds.__getitem__, order))
        starts = array("q", map(starts.__getitem__, order))
        del order

    def record_at(i: int) -> MementoRecord:
        run = range(i, bisect_right(seconds, seconds[i], i))
        return min((memento_at(body, starts[j]) for j in run), key=attrgetter("uri"))

    return _select(seconds, record_at, interval, fixed_grid)


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
