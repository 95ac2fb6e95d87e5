"""Datetime formats used on the wire: RFC-1123 and 14-digit archive timestamps."""

import re
from datetime import datetime, timezone
from urllib.parse import urlsplit

from .errors import BadDatetime, BadTimestamp

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUMBERS = {name: number for number, name in enumerate(_MONTHS, 1)}

# Strict RFC-1123, always GMT. Built by hand so the parser is locale-independent.
_RFC1123_RE = re.compile(
    r"^(?P<day>Mon|Tue|Wed|Thu|Fri|Sat|Sun), "
    r"(?P<dom>\d{2}) (?P<mon>Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
    r"(?P<year>\d{4}) (?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2}) GMT$"
)

_TS14_RE = re.compile(r"^\d{14}$")
# `scheme://authority` then the path, up to any query or fragment. Where this
# matches, the authority and the path are the netloc and the path urlsplit
# gives: the URI starts with a letter (no leading space to strip), holds no
# tab, CR or LF before the path's end (which urlsplit deletes), and its
# authority is ASCII without brackets (which urlsplit checks further).
_ABSOLUTE_URI_PATH_RE = re.compile(
    r"[A-Za-z][A-Za-z0-9+.-]*://([^/?#\[\]\t\r\n\x80-\U0010ffff]*)"
    r"((?:/[^?#\t\r\n]*)?)(?=[?#]|\Z)"
)


def parse_rfc1123(value: str) -> datetime:
    """Parse an RFC-1123 datetime string into an aware UTC datetime.

    Only the exact `Www, DD Mon YYYY HH:MM:SS GMT` form is accepted; the
    weekday name is not cross-checked against the date.
    """
    m = _RFC1123_RE.match(value.strip())
    if m is None:
        raise BadDatetime(f"not an RFC-1123 datetime: {value!r}")
    _, dom, mon, year, hour, minute, second = m.groups()
    try:
        return datetime(int(year), _MONTH_NUMBERS[mon], int(dom), int(hour),
                        int(minute), int(second), 0, timezone.utc)  # positional: cheaper
    except ValueError as exc:
        raise BadDatetime(f"impossible RFC-1123 datetime: {value!r}") from exc


def format_rfc1123(dt: datetime) -> str:
    dt = to_utc(dt)
    return "{}, {:02d} {} {:04d} {:02d}:{:02d}:{:02d} GMT".format(
        _DAYS[dt.weekday()], dt.day, _MONTHS[dt.month - 1],
        dt.year, dt.hour, dt.minute, dt.second,
    )


def parse_ts14(ts: str) -> datetime:
    """Parse a 14-digit YYYYMMDDHHMMSS archive timestamp as UTC."""
    if not _TS14_RE.match(ts):
        raise BadTimestamp(f"not a 14-digit timestamp: {ts!r}")
    try:
        return datetime(
            int(ts[0:4]), int(ts[4:6]), int(ts[6:8]),
            int(ts[8:10]), int(ts[10:12]), int(ts[12:14]),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise BadTimestamp(f"timestamp encodes no valid instant: {ts!r}") from exc


def split_netloc_path(uri: str) -> tuple[str, str]:
    """The (netloc, path) pair that urlsplit gives for `uri`, read with one
    regex where that is safe and from urlsplit otherwise."""
    m = _ABSOLUTE_URI_PATH_RE.match(uri)
    if m is not None:
        return m.groups()
    parts = urlsplit(uri)
    return parts.netloc, parts.path


def to_utc(dt: datetime) -> datetime:
    """Coerce to an aware UTC datetime; naive input is taken as UTC."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def utc_now_s() -> datetime:
    """The current UTC instant at whole-second precision — the granularity
    every serialized format here carries, so recorded instants survive a
    save/load round trip unchanged."""
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_iso(dt: datetime) -> str:
    return to_utc(dt).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_iso(value: str) -> datetime:
    return to_utc(datetime.fromisoformat(value.replace("Z", "+00:00")))
