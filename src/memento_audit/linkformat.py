"""The TimeMap's one reader and one writer: application/link-format
(RFC 6690, RFC 7089).

A TimeMap is a comma-separated list of `<URI>; param=value; ...` entries.
Datetime parameter values contain commas ("Tue, 20 Jun 2000 ..."), so a plain
`split(",")` will not do: entries, and the parameters within an entry, are cut
by compiled regexes that step over quoted strings and `<...>` as whole tokens.
An unterminated quote or bracket runs to the end of the text. A TimeMap can
hold 10^5 entries or more, so entries are taken one at a time, from text that
may come in pieces, and every step per entry is a few C-level string or regex
calls.

Archives serve every memento entry in the one form of RFC 7089's examples,
`<URI>; rel="memento"; datetime="Www, DD Mon YYYY HH:MM:SS GMT"`, with
"first " or "last " before "memento" at the TimeMap's ends.  An entry in that
form is read with one regex match where it starts, never cut out or split into
parameters, and its second since the epoch is counted from the match's fields
with integer arithmetic; only the last calendar day seen is remembered.  Every
other entry, and one in that form whose fields name no instant, goes through
the general parser, which alone defines the grammar and its errors.

`index_timemap` reads the text once and keeps 16 bytes per memento: its
second since the epoch and the byte offset of its entry in the body.
`read_mementos` reads the records back from the body by offset, in
(datetime, URI) order, and `serialize_link_format` writes the canonical text
entry by entry, so a TimeMap of any size is read, sampled and printed
without holding a record per memento.
"""

import io
import re
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import date as _date
from datetime import datetime, timedelta
from itertools import chain
from operator import attrgetter
from typing import BinaryIO, NamedTuple

from .errors import (AuditError, BadDatetime, BadTimestamp, MalformedEntry, MissingRole,
                     TimestampMismatch)
from .replay import MEMENTO_SHAPE_RE
from .timefmt import (_MONTH_NUMBERS, EPOCH, RFC1123_PATTERN, SECOND, format_rfc1123,
                      parse_rfc1123, parse_ts14)

_ROLE_RELS = frozenset({"original", "timemap", "timegate", "timebundle"})
_MEMENTO_TOKENS = {"first", "last", "memento"}
_EPOCH_DAY = EPOCH.toordinal()

URI_AGREEMENT_TOLERANCE = timedelta(hours=24)


class MementoRecord(NamedTuple):
    """One archived snapshot: its capture instant, its URI, and whether its
    entry is the TimeMap's first or last memento."""

    datetime: datetime
    uri: str
    first: bool = False
    last: bool = False


@dataclass(frozen=True)
class TimeMap:
    """A whole TimeMap in memory, the form the tests compare against."""

    original: str
    timegate_uri: str
    timemap_uri: str
    mementos: tuple[MementoRecord, ...]
    timebundle_uri: str | None = None


# One entry: everything up to the next comma outside quotes and <...>.
_ENTRY_RE = re.compile(r'(?:[^,"<]+|"[^"]*"?|<[^>]*>?)*')
# A memento entry in the one form archives serve (RFC 7089's examples), with
# blank space around it.  It ends at a comma or at the end of the text, as the
# entry that _ENTRY_RE finds there does.  The lookahead turns an entry of any
# other form away before the URI is captured: backing out of the capture
# would cost a step per character.
_MEMENTO_RE = re.compile(
    r'[ \t\r\n]*<(?=[^>]*>; rel=")([^>]*)>; rel="(first )?(last )?memento"; '
    rf'datetime="{RFC1123_PATTERN}"[ \t\r\n]*(?=,|\Z)', re.ASCII)
# One parameter plus the ';' after it. Stepping past the end of the text yields
# one extra empty parameter, which is blank and so skipped like any other.
_PARAM_RE = re.compile(r'((?:[^;"]+|"[^"]*"?)*)(?:;|\Z)')


def _split_entries(pieces: Iterable[str]) -> Iterator[tuple[int, str | re.Match]]:
    """Yield (byte offset, text) for each non-blank entry of the text that
    `pieces` make up, splitting on commas that sit outside <...> and outside
    quoted strings.  The offset counts the UTF-8 bytes before the entry in
    the whole text.  The text after a piece's last comma is carried into the
    next piece, so an entry may straddle pieces.  A memento entry in the
    canonical form is yielded as its _MEMENTO_RE match in place of its text,
    and is never sliced out."""
    fast, match = _MEMENTO_RE.match, _ENTRY_RE.match
    carry = ""
    byte = 0  # where the next entry starts
    scanned = 0  # length of the carry, scanned to its end without meeting a comma
    for piece in chain(pieces, [None]):
        final = piece is None  # the text's end ends its last entry
        text = carry if final else carry + piece
        if not final and len(text) < 2 * scanned:
            carry = text  # one long entry: scan it again only once it has doubled
            continue
        end = len(text)
        ascii_only = text.isascii()  # then an entry's length in characters is its length in bytes
        pos = 0
        while True:
            m = fast(text, pos)
            if m is not None and ((stop := m.end()) < end or final):
                yield byte, m
            else:
                stop = match(text, pos).end()
                if stop >= end and not final:
                    break
                entry = text[pos:stop]
                if entry.strip():
                    yield byte, entry
            if stop >= end:
                return
            byte += 1 + (stop - pos if ascii_only else len(text[pos:stop].encode()))
            pos = stop + 1  # past the comma
        carry = text[pos:]
        scanned = len(carry)


def _parse_entry(byte: int, text: str) -> tuple[str, dict[str, str]]:
    stripped = text.strip()
    if not stripped.startswith("<"):
        raise MalformedEntry(f"entry does not start with '<': {stripped[:40]!r}", byte)
    end = stripped.find(">")
    if end < 0:
        raise MalformedEntry(f"unterminated URI in entry: {stripped[:40]!r}", byte)
    uri = stripped[1:end]
    params: dict[str, str] = {}
    for raw in _PARAM_RE.findall(stripped, end + 1):
        raw = raw.strip()
        if not raw:
            continue
        key, eq, value = raw.partition("=")
        if not eq:
            raise MalformedEntry(f"parameter without '=': {raw!r}", byte)
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        params[key.strip().lower()] = value
    return uri, params


def memento_entries(pieces: Iterable[str],
                    roles: dict[str, str] | None = None
                    ) -> Iterator[tuple[int, str, int, str, bool, bool]]:
    """Yield (byte offset, URI, second since the epoch, datetime as the 14
    digits YYYYMMDDhhmmss, first, last) for each memento entry of the
    link-format text that `pieces` make up, in text order, and put each role
    entry's URI in `roles` under its rel.

    Raises MalformedEntry for unparseable segments or duplicated roles,
    MissingRole when no original/timegate/timemap entry exists, and
    BadDatetime when a memento entry has no valid RFC-1123 datetime.  A
    missing role, and a second first or last memento, are raised once the
    last entry has been read.
    """
    roles = {} if roles is None else roles
    firsts = lasts = 0
    # the last calendar day seen: its (DD, Mon, YYYY), its first second and its YYYYMMDD
    date = day = ymd = None
    for byte, entry in _split_entries(pieces):
        if isinstance(entry, re.Match):  # the canonical form, its digits ASCII
            uri, first, last, _, dom, mon, year, h, mi, s = entry.groups()
            if (dom, mon, year) != date:
                try:
                    day = (_date(int(year), _MONTH_NUMBERS[mon], int(dom)).toordinal()
                           - _EPOCH_DAY) * 86400
                except ValueError:  # no such day: the general path raises for it
                    day = date = None
                else:
                    date, ymd = (dom, mon, year), f"{year}{_MONTH_NUMBERS[mon]:02d}{dom}"
            if day is not None and h < "24" and mi < "60" and s < "60":  # two digits: as text
                first, last = first is not None, last is not None
                firsts += first
                lasts += last
                yield (byte, uri, day + int(h) * 3600 + int(mi) * 60 + int(s),
                       ymd + h + mi + s, first, last)
                continue
            entry = entry[0]
        uri, params = _parse_entry(byte, entry)
        rel = params.get("rel")
        if rel is None:
            continue
        tokens = rel.split()
        if not _ROLE_RELS.isdisjoint(tokens):
            if len(tokens) != 1:
                raise MalformedEntry(f"role entry with extra rel tokens: {rel!r}", byte)
            role = tokens[0]
            if role in roles:
                raise MalformedEntry(f"duplicate {role!r} entry", byte)
            roles[role] = uri
            continue
        if "memento" not in tokens or not set(tokens) <= _MEMENTO_TOKENS:
            continue  # entries with unknown rels (license, self, ...) are ignored
        raw_dt = params.get("datetime")
        if raw_dt is None:
            raise BadDatetime(f"memento entry without datetime: <{uri}>")
        dt = parse_rfc1123(raw_dt)
        first, last = "first" in tokens, "last" in tokens
        firsts += first
        lasts += last
        yield (byte, uri, (dt - EPOCH) // SECOND, "%04d%02d%02d%02d%02d%02d" % (
            dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second), first, last)

    for role in ("original", "timemap", "timegate"):
        if role not in roles:
            raise MissingRole(f"no rel={role!r} entry in TimeMap")
    if firsts > 1 or lasts > 1:
        raise MalformedEntry("more than one first-memento or last-memento entry")


def uri_date_error(uri: str, dt: datetime) -> TimestampMismatch | None:
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


def index_timemap(pieces: Iterable[str], roles: dict[str, str] | None = None
                  ) -> tuple[array, array, TimestampMismatch | None]:
    """Read the link-format text that `pieces` make up once, and return
    (seconds, starts, mismatch): each memento's second since the epoch and
    the byte offset of its entry, in ascending order of second and in text
    order within a second, and the error of the first memento in (second,
    URI) order whose URI timestamp disagrees with its datetime, or None.
    Role entries go into `roles`, as in memento_entries.

    Raises as memento_entries does, but a parse error waits for `pieces` to
    be spent, so that a body that is not UTF-8 raises that first, as
    decoding it whole would.  A TimeMap out of datetime order also costs a
    sort, which holds a list of ints per memento while it runs.
    """
    seconds, starts = array("q"), array("q")
    ascending = True
    mismatch = None  # ((second, URI), error) of the first bad entry in that order
    try:
        for byte, uri, second, digits, _, _ in memento_entries(pieces, roles):
            if seconds and second < seconds[-1]:
                ascending = False
            seconds.append(second)
            starts.append(byte)
            shape = MEMENTO_SHAPE_RE.match(uri)
            if shape is None or shape[2] == digits:
                continue  # no memento timestamp, or one naming the entry's own second
            error = uri_date_error(uri, EPOCH + timedelta(seconds=second))
            if error is not None and (mismatch is None or (second, uri) < mismatch[0]):
                mismatch = (second, uri), error
    except AuditError:
        for _ in pieces:  # a body that is not UTF-8 raises that before a parse error
            pass
        raise
    if not ascending:  # a stable sort: entries of one second stay in text order
        order = sorted(range(len(seconds)), key=seconds.__getitem__)
        seconds = array("q", map(seconds.__getitem__, order))
        starts = array("q", map(starts.__getitem__, order))
        del order
    return seconds, starts, None if mismatch is None else mismatch[1]


def memento_at(body: BinaryIO, byte: int, second: int) -> MementoRecord:
    """The record of the memento entry that memento_entries found at `byte`
    of the UTF-8 `body`, a binary file, and dated to `second` since the epoch;
    an entry in the canonical form is read back with one _MEMENTO_RE match."""
    size = 512
    while True:
        body.seek(byte)
        window = body.read(size)
        # A character cut by the window's end is dropped: the entry then runs
        # to the window's end, and the window grows.
        text = window.decode("utf-8", "ignore")
        stop = _ENTRY_RE.match(text).end()
        if stop < len(text) or len(window) < size:
            break
        size *= 2
    dt = EPOCH + timedelta(seconds=second)
    m = _MEMENTO_RE.match(text)  # it ends where the entry does: at a comma or the text's end
    if m is not None:
        return MementoRecord(dt, m[1], m[2] is not None, m[3] is not None)
    uri, params = _parse_entry(byte, text[:stop])
    tokens = params["rel"].split()
    return MementoRecord(dt, uri, "first" in tokens, "last" in tokens)


def records_at(body: BinaryIO, seconds: Sequence[int], starts: Sequence[int],
               i: int) -> list[MementoRecord]:
    """The records of index_timemap's i-th memento and of those after it
    dated to the same second, read back from `body` in URI order; of equal
    URIs, the first in the text comes first."""
    run = range(i, bisect_right(seconds, seconds[i], i))
    return sorted((memento_at(body, starts[j], seconds[i]) for j in run), key=attrgetter("uri"))


def read_mementos(body: BinaryIO, seconds: Sequence[int], starts: Sequence[int]
                  ) -> Iterator[MementoRecord]:
    """The records of every memento that index_timemap found in `body`, in
    (datetime, URI) order, read back one second's run at a time."""
    i = 0
    while i < len(seconds):
        run = records_at(body, seconds, starts, i)
        yield from run
        i += len(run)


def parse_link_format(body: str) -> TimeMap:
    """The whole TimeMap that the link-format text `body` holds, read by
    index_timemap and read_mementos; raises as memento_entries does."""
    roles: dict[str, str] = {}
    seconds, starts, _ = index_timemap((body,), roles)
    return TimeMap(
        original=roles["original"],
        timegate_uri=roles["timegate"],
        timemap_uri=roles["timemap"],
        timebundle_uri=roles.get("timebundle"),
        mementos=tuple(read_mementos(io.BytesIO(body.encode()), seconds, starts)),
    )


def serialize_link_format(roles: dict[str, str], mementos: Iterable[MementoRecord]
                          ) -> Iterator[str]:
    """The canonical link-format text of a TimeMap, in pieces: the entries
    of its `roles` (a URI per rel, as memento_entries gives them), then one
    per memento of `mementos`, in the order given, each piece after the
    first starting with the comma and newline that separate entries.  The
    text reads back to the same roles and records."""
    if "timebundle" in roles:
        yield f'<{roles["timebundle"]}>; rel="timebundle",\n'
    yield (f'<{roles["original"]}>; rel="original",\n'
           f'<{roles["timemap"]}>; rel="timemap"; type="application/link-format",\n'
           f'<{roles["timegate"]}>; rel="timegate"')
    for m in mementos:
        yield (f',\n<{m.uri}>; rel="{"first " * m.first}{"last " * m.last}memento"; '
               f'datetime="{format_rfc1123(m.datetime)}"')
