"""TimeMap model plus application/link-format parsing and serialization.

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
"""

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import date as _date
from datetime import datetime, timedelta
from itertools import chain
from operator import attrgetter
from typing import BinaryIO

from .errors import BadDatetime, MalformedEntry, MissingRole
from .timefmt import (_MONTH_NUMBERS, EPOCH, RFC1123_PATTERN, SECOND, format_rfc1123,
                      parse_rfc1123)

REL_MEMENTO = "memento"
REL_FIRST = "first-memento"
REL_LAST = "last-memento"

_ROLE_RELS = frozenset({"original", "timemap", "timegate", "timebundle"})
_MEMENTO_TOKENS = {"first", "last", "memento"}
_EPOCH_DAY = EPOCH.toordinal()


@dataclass(frozen=True, order=True)
class MementoRecord:
    """One archived snapshot: URI, capture instant, and its rel roles."""

    datetime: datetime
    uri: str
    rels: frozenset[str] = field(default_factory=lambda: frozenset({REL_MEMENTO}))

    @property
    def is_first(self) -> bool:
        return REL_FIRST in self.rels

    @property
    def is_last(self) -> bool:
        return REL_LAST in self.rels


@dataclass(frozen=True)
class TimeMap:
    """Parsed archive index for one original resource."""

    original: str
    timegate_uri: str
    timemap_uri: str
    mementos: tuple[MementoRecord, ...]
    timebundle_uri: str | None = None

    @property
    def first(self) -> MementoRecord:
        return self.mementos[0]

    @property
    def last(self) -> MementoRecord:
        return self.mementos[-1]


#: The four possible rel sets, shared by every record: (first, last) -> rels.
_RELS = {
    (False, False): frozenset({REL_MEMENTO}),
    (True, False): frozenset({REL_MEMENTO, REL_FIRST}),
    (False, True): frozenset({REL_MEMENTO, REL_LAST}),
    (True, True): frozenset({REL_MEMENTO, REL_FIRST, REL_LAST}),
}


def memento_record(uri: str, dt: datetime, first: bool = False, last: bool = False) -> MementoRecord:
    """Build a MementoRecord, always including the base memento rel."""
    return MementoRecord(datetime=dt, uri=uri, rels=_RELS[bool(first), bool(last)])


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


def memento_at(body: BinaryIO, byte: int) -> MementoRecord:
    """The record of the memento entry that memento_entries found at `byte`
    of the UTF-8 `body`, a binary file, read back from the body alone."""
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
    uri, params = _parse_entry(byte, text[:stop])
    tokens = params["rel"].split()
    return memento_record(uri, parse_rfc1123(params["datetime"]),
                          "first" in tokens, "last" in tokens)


def parse_link_format(body: str) -> TimeMap:
    """Parse a link-format TimeMap body; raises as memento_entries does."""
    roles: dict[str, str] = {}
    mementos = [memento_record(uri, EPOCH + timedelta(seconds=second), first, last)
                for _, uri, second, _, first, last in memento_entries((body,), roles)]
    mementos.sort(key=attrgetter("datetime", "uri"))
    return TimeMap(
        original=roles["original"],
        timegate_uri=roles["timegate"],
        timemap_uri=roles["timemap"],
        timebundle_uri=roles.get("timebundle"),
        mementos=tuple(mementos),
    )


def _memento_rel(m: MementoRecord) -> str:
    prefix = ""
    if m.is_first:
        prefix += "first "
    if m.is_last:
        prefix += "last "
    return prefix + "memento"


def serialize_link_format(tm: TimeMap) -> str:
    """Emit the canonical link-format body; output re-parses to an equal TimeMap."""
    entries = []
    if tm.timebundle_uri is not None:
        entries.append(f'<{tm.timebundle_uri}>; rel="timebundle"')
    entries.append(f'<{tm.original}>; rel="original"')
    entries.append(f'<{tm.timemap_uri}>; rel="timemap"; type="application/link-format"')
    entries.append(f'<{tm.timegate_uri}>; rel="timegate"')
    for m in sorted(tm.mementos, key=lambda m: (m.datetime, m.uri)):
        entries.append(
            f'<{m.uri}>; rel="{_memento_rel(m)}"; datetime="{format_rfc1123(m.datetime)}"'
        )
    return ",\n".join(entries)
