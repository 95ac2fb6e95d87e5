"""TimeMap model plus application/link-format parsing and serialization.

A TimeMap is a comma-separated list of `<URI>; param=value; ...` entries.
Datetime parameter values contain commas ("Tue, 20 Jun 2000 ..."), so a plain
`split(",")` will not do: entries, and the parameters within an entry, are cut
by compiled regexes that step over quoted strings and `<...>` as whole tokens.
An unterminated quote or bracket runs to the end of the text. A TimeMap can
hold 10^5 entries or more, so entries are taken one at a time, from text that
may come in pieces, and every step per entry is a few C-level string or regex
calls.
"""

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain
from operator import attrgetter
from typing import BinaryIO

from .errors import BadDatetime, MalformedEntry, MissingRole
from .timefmt import format_rfc1123, parse_rfc1123

REL_MEMENTO = "memento"
REL_FIRST = "first-memento"
REL_LAST = "last-memento"

_ROLE_RELS = ("original", "timemap", "timegate", "timebundle")
_MEMENTO_TOKENS = {"first", "last", "memento"}


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
# One parameter plus the ';' after it. Stepping past the end of the text yields
# one extra empty parameter, which is blank and so skipped like any other.
_PARAM_RE = re.compile(r'((?:[^;"]+|"[^"]*"?)*)(?:;|\Z)')


def _split_entries(pieces: Iterable[str]) -> Iterator[tuple[int, int, str]]:
    """Yield (offset, byte offset, text) for each non-blank entry of the text
    that `pieces` make up, splitting on commas that sit outside <...> and
    outside quoted strings.  Offsets count from the start of the whole text,
    in characters and in UTF-8 bytes.  The text after a piece's last comma is
    carried into the next piece, so an entry may straddle pieces."""
    match = _ENTRY_RE.match
    carry = ""
    offset = byte = 0  # where carry starts
    scanned = 0  # length of the carry, scanned to its end without meeting a comma
    for piece in chain(pieces, [None]):
        final = piece is None  # the text's end ends its last entry
        text = carry if final else carry + piece
        if not final and len(text) < 2 * scanned:
            carry = text  # one long entry: scan it again only once it has doubled
            continue
        end = len(text)
        pos = 0
        while (stop := match(text, pos).end()) < end or final:
            entry = text[pos:stop]
            if entry.strip():
                yield offset + pos, byte, entry
            if stop >= end:
                return
            byte += 1 + (len(entry) if entry.isascii() else len(entry.encode()))
            pos = stop + 1  # past the comma
        carry = text[pos:]
        offset += pos
        scanned = len(carry)


def _parse_entry(offset: int, text: str) -> tuple[str, dict[str, str]]:
    stripped = text.strip()
    if not stripped.startswith("<"):
        raise MalformedEntry(f"entry does not start with '<': {stripped[:40]!r}", offset)
    end = stripped.find(">")
    if end < 0:
        raise MalformedEntry(f"unterminated URI in entry: {stripped[:40]!r}", offset)
    uri = stripped[1:end]
    params: dict[str, str] = {}
    for raw in _PARAM_RE.findall(stripped, end + 1):
        raw = raw.strip()
        if not raw:
            continue
        key, eq, value = raw.partition("=")
        if not eq:
            raise MalformedEntry(f"parameter without '=': {raw!r}", offset)
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        params[key.strip().lower()] = value
    return uri, params


def memento_entries(pieces: Iterable[str],
                    roles: dict[str, str] | None = None
                    ) -> Iterator[tuple[int, str, datetime, bool, bool]]:
    """Yield (byte offset, URI, datetime, first, last) for each memento entry
    of the link-format text that `pieces` make up, in text order, and put
    each role entry's URI in `roles` under its rel.

    Raises MalformedEntry for unparseable segments or duplicated roles,
    MissingRole when no original/timegate/timemap entry exists, and
    BadDatetime when a memento entry has no valid RFC-1123 datetime.  A
    missing role, and a second first or last memento, are raised once the
    last entry has been read.
    """
    roles = {} if roles is None else roles
    firsts = lasts = 0
    for offset, byte, text in _split_entries(pieces):
        uri, params = _parse_entry(offset, text)
        rel = params.get("rel")
        if rel is None:
            continue
        tokens = rel.split()
        if any(t in _ROLE_RELS for t in tokens):
            if len(tokens) != 1:
                raise MalformedEntry(f"role entry with extra rel tokens: {rel!r}", offset)
            role = tokens[0]
            if role in roles:
                raise MalformedEntry(f"duplicate {role!r} entry", offset)
            roles[role] = uri
            continue
        if "memento" not in tokens or not set(tokens) <= _MEMENTO_TOKENS:
            continue  # entries with unknown rels (license, self, ...) are ignored
        raw_dt = params.get("datetime")
        if raw_dt is None:
            raise BadDatetime(f"memento entry without datetime: <{uri}>")
        first, last = "first" in tokens, "last" in tokens
        firsts += first
        lasts += last
        yield byte, uri, parse_rfc1123(raw_dt), first, last

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
    mementos = [memento_record(uri, dt, first, last)
                for _, uri, dt, first, last in memento_entries((body,), roles)]
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
