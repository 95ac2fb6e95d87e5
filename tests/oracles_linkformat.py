"""Reference implementations of TimeMap parsing and serialisation and of
the URI-timestamp check, for the equivalence tests.

They are the character scanners that the program replaced with compiled
regexes.  They live apart from oracles.py so that perfbench, which imports
oracles.py into the process it measures, does not load them.
"""

from datetime import datetime, timedelta

from memento_audit.errors import BadDatetime, MalformedEntry, MissingRole, TimestampMismatch
from memento_audit.linkformat import MementoRecord, TimeMap
from memento_audit.timefmt import format_rfc1123, parse_rfc1123, parse_ts14


def oracle_split_entries(body: str) -> list[tuple[int, str]]:
    """(byte offset, text) of each non-blank entry, by a character scanner
    that splits on commas outside <...> and outside quoted strings and counts
    each character's UTF-8 bytes."""
    entries = []
    start = 0
    start_byte = byte = 0
    in_quote = False
    in_angle = False
    for i, ch in enumerate(body):
        byte += len(ch.encode("utf-8"))
        if in_quote:
            if ch == '"':
                in_quote = False
        elif in_angle:
            if ch == ">":
                in_angle = False
        elif ch == '"':
            in_quote = True
        elif ch == "<":
            in_angle = True
        elif ch == ",":
            entries.append((start_byte, body[start:i]))
            start, start_byte = i + 1, byte
    entries.append((start_byte, body[start:]))
    return [(off, text) for off, text in entries if text.strip()]


def _oracle_split_params(segment: str) -> list[str]:
    parts = []
    start = 0
    in_quote = False
    for i, ch in enumerate(segment):
        if ch == '"':
            in_quote = not in_quote
        elif ch == ";" and not in_quote:
            parts.append(segment[start:i])
            start = i + 1
    parts.append(segment[start:])
    return parts


def _oracle_parse_entry(offset: int, text: str) -> tuple[str, dict[str, str]]:
    stripped = text.strip()
    if not stripped.startswith("<"):
        raise MalformedEntry(f"entry does not start with '<': {stripped[:40]!r}", offset)
    end = stripped.find(">")
    if end < 0:
        raise MalformedEntry(f"unterminated URI in entry: {stripped[:40]!r}", offset)
    params = {}
    for raw in _oracle_split_params(stripped[end + 1:]):
        raw = raw.strip()
        if not raw:
            continue
        if "=" not in raw:
            raise MalformedEntry(f"parameter without '=': {raw!r}", offset)
        key, value = raw.split("=", 1)
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        params[key.strip().lower()] = value
    return stripped[1:end], params


def oracle_parse_link_format(body: str) -> TimeMap:
    """parse_link_format's contract, one entry and one parameter at a time."""
    roles = {}
    mementos = []
    for offset, text in oracle_split_entries(body):
        uri, params = _oracle_parse_entry(offset, text)
        rel = params.get("rel")
        if rel is None:
            continue
        tokens = rel.split()
        if any(t in ("original", "timemap", "timegate", "timebundle") for t in tokens):
            if len(tokens) != 1:
                raise MalformedEntry(f"role entry with extra rel tokens: {rel!r}", offset)
            if tokens[0] in roles:
                raise MalformedEntry(f"duplicate {tokens[0]!r} entry", offset)
            roles[tokens[0]] = uri
        elif "memento" in tokens and set(tokens) <= {"first", "last", "memento"}:
            if "datetime" not in params:
                raise BadDatetime(f"memento entry without datetime: <{uri}>")
            mementos.append(MementoRecord(datetime=parse_rfc1123(params["datetime"]),
                                          uri=uri, first="first" in tokens,
                                          last="last" in tokens))
    for role in ("original", "timemap", "timegate"):
        if role not in roles:
            raise MissingRole(f"no rel={role!r} entry in TimeMap")
    if sum(m.first for m in mementos) > 1 or sum(m.last for m in mementos) > 1:
        raise MalformedEntry("more than one first-memento or last-memento entry")
    return TimeMap(original=roles["original"], timegate_uri=roles["timegate"],
                   timemap_uri=roles["timemap"], timebundle_uri=roles.get("timebundle"),
                   mementos=tuple(sorted(mementos, key=lambda m: (m.datetime, m.uri))))


def oracle_serialize_link_format(tm: TimeMap) -> str:
    """The canonical link-format text of `tm`: the timebundle entry if any,
    the original, timemap and timegate entries, then one entry per memento
    in (datetime, URI) order, joined by a comma and a newline."""
    entries = []
    if tm.timebundle_uri is not None:
        entries.append(f'<{tm.timebundle_uri}>; rel="timebundle"')
    entries.append(f'<{tm.original}>; rel="original"')
    entries.append(f'<{tm.timemap_uri}>; rel="timemap"; type="application/link-format"')
    entries.append(f'<{tm.timegate_uri}>; rel="timegate"')
    for m in sorted(tm.mementos, key=lambda m: (m.datetime, m.uri)):
        rel = " ".join([*(["first"] if m.first else []), *(["last"] if m.last else []),
                        "memento"])
        entries.append(f'<{m.uri}>; rel="{rel}"; datetime="{format_rfc1123(m.datetime)}"')
    return ",\n".join(entries)


def _oracle_memento_timestamp(uri: str) -> str | None:
    """The timestamp that a memento URI splits at, by a scanner: after an
    http(s) scheme and a non-empty first segment, the first `/`, 14 decimal
    digits and `/` followed by an absolute http(s) original.  As `.` in a
    regex, the text after the first segment holds no newline, but for one
    that ends the URI."""
    scheme = next((s for s in ("http://", "https://") if uri.startswith(s)), None)
    if scheme is None:
        return None
    rest = uri[len(scheme):]
    if rest.endswith("\n"):
        rest = rest[:-1]
    segment_end = rest.find("/")
    if segment_end < 1:
        return None
    for at in range(segment_end, len(rest)):
        if rest[at] == "\n":
            return None
        ts, original = rest[at + 1:at + 15], rest[at + 16:]
        if (rest[at] == "/" and len(ts) == 14 and ts.isdecimal() and rest[at + 15:at + 16] == "/"
                and any(original.startswith(s) and len(original) > len(s)
                        for s in ("http://", "https://"))
                and "\n" not in original):
            return ts
    return None


def oracle_extract_date(m: MementoRecord) -> datetime:
    """extract_date's contract: the record's datetime, unless the timestamp
    that the memento URI splits at names an instant more than 24 hours away."""
    ts = _oracle_memento_timestamp(m.uri)
    if ts is not None:
        try:
            uri_dt = parse_ts14(ts)
        except Exception:
            uri_dt = None
        if uri_dt is not None and abs(uri_dt - m.datetime) > timedelta(hours=24):
            raise TimestampMismatch(
                f"datetime attribute {m.datetime.isoformat()} vs URI timestamp "
                f"{ts} in {m.uri}")
    return m.datetime
