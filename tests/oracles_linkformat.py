"""Reference implementations of TimeMap parsing and of the URI-timestamp
check, for the equivalence tests in test_equivalence.py.

They are the character scanner and the urlsplit-based check that the program
replaced with compiled regexes and a cheaper path extraction.  They live apart
from oracles.py so that perfbench, which imports oracles.py into the process it
measures, does not load them.
"""

import re
from datetime import datetime, timedelta
from urllib.parse import urlsplit

from memento_audit.errors import BadDatetime, MalformedEntry, MissingRole, TimestampMismatch
from memento_audit.linkformat import MementoRecord, TimeMap
from memento_audit.timefmt import parse_rfc1123, parse_ts14


def oracle_split_entries(body: str) -> list[tuple[int, str]]:
    """(offset, text) of each non-blank entry, by a character scanner that
    splits on commas outside <...> and outside quoted strings."""
    entries = []
    start = 0
    in_quote = False
    in_angle = False
    for i, ch in enumerate(body):
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
            entries.append((start, body[start:i]))
            start = i + 1
    entries.append((start, body[start:]))
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
            rels = {"memento"} | {f"{t}-memento" for t in tokens if t != "memento"}
            mementos.append(MementoRecord(datetime=parse_rfc1123(params["datetime"]),
                                          uri=uri, rels=frozenset(rels)))
    for role in ("original", "timemap", "timegate"):
        if role not in roles:
            raise MissingRole(f"no rel={role!r} entry in TimeMap")
    if sum(m.is_first for m in mementos) > 1 or sum(m.is_last for m in mementos) > 1:
        raise MalformedEntry("more than one first-memento or last-memento entry")
    return TimeMap(original=roles["original"], timegate_uri=roles["timegate"],
                   timemap_uri=roles["timemap"], timebundle_uri=roles.get("timebundle"),
                   mementos=tuple(sorted(mementos, key=lambda m: (m.datetime, m.uri))))


def oracle_extract_date(m: MementoRecord) -> datetime:
    """extract_date's contract, on the path exactly as urlsplit gives it."""
    seg = re.search(r"/(\d{14})(?=/|$)", urlsplit(m.uri).path)
    if seg is not None:
        try:
            uri_dt = parse_ts14(seg.group(1))
        except Exception:
            uri_dt = None
        if uri_dt is not None and abs(uri_dt - m.datetime) > timedelta(hours=24):
            raise TimestampMismatch(
                f"datetime attribute {m.datetime.isoformat()} vs URI timestamp "
                f"{seg.group(1)} in {m.uri}")
    return m.datetime
