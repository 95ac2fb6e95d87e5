import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memento_audit.errors import BadDatetime, MalformedEntry, MissingRole
from memento_audit.linkformat import (
    MementoRecord,
    TimeMap,
    parse_link_format,
    serialize_link_format,
)
from oracles_linkformat import oracle_serialize_link_format

SIMPLE = """\
<http://archive.example/list/timebundle/http://a.example/>; rel="timebundle",
<http://a.example/>; rel="original",
<http://archive.example/list/timemap/link/http://a.example/>; rel="timemap"; type="application/link-format",
<http://archive.example/timegate/http://a.example/>; rel="timegate",
<http://archive.example/memento/20000101000000/http://a.example/>; rel="first memento"; datetime="Sat, 01 Jan 2000 00:00:00 GMT",
<http://archive.example/memento/20050601120000/http://a.example/>; rel="memento"; datetime="Wed, 01 Jun 2005 12:00:00 GMT",
<http://archive.example/memento/20100310080910/http://a.example/>; rel="last memento"; datetime="Wed, 10 Mar 2010 08:09:10 GMT"
"""


def test_parse_roles_and_mementos():
    tm = parse_link_format(SIMPLE)
    assert tm.original == "http://a.example/"
    assert tm.timegate_uri == "http://archive.example/timegate/http://a.example/"
    assert tm.timemap_uri == "http://archive.example/list/timemap/link/http://a.example/"
    assert tm.timebundle_uri == "http://archive.example/list/timebundle/http://a.example/"
    assert len(tm.mementos) == 3
    first, _, last = tm.mementos
    assert first.first and not first.last
    assert last.last and not last.first
    assert first.datetime == datetime(2000, 1, 1, tzinfo=timezone.utc)
    assert last.datetime == datetime(2010, 3, 10, 8, 9, 10, tzinfo=timezone.utc)


def test_mementos_sorted_even_if_input_shuffled():
    lines = SIMPLE.strip().split(",\n")
    shuffled = ",\n".join([lines[0], lines[1], lines[2], lines[3],
                           lines[6], lines[4], lines[5]])
    tm = parse_link_format(shuffled)
    dts = [m.datetime for m in tm.mementos]
    assert dts == sorted(dts)


def test_datetime_commas_do_not_split_entries():
    # RFC-1123 datetimes contain a comma; the entry scanner must not split there.
    tm = parse_link_format(SIMPLE)
    assert all(m.datetime.tzinfo is not None for m in tm.mementos)


def test_missing_role_raises():
    body = "\n".join(line for line in SIMPLE.splitlines() if "timegate" not in line)
    with pytest.raises(MissingRole):
        parse_link_format(body)


def test_duplicate_original_raises():
    body = '<http://b.example/>; rel="original",\n' + SIMPLE
    with pytest.raises(MalformedEntry):
        parse_link_format(body)


def test_two_first_mementos_raise():
    extra = ('<http://archive.example/memento/20010101000000/http://a.example/>; '
             'rel="first memento"; datetime="Mon, 01 Jan 2001 00:00:00 GMT",\n')
    with pytest.raises(MalformedEntry):
        parse_link_format(extra + SIMPLE)


def test_memento_without_datetime_raises():
    body = SIMPLE.replace('; datetime="Wed, 01 Jun 2005 12:00:00 GMT"', "", 1)
    with pytest.raises(BadDatetime):
        parse_link_format(body)


def test_memento_with_invalid_datetime_raises():
    body = SIMPLE.replace("Wed, 01 Jun 2005 12:00:00 GMT", "yesterday-ish", 1)
    with pytest.raises(BadDatetime):
        parse_link_format(body)


def test_malformed_entry_reports_offset():
    body = SIMPLE + ",\nthis is not a link entry"
    with pytest.raises(MalformedEntry) as exc_info:
        parse_link_format(body)
    assert exc_info.value.offset is not None
    assert exc_info.value.offset > 0


def test_malformed_entry_offset_counts_bytes():
    body = '<http://a.example/\u00e9\u00e9\u00e9\u00e9>; rel="original",\nnot-an-entry'
    assert body.index("\nnot") == 40 and body.encode().index(b"\nnot") == 44
    with pytest.raises(MalformedEntry, match=r"\(at byte offset 44\)") as exc_info:
        parse_link_format(body)
    assert exc_info.value.offset == 44


def test_unknown_rels_ignored():
    body = SIMPLE + ',\n<http://a.example/style>; rel="stylesheet"'
    tm = parse_link_format(body)
    assert len(tm.mementos) == 3


def _serialize(tm: TimeMap) -> str:
    """serialize_link_format's text for `tm`, which must equal the
    reference serialisation."""
    roles = {"original": tm.original, "timemap": tm.timemap_uri, "timegate": tm.timegate_uri}
    if tm.timebundle_uri is not None:
        roles["timebundle"] = tm.timebundle_uri
    text = "".join(serialize_link_format(roles, tm.mementos))
    assert text == oracle_serialize_link_format(tm)
    return text


def test_serialize_parse_round_trip():
    tm = parse_link_format(SIMPLE)
    assert _serialize(tm) == SIMPLE.strip()
    again = parse_link_format(_serialize(tm))
    assert again == tm


def _random_timemap(rng: random.Random) -> TimeMap:
    n = rng.randint(1, 40)
    base = datetime(1996, 1, 1, tzinfo=timezone.utc)
    dts = sorted(base + timedelta(seconds=rng.randrange(0, 20 * 365 * 86400))
                 for _ in range(n))
    records = []
    for i, dt in enumerate(dts):
        ts = dt.strftime("%Y%m%d%H%M%S")
        records.append(MementoRecord(
            dt, f"http://archive.example/memento/{ts}/http://s.example/p{i:04d}",
            first=(i == 0), last=(i == n - 1)))
    return TimeMap(
        original="http://s.example/",
        timegate_uri="http://archive.example/timegate/http://s.example/",
        timemap_uri="http://archive.example/list/timemap/link/http://s.example/",
        mementos=tuple(records),
    )


def test_round_trip_random_timemaps():
    rng = random.Random(411)
    for _ in range(100):
        tm = _random_timemap(rng)
        assert parse_link_format(_serialize(tm)) == tm


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.datetimes(min_value=datetime(1996, 1, 1), max_value=datetime(2020, 1, 1)),
    min_size=1, max_size=30))
def test_round_trip_property(dts):
    dts = sorted(dt.replace(microsecond=0, tzinfo=timezone.utc) for dt in dts)
    records = tuple(
        MementoRecord(dt, f"http://archive.example/memento/x/{i:04d}",
                      first=(i == 0), last=(i == len(dts) - 1))
        for i, dt in enumerate(dts))
    tm = TimeMap(
        original="http://s.example/",
        timegate_uri="http://archive.example/timegate/http://s.example/",
        timemap_uri="http://archive.example/list/timemap/link/http://s.example/",
        mementos=records,
    )
    assert parse_link_format(_serialize(tm)) == tm
