import random
import time
from datetime import datetime, timedelta, timezone

import pytest

from memento_audit.errors import BadDatetime, BadTimestamp
from memento_audit.timefmt import (
    format_iso,
    format_rfc1123,
    parse_iso,
    parse_rfc1123,
    parse_ts14,
    to_utc,
)


def test_parse_rfc1123_basic():
    dt = parse_rfc1123("Tue, 20 Jun 2000 18:02:59 GMT")
    assert dt == datetime(2000, 6, 20, 18, 2, 59, tzinfo=timezone.utc)


def test_rfc1123_round_trip_random():
    rng = random.Random(20230815)
    for _ in range(500):
        dt = datetime(1995, 1, 1, tzinfo=timezone.utc) + timedelta(
            seconds=rng.randrange(0, 25 * 365 * 86400))
        assert parse_rfc1123(format_rfc1123(dt)) == dt


@pytest.mark.parametrize("bad", [
    "",
    "20 Jun 2000 18:02:59 GMT",              # missing weekday
    "Tue, 20 Jun 2000 18:02:59 PST",         # wrong zone
    "Die, 20 Jun 2000 18:02:59 GMT",         # non-English weekday
    "Tue, 32 Jun 2000 18:02:59 GMT",         # impossible day
    "Tue, 20 Jun 2000 18:02 GMT",            # missing seconds
])
def test_parse_rfc1123_rejects(bad):
    with pytest.raises(BadDatetime):
        parse_rfc1123(bad)


def test_weekday_name_is_not_cross_checked():
    # 2000-06-20 was a Tuesday. Archives sometimes emit the wrong weekday;
    # the date fields are authoritative, so the mislabeled day still parses.
    dt = parse_rfc1123("Wed, 20 Jun 2000 18:02:59 GMT")
    assert dt == datetime(2000, 6, 20, 18, 2, 59, tzinfo=timezone.utc)


def test_ts14_round_trip():
    dt = datetime(2011, 7, 31, 0, 33, 35, tzinfo=timezone.utc)
    assert parse_ts14("20110731003335") == dt
    assert parse_ts14(dt.strftime("%Y%m%d%H%M%S")) == dt


@pytest.mark.parametrize("bad", ["", "2011073100333", "201107310033350",
                                 "20111331003335", "2011a731003335"])
def test_ts14_rejects(bad):
    with pytest.raises(BadTimestamp):
        parse_ts14(bad)


def test_iso_round_trip():
    dt = datetime(2004, 2, 29, 23, 59, 59, tzinfo=timezone.utc)
    assert parse_iso(format_iso(dt)) == dt
    assert format_iso(dt) == "2004-02-29T23:59:59Z"


def test_to_utc_converts_offsets():
    offset = timezone(timedelta(hours=-5))
    dt = datetime(2010, 1, 1, 7, 0, 0, tzinfo=offset)
    assert to_utc(dt) == datetime(2010, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


def test_to_utc_takes_a_naive_datetime_as_utc(monkeypatch):
    monkeypatch.setenv("TZ", "XYZ+05")  # local time five hours behind UTC
    time.tzset()
    try:
        aware = to_utc(datetime(2001, 2, 3, 4, 5, 6))
    finally:
        monkeypatch.undo()
        time.tzset()
    assert aware == datetime(2001, 2, 3, 4, 5, 6, tzinfo=timezone.utc)
    assert aware.tzinfo is timezone.utc
