import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memento_audit.errors import TimestampMismatch
from memento_audit.linkformat import MementoRecord, TimeMap
from memento_audit.sampling import (
    ONE_YEAR,
    Interval,
    extract_date,
    parse_interval,
    select_annual,
)
from oracles import oracle_advance, oracle_select, random_datetimes


def _timemap(dts) -> TimeMap:
    records = []
    for i, dt in enumerate(dts):
        ts = dt.strftime("%Y%m%d%H%M%S")
        records.append(MementoRecord(
            dt, f"http://archive.example/memento/{ts}/http://s.example/?v={i}",
            first=(i == 0), last=(i == len(dts) - 1)))
    return TimeMap(
        original="http://s.example/",
        timegate_uri="http://archive.example/timegate/http://s.example/",
        timemap_uri="http://archive.example/list/timemap/link/http://s.example/",
        mementos=tuple(records),
    )


def _dt(*args) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


def _assert_matches_oracle(tm, interval: Interval, fixed_grid: bool):
    sample = select_annual(tm, interval, fixed_grid=fixed_grid)
    dts = [m.datetime for m in tm.mementos]
    expected = oracle_select(dts, years=interval.years, days=interval.days,
                             fixed_grid=fixed_grid)
    got = [(s.target, tm.mementos.index(s.chosen)) for s in sample.selections]
    assert got == expected


# --- hand-checkable cases ----------------------------------------------------


def test_first_memento_is_pivot_with_zero_deviation():
    tm = _timemap([_dt(2000, 6, 20, 18, 2, 59), _dt(2001, 7, 1), _dt(2002, 6, 15)])
    sample = select_annual(tm)
    assert sample.selections[0].chosen is tm.mementos[0]
    assert sample.selections[0].deviation == timedelta(0)
    assert sample.selections[0].target == _dt(2000, 6, 20, 18, 2, 59)


def test_single_memento_yields_single_selection():
    tm = _timemap([_dt(2005, 3, 1)])
    sample = select_annual(tm)
    assert len(sample) == 1


def test_nearest_wins_even_if_before_target():
    # Target 2001-01-01; 2000-11-01 (61 d off) beats 2001-11-05 (308 d off).
    tm = _timemap([_dt(2000, 1, 1), _dt(2000, 11, 1), _dt(2001, 11, 5)])
    sample = select_annual(tm)
    assert sample.selections[1].chosen.datetime == _dt(2000, 11, 1)


def test_equidistant_tie_goes_to_earlier():
    tm = _timemap([_dt(2000, 1, 1), _dt(2000, 12, 2), _dt(2001, 1, 31)])
    sample = select_annual(tm)
    # Both candidates are 30 days from the 2001-01-01 target.
    assert sample.selections[1].chosen.datetime == _dt(2000, 12, 2)


def test_equal_datetimes_keep_listing_order():
    dts = [_dt(2000, 1, 1), _dt(2001, 1, 1), _dt(2001, 1, 1)]
    tm = _timemap(dts)
    sample = select_annual(tm)
    assert sample.selections[1].chosen is tm.mementos[1]


def test_chosen_datetimes_strictly_increase():
    tm = _timemap([_dt(2000, 1, 1), _dt(2000, 1, 1), _dt(2000, 6, 1),
                   _dt(2001, 2, 1), _dt(2001, 2, 1), _dt(2003, 1, 1)])
    sample = select_annual(tm)
    chosen = [s.chosen.datetime for s in sample.selections]
    assert all(a < b for a, b in zip(chosen, chosen[1:]))


def test_drifting_and_fixed_grid_diverge():
    dts = [_dt(2000, 1, 1), _dt(2000, 11, 1), _dt(2001, 11, 5), _dt(2002, 1, 2)]
    tm = _timemap(dts)
    drifting = select_annual(tm, fixed_grid=False)
    fixed = select_annual(tm, fixed_grid=True)
    assert [s.chosen.datetime for s in drifting.selections] == dts
    # The fixed grid's 2002-01-01 target lands on 2002-01-02, skipping 2001-11-05.
    assert [s.chosen.datetime for s in fixed.selections] == [
        _dt(2000, 1, 1), _dt(2000, 11, 1), _dt(2002, 1, 2)]
    assert fixed.selections[2].target == _dt(2002, 1, 1)


def test_deviation_is_signed():
    tm = _timemap([_dt(2000, 1, 1), _dt(2001, 1, 11)])
    sample = select_annual(tm)
    assert sample.selections[1].deviation == timedelta(days=10)
    tm = _timemap([_dt(2000, 1, 1), _dt(2000, 12, 22)])
    sample = select_annual(tm)
    assert sample.selections[1].deviation == timedelta(days=-10)


def test_calendar_year_handles_leap_pivot():
    tm = _timemap([_dt(2000, 2, 29), _dt(2001, 2, 27), _dt(2001, 3, 2)])
    sample = select_annual(tm)
    # relativedelta pins the target at 2001-02-28: 2001-02-27 is 1 day off,
    # 2001-03-02 is 2 days off.
    assert sample.selections[1].target == _dt(2001, 2, 28)
    assert sample.selections[1].chosen.datetime == _dt(2001, 2, 27)


def test_empty_timemap_rejected():
    tm = TimeMap(
        original="http://s.example/",
        timegate_uri="http://archive.example/timegate/http://s.example/",
        timemap_uri="http://archive.example/list/timemap/link/http://s.example/",
        mementos=(),
    )
    with pytest.raises(ValueError):
        select_annual(tm)


# --- randomized agreement with the oracle ------------------------------------


@pytest.mark.parametrize("fixed_grid", [False, True])
@pytest.mark.parametrize("interval", [Interval(years=1), Interval(days=365)])
def test_random_timemaps_match_oracle(interval, fixed_grid):
    rng = random.Random(f"{interval}-{fixed_grid}")
    for _ in range(60):
        tm = _timemap(random_datetimes(rng, 200))
        _assert_matches_oracle(tm, interval, fixed_grid)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.datetimes(min_value=datetime(1996, 1, 1),
                          max_value=datetime(2020, 1, 1)),
             min_size=1, max_size=40),
    st.booleans(),
)
def test_oracle_agreement_property(raw_dts, fixed_grid):
    dts = sorted(dt.replace(microsecond=0, tzinfo=timezone.utc) for dt in raw_dts)
    tm = _timemap(dts)
    _assert_matches_oracle(tm, ONE_YEAR, fixed_grid)


# --- interval parsing and datetime extraction --------------------------------


def test_parse_interval_forms():
    assert parse_interval("1y") == Interval(years=1)
    assert parse_interval("2Y") == Interval(years=2)
    assert parse_interval("365d") == Interval(days=365)
    assert parse_interval(" 30d ") == Interval(days=30)


@pytest.mark.parametrize("bad", ["", "y", "1m", "1.5y", "oneyear", "0y"])
def test_parse_interval_rejects(bad):
    with pytest.raises(ValueError):
        parse_interval(bad)


@pytest.mark.parametrize("kwargs", [{}, {"years": 1, "days": 1}, {"years": 2, "days": 0.5}])
def test_interval_is_years_or_days(kwargs):
    with pytest.raises(ValueError):
        Interval(**kwargs)


def test_interval_str_round_trips():
    for text in ("1y", "365d", "30d"):
        assert str(parse_interval(text)) == text


def test_extract_date_checks_uri_agreement():
    dt = _dt(2005, 6, 1, 12, 0, 0)
    good = MementoRecord(
        dt, "http://archive.example/memento/20050601120000/http://s.example/")
    assert extract_date(good) == dt

    skewed = MementoRecord(
        dt, "http://archive.example/memento/20050602110000/http://s.example/")
    assert extract_date(skewed) == dt  # 23 h apart: inside the tolerance

    wrong = MementoRecord(
        dt, "http://archive.example/memento/20050701120000/http://s.example/")
    with pytest.raises(TimestampMismatch):
        extract_date(wrong)


def test_extract_date_without_uri_timestamp():
    dt = _dt(2005, 6, 1)
    record = MementoRecord(dt, "http://archive.example/snapshots/latest")
    assert extract_date(record) == dt


@pytest.mark.parametrize("base_year", [2000, 2001])
def test_year_step_matches_the_oracle_for_every_day(base_year):
    # From each day of a leap and of a common year, 29 February included, to
    # leap and common target years; the oracle steps with relativedelta.
    day = datetime(base_year, 1, 1, 12, 30, 15, tzinfo=timezone.utc)
    while day.year == base_year:
        for k in range(1, 31):
            assert ONE_YEAR.advance(day, k) == oracle_advance(day, 1, 0.0, k), (day, k)
        day += timedelta(days=1)


def test_year_step_past_9999_raises_as_the_oracle_does():
    leap_day = datetime(9996, 2, 29, tzinfo=timezone.utc)
    for step in (lambda: ONE_YEAR.advance(leap_day, 4),
                 lambda: oracle_advance(leap_day, 1, 0.0, 4)):
        with pytest.raises(ValueError, match="year 10000 is out of range"):
            step()
