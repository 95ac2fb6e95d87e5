import dataclasses
import random
from datetime import datetime, timezone

import pytest

from memento_audit.analysis import (
    COUNTED_CLASSES,
    DropFlag,
    FetchClass,
    MementoMetrics,
    build_series,
    classify_fetch,
    classify_log,
    compute_metrics,
    detect_drops,
)
from memento_audit.capture import (
    ENGINE_SCRIPTED,
    ENGINE_STATIC,
    PHASE_PAGE,
    PHASE_SUBRESOURCE,
    SCRIPTING_OFF,
    SCRIPTING_ON,
    TRIGGER_MARKUP,
    CaptureLog,
    ResourceFetch,
)
from memento_audit.errors import (
    DuplicateYear,
    InsufficientData,
    MementoMismatch,
    NoPageFetch,
)
from memento_audit.fixture_archive.scenarios import NASA_COUNTS, NASA_EXPECTED_FLAG
from memento_audit.replay import ArchiveEndpoint, ReplayUri
from oracles import oracle_drops, random_series

EP = ArchiveEndpoint(
    timemap_template="http://archive.example/list/timemap/link/{original}",
    replay_template="http://archive.example/web/{timestamp}/{original}",
    archive_hosts=frozenset({"archive.example"}),
)

ARCHIVE = "http://archive.example/web/20100101000000/http://s.example"
LIVE = "http://cdn.example"


def _fetch(request_uri, chain=((200, None),), error=None, phase=PHASE_SUBRESOURCE):
    hops = tuple((s, u if u is not None else request_uri) for s, u in chain)
    return ResourceFetch(
        request_uri=request_uri, chain=hops,
        content_type=None, bytes=0, trigger=TRIGGER_MARKUP, phase=phase,
        error=error,
    )


def _skipped(raw_ref):
    return ResourceFetch(request_uri=raw_ref, chain=(),
                         content_type=None, bytes=0, trigger=TRIGGER_MARKUP,
                         phase=PHASE_SUBRESOURCE)


# --- classification ----------------------------------------------------------


def test_classify_archived_ok():
    assert classify_fetch(_fetch(f"{ARCHIVE}/a.gif"), EP) == FetchClass.ARCHIVED_OK
    assert classify_fetch(
        _fetch(f"{ARCHIVE}/a.gif", chain=((304, None),)),
        EP) == FetchClass.ARCHIVED_OK


def test_classify_archived_missing():
    for status in (404, 500, 403):
        got = classify_fetch(
            _fetch(f"{ARCHIVE}/a.gif", chain=((status, None),)), EP)
        assert got == FetchClass.ARCHIVED_MISSING


def test_classify_skipped():
    assert classify_fetch(_skipped("data:image/gif;base64,AAAA"), EP) == FetchClass.SKIPPED


def test_classify_replay_chrome():
    f = _fetch("http://archive.example/static/banner.css")
    assert classify_fetch(f, EP) == FetchClass.REPLAY_CHROME


def test_classify_leak_by_request_uri():
    assert classify_fetch(_fetch(f"{LIVE}/app.js"), EP) == FetchClass.LEAKED


def test_classify_leak_by_redirect_hop():
    f = _fetch(f"{ARCHIVE}/t1.png",
               chain=((302, None), (200, f"{LIVE}/t1.png")))
    assert classify_fetch(f, EP) == FetchClass.LEAKED


def test_leak_outranks_network_error():
    f = _fetch(f"{ARCHIVE}/t1.png",
               chain=((302, None), (0, f"{LIVE}/t1.png")),
               error="connection refused")
    assert classify_fetch(f, EP) == FetchClass.LEAKED


def test_classify_network_error():
    f = ResourceFetch(request_uri=f"{ARCHIVE}/a.gif", chain=(),
                      content_type=None, bytes=0, trigger=TRIGGER_MARKUP,
                      phase=PHASE_SUBRESOURCE, error="timeout")
    assert classify_fetch(f, EP) == FetchClass.NETWORK_ERROR


def test_every_fetch_gets_exactly_one_class():
    fetches = [
        _fetch(f"{ARCHIVE}/a.gif"),
        _fetch(f"{LIVE}/b.gif"),
        _skipped("javascript:void(0)"),
        _fetch("http://archive.example/static/x.css"),
    ]
    for f in fetches:
        got = classify_fetch(f, EP)
        assert isinstance(got, FetchClass)


# --- per-memento metrics -----------------------------------------------------


def _memento(ts="20100101000000", original="http://s.example/"):
    return ReplayUri(timestamp=ts, original=original,
                     uri=f"http://archive.example/web/{ts}/{original}")


def _log(fetches, scripting=SCRIPTING_OFF, engine=ENGINE_STATIC, memento=None):
    now = datetime(2026, 1, 1, tzinfo=timezone.utc)
    return CaptureLog(memento=memento or _memento(), engine=engine,
                      scripting=scripting, fetches=tuple(fetches),
                      started=now, finished=now)


def _metrics(logs):
    return compute_metrics(logs, [classify_log(log, EP) for log in logs])


def test_completeness_arithmetic():
    fetches = [
        _fetch(_memento().uri, phase=PHASE_PAGE),          # the page counts
        _fetch(f"{ARCHIVE}/a.gif"),
        _fetch(f"{ARCHIVE}/b.gif"),
        _fetch(f"{LIVE}/leak.js"),
        _fetch(f"{ARCHIVE}/gone.gif", chain=((404, None),)),
    ]
    m = _metrics([_log(fetches)])
    assert m.total_requested == 5
    assert m.count(FetchClass.ARCHIVED_OK) == 3
    assert m.count(FetchClass.LEAKED) == 1
    assert m.count(FetchClass.ARCHIVED_MISSING) == 1
    assert m.completeness == pytest.approx(0.6)
    assert m.year == 2010
    assert m.script_delta is None


def test_chrome_and_skipped_outside_denominator():
    fetches = [
        _fetch(_memento().uri, phase=PHASE_PAGE),
        _fetch(f"{ARCHIVE}/a.gif"),
        _fetch("http://archive.example/static/banner.css"),
        _skipped("data:x"),
    ]
    m = _metrics([_log(fetches)])
    assert m.total_requested == 2
    assert m.completeness == 1.0
    assert m.count(FetchClass.REPLAY_CHROME) == 1
    assert m.count(FetchClass.SKIPPED) == 1


def test_empty_denominator_is_fully_complete():
    page = ResourceFetch(request_uri=_memento().uri, chain=(),
                         content_type=None, bytes=0, trigger=TRIGGER_MARKUP,
                         phase=PHASE_PAGE)
    m = _metrics([_log([page])])
    assert m.total_requested == 0
    assert m.completeness == 1.0


def test_metrics_require_a_page_fetch():
    with pytest.raises(NoPageFetch):
        _metrics([])
    with pytest.raises(NoPageFetch):
        _metrics([_log([_fetch(f"{ARCHIVE}/a.gif")])])


def test_metrics_refuse_mixed_mementos():
    a = _log([_fetch(_memento().uri, phase=PHASE_PAGE)])
    b = _log([_fetch(_memento("20110101000000").uri, phase=PHASE_PAGE)],
             memento=_memento("20110101000000"))
    with pytest.raises(MementoMismatch):
        _metrics([a, b])


def test_script_on_log_is_primary_and_delta_computed():
    page = _fetch(_memento().uri, phase=PHASE_PAGE)
    off = _log([page, _fetch(f"{ARCHIVE}/shared.gif")], scripting=SCRIPTING_OFF,
               engine=ENGINE_SCRIPTED)
    on = _log([page, _fetch(f"{ARCHIVE}/shared.gif"), _fetch(f"{ARCHIVE}/lazy1.gif"),
               _fetch(f"{ARCHIVE}/lazy2.gif")],
              scripting=SCRIPTING_ON, engine=ENGINE_SCRIPTED)
    m = _metrics([off, on])
    assert m.total_requested == 4  # from the scripting-on view
    assert m.script_delta == 2
    assert _metrics([on, off]) == m
    # The counts are the classes handed in for the scripting-on log.
    missing = (FetchClass.ARCHIVED_MISSING,) * len(on.fetches)
    assert compute_metrics([off, on], [classify_log(off, EP), missing]).counts \
        == {**{cls: 0 for cls in FetchClass}, FetchClass.ARCHIVED_MISSING: 4}


def test_derived_figures_are_computed_from_the_counts():
    m = MementoMetrics(memento=_memento("20070101000000"),
                       counts={FetchClass.ARCHIVED_OK: 3, FetchClass.LEAKED: 1,
                               FetchClass.REPLAY_CHROME: 5})
    assert [f.name for f in dataclasses.fields(m)] == ["memento", "counts", "script_delta"]
    assert (m.year, m.total_requested, m.completeness) == (2007, 4, 0.75)
    for name in ("year", "total_requested", "completeness"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)


# --- series and drop detection -----------------------------------------------


def _year(year, count):
    """A memento of `year` whose `count` fetches were all archived."""
    return MementoMetrics(memento=_memento(ts=f"{year}0101000000"),
                          counts={FetchClass.ARCHIVED_OK: count})


def _series(counts, start_year=1996):
    return tuple(_year(start_year + offset, count) for offset, count in enumerate(counts))


def test_build_series_sorts_by_year():
    later, earlier = _year(2005, 9), _year(2003, 7)
    assert build_series([later, earlier]) == (earlier, later)


def test_build_series_rejects_duplicate_years():
    m = _year(2010, 5)
    with pytest.raises(DuplicateYear):
        build_series([m, m])


def test_sustained_drop_flagged_once():
    flags = detect_drops(_series([40, 42, 3, 4, 5, 41]))
    assert len(flags) == 1
    flag = flags[0]
    assert (flag.start_year, flag.end_year) == (1998, 2000)
    assert flag.baseline == 41.0
    assert flag.dropped_value == 4.0
    assert flag.ratio == pytest.approx(4.0 / 41.0)


def test_single_year_dip_not_sustained():
    assert detect_drops(_series([40, 3, 41])) == []


def test_window_one_flags_single_dips():
    flags = detect_drops(_series([40, 3, 41]), sustain_window=1)
    assert len(flags) == 1
    assert flags[0].start_year == flags[0].end_year == 1997


def test_baseline_is_frozen_at_run_start():
    # Once inside the run, later small counts must not refresh the cutoff.
    flags = detect_drops(_series([40, 40, 10, 10, 10, 40]))
    assert len(flags) == 1
    assert flags[0].baseline == 40.0
    assert flags[0].end_year == 2000


def test_growth_never_flags():
    assert detect_drops(_series([5, 8, 13, 21, 34, 55])) == []


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        detect_drops(_series([10, 2]), sustain_window=2)
    with pytest.raises(InsufficientData):
        detect_drops(_series([]), sustain_window=2)


@pytest.mark.parametrize("kwargs", [
    dict(drop_threshold=0.0), dict(drop_threshold=1.0), dict(drop_threshold=-1.0),
    dict(sustain_window=0),
])
def test_detector_parameter_validation(kwargs):
    with pytest.raises(ValueError):
        detect_drops(_series([10, 10, 10]), **kwargs)


def test_expected_flag_for_collapse_scenario():
    years = sorted(NASA_COUNTS)
    flags = detect_drops(_series([NASA_COUNTS[y] for y in years], start_year=years[0]))
    assert len(flags) == 1
    flag = flags[0]
    assert flag.start_year == NASA_EXPECTED_FLAG["start_year"]
    assert flag.end_year == NASA_EXPECTED_FLAG["end_year"]
    assert flag.baseline == NASA_EXPECTED_FLAG["baseline"]
    assert flag.dropped_value == NASA_EXPECTED_FLAG["dropped_value"]


def _as_tuples(flags):
    return [(f.start_year, f.end_year, f.baseline, f.dropped_value, f.ratio)
            for f in flags]


def test_random_series_match_oracle():
    rng = random.Random(1303)
    checked = 0
    for _ in range(400):
        years, counts = random_series(rng)
        threshold = rng.choice((0.3, 0.5, 0.7))
        window = rng.choice((1, 2, 3))
        if len(counts) < window + 1:
            continue
        got = detect_drops(_series(counts, start_year=years[0]),
                           drop_threshold=threshold, sustain_window=window)
        expected = oracle_drops(years, counts, threshold=threshold, window=window)
        assert _as_tuples(got) == expected
        checked += 1
    assert checked > 300
