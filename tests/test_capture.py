import dataclasses
import re
from urllib.parse import urlsplit

import pytest

from memento_audit import capture
from memento_audit.bridge import ScriptedEngine
from memento_audit.capture import (
    ENGINE_STATIC,
    PHASE_PAGE,
    PHASE_SUBRESOURCE,
    SCRIPTING_OFF,
    TRIGGER_MARKUP,
    TRIGGER_STYLESHEET,
    StaticEngine,
    diff_captures,
    load_log,
    log_filename,
    save_log,
)
from memento_audit.errors import MementoMismatch
from memento_audit.fixture_archive.scenarios import (
    CHARSETS_CP1252_TIMESTAMP,
    CHARSETS_NAMES,
    CHARSETS_ORIGINAL,
    CHARSETS_UTF8_TIMESTAMP,
    CHROME_ORIGINAL,
    CHROME_TIMESTAMP,
    MOVEDCSS_BACKGROUND,
    MOVEDCSS_LEAK,
    MOVEDCSS_LIVE_PATHS,
    MOVEDCSS_ORIGINAL,
    MOVEDCSS_TIMESTAMP,
    NEWS_ORIGINAL,
    STATIC6_BACKGROUND,
    STATIC6_FETCH_TOTAL,
    STATIC6_ORIGINAL,
    STATIC6_TIMESTAMP,
    YT2011_BROKEN_CSS,
    YT2011_ORIGINAL,
    YT2011_TIMESTAMP,
    build_all,
)
from memento_audit.replay import make_replay_uri
from memento_audit.report import collect_leaks


@pytest.fixture()
def engine(fetcher):
    return StaticEngine(fetcher=fetcher)


def _capture(engine, endpoint, timestamp, original):
    m = make_replay_uri(timestamp, original, endpoint)
    return engine.capture(m, endpoint)


def test_static_page_fetch_count(engine, service, endpoint):
    log = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    assert not log.page_failed
    assert len(log.fetches) == STATIC6_FETCH_TOTAL
    assert log.fetches[0].phase == PHASE_PAGE
    assert all(f.phase == PHASE_SUBRESOURCE for f in log.fetches[1:])
    assert all(f.final_status == 200 for f in log.fetches)


def test_static_capture_builds_one_pool(engine, service, endpoint, monkeypatch):
    # Two waves, the markup's references and then s.css's url(bg.gif), on one pool.
    pools = []

    class CountingPool(capture.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(capture, "ThreadPoolExecutor", CountingPool)
    log = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    assert len(log.fetches) == STATIC6_FETCH_TOTAL
    assert len(pools) == 1


def test_stylesheet_background_is_attributed(engine, service, endpoint):
    log = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    by_original = {f.request_uri.rsplit("/", 1)[-1]: f for f in log.subresources()}
    assert by_original["bg.gif"].trigger == TRIGGER_STYLESHEET
    assert by_original["a.gif"].trigger == TRIGGER_MARKUP
    assert by_original["s.css"].trigger == TRIGGER_MARKUP


def test_redirect_chains_are_well_formed(engine, service, endpoint):
    log = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    for f in log.fetches:
        if f.error is None and f.chain:
            assert f.final_status == f.chain[-1][0]
            for status, _uri in f.chain[:-1]:
                assert 300 <= status < 400


def test_capture_is_deterministic(engine, service, endpoint):
    first = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    second = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    assert first.fetches == second.fetches


def test_missing_memento_marks_page_failed(engine, service, endpoint):
    log = _capture(engine, endpoint, "19990101000000", NEWS_ORIGINAL)
    assert log.page_failed
    assert log.page_fetch.final_status == 404
    assert log.subresources() == []


def test_broken_stylesheet_chain_recorded(engine, service, endpoint):
    log = _capture(engine, endpoint, YT2011_TIMESTAMP, YT2011_ORIGINAL)
    css = next(f for f in log.subresources() if YT2011_BROKEN_CSS in f.request_uri)
    assert [status for status, _ in css.chain] == [302, 404]
    assert css.final_status == 404


def test_redirected_stylesheet_resolves_against_final_uri(engine, service, endpoint):
    log = _capture(engine, endpoint, MOVEDCSS_TIMESTAMP, MOVEDCSS_ORIGINAL)
    css = make_replay_uri(MOVEDCSS_TIMESTAMP, f"{MOVEDCSS_ORIGINAL}css/a.css", endpoint)
    background = make_replay_uri(MOVEDCSS_TIMESTAMP, MOVEDCSS_BACKGROUND, endpoint)
    leak_css = make_replay_uri(MOVEDCSS_TIMESTAMP, MOVEDCSS_LEAK, endpoint)
    live_gif = service.live_base + MOVEDCSS_LIVE_PATHS[1]
    by_uri = {f.request_uri: f for f in log.subresources()}
    # url(bg.gif) in css/v2/a.css, where css/a.css redirects, is css/v2/bg.gif;
    # url(leak.gif) in the live copy of css/b.css is the live leak.gif.
    assert set(by_uri) == {css.uri, background.uri, leak_css.uri, live_gif}
    assert [status for status, _ in by_uri[css.uri].chain] == [302, 200]
    for uri in (background.uri, live_gif):
        assert by_uri[uri].trigger == TRIGGER_STYLESHEET
        assert by_uri[uri].final_status == 200
    assert {leak.request_uri for _, leak in collect_leaks([log], endpoint)} \
        == {leak_css.uri, live_gif}


@pytest.mark.parametrize("timestamp", [CHARSETS_UTF8_TIMESTAMP, CHARSETS_CP1252_TIMESTAMP])
def test_page_encoding_named_in_markup_or_not_at_all_is_decoded(engine, service, endpoint,
                                                                 stub_bridge, timestamp):
    # Served as text/html with no charset: the UTF-8 page names its encoding
    # in <meta> and its stylesheet is read in it; the other is windows-1252.
    m = make_replay_uri(timestamp, CHARSETS_ORIGINAL, endpoint)
    want = {make_replay_uri(timestamp, CHARSETS_ORIGINAL + name, endpoint).uri
            for name in CHARSETS_NAMES[timestamp]}
    background = make_replay_uri(timestamp, CHARSETS_ORIGINAL + CHARSETS_NAMES[timestamp][-1],
                                 endpoint).uri
    for log in (engine.capture(m, endpoint),
                ScriptedEngine(stub_bridge.url, settle_ms=0).capture(m, endpoint)):
        by_uri = {f.request_uri: f for f in log.subresources()}
        assert set(by_uri) == want
        assert all(f.final_status == 200 for f in log.fetches)
        assert (by_uri[background].trigger == TRIGGER_STYLESHEET) \
            == (timestamp == CHARSETS_UTF8_TIMESTAMP)


_REPLAYABLE = [(site.original, bundle.timestamp) for site in build_all().sites
               if not site.robots_blocked for bundle in site.mementos]


def _recorded(log):
    """What a capture log says of each fetch it made; skipped references,
    which only the static engine records, are left out."""
    return [(f.request_uri, f.chain, f.final_status, f.content_type, f.bytes,
             f.trigger, f.phase) for f in log.fetches if f.chain or f.error]


@pytest.mark.parametrize("original,timestamp", _REPLAYABLE,
                         ids=[f"{urlsplit(o).netloc}-{ts}" for o, ts in _REPLAYABLE])
def test_static_fetches_match_the_bridge(engine, service, endpoint, stub_bridge,
                                         original, timestamp):
    m = make_replay_uri(timestamp, original, endpoint)
    static = engine.capture(m, endpoint)
    browser = ScriptedEngine(stub_bridge.url, settle_ms=0).capture(
        m, endpoint, scripting=SCRIPTING_OFF)
    assert _recorded(static) == _recorded(browser)


def test_chrome_stylesheet_requested_verbatim(engine, service, endpoint):
    log = _capture(engine, endpoint, CHROME_TIMESTAMP, CHROME_ORIGINAL)
    chrome = [f for f in log.subresources() if "/static/" in f.request_uri]
    assert len(chrome) == 1
    # The chrome asset must be requested at its own address, not wrapped.
    assert chrome[0].request_uri == f"{service.archive_base}/static/replay-banner.css"
    assert chrome[0].final_status == 200


def test_diff_of_identical_captures_is_empty(engine, service, endpoint):
    a = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    b = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    diff = diff_captures(a, b)
    assert diff.script_only == frozenset()
    assert diff.script_delta == 0


def test_diff_refuses_different_mementos(engine, service, endpoint):
    a = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    b = _capture(engine, endpoint, YT2011_TIMESTAMP, YT2011_ORIGINAL)
    with pytest.raises(MementoMismatch):
        diff_captures(a, b)


def test_log_round_trips_through_disk(engine, service, endpoint, tmp_path):
    log = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    path = save_log(log, tmp_path)
    assert load_log(path) == log


def test_log_filename_shape(engine, service, endpoint):
    log = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    name = log_filename(log)
    assert re.fullmatch(r"\d{14}_[0-9a-f]{12}_static_off\.json", name)
    assert name.startswith(STATIC6_TIMESTAMP)
    assert log.engine == ENGINE_STATIC and log.scripting == SCRIPTING_OFF


def test_same_original_same_digest_across_timestamps(engine, service, endpoint):
    one = _capture(engine, endpoint, STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    shifted = dataclasses.replace(
        one, memento=make_replay_uri("20110101000000", STATIC6_ORIGINAL, endpoint))
    # The digest is a function of the original URI alone.
    assert log_filename(one).split("_")[1] == log_filename(shifted).split("_")[1]
    assert log_filename(shifted).startswith("20110101000000")
