"""Acceptance scorecard: ten end-to-end checks over the whole toolkit.

Each test prints one `ACCEPTANCE nn PASS|FAIL|SKIP: title` line that stays
visible under pytest's output capture, so a full run yields a ten-line
scorecard.  The checks are hermetic (fixture archive + stub browser bridge)
except the last, an opt-in smoke test against a real archive endpoint.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest

from memento_audit.analysis import (
    FetchClass,
    MementoMetrics,
    classify_fetch,
    classify_log,
    compute_metrics,
    detect_drops,
)
from memento_audit.bridge import ScriptedEngine, bridge_available
from memento_audit.capture import StaticEngine, diff_captures
from memento_audit.cli import main
from memento_audit.errors import InsufficientData, MissingRole
from memento_audit.fetching import PoliteFetcher
from memento_audit.fixture_archive.scenarios import (
    GMAPS_LEAKS,
    GMAPS_ORIGINAL,
    GMAPS_TIMESTAMP,
    NASA_COUNTS,
    NASA_EXPECTED_FLAG,
    NASA_ORIGINAL,
    YT2006_ORIGINAL,
    YT2006_SCRIPT_LOADED,
    YT2006_TIMESTAMP,
    YT2011_BROKEN_CSS,
    YT2011_ORIGINAL,
    YT2011_TIMESTAMP,
)
from memento_audit.linkformat import TimeMap, memento_record, parse_link_format
from memento_audit.replay import (
    ArchiveEndpoint,
    ReplayUri,
    make_replay_uri,
    parse_replay_uri,
    to_replay_uri,
)
from memento_audit.report import collect_leaks
from memento_audit.sampling import ONE_YEAR, select_annual
from oracles import oracle_drops, oracle_select

LIVE_ENDPOINT_ENV = "MEMENTO_AUDIT_LIVE_ENDPOINT"


@contextmanager
def criterion(capsys, number: int, title: str):
    """Run one acceptance check and print its scorecard line regardless of
    outcome."""

    def announce(status: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {status}: {title}")

    try:
        yield
    except pytest.skip.Exception:
        announce("SKIP")
        raise
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


# --- 1: archived-index sample parses exactly ---------------------------------

ARCHIVED_INDEX_SAMPLE = """\
<http://api.wayback.archive.org/list/timebundle/http://cnn.com>; rel="timebundle",
<http://cnn.com>; rel="original",
<http://api.wayback.archive.org/list/timemap/link/http://cnn.com>; rel="timemap"; type="application/link-format",
<http://api.wayback.archive.org/list/timegate/http://cnn.com>; rel="timegate",
<http://api.wayback.archive.org/memento/20000620180259/http://cnn.com/>; rel="first memento"; datetime="Tue, 20 Jun 2000 18:02:59 GMT",
<http://api.wayback.archive.org/memento/20000621011731/http://cnn.com/>; rel="memento"; datetime="Wed, 21 Jun 2000 01:17:31 GMT",
<http://api.wayback.archive.org/memento/20000621140928/http://cnn.com/>; rel="memento"; datetime="Wed, 21 Jun 2000 14:09:28 GMT",
<http://api.wayback.archive.org/memento/20061227222050/http://www.cnn.com>; rel="memento"; datetime="Wed, 27 Dec 2006 22:20:50 GMT",
<http://api.wayback.archive.org/memento/20061227222134/http://www.cnn.com/>; rel="memento"; datetime="Wed, 27 Dec 2006 22:21:34 GMT",
<http://api.wayback.archive.org/memento/20061228024612/http://www.cnn.com/>; rel="memento"; datetime="Thu, 28 Dec 2006 02:46:12 GMT",
<http://api.wayback.archive.org/memento/20121209174923/http://www.cnn.com/>; rel="memento"; datetime="Sun, 09 Dec 2012 17:49:23 GMT",
<http://api.wayback.archive.org/memento/20121209174944/http://www.cnn.com/>; rel="memento"; datetime="Sun, 09 Dec 2012 17:49:44 GMT",
<http://api.wayback.archive.org/memento/20121209201112/http://www.cnn.com/>; rel="last memento"; datetime="Sun, 09 Dec 2012 20:11:12 GMT"
"""


def test_criterion_01_index_sample_parses(capsys):
    with criterion(capsys, 1, "published TimeMap sample parses exactly"):
        started = time.monotonic()
        tm = parse_link_format(ARCHIVED_INDEX_SAMPLE)
        elapsed = time.monotonic() - started
        assert tm.original == "http://cnn.com"
        assert tm.timegate_uri == (
            "http://api.wayback.archive.org/list/timegate/http://cnn.com")
        assert tm.timemap_uri == (
            "http://api.wayback.archive.org/list/timemap/link/http://cnn.com")
        assert len(tm.mementos) == 9
        assert tm.first.is_first
        assert tm.first.datetime == datetime(2000, 6, 20, 18, 2, 59,
                                             tzinfo=timezone.utc)
        assert tm.last.is_last
        assert tm.last.datetime == datetime(2012, 12, 9, 20, 11, 12,
                                            tzinfo=timezone.utc)
        assert elapsed < 1.0


# --- 2: annual sampler vs exhaustive oracle ----------------------------------


def _synthetic_timemap(rng: random.Random, n: int):
    base = datetime(1996, 1, 1, tzinfo=timezone.utc)
    span = 20 * 365 * 86400
    dts = sorted(base + timedelta(seconds=rng.randrange(span)) for _ in range(n))
    records = tuple(
        memento_record(f"http://a.example/m/{i:05d}", dt,
                       first=(i == 0), last=(i == n - 1))
        for i, dt in enumerate(dts))
    tm = TimeMap(
        original="http://a.example/",
        timegate_uri="http://archive.example/timegate/http://a.example/",
        timemap_uri="http://archive.example/list/timemap/link/http://a.example/",
        mementos=records,
    )
    return tm, dts


def test_criterion_02_sampler_matches_oracle(capsys):
    with criterion(capsys, 2, "annual sampler matches exhaustive oracle "
                              "(100 TimeMaps, both modes)"):
        rng = random.Random(411)
        started = time.monotonic()
        sizes = [5000] + [rng.randint(1, 5000) for _ in range(99)]
        for n in sizes:
            tm, dts = _synthetic_timemap(rng, n)
            for fixed_grid in (False, True):
                sample = select_annual(tm, ONE_YEAR, fixed_grid=fixed_grid)
                got = [(s.target, s.chosen.datetime, s.chosen.uri)
                       for s in sample.selections]
                expected = [(target, dts[idx], tm.mementos[idx].uri)
                            for target, idx in
                            oracle_select(dts, years=1, fixed_grid=fixed_grid)]
                assert got == expected
        assert time.monotonic() - started < 60.0


# --- 3: replay rewriter round-trip and idempotence ---------------------------

PUBLIC_STYLE_ENDPOINT = ArchiveEndpoint(
    timemap_template="http://api.wayback.archive.org/list/timemap/link/{original}",
    replay_template="http://web.archive.org/web/{timestamp}/{original}",
    archive_hosts=frozenset({"web.archive.org", "api.wayback.archive.org"}),
)


def test_criterion_03_rewriter_round_trip(capsys):
    with criterion(capsys, 3, "replay rewriter round-trip and idempotence "
                              "(1000 pairs + literal pair)"):
        rng = random.Random(2012)
        base = datetime(1996, 1, 1, tzinfo=timezone.utc)
        for _ in range(1000):
            dt = base + timedelta(seconds=rng.randrange(24 * 365 * 86400))
            ts = dt.strftime("%Y%m%d%H%M%S")
            host = rng.choice(["google.com", "www.example.org", "cdn.a.example"])
            path = "/".join(rng.choice(["a", "img", "x%20y", ""])
                            for _ in range(rng.randint(0, 3)))
            original = f"http://{host}/{path}"
            replay = make_replay_uri(ts, original, PUBLIC_STYLE_ENDPOINT)
            # round trip: parsing the replay form recovers both parts exactly
            assert parse_replay_uri(replay.uri, PUBLIC_STYLE_ENDPOINT) == (ts, original)
            # idempotence: rewriting a replay URI changes nothing
            assert to_replay_uri(replay.uri, PUBLIC_STYLE_ENDPOINT) == replay
            api = f"http://api.wayback.archive.org/memento/{ts}/{original}"
            assert to_replay_uri(api, PUBLIC_STYLE_ENDPOINT).uri == replay.uri

        literal = to_replay_uri(
            "http://api.wayback.archive.org/memento/20110731003335/http://google.com",
            PUBLIC_STYLE_ENDPOINT)
        assert literal.uri == "http://web.archive.org/web/20110731003335/http://google.com"


# --- 4: leak detection -------------------------------------------------------


def test_criterion_04_leak_set_exact(capsys, service, endpoint, fetcher):
    with criterion(capsys, 4, "leak detection flags exactly the authored "
                              "live-escape set"):
        m = make_replay_uri(GMAPS_TIMESTAMP, GMAPS_ORIGINAL, endpoint)
        log = StaticEngine(fetcher=fetcher).capture(m, endpoint)
        assert not log.page_failed

        classes = [classify_log(log, endpoint)]
        leaks = collect_leaks([log], classes)
        leaked_originals = {parse_replay_uri(leak.request_uri, endpoint)[1]
                            for _, leak in leaks}
        assert leaked_originals == set(GMAPS_LEAKS)

        live_host = service.live_authority
        for _, leak in leaks:
            # redirect-into-live chain: starts 302 inside the archive,
            # ends 200 on the live host
            assert leak.chain[0][0] == 302
            assert urlsplit(leak.chain[0][1]).netloc != live_host
            assert leak.final_status == 200
            assert urlsplit(leak.chain[-1][1]).netloc == live_host

        metrics = compute_metrics([log], classes)
        assert metrics.count(FetchClass.LEAKED) == len(GMAPS_LEAKS)


# --- 5: failure-chain classification -----------------------------------------


def test_criterion_05_redirect_then_missing(capsys, service, endpoint, fetcher):
    with criterion(capsys, 5, "302-then-404 stylesheet classifies as "
                              "archived-missing"):
        m = make_replay_uri(YT2011_TIMESTAMP, YT2011_ORIGINAL, endpoint)
        log = StaticEngine(fetcher=fetcher).capture(m, endpoint)
        css = next(f for f in log.subresources()
                   if YT2011_BROKEN_CSS in f.request_uri)
        assert [status for status, _ in css.chain] == [302, 404]
        assert classify_fetch(css, endpoint) == FetchClass.ARCHIVED_MISSING


# --- 6: script differential --------------------------------------------------


def test_criterion_06_script_differential(capsys, service, endpoint, fetcher,
                                          stub_bridge):
    with criterion(capsys, 6, "scripted-vs-static differential isolates "
                              "script-loaded resources"):
        if not bridge_available(stub_bridge.url):
            pytest.skip("no browser bridge reachable; scripted differential "
                        "is skipped, not failed")
        m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
        engine = ScriptedEngine(stub_bridge.url, settle_ms=0)
        on = engine.capture(m, endpoint, scripting="on")
        off = engine.capture(m, endpoint, scripting="off")
        script_only = {parse_replay_uri(uri, endpoint)[1]
                       for uri in diff_captures(on, off)}
        assert script_only == set(YT2006_SCRIPT_LOADED)

        static_log = StaticEngine(fetcher=fetcher).capture(m, endpoint)
        static_originals = {parse_replay_uri(f.request_uri, endpoint)[1]
                            for f in static_log.subresources()}
        assert static_originals.isdisjoint(YT2006_SCRIPT_LOADED)


# --- 7 & 9: end-to-end audit and byte-determinism ----------------------------


@pytest.fixture(scope="module")
def collapse_audit(service, tmp_path_factory):
    """One CLI audit of the collapse-pattern site, shared by criteria 7 and 9."""
    cache = tmp_path_factory.mktemp("acceptance-cache")
    out = tmp_path_factory.mktemp("acceptance-out")
    started = time.monotonic()
    rc = main(["audit", NASA_ORIGINAL,
               "--endpoint", service.archive_base,
               "--cache-dir", str(cache), "--out-dir", str(out),
               "--politeness-ms", "0"])
    elapsed = time.monotonic() - started
    return SimpleNamespace(rc=rc, cache=cache, out=out, elapsed=elapsed)


def test_criterion_07_collapse_audit(capsys, collapse_audit):
    with criterion(capsys, 7, "end-to-end audit flags the authored multi-year "
                              "collapse"):
        assert collapse_audit.rc == 0
        assert collapse_audit.elapsed < 30.0
        doc = json.loads((collapse_audit.out / "report.json").read_text())
        series = {row["year"]: row["resource_count"] for row in doc["series"]}
        assert len(series) == 11
        assert series == NASA_COUNTS
        assert doc["config"]["drop_threshold"] == 0.5
        assert doc["config"]["sustain_window"] == 2
        assert len(doc["drop_flags"]) == 1
        flag = doc["drop_flags"][0]
        assert flag["start_year"] == NASA_EXPECTED_FLAG["start_year"]
        assert flag["end_year"] == NASA_EXPECTED_FLAG["end_year"]
        assert flag["baseline"] == NASA_EXPECTED_FLAG["baseline"]
        assert flag["dropped_value"] == NASA_EXPECTED_FLAG["dropped_value"]


def test_criterion_09_report_byte_identical(capsys, collapse_audit, tmp_path):
    with criterion(capsys, 9, "report recomputation from cache is "
                              "byte-identical"):
        assert collapse_audit.rc == 0
        first = (collapse_audit.out / "report.json").read_bytes()
        rc = main(["report", str(collapse_audit.cache), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.json").read_bytes() == first
        assert ((tmp_path / "series.csv").read_bytes()
                == (collapse_audit.out / "series.csv").read_bytes())


# --- 8: drop detector vs definition oracle -----------------------------------


def _series_of(counts, start_year=1990):
    """An annual series whose years' fetches were all archived, `counts[i]`
    of them in year start_year + i."""
    return tuple(
        MementoMetrics(
            memento=ReplayUri(
                timestamp=f"{year}0101000000", original="http://s.example/",
                uri=f"http://archive.example/web/{year}0101000000/http://s.example/"),
            counts={FetchClass.ARCHIVED_OK: count})
        for year, count in enumerate(counts, start_year))


def test_criterion_08_drop_detector_matches_oracle(capsys):
    with criterion(capsys, 8, "drop detector matches definition oracle "
                              "(1000+ random series)"):
        rng = random.Random(1996)
        compared = 0
        for _ in range(1400):
            n = rng.randint(1, 20)
            counts = [rng.randint(0, 100) for _ in range(n)]
            years = list(range(1990, 1990 + n))
            series = _series_of(counts)
            if n < 3:  # below the default window + 1
                with pytest.raises(InsufficientData):
                    detect_drops(series)
                continue
            got = [(f.start_year, f.end_year, f.baseline, f.dropped_value, f.ratio)
                   for f in detect_drops(series)]
            assert got == oracle_drops(years, counts)
            compared += 1
        assert compared >= 1000


# --- 10: live endpoint smoke (opt-in, non-gating) ----------------------------


@pytest.mark.live
def test_criterion_10_live_smoke(capsys):
    with criterion(capsys, 10, "public endpoint smoke (opt-in, non-gating)"):
        base = os.environ.get(LIVE_ENDPOINT_ENV)
        if not base:
            pytest.skip(f"set {LIVE_ENDPOINT_ENV} (e.g. http://web.archive.org) "
                        "to run the live smoke test")
        base = base.rstrip("/")
        ep = ArchiveEndpoint(
            timemap_template=base + "/web/timemap/link/{original}",
            replay_template=base + "/web/{timestamp}/{original}",
            archive_hosts=frozenset({urlsplit(base).netloc}),
        )
        fetcher = PoliteFetcher(politeness_s=1.0, timeout_s=30.0)
        try:
            result = fetcher.follow(ep.expand_timemap("http://example.com/"))
            assert result.error is None, result.error
            assert result.final_status == 200
            body = result.body.decode("utf-8")
            try:
                tm = parse_link_format(body)
            except MissingRole:
                # Some endpoints label their own index rel="self".
                tm = parse_link_format(
                    body.replace('rel="self"', 'rel="timemap"', 1))
            # Holdings drift; assert only that at least one memento parses.
            assert len(tm.mementos) >= 1
        finally:
            fetcher.close()
