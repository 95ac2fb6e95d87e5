import http.client
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path
from urllib.parse import quote, urldefrag, urljoin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memento_audit.errors import BadTimestamp, UnrecognizedShape, UnresolvableReference
from memento_audit.fetching import PoliteFetcher
from memento_audit.fixture_archive.stub_bridge import _browser_join
from memento_audit.replay import (
    C0_CONTROL_OR_SPACE,
    HOST_ARCHIVE,
    MEMENTO_SHAPE_RE,
    HOST_CHROME,
    HOST_LIVE,
    ArchiveEndpoint,
    classify_host,
    join_reference,
    make_replay_uri,
    parse_replay_uri,
    resolve_reference,
    rewrite_subresource,
    to_replay_uri,
    validate_original_uri,
)

WAYBACK = ArchiveEndpoint(
    timemap_template="http://api.wayback.archive.org/list/timemap/link/{original}",
    replay_template="http://web.archive.org/web/{timestamp}/{original}",
    archive_hosts=frozenset({"web.archive.org", "api.wayback.archive.org"}),
)


def test_validate_original_accepts_plain_http():
    assert validate_original_uri("http://example.com/a?b=c") == "http://example.com/a?b=c"


@pytest.mark.parametrize("bad", [
    "ftp://example.com/",
    "example.com/no-scheme",
    "http://example.com/page#frag",
    "//host-only",
])
def test_validate_original_rejects(bad):
    with pytest.raises(ValueError):
        validate_original_uri(bad)


def test_api_to_replay_literal_pair():
    got = to_replay_uri(
        "http://api.wayback.archive.org/memento/20110731003335/http://google.com",
        WAYBACK,
    )
    assert got.uri == "http://web.archive.org/web/20110731003335/http://google.com"
    assert got.timestamp == "20110731003335"
    assert got.original == "http://google.com"


def test_replay_uri_passes_through_unchanged():
    uri = "http://web.archive.org/web/20110731003335/http://google.com"
    got = to_replay_uri(uri, WAYBACK)
    assert got.uri == uri


def test_to_replay_is_idempotent():
    first = to_replay_uri(
        "http://api.wayback.archive.org/memento/20050101000000/http://a.example/x",
        WAYBACK,
    )
    second = to_replay_uri(first.uri, WAYBACK)
    assert second == first


def test_memento_uri_splits_at_its_first_timestamp_for_the_auditor_and_the_stub():
    # An original whose own path holds a memento URI stays whole, and the
    # stub browser resolves a reference against it as the static engine does.
    original = "http://a.example/web/20060101000000/http://b.example/x"
    uri = f"http://web.archive.org/web/20050101000000/{original}"
    api = f"http://api.wayback.archive.org/memento/20050101000000/{original}"
    assert MEMENTO_SHAPE_RE.match(api).groups() == ("http://api.wayback.archive.org/memento",
                                                    "20050101000000", original)
    replay = to_replay_uri(api, WAYBACK)
    assert replay == to_replay_uri(uri, WAYBACK) == make_replay_uri("20050101000000", original,
                                                                    WAYBACK)
    assert _browser_join(uri, "y.gif") == rewrite_subresource(replay, "y.gif", WAYBACK)


@pytest.mark.parametrize("original, ref, joined", [
    # urljoin gives http://h/a/b/d.gif and .../http:/b.example/y.gif
    ("http://h/a//b/c.html", "d.gif", "http://h/a//b/d.gif"),
    ("http://a.example/web/20060101000000/http://b.example/x", "y.gif",
     "http://a.example/web/20060101000000/http://b.example/y.gif"),
    ("http://h/a//b/c.html", "../e/./f.gif?q=1#top", "http://h/a//e/f.gif?q=1"),
])
def test_relative_references_keep_empty_path_segments(original, ref, joined):
    """Both crawlers resolve a relative path as a browser does (RFC 3986
    §5.2.2, WHATWG URL): the empty segments of the base's path stay."""
    assert resolve_reference(original, ref) == joined
    replay = make_replay_uri("20050101000000", original, WAYBACK)
    assert rewrite_subresource(replay, ref, WAYBACK) == WAYBACK.expand_replay(
        "20050101000000", joined)
    assert _browser_join(replay.uri, ref) == rewrite_subresource(replay, ref, WAYBACK)
    assert _browser_join(original, ref) == urldefrag(joined)[0]


@pytest.mark.parametrize("ref, joined", [
    ("img\\x.gif", "http://h/a/img/x.gif"),
    ("\\\\other.example\\x.gif", "http://other.example/x.gif"),
    ("http:\\\\other.example\\y.gif", "http://other.example/y.gif"),
    ("..\\c\\d.gif?q=a\\b#f\\g", "http://h/c/d.gif?q=a\\b"),
])
def test_backslashes_before_the_query_are_slashes(ref, joined):
    """A browser reads `\\` as `/` in an http(s) URL, up to its query or
    fragment (WHATWG URL); both crawlers resolve a reference so too."""
    original = "http://h/a/b.html"
    assert resolve_reference(original, ref) == joined
    replay = make_replay_uri("20050101000000", original, WAYBACK)
    assert rewrite_subresource(replay, ref, WAYBACK) == WAYBACK.expand_replay(
        "20050101000000", joined)
    assert _browser_join(replay.uri, ref) == rewrite_subresource(replay, ref, WAYBACK)
    assert _browser_join(original, ref) == joined


@pytest.mark.parametrize("ref", ["DATA:image/gif;base64,R0lGOD", "JavaScript:void(0)",
                                 " Data:x", "#top", "//[bad", "ftp://h/x.gif"])
def test_neither_crawler_fetches_what_a_browser_skips(ref):
    """Skip schemes match in any case, for the stub browser as for the
    static engine."""
    original = "http://h/a/b.html"
    replay = make_replay_uri("20050101000000", original, WAYBACK)
    with pytest.raises(UnresolvableReference):
        rewrite_subresource(replay, ref, WAYBACK)
    for base in (replay.uri, original):
        with pytest.raises(UnresolvableReference):
            _browser_join(base, ref)


@pytest.mark.parametrize("ref, joined", [
    ("http://h\\x.gif", "http://h/x.gif"),
    ("http://h/a/../b.gif", "http://h/b.gif"),
    ("https://h/a/./b/../c.gif?q=/./#f", "https://h/a/c.gif?q=/./"),
    ("//h/a/../b.gif", "http://h/b.gif"),
    ("/a/./../b.gif", "http://o/b.gif"),
])
def test_absolute_references_resolve_as_a_browser_resolves_them(ref, joined):
    """A `\\` reads as `/`, and dot segments are removed (RFC 3986 §5.2.2),
    in absolute references too: both crawlers request what a browser does.
    The stub leaves a reference that starts with http(s):// live."""
    original = "http://o/x/y.html"
    assert resolve_reference(original, ref) == joined
    replay = make_replay_uri("20050101000000", original, WAYBACK)
    wrapped = WAYBACK.expand_replay("20050101000000", joined)
    assert rewrite_subresource(replay, ref, WAYBACK) == wrapped
    live = ref.startswith(("http://", "https://"))
    assert _browser_join(replay.uri, ref) == (joined if live else wrapped)
    assert _browser_join(original, ref) == joined


@pytest.mark.parametrize("base, ref", [
    ("https://o/", "http://h/b.gif?"),
    ("http://o/", "http://h/.well/b.gif"),
    ("http://o/", "mailto:x@h"),
])
def test_joins_without_dot_segments_are_urljoins(base, ref):
    assert join_reference(base, ref) == urljoin(base, ref)


# urljoin differs on purpose where a segment is "%2e" or the query is an
# empty "?"; the case table below covers both.
_SEGMENTS = st.sampled_from(["a", "b.html", ".", "..", "c;p", "d=1", "x:y"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SEGMENTS, max_size=4), st.booleans(),
       st.lists(_SEGMENTS, min_size=1, max_size=4),
       st.sampled_from(["", "?q=1", "#f", "?q#f"]))
def test_join_equals_urljoin_where_no_segment_is_empty(base, slash, ref, tail):
    base_uri = "http://h" + "".join("/" + s for s in base) + ("/" if slash else "")
    reference = "/".join(ref) + tail
    assert join_reference(base_uri, reference) == urljoin(base_uri, reference)


#: Cases in the shape of web-platform-tests' urltestdata.json: strings are
#: comments, and each case is an input, a base and the href it resolves to.
_URL_CASES = [case for case in json.loads(
    (Path(__file__).parent / "url_resolution.json").read_text(encoding="utf-8"))
    if isinstance(case, dict)]


def _wire_form(uri: str) -> str:
    """`uri` with what is not printable ASCII percent-encoded as UTF-8, as
    the request target carries it; the resolver keeps a reference's bytes."""
    return quote(uri, safe="".join(map(chr, range(0x21, 0x7f))))


def _location_followed(base: str, location: str):
    """The chain of a GET of `base` answered by a 302 to `location`, whose
    target answers 200, with no request made."""
    def get_once(uri, headers, open_body):
        answer = http.client.HTTPMessage()
        if uri == base:
            answer["Location"] = location
            return 302, answer
        return 200, answer

    fetcher = PoliteFetcher(politeness_s=0.0)
    fetcher.get_once = get_once
    with fetcher:
        return fetcher.follow(base)


@pytest.mark.parametrize("case", _URL_CASES, ids=lambda case: repr(case["input"]))
def test_url_cases_resolve_as_the_standard_resolves_them(case):
    """Every caller of the one resolver gives the standard's href: the join,
    a redirect's Location, a page reference (without its fragment) for the
    static engine and for the stub browser, and its replay wrap."""
    base, ref = case["base"], case["input"]
    replay = make_replay_uri("20050101000000", base, WAYBACK)
    chain = _location_followed(base, ref)
    if case.get("failure"):
        with pytest.raises(ValueError):
            join_reference(base, ref)
        assert chain.error.startswith("unparsable Location") and chain.hops == [(302, base)]
        for call in (lambda: resolve_reference(base, ref), lambda: _browser_join(base, ref),
                     lambda: rewrite_subresource(replay, ref, WAYBACK)):
            with pytest.raises(UnresolvableReference):
                call()
        return
    href = case["href"]
    assert _wire_form(join_reference(base, ref)) == href
    assert [(status, _wire_form(uri)) for status, uri in chain.hops] == [(302, base), (200, href)]
    page = href.partition("#")[0]
    assert _wire_form(resolve_reference(base, ref)) == page
    assert _wire_form(_browser_join(base, ref)) == page
    wrapped = rewrite_subresource(replay, ref, WAYBACK)
    assert _wire_form(wrapped) == WAYBACK.expand_replay("20050101000000", page)
    live = ref.strip(C0_CONTROL_OR_SPACE).startswith(("http://", "https://"))
    assert _browser_join(replay.uri, ref) == (resolve_reference(base, ref) if live else wrapped)


def _random_original(rng: random.Random) -> str:
    host = rng.choice(["cnn.com", "www.example.org", "a.b.example"])
    path = "/".join(rng.choice(["news", "img", "x", ""]) for _ in range(rng.randint(0, 3)))
    query = "?q=1&z=2" if rng.random() < 0.3 else ""
    return f"http://{host}/{path}{query}"


def _random_ts(rng: random.Random) -> str:
    dt = datetime(1996, 1, 1, tzinfo=timezone.utc) + timedelta(
        seconds=rng.randrange(0, 24 * 365 * 86400))
    return dt.strftime("%Y%m%d%H%M%S")


def test_round_trip_random_pairs():
    rng = random.Random(97)
    for _ in range(500):
        ts, original = _random_ts(rng), _random_original(rng)
        replay = make_replay_uri(ts, original, WAYBACK)
        assert parse_replay_uri(replay.uri, WAYBACK) == (ts, original)
        api = f"http://api.wayback.archive.org/memento/{ts}/{original}"
        assert to_replay_uri(api, WAYBACK).uri == replay.uri


def test_bad_timestamp_rejected():
    with pytest.raises(BadTimestamp):
        to_replay_uri(
            "http://api.wayback.archive.org/memento/20111331003335/http://google.com",
            WAYBACK,
        )


def test_replay_uri_with_impossible_timestamp_is_a_bad_timestamp():
    # Replay-shaped, so it is not taken for an API-shaped URI to rewrite.
    with pytest.raises(BadTimestamp):
        to_replay_uri("http://web.archive.org/web/20111331003335/http://google.com", WAYBACK)


@pytest.mark.parametrize("uri", [
    "http://google.com/",
    "http://web.archive.org/web/2011/http://google.com",
    "http://web.archive.org/web/20110731003335/relative-not-absolute",
])
def test_unrecognized_shapes_rejected(uri):
    with pytest.raises(UnrecognizedShape):
        to_replay_uri(uri, WAYBACK)


def test_classify_host_partition():
    assert classify_host("http://web.archive.org/web/2011/x", WAYBACK) == HOST_ARCHIVE
    assert classify_host("http://WEB.ARCHIVE.ORG/web/2011/x", WAYBACK) == HOST_ARCHIVE
    assert classify_host("http://web.archive.org/static/banner.css", WAYBACK) == HOST_CHROME
    assert classify_host("http://google.com/", WAYBACK) == HOST_LIVE
    assert classify_host("https://cdn.live.example/app.js", WAYBACK) == HOST_LIVE


def test_rewrite_relative_reference():
    base = make_replay_uri("20110731003335", "http://site.example/dir/page.html", WAYBACK)
    got = rewrite_subresource(base, "img/logo.gif", WAYBACK)
    assert got == "http://web.archive.org/web/20110731003335/http://site.example/dir/img/logo.gif"


def test_rewrite_absolute_live_reference():
    base = make_replay_uri("20110731003335", "http://site.example/", WAYBACK)
    got = rewrite_subresource(base, "http://cdn.example/app.js", WAYBACK)
    assert got == "http://web.archive.org/web/20110731003335/http://cdn.example/app.js"


def test_rewrite_root_relative_reference():
    base = make_replay_uri("20110731003335", "http://site.example/deep/page", WAYBACK)
    got = rewrite_subresource(base, "/style.css", WAYBACK)
    assert got == "http://web.archive.org/web/20110731003335/http://site.example/style.css"


def test_rewrite_strips_fragment_from_resolved_reference():
    base = make_replay_uri("20110731003335", "http://site.example/", WAYBACK)
    got = rewrite_subresource(base, "page.html#section", WAYBACK)
    assert got.endswith("/http://site.example/page.html")


def test_already_rewritten_reference_passes_through():
    base = make_replay_uri("20110731003335", "http://site.example/", WAYBACK)
    wrapped = "http://web.archive.org/web/20110731003335/http://site.example/a.gif"
    assert rewrite_subresource(base, wrapped, WAYBACK) == wrapped


def test_chrome_asset_reference_passes_through():
    base = make_replay_uri("20110731003335", "http://site.example/", WAYBACK)
    chrome = "http://web.archive.org/static/replay-banner.css"
    assert rewrite_subresource(base, chrome, WAYBACK) == chrome


@pytest.mark.parametrize("ref", [
    "#top",
    "   ",
    "data:image/gif;base64,R0lGOD=",
    "javascript:void(0)",
    "mailto:someone@example.com",
    "//[bad",
    "ftp://files.example/a.gif",
    "https://",
])
def test_unresolvable_references_raise(ref):
    base = make_replay_uri("20110731003335", "http://site.example/", WAYBACK)
    with pytest.raises(UnresolvableReference):
        rewrite_subresource(base, ref, WAYBACK)


def test_endpoint_from_base_layout():
    ep = ArchiveEndpoint.from_base("http://localhost:8123")
    assert ep.expand_timemap("http://a.example/") == (
        "http://localhost:8123/list/timemap/link/http://a.example/")
    assert ep.expand_replay("20000101000000", "http://a.example/") == (
        "http://localhost:8123/web/20000101000000/http://a.example/")
    assert "localhost:8123" in ep.archive_hosts


@pytest.mark.parametrize("kwargs", [
    dict(timemap_template="http://x/{nope}", replay_template="http://x/{timestamp}/{original}",
         archive_hosts=frozenset({"x"})),
    dict(timemap_template="http://x/{original}", replay_template="http://x/{original}",
         archive_hosts=frozenset({"x"})),
    dict(timemap_template="http://x/{original}", replay_template="http://x/{timestamp}/{original}",
         archive_hosts=frozenset()),
])
def test_bad_endpoint_templates_rejected(kwargs):
    with pytest.raises(ValueError):
        ArchiveEndpoint(**kwargs)
