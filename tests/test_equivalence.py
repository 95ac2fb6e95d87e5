"""The regex TimeMap tokenizer, the regex URI-timestamp check and the
one-lookup-per-URI classifiers against the character scanners and the
urlsplit-based code they replace (oracles_linkformat.py,
oracles_classify.py): same output, or the same exception with the same
message and offset."""

from datetime import datetime, timedelta, timezone

from hypothesis import example, given, settings
from hypothesis import strategies as st

from memento_audit.analysis import classify_fetch
from memento_audit.capture import ResourceFetch
from memento_audit.linkformat import MementoRecord, _split_entries, parse_link_format
from memento_audit.replay import ArchiveEndpoint, classify_host
from memento_audit.sampling import extract_date
from memento_audit.timefmt import format_rfc1123, split_netloc_path
from oracles_classify import (
    oracle_classify_fetch,
    oracle_classify_host,
    oracle_split_netloc_path,
)
from oracles_linkformat import (
    oracle_extract_date,
    oracle_parse_link_format,
    oracle_split_entries,
)


def _outcome(fn, *args):
    """What a call returns, or the type, message and offset of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the reference and the program must raise alike
        return "raised", type(exc), str(exc), getattr(exc, "offset", None)


_LINK_TEXT = st.text(alphabet='<>",;= a0123456789\n', max_size=80)


def _cut(text: str, cuts: list[int]) -> list[str]:
    """`text` in pieces, cut at the given offsets."""
    bounds = [0, *sorted(c % (len(text) + 1) for c in cuts), len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=500, deadline=None)
@given(_LINK_TEXT | st.text(alphabet='<>",;= a\u00e9\u65e5\U0001f600', max_size=40),
       st.lists(st.integers(0, 100), max_size=6))
@example('<a>; x="1,2", <b"c>,"<d>,e', [])
@example('<a, "b', [3])
@example('"<a>, b', [])
@example(",, ,", [1, 2])
@example('<\u00e9>, "a,b", <c>', [2, 5, 6])
def test_split_entries_matches_scanner(body, cuts):
    """Whatever the pieces, the same entries at the same byte offsets."""
    assert list(_split_entries(_cut(body, cuts))) == oracle_split_entries(body)


@settings(max_examples=500, deadline=None)
@given(_LINK_TEXT)
def test_parse_link_format_matches_reference_on_noise(body):
    assert _outcome(parse_link_format, body) == _outcome(oracle_parse_link_format, body)


_DATETIMES = st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2030, 1, 1),
                          timezones=st.just(timezone.utc)).map(lambda d: d.replace(microsecond=0))
_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "\u00a0"])
_REL = st.sampled_from(["memento", "first memento", "last memento", "first last memento",
                        "memento first", "original", "timemap", "timegate", "timebundle",
                        "original memento", "self", "", "MEMENTO"])


@st.composite
def _entry(draw):
    """One link entry: usually well formed, with random spacing, rel and
    datetime, sometimes bent so the general parameter loop must handle it."""
    uri = draw(st.sampled_from(["http://a.example/", "http://archive.example/web/x/",
                                "http://h/p;q", 'http://h/"q"', ""]))
    rel = draw(_REL)
    dt = draw(_DATETIMES)
    raw_dt = draw(st.sampled_from([format_rfc1123(dt), format_rfc1123(dt).lower(),
                                   "yesterday", format_rfc1123(dt) + " "]))
    s = [draw(_SPACE) for _ in range(6)]
    params = [f'{s[1]};{s[2]}rel="{rel}"', f'{s[3]};{s[4]}datetime="{raw_dt}"']
    variant = draw(st.integers(0, 9))  # 0, 8 and 9 keep the entry well formed
    if variant == 1:
        params.reverse()
    elif variant == 2:
        params[0] = params[0].replace("rel=", "REL = ")
    elif variant == 3:
        params.pop(1)
    elif variant == 4:
        params.append('; type="text/html"')
    elif variant == 5:
        params.append("; bare")
    elif variant == 6:
        params[1] = params[1].replace('"', "")
    elif variant == 7:
        params[1] = params[1].replace(";", "", 1)
    return f"{s[0]}<{uri}>{''.join(params)}{s[5]}"


_ROLES = ('<http://a.example/>; rel="original"',
          '<http://archive.example/timemap/http://a.example/>; rel="timemap"',
          '<http://archive.example/timegate/http://a.example/>; rel="timegate"')


@settings(max_examples=400, deadline=None)
@given(st.lists(_entry(), max_size=8), st.booleans(), st.sampled_from([",", ",\n", " , "]))
def test_parse_link_format_matches_reference_on_entries(entries, with_roles, sep):
    body = sep.join(([*_ROLES] if with_roles else []) + entries)
    assert _outcome(parse_link_format, body) == _outcome(oracle_parse_link_format, body)


_TS_SEGMENTS = st.sampled_from(["", "/web/{ts}", "/web/{ts}/http://o.example/",
                                "/web/{ts}/https://o.example/a", "/{ts}/http://",
                                "/{ts}/http:/o.example/", "/{ts}/HTTP://o.example/",
                                "/19990101000000/y/{ts}/http://o.example/",
                                "/web/{ts}/http://o.example/20380101000000/http://p.example/",
                                "/{ts}", "/x{ts}/", "/{ts}0/", "/20001301000000/",
                                "/20001301000000/http://o.example/",
                                "/\u0662\u0660\u0660\u0660\u0660\u0661\u0660\u0661"
                                "\u0660\u0660\u0660\u0660\u0660\u0660/"])


@st.composite
def _memento(draw):
    """A record whose URI mixes schemes, authorities, queries, fragments and
    stray whitespace around a 14-digit segment near or far from its datetime."""
    dt = draw(_DATETIMES)
    uri_dt = dt + draw(st.sampled_from([timedelta(0), timedelta(seconds=1),
                                        timedelta(hours=24), timedelta(hours=24, seconds=1),
                                        -timedelta(days=400)]))
    ts = uri_dt.strftime("%Y%m%d%H%M%S")
    scheme = draw(st.sampled_from(["http://", "https://", "HTTP://", "a+b.c-d://", "",
                                   "//", "1x://", "mailto:", " http://", "\x00http://"]))
    host = draw(st.sampled_from(["archive.example", "127.0.0.1:8080", "user@h:1", "{ts}",
                                 "[::1]:80", "[::1", "h]", "ex\u00e4mple.org", "",
                                 "\uff41.example", "ex\u2100ample"])).replace(
        "{ts}", ts)
    path = draw(_TS_SEGMENTS).replace("{ts}", ts)
    tail = draw(st.sampled_from(["", "?q=1", "?/{ts}/", "#/{ts}", "#f?x",
                                 "?a#b"])).replace("{ts}", ts)
    uri = scheme + host + path + tail
    cut = draw(st.integers(0, len(uri)))
    uri = uri[:cut] + draw(st.sampled_from(["", "\t", "\n", "\r", " "])) + uri[cut:]
    tz = draw(st.sampled_from([timezone.utc, timezone(timedelta(hours=-5)), None]))
    if tz is None:
        dt = dt.replace(tzinfo=None)
    else:
        dt = dt.astimezone(tz)
    return MementoRecord(datetime=dt, uri=uri)


@settings(max_examples=800, deadline=None)
@given(_memento())
@example(MementoRecord(datetime=datetime(2000, 1, 2, tzinfo=timezone.utc),
                       uri="http://h/web/2000\t0101000000/x"))
@example(MementoRecord(datetime=datetime(2000, 1, 1), uri="http://h/web/20000101000000/"))
@example(MementoRecord(datetime=datetime(2000, 1, 1, tzinfo=timezone.utc),
                       uri="http://[::1/web/20000101000000/"))
@example(MementoRecord(datetime=datetime(2006, 6, 1, tzinfo=timezone.utc),
                       uri="http://a.example/x/20050101000000/y/20060601000000/http://s.example/"))
@example(MementoRecord(datetime=datetime(2000, 1, 1, tzinfo=timezone.utc),
                       uri="http://h\n/web/20200101000000/http://o.example/\n"))
@example(MementoRecord(datetime=datetime(2000, 1, 1, tzinfo=timezone.utc),
                       uri="http://h/w\n/20200101000000/http://o.example/"))
def test_extract_date_matches_scanner_reference(m):
    assert _outcome(extract_date, m) == _outcome(oracle_extract_date, m)


_SCHEMES = st.sampled_from(["http://", "https://", "HTTP://", "hTtPs://", "a+b.c-d://", "",
                            "//", "1x://", "mailto:", "http:", "http:/", " http://",
                            "\x00http://"])
_AUTHORITIES = st.sampled_from(["archive.example", "ARCHIVE.Example", "archive.example:8080",
                                "user@archive.example", "u:p@h:1", "[::1]:80", "[::1", "h]",
                                "[v1.x]", "ex\u00e4mple.org", "\uff41.example", "ex\u2100ample",
                                "", "h:", "h%41"])
_PATHS = st.sampled_from(["", "/", "/static/banner.css", "/web/20000101000000/http://o.example/",
                          "/a;b", "/a b", "/\u00e4", "/[x]", "/static", "//x"])
_TAILS = st.sampled_from(["", "?", "#", "?q=1", "#f", "?a#b", "#f?x", "?/static/", "#\t",
                          "?\r\n"])


@st.composite
def _uri(draw):
    """A URI mixing scheme case, ports, userinfo, brackets, non-ASCII hosts
    and paths, queries and fragments right after the authority, with one
    stray character put anywhere."""
    uri = draw(_SCHEMES) + draw(_AUTHORITIES) + draw(_PATHS) + draw(_TAILS)
    cut = draw(st.integers(0, len(uri)))
    stray = draw(st.sampled_from(["", "\t", "\n", "\r", " ", "?", "#", "/", "[", "]",
                                  "@", ":", "\u00e4"]))
    return uri[:cut] + stray + uri[cut:]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_uri(), st.text(max_size=30)))
@example("HTTP://Archive.Example:80/static/x")
@example("http://h?q")
@example("http://h#f/x")
@example("http://[::1]:80/x")
@example("http://ex\u00e4mple.org/x")
@example("http://h\t/x")
@example("http://h/x\t?q")
def test_split_netloc_path_matches_urlsplit(uri):
    assert _outcome(split_netloc_path, uri) == _outcome(oracle_split_netloc_path, uri)


_EP = ArchiveEndpoint(timemap_template="http://archive.example/list/{original}",
                      replay_template="http://archive.example/web/{timestamp}/{original}",
                      archive_hosts=frozenset({"archive.example", "Mirror.example:81"}),
                      replay_chrome_prefixes=("/static/", "/_chrome"))


@settings(max_examples=800, deadline=None)
@given(_uri())
def test_classify_host_matches_urlsplit_reference(uri):
    assert _outcome(classify_host, uri, _EP) == _outcome(oracle_classify_host, uri, _EP)


_FETCH_URIS = st.sampled_from([
    "http://archive.example/web/20000101000000/http://o.example/a.gif",
    "HTTP://ARCHIVE.EXAMPLE/web/20000101000000/http://o.example/b.css",
    "http://archive.example/static/banner.css",
    "http://mirror.example:81/_chrome/x.js",
    "http://mirror.example:81/web/x",
    "http://archive.example",
    "http://live.example/a.js",
    "https://cdn.example/x.png?archive.example",
    "http://[::1]/x",
    "http://[bad/x",
])


@st.composite
def _fetch(draw):
    """A fetch whose chain runs through archive, chrome and live hosts, that
    may end in an error, and whose chain may be empty or start at its own
    request URI."""
    request_uri = draw(_FETCH_URIS)
    statuses = st.sampled_from([200, 204, 299, 301, 302, 304, 404, 500, 503])
    hops = draw(st.lists(st.tuples(statuses, _FETCH_URIS), max_size=3))
    if hops and draw(st.booleans()):
        hops[0] = (hops[0][0], request_uri)
    return ResourceFetch(
        request_uri=request_uri,
        chain=tuple(hops),
        content_type=None,
        bytes=0,
        trigger="markup",
        phase="subresource",
        error=draw(st.sampled_from([None, "connection reset"])),
    )


@settings(max_examples=800, deadline=None)
@given(_fetch())
def test_classify_fetch_matches_reference(f):
    assert _outcome(classify_fetch, f, _EP) == _outcome(oracle_classify_fetch, f, _EP)
