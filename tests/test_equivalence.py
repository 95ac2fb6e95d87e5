"""The regex TimeMap tokenizer and the cheap URI-timestamp check against the
character scanner and the urlsplit-based check they replace
(oracles_linkformat.py): same output, or the same exception with the same
message and offset."""

from datetime import datetime, timedelta, timezone

from hypothesis import example, given, settings
from hypothesis import strategies as st

from memento_audit.linkformat import MementoRecord, _split_entries, parse_link_format
from memento_audit.sampling import extract_date
from memento_audit.timefmt import format_rfc1123
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


@settings(max_examples=500, deadline=None)
@given(_LINK_TEXT)
@example('<a>; x="1,2", <b"c>,"<d>,e')
@example('<a, "b')
@example('"<a>, b')
@example(",, ,")
def test_split_entries_matches_scanner(body):
    assert list(_split_entries(body)) == oracle_split_entries(body)


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
                                "/{ts}", "/x{ts}/", "/{ts}0/", "/20001301000000/",
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
def test_extract_date_matches_urlsplit_reference(m):
    assert _outcome(extract_date, m) == _outcome(oracle_extract_date, m)
