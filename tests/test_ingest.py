"""The one-pass TimeMap ingest (`sampling.sample_timemap` over
`linkformat.index_timemap` and `client.decode_timemap_pieces`) against the
reference whole-text path, `select_annual(oracle_parse_link_format(text))`:
the same selections and chosen records, or the same error with the same
message and offset, whatever the piece size.  The `sample` and `timemap`
commands on a served TimeMap: memory bounded by the body plus a fixed-width
index per memento, and `timemap`'s output equal to the reference
serialisation of what the reference parser reads."""

import contextlib
import io
import random
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler
from unittest import mock

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memento_audit import client, linkformat
from memento_audit.cli import main
from memento_audit.client import decode_timemap_pieces
from memento_audit.errors import (
    MalformedEntry,
    TimestampMismatch,
    UndecodableTimeMap,
)
from memento_audit.fixture_archive.server import serve_in_thread, stop_serving
from memento_audit.linkformat import memento_at
from memento_audit.replay import ArchiveEndpoint, to_replay_uri
from memento_audit.sampling import ONE_YEAR, Interval, sample_timemap, select_annual
from memento_audit.timefmt import format_rfc1123
from oracles_linkformat import oracle_parse_link_format, oracle_serialize_link_format
from test_acceptance import ARCHIVED_INDEX_SAMPLE, _synthetic_timemap

ORIGINAL = "http://s.example/"
EP = ArchiveEndpoint.from_base("http://archive.example")
ROLES = [f'<{ORIGINAL}>; rel="original"',
         f'<{EP.expand_timemap(ORIGINAL)}>; rel="timemap"; type="application/link-format"',
         f'<http://archive.example/timegate/{ORIGINAL}>; rel="timegate"']


def _whole(body: bytes, interval=ONE_YEAR, fixed_grid=False):
    """The reference path: the body decoded whole, parsed by the reference
    parser and sampled by select_annual."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableTimeMap(f"TimeMap {EP.expand_timemap(ORIGINAL)} is not UTF-8: "
                                 f"{exc.reason} at byte offset {exc.start}") from exc
    return select_annual(oracle_parse_link_format(text), interval, fixed_grid)


def _streamed(body: bytes, interval=ONE_YEAR, fixed_grid=False):
    file = io.BytesIO(body)
    return sample_timemap(file, decode_timemap_pieces(file, ORIGINAL, EP), interval,
                          fixed_grid)


def _outcome(fn, *args):
    """What a call returns, or the type, message and offset of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # both paths must raise alike
        return "raised", type(exc), str(exc), getattr(exc, "offset", None)


def _agree(body: bytes, piece: int, interval=ONE_YEAR, fixed_grid=False):
    """Both paths on `body`, the streamed one in pieces of `piece` bytes."""
    with mock.patch.object(client, "_PIECE_BYTES", piece):
        streamed = _outcome(_streamed, body, interval, fixed_grid)
        joined = _outcome(lambda: "".join(decode_timemap_pieces(io.BytesIO(body), ORIGINAL, EP)))
    assert streamed == _outcome(_whole, body, interval, fixed_grid)
    if joined[0] == "returned":
        assert joined[1] == body.decode("utf-8")
    else:
        assert streamed[:3] == joined[:3]
    return streamed


# --- the acceptance fixtures -------------------------------------------------


@pytest.mark.parametrize("piece", [1, 3, 7, 64, 1 << 14])
def test_archived_index_sample_streams_alike(piece):
    body = ARCHIVED_INDEX_SAMPLE.encode("utf-8")
    for fixed_grid in (False, True):
        outcome = _agree(body, piece, fixed_grid=fixed_grid)
        assert outcome[0] == "returned" and len(outcome[1]) > 1


def test_synthetic_timemaps_stream_alike():
    rng = random.Random(411)
    for n in [1, 2, 500] + [rng.randint(1, 400) for _ in range(7)]:
        tm, _ = _synthetic_timemap(rng, n)
        body = oracle_serialize_link_format(tm).encode("utf-8")
        for fixed_grid in (False, True):
            assert _agree(body, 97, fixed_grid=fixed_grid)[0] == "returned"


def test_fixture_sites_stream_alike(service, manifest):
    for site in manifest.sites:
        resp = requests.get(service.timemap_uri(site.original), timeout=10)
        if resp.status_code != 200:
            continue
        for piece in (5, 1 << 14):
            _agree(resp.content, piece)


# --- generated TimeMaps ------------------------------------------------------

_TIES = [datetime(2001, 5, 5, 5, 5, 5, tzinfo=timezone.utc),
         datetime(2003, 1, 1, tzinfo=timezone.utc)]
_DATETIMES = st.sampled_from(_TIES) | st.datetimes(
    min_value=datetime(1996, 1, 1), max_value=datetime(2012, 1, 1),
    timezones=st.just(timezone.utc)).map(lambda d: d.replace(microsecond=0))
_PATHS = st.sampled_from(["", "café/", "日本/", "\U0001f600", "a,b;c",
                          "x" * 700])


@st.composite
def _entry(draw) -> str:
    dt = draw(_DATETIMES)
    skew = draw(st.sampled_from([timedelta(0), timedelta(0), timedelta(days=2),
                                 -timedelta(days=3)]))
    stamp = draw(st.sampled_from(["/{ts}", "/{ts}", ""])).format(
        ts=(dt + skew).strftime("%Y%m%d%H%M%S"))
    uri = f"http://archive.example/memento{stamp}/{ORIGINAL}{draw(_PATHS)}"
    rel = draw(st.sampled_from(["memento"] * 6 + ["first memento", "last memento",
                                                  "memento license"]))
    when = draw(st.sampled_from([format_rfc1123(dt)] * 20 + ["yesterday"]))
    return f'<{uri}>; rel="{rel}"; datetime="{when}"'


@st.composite
def _body(draw) -> bytes:
    roles = draw(st.sampled_from([ROLES] * 8 + [ROLES[:2], ROLES + ROLES[:1]]))
    entries = draw(st.permutations(roles + draw(st.lists(_entry(), max_size=12))))
    if draw(st.integers(0, 9)) == 0:
        entries.insert(draw(st.integers(0, len(entries))), "no-bracket; rel=memento")
    body = draw(st.sampled_from([",", ",\n", " ,\n "])).join(entries).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"])) + body[at:]
    return body


@settings(max_examples=300, deadline=None)
@given(_body(), st.integers(1, 24), st.sampled_from([ONE_YEAR, Interval(days=30)]),
       st.booleans())
@example(",".join(ROLES).encode("utf-8"), 4, ONE_YEAR, False)
def test_generated_timemaps_stream_alike(body, piece, interval, fixed_grid):
    _agree(body, piece, interval, fixed_grid)


def test_every_cut_of_a_canonical_body_samples_alike():
    """Cut at every offset of its first entries, a canonical body samples as
    it does whole: an entry cut anywhere, even inside its datetime, is
    matched once the piece after the cut comes in."""
    text = ",\n".join([*ROLES, *(_memento(_dt(2000 + i, 1 + i), path="caf\u00e9" * (i % 2))
                                 for i in range(12))])
    whole = _streamed(text.encode("utf-8"))
    file = io.BytesIO(text.encode("utf-8"))
    for cut in range(len(",\n".join(text.split(",\n")[:6]))):
        assert sample_timemap(file, iter([text[:cut], text[cut:]])) == whole


def test_long_entries_are_read_back_whole():
    """memento_at reads 512 bytes and doubles its window until the entry
    ends inside it: one pick's entry is longer than the window, and another
    has a character that the window's end cuts in two."""
    long = _memento(_dt(2001), path="x" * 700)
    head = f'\n<http://archive.example/memento/{_dt(2002):%Y%m%d%H%M%S}/{ORIGINAL}'
    straddling = _memento(_dt(2002), path="p" * (511 - len(head.encode())) + "\u65e5")
    body = ",\n".join([*ROLES, long, straddling]).encode("utf-8")
    assert body[body.index(straddling.encode()) - 1 + 511:][:3] == "\u65e5".encode()
    oracle = {m.uri: m for m in oracle_parse_link_format(body.decode("utf-8")).mementos}
    picks = [sel.chosen for sel in _streamed(body).selections]
    assert len(picks) == 2
    assert picks == [oracle[pick.uri] for pick in picks]
    assert len(long.encode()) > 512 and picks[0].uri.endswith("x" * 700)
    assert picks[1].uri.endswith("\u65e5")


def test_canonical_timemaps_never_reach_the_general_parser(service, manifest, monkeypatch):
    """A guard on the one-match path: every memento entry of the fixture
    archive's TimeMaps, all in the canonical form, is read without
    linkformat._parse_entry, which only reads role entries and the picks
    read back by memento_at."""
    parse_entry = linkformat._parse_entry

    def role_entries_only(byte, text):
        uri, params = parse_entry(byte, text)
        caller = sys._getframe(1).f_code
        if "memento" in params.get("rel", "").split() and caller is not memento_at.__code__:
            raise AssertionError(f"memento entry at byte {byte} parsed by the general parser")
        return uri, params

    monkeypatch.setattr(linkformat, "_parse_entry", role_entries_only)
    sampled = 0
    for site in manifest.sites:
        resp = requests.get(service.timemap_uri(site.original), timeout=10)
        if resp.status_code == 200:
            assert len(_streamed(resp.content)) >= 1
            sampled += 1
    assert sampled >= 5


# --- which error wins --------------------------------------------------------


def _memento(dt: datetime, stamp: str | None = None, path: str = "") -> str:
    stamp = dt.strftime("%Y%m%d%H%M%S") if stamp is None else stamp
    return (f'<http://archive.example/memento/{stamp}/{ORIGINAL}{path}>; rel="memento"; '
            f'datetime="{format_rfc1123(dt)}"')


def _dt(year: int, day: int = 1) -> datetime:
    return datetime(year, 1, day, tzinfo=timezone.utc)


def test_bad_utf8_outranks_an_earlier_malformed_entry():
    body = ",\n".join(["oops", *ROLES, *(_memento(_dt(2000 + i)) for i in range(40))])
    body = body.encode("utf-8") + b"\xff"
    outcome = _agree(body, 16)
    assert outcome[1] is UndecodableTimeMap
    assert f"at byte offset {len(body) - 1}" in outcome[2]


def test_timestamp_mismatch_waits_for_the_whole_body():
    late = _memento(_dt(2005), stamp="20090101000000")
    early = _memento(_dt(2001), stamp="20070101000000")
    body = ",\n".join([*ROLES, late, early, _memento(_dt(2003))]).encode("utf-8")
    outcome = _agree(body, 8)
    assert outcome[1] is TimestampMismatch and "20070101000000" in outcome[2]

    outcome = _agree(body + b",\n<x> oops", 8)
    assert outcome[1] is MalformedEntry and outcome[3] == len(body) + 1


def test_the_uri_timestamp_checked_is_the_one_the_memento_counts_for():
    """A URI whose path holds another 14-digit segment before its memento
    timestamp is checked against the timestamp that gives it its year."""
    uri = "http://archive.example/x/20050101000000/y/20060601000000/http://s.example/"
    dt = datetime(2006, 6, 1, tzinfo=timezone.utc)
    entry = f'<{uri}>; rel="first last memento"; datetime="{format_rfc1123(dt)}"'
    outcome = _agree(",\n".join([*ROLES, entry]).encode("utf-8"), 16)
    assert outcome[0] == "returned"
    assert [sel.chosen.uri for sel in outcome[1].selections] == [uri]
    assert to_replay_uri(uri, EP).year == 2006


def test_equal_seconds_choose_the_first_uri():
    dts = [_dt(2000), _dt(2001, 2), _dt(2001, 2), _dt(2001, 2), _dt(2002)]
    paths = ["", "b", "a", "a"]
    entries = [_memento(dt, path=path) for dt, path in zip(dts, paths + [""])]
    entries[3] = entries[3].replace('rel="memento"', 'rel="last memento"')
    body = ",\n".join([*ROLES, *reversed(entries)]).encode("utf-8")
    outcome = _agree(body, 11)
    chosen = outcome[1].selections[1].chosen
    assert chosen.uri.endswith("/a")
    assert chosen.last  # of two equal entries, the first in the text


# --- memory ------------------------------------------------------------------


def _large_body(entries: int) -> bytes:
    """A TimeMap of `entries` mementos at random seconds over twenty years."""
    rng = random.Random(7)
    start = datetime(1996, 1, 1, tzinfo=timezone.utc)
    stamps = sorted(start + timedelta(seconds=rng.randrange(20 * 365 * 86400))
                    for _ in range(entries))
    return ",\n".join([*ROLES, *map(_memento, stamps)]).encode("utf-8")


def test_ingest_holds_the_body_plus_a_fixed_width_index():
    """The ingest's peak above the body it reads is under a quarter of the
    body: no decoded copy of the body, no record per memento."""
    body = _large_body(20_000)
    tracemalloc.start()
    try:
        sample = _streamed(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sample) >= 15
    assert peak < 0.25 * len(body)


class _TimeMapServer(BaseHTTPRequestHandler):
    """Answers every GET with `body`, sent straight from the bytes object."""

    body = b""

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Type", "application/link-format")
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture
def run_command(monkeypatch, tmp_path):
    """run_command(name, body, out): the exit code and the `tracemalloc` peak
    of `memento-audit name` on a TimeMap that an in-test server answers with
    `body`, its stdout written to the text file `out` if one is given.  The
    command spools the TimeMap in the system temporary directory, which must
    be as empty after it as before."""
    for name in ("http_proxy", "no_proxy", "HTTP_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool))

    def run(name: str, body: bytes, out=None) -> tuple[int, int]:
        server = serve_in_thread("127.0.0.1", 0, type("Handler", (_TimeMapServer,),
                                                      {"body": body}))
        try:
            with contextlib.redirect_stdout(out or sys.stdout):
                tracemalloc.start()
                try:
                    rc = main([name, ORIGINAL, "--politeness-ms", "0",
                               "--endpoint", f"http://127.0.0.1:{server.server_port}"])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        finally:
            stop_serving(server)
        assert list(spool.iterdir()) == []
        return rc, peak

    return run


def test_sample_command_holds_a_fixed_width_index(run_command, capsys):
    """`sample` takes the TimeMap in as `audit` does: spooled to a file in
    the system temporary directory and sampled in one pass, with a peak
    under a quarter of the body and nothing left behind."""
    body = _large_body(20_000)
    rc, peak = run_command("sample", body)
    assert rc == 0
    picks = [line.split("\t")[3] for line in capsys.readouterr().out.splitlines()]
    file = io.BytesIO(body)
    assert picks == [sel.chosen.uri for sel in sample_timemap(
        file, decode_timemap_pieces(file, ORIGINAL, EP)).selections]
    assert len(picks) >= 15
    assert peak < 0.25 * len(body)


def test_timemap_command_holds_a_fixed_width_index(run_command, tmp_path):
    """`timemap` prints from the same one-pass index, reading each record
    back from the spool and writing it out before the next: its peak stays
    under a quarter of the body.  The body is in the canonical form, so it
    is printed as it was served, and a newline."""
    body = _large_body(20_000)
    with open(tmp_path / "out.txt", "w", encoding="utf-8") as out:
        rc, peak = run_command("timemap", body, out)
    assert rc == 0
    assert (tmp_path / "out.txt").read_bytes() == body + b"\n"
    assert peak < 0.25 * len(body)


def _entry_at(dt: datetime, path: str, rel: str = "memento") -> str:
    """A memento entry whose URI holds no timestamp, so that URI order is
    `path` order, whatever the datetimes."""
    return (f'<http://archive.example/memento/{path}>; rel="{rel}"; '
            f'datetime="{format_rfc1123(dt)}"')


_BUNDLE = '<http://archive.example/list/timebundle/http://s.example/>; rel="timebundle"'


@pytest.mark.parametrize("entries", [
    [_entry_at(_dt(2003), "a", "last memento"), *ROLES, _entry_at(_dt(2001), "c"),
     _entry_at(_dt(2000), "d", "first memento"), _entry_at(_dt(2002), "b")],
    [*ROLES, _entry_at(_dt(2000), "z", "first memento"), _entry_at(_dt(2000), "y"),
     _entry_at(_dt(2000), "x"), _entry_at(_dt(2001), "w", "last memento")],
    [*ROLES, _entry_at(_dt(2004), "only", "first last memento")],
    [*ROLES[1:], _entry_at(_dt(2001), "a"), _BUNDLE, ROLES[0], _entry_at(_dt(2000), "b")],
    ROLES,
], ids=["out-of-order", "same-second-reversed", "first-and-last", "timebundle",
        "roles-only"])
def test_timemap_command_prints_the_canonical_serialisation(run_command, capsys, entries):
    """`timemap` prints what the reference parser reads from the body,
    serialised by the reference writer: mementos in (datetime, URI) order,
    each with its own first/last tokens, after the role entries."""
    text = ",\n ".join(entries)
    rc, _ = run_command("timemap", text.encode("utf-8"))
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert captured.out == oracle_serialize_link_format(oracle_parse_link_format(text)) + "\n"


def test_timemap_command_reports_an_undecodable_byte_before_a_malformed_entry(
        run_command, capsys):
    """The malformed entry is in the first 16 KiB decoded, the byte that is
    not UTF-8 in a later piece."""
    mementos = [_memento(_dt(2000), path=f"p{i}") for i in range(200)]
    body = ",\n".join([*ROLES, "oops", *mementos]).encode("utf-8") + b"\xff"
    assert body.index(b"oops") < 1 << 14 < len(body)
    rc, _ = run_command("timemap", body)
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith("error: TimeMap http://127.0.0.1:")
    assert captured.err.endswith(f"is not UTF-8: invalid start byte at byte offset "
                                 f"{len(body) - 1}\n")
