import contextlib
import http.client

import pytest

from memento_audit import client
from memento_audit.client import TimeMapBody, fetch_timemap
from memento_audit.errors import NotArchived, RobotsExcluded
from memento_audit.fixture_archive.scenarios import (
    NEWS_ORIGINAL,
    NEWS_TIMESTAMPS,
    ROBOTS_ORIGINAL,
)
from memento_audit.linkformat import parse_link_format
from memento_audit.replay import to_replay_uri
from memento_audit.timefmt import parse_ts14


def fetched_body(original, endpoint, fetcher) -> bytes:
    """The TimeMap body that fetch_timemap spools, from its last attempt."""
    with contextlib.closing(TimeMapBody()) as body:
        fetch_timemap(original, endpoint, fetcher, body)
        body.spool.seek(0)
        return body.spool.read()


def _parsed_timemap(original, endpoint, fetcher):
    body = fetched_body(original, endpoint, fetcher)
    return parse_link_format(body.decode("utf-8"))


def test_fetch_timemap_ok(service, endpoint, fetcher):
    tm = _parsed_timemap(NEWS_ORIGINAL, endpoint, fetcher)
    assert tm.original == NEWS_ORIGINAL
    assert len(tm.mementos) == len(NEWS_TIMESTAMPS)
    first, *middle, last = tm.mementos
    assert first.datetime == parse_ts14(NEWS_TIMESTAMPS[0])
    assert last.datetime == parse_ts14(NEWS_TIMESTAMPS[-1])
    assert first.first and last.last
    assert not any(m.first or m.last for m in middle)


def test_timemap_memento_uris_are_rewritable(service, endpoint, fetcher):
    tm = _parsed_timemap(NEWS_ORIGINAL, endpoint, fetcher)
    for record in tm.mementos:
        replay = to_replay_uri(record.uri, endpoint)
        assert replay.original == NEWS_ORIGINAL
        assert parse_ts14(replay.timestamp) == record.datetime


def test_robots_excluded_maps_to_error(service, endpoint, fetcher):
    with pytest.raises(RobotsExcluded):
        fetched_body(ROBOTS_ORIGINAL, endpoint, fetcher)


def test_unknown_site_not_archived(service, endpoint, fetcher):
    with pytest.raises(NotArchived):
        fetched_body("http://never-crawled.example/", endpoint, fetcher)


def test_invalid_original_rejected_before_network(endpoint, fetcher):
    with pytest.raises(ValueError):
        fetched_body("not-a-uri", endpoint, fetcher)


_ROBOTS_BODIES = [
    b"Blocked by robots.txt",
    b"robots.txt",
    b"robots.tx",
    b"",
    b'<http://a.example/robots.txt>; rel="original"',
    b' \n\t<http://a.example/robots.txt> \n; rel="original"',
    b"<http://a.example/robots.txt> rel=original",
    b"<http://a.example/robots.txt",
    b"   <>;robots.txt",
    b"x<a>; robots.txt",
    b"\n\n<a>\n\n",
    b"<a>\n\nrobots.txt",
    b"Excluded: see robots.txt and robots.txt again",
]


@pytest.mark.parametrize("body", _ROBOTS_BODIES)
def test_robots_verdict_is_the_whole_body_verdict_for_every_split(body):
    """However a GET's attempt cuts the body into pieces, the spool holds
    the body whole and the verdict is the whole body's."""
    whole = client._LINK_ENTRY_START_RE.match(body) is None and client.ROBOTS_MARKER in body
    splits = [range(size, len(body), size) for size in range(1, len(body) + 1)]
    splits += [[cut] for cut in range(len(body))] + [[]]
    with contextlib.closing(TimeMapBody()) as spooled:
        for cuts in splits:
            write = spooled.open(200, http.client.HTTPMessage())
            for start, end in zip([0, *cuts], [*cuts, len(body)]):
                write(body[start:end])
            assert spooled.excluded() == whole, list(cuts)[:3]
            spooled.spool.seek(0)
            assert spooled.spool.read() == body and spooled.size == len(body)
