import pytest

from memento_audit.client import decode_timemap, fetch_timemap
from memento_audit.errors import NotArchived, RobotsExcluded
from memento_audit.fixture_archive.scenarios import (
    NEWS_ORIGINAL,
    NEWS_TIMESTAMPS,
    ROBOTS_ORIGINAL,
)
from memento_audit.linkformat import parse_link_format
from memento_audit.replay import to_replay_uri
from memento_audit.timefmt import parse_ts14


def _parsed_timemap(original, endpoint, fetcher):
    body, _ = fetch_timemap(original, endpoint, fetcher)
    return parse_link_format(decode_timemap(body, original, endpoint))


def test_fetch_timemap_ok(service, endpoint, fetcher):
    tm = _parsed_timemap(NEWS_ORIGINAL, endpoint, fetcher)
    assert tm.original == NEWS_ORIGINAL
    assert len(tm.mementos) == len(NEWS_TIMESTAMPS)
    assert tm.first.datetime == parse_ts14(NEWS_TIMESTAMPS[0])
    assert tm.last.datetime == parse_ts14(NEWS_TIMESTAMPS[-1])
    assert tm.first.is_first and tm.last.is_last


def test_timemap_memento_uris_are_rewritable(service, endpoint, fetcher):
    tm = _parsed_timemap(NEWS_ORIGINAL, endpoint, fetcher)
    for record in tm.mementos:
        replay = to_replay_uri(record.uri, endpoint)
        assert replay.original == NEWS_ORIGINAL
        assert parse_ts14(replay.timestamp) == record.datetime


def test_robots_excluded_maps_to_error(service, endpoint, fetcher):
    with pytest.raises(RobotsExcluded):
        fetch_timemap(ROBOTS_ORIGINAL, endpoint, fetcher)


def test_unknown_site_not_archived(service, endpoint, fetcher):
    with pytest.raises(NotArchived):
        fetch_timemap("http://never-crawled.example/", endpoint, fetcher)


def test_invalid_original_rejected_before_network(endpoint, fetcher):
    with pytest.raises(ValueError):
        fetch_timemap("not-a-uri", endpoint, fetcher)
