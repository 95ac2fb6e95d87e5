"""Memento archive client: TimeMap retrieval."""

from .errors import NetworkError, NotArchived, RobotsExcluded
from .fetching import PoliteFetcher
from .linkformat import TimeMap, parse_link_format
from .replay import ArchiveEndpoint, validate_original_uri

ROBOTS_MARKER = "robots.txt"


def fetch_timemap_body(original: str, ep: ArchiveEndpoint, fetcher: PoliteFetcher) -> str:
    """GET the TimeMap for an original URI and return its checked body text.

    Archives signal robots exclusions inconsistently, so both a 403 and a 200
    whose body contains ROBOTS_MARKER map to RobotsExcluded.
    """
    validate_original_uri(original)
    uri = ep.expand_timemap(original)
    result = fetcher.follow(uri)
    if result.error is not None:
        raise NetworkError(f"fetching TimeMap {uri}: {result.error}")
    status = result.final_status
    if status == 403:
        raise RobotsExcluded(f"archive returned 403 for {original}")
    if status == 404:
        raise NotArchived(f"no TimeMap for {original}")
    if status != 200:
        raise NetworkError(f"unexpected status {status} fetching TimeMap {uri}")
    body = result.text
    if ROBOTS_MARKER in body:
        raise RobotsExcluded(f"robots marker {ROBOTS_MARKER!r} in TimeMap response for {original}")
    return body


def fetch_timemap(original: str, ep: ArchiveEndpoint, fetcher: PoliteFetcher) -> TimeMap:
    """GET and parse the TimeMap for an original URI (see fetch_timemap_body)."""
    return parse_link_format(fetch_timemap_body(original, ep, fetcher))
