"""Memento archive client: TimeMap retrieval and datetime negotiation."""

import logging
from datetime import datetime

from .errors import (
    NetworkError,
    NotArchived,
    ProtocolError,
    RobotsExcluded,
)
from .fetching import REDIRECT_STATUSES, PoliteFetcher
from .linkformat import MementoRecord, TimeMap, memento_record, parse_link_format
from .replay import ArchiveEndpoint, validate_original_uri
from .timefmt import format_rfc1123, parse_rfc1123, parse_ts14, uri_ts14

logger = logging.getLogger(__name__)

DEFAULT_ROBOTS_MARKER = "robots.txt"


def _fetcher_or_default(fetcher: PoliteFetcher | None) -> PoliteFetcher:
    return fetcher if fetcher is not None else PoliteFetcher()


def fetch_timemap_body(original: str, ep: ArchiveEndpoint,
                       fetcher: PoliteFetcher | None = None,
                       robots_marker: str = DEFAULT_ROBOTS_MARKER) -> str:
    """GET the TimeMap for an original URI and return its checked body text.

    Archives signal robots exclusions inconsistently, so both a 403 and a 200
    whose body contains `robots_marker` map to RobotsExcluded.
    """
    validate_original_uri(original)
    fetcher = _fetcher_or_default(fetcher)
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
    body = result.response.text
    if robots_marker and robots_marker in body:
        raise RobotsExcluded(f"robots marker {robots_marker!r} in TimeMap response for {original}")
    return body


def fetch_timemap(original: str, ep: ArchiveEndpoint,
                  fetcher: PoliteFetcher | None = None,
                  robots_marker: str = DEFAULT_ROBOTS_MARKER) -> TimeMap:
    """GET and parse the TimeMap for an original URI (see fetch_timemap_body)."""
    return parse_link_format(fetch_timemap_body(original, ep, fetcher, robots_marker))


def _datetime_from_memento(uri: str, resp) -> datetime:
    header = resp.headers.get("Memento-Datetime") if resp is not None else None
    if header:
        return parse_rfc1123(header)
    ts = uri_ts14(uri)
    if ts is not None:
        return parse_ts14(ts)
    raise ProtocolError(f"memento carries no datetime: {uri}")


def negotiate_datetime(timegate_uri: str, accept: datetime,
                       fetcher: PoliteFetcher | None = None) -> MementoRecord:
    """Ask a timegate for the memento nearest `accept` via Accept-Datetime.

    Follows the negotiation 3xx to the selected memento and returns its URI
    and datetime.
    """
    fetcher = _fetcher_or_default(fetcher)
    headers = {"Accept-Datetime": format_rfc1123(accept)}
    result = fetcher.follow(timegate_uri, headers=headers)
    if result.error is not None:
        raise NetworkError(f"negotiating at {timegate_uri}: {result.error}")
    first_status = result.hops[0][0]
    if first_status == 404:
        raise NotArchived(f"timegate knows no mementos: {timegate_uri}")
    if first_status == 403:
        raise RobotsExcluded(f"timegate returned 403: {timegate_uri}")
    if first_status not in REDIRECT_STATUSES:
        raise ProtocolError(f"timegate answered {first_status}, expected a 3xx")
    if len(result.hops) < 2:
        raise ProtocolError(f"timegate 3xx carried no Location: {timegate_uri}")
    final_status, memento_uri = result.hops[-1]
    if final_status == 404:
        raise NotArchived(f"negotiated memento is gone: {memento_uri}")
    dt = _datetime_from_memento(memento_uri, result.response)
    return memento_record(memento_uri, dt)
