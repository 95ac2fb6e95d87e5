"""Memento archive client: TimeMap retrieval."""

import codecs
import re
from collections.abc import Iterator

from .errors import NetworkError, NotArchived, RobotsExcluded, UndecodableTimeMap
from .fetching import PoliteFetcher
from .replay import ArchiveEndpoint, validate_original_uri

ROBOTS_MARKER = b"robots.txt"
#: The start of a link-format entry, `<uri>;` (RFC 6690 §2).
_LINK_ENTRY_START_RE = re.compile(rb"\s*<[^>]*>\s*;")
#: Bytes of a TimeMap body decoded at a time.
_PIECE_BYTES = 1 << 14


def fetch_timemap(original: str, ep: ArchiveEndpoint, fetcher: PoliteFetcher,
                  etag: str | None = None) -> tuple[bytes, str | None] | None:
    """GET the TimeMap for an original URI and return (its checked body, its
    ETag or None).

    Given the `etag` of a stored TimeMap, the GET is conditional on it
    (If-None-Match, RFC 9110 §13.1.2), and a 304 Not Modified returns None.
    A 304 to an unconditional GET is a NetworkError.  Archives signal robots
    exclusions inconsistently, so both a 403 and a 200 whose body contains
    ROBOTS_MARKER map to RobotsExcluded; a body that starts like a
    link-format entry is a TimeMap, whatever its URIs hold.
    """
    validate_original_uri(original)
    uri = ep.expand_timemap(original)
    result = fetcher.follow(uri, headers=None if etag is None else {"If-None-Match": etag})
    if result.error is not None:
        raise NetworkError(f"fetching TimeMap {uri}: {result.error}")
    status = result.final_status
    if status == 403:
        raise RobotsExcluded(f"archive returned 403 for {original}")
    if status == 404:
        raise NotArchived(f"no TimeMap for {original}")
    if status == 304 and etag is not None:
        return None
    if status != 200:
        raise NetworkError(f"unexpected status {status} fetching TimeMap {uri}")
    body = result.body
    if _LINK_ENTRY_START_RE.match(body) is None and ROBOTS_MARKER in body:
        raise RobotsExcluded(f"robots marker {ROBOTS_MARKER.decode()!r} in TimeMap "
                             f"response for {original}")
    return body, result.headers.get("ETag")


def decode_timemap_pieces(body: bytes, original: str, ep: ArchiveEndpoint) -> Iterator[str]:
    """The body of `original`'s TimeMap as text, decoded _PIECE_BYTES at a
    time; a character cut by a piece's end comes whole in the next piece.
    Link-format is UTF-8 (RFC 6690 §2), so no charset is sniffed; a body that
    is not UTF-8 raises UndecodableTimeMap naming the TimeMap URI and the byte
    offset, as decoding it whole would."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(body)
    for start in range(0, len(body), _PIECE_BYTES):
        held = len(decoder.getstate()[0])  # bytes of a character the last piece cut
        try:
            text = decoder.decode(view[start:start + _PIECE_BYTES],
                                  final=start + _PIECE_BYTES >= len(body))
        except UnicodeDecodeError as exc:
            raise UndecodableTimeMap(f"TimeMap {ep.expand_timemap(original)} is not UTF-8: "
                                     f"{exc.reason} at byte offset "
                                     f"{start - held + exc.start}") from exc
        yield text


def decode_timemap(body: bytes, original: str, ep: ArchiveEndpoint) -> str:
    """The body of `original`'s TimeMap as one text, or UndecodableTimeMap."""
    return "".join(decode_timemap_pieces(body, original, ep))
