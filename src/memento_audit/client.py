"""Memento archive client: TimeMap retrieval."""

import codecs
import http.client
import re
from collections.abc import Callable, Iterator
from typing import BinaryIO

from .errors import NetworkError, NotArchived, RobotsExcluded, UndecodableTimeMap
from .fetching import PoliteFetcher, Write
from .replay import ArchiveEndpoint, validate_original_uri

ROBOTS_MARKER = b"robots.txt"
#: The start of a link-format entry, `<uri>;` (RFC 6690 §2).
_LINK_ENTRY_START_RE = re.compile(rb"\s*<[^>]*>\s*;")
#: A head that may still grow into _LINK_ENTRY_START_RE's match; its groups
#: say how far it got: "<" once inside `<...>`, ">" once past it.
_LINK_ENTRY_PREFIX_RE = re.compile(rb"\s*(?:(<)[^>]*(?:(>)\s*)?)?")
#: Bytes of a TimeMap body decoded at a time.
_PIECE_BYTES = 1 << 14


class _RobotsScan:
    """A writer that passes a TimeMap body on to `write` and judges, as on
    the whole body and for any split of it into pieces, whether it is a
    robots exclusion: it holds ROBOTS_MARKER and does not start like a
    link-format entry.  The marker is looked for only while the head may
    not be link-format."""

    def __init__(self, write: Write):
        self.write = write
        self.head = b""  # the undecided head, cut to the state it reached
        self.link_format: bool | None = None
        self.found = False
        self.tail = b""  # the last bytes, which a marker may straddle

    def __call__(self, piece: bytes) -> None:
        if self.link_format is None:
            head = self.head + piece if self.head else piece
            if _LINK_ENTRY_START_RE.match(head):
                self.link_format = True
            elif match := _LINK_ENTRY_PREFIX_RE.fullmatch(head):
                self.head = (match[1] or b"") + (match[2] or b"")
            else:
                self.link_format = False
        if not self.link_format and not self.found:
            keep = len(ROBOTS_MARKER) - 1
            self.found = ROBOTS_MARKER in self.tail + piece[:keep] or ROBOTS_MARKER in piece
            self.tail = (self.tail + piece[-keep:])[-keep:]
        self.write(piece)

    @property
    def excluded(self) -> bool:
        return self.found and not self.link_format


def fetch_timemap(original: str, ep: ArchiveEndpoint, fetcher: PoliteFetcher,
                  open_body: Callable[[http.client.HTTPMessage], Write],
                  etag: str | None = None) -> http.client.HTTPMessage | None:
    """GET the TimeMap for an original URI, hand its body piece by piece, as
    it arrives, to the writer open_body(response headers) gives, and return
    the response's headers.  A retried GET starts a fresh writer.

    Given the `etag` of a stored TimeMap, the GET is conditional on it
    (If-None-Match, RFC 9110 §13.1.2), and a 304 Not Modified returns None.
    A 304 to an unconditional GET is a NetworkError.  Archives signal robots
    exclusions inconsistently, so both a 403 and a 200 whose body contains
    ROBOTS_MARKER map to RobotsExcluded; a body that starts like a
    link-format entry is a TimeMap, whatever its URIs hold.  The body of any
    other status is not written.
    """
    validate_original_uri(original)
    uri = ep.expand_timemap(original)
    scan = None

    def open_scanned(status: int, headers: http.client.HTTPMessage) -> Write | None:
        nonlocal scan
        scan = _RobotsScan(open_body(headers)) if status == 200 else None
        return scan

    result = fetcher.follow(uri, headers=None if etag is None else {"If-None-Match": etag},
                            open_body=open_scanned)
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
    if scan.excluded:
        raise RobotsExcluded(f"robots marker {ROBOTS_MARKER.decode()!r} in TimeMap "
                             f"response for {original}")
    return result.headers


def decode_timemap_pieces(body: BinaryIO, original: str, ep: ArchiveEndpoint) -> Iterator[str]:
    """The body of `original`'s TimeMap, a binary file read from its start,
    as text decoded _PIECE_BYTES at a time; a character cut by a piece's end
    comes whole in the next piece.  Link-format is UTF-8 (RFC 6690 §2), so
    no charset is sniffed; a body that is not UTF-8 raises
    UndecodableTimeMap naming the TimeMap URI and the byte offset, as
    decoding it whole would."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    body.seek(0)
    start = 0
    while True:
        piece = body.read(_PIECE_BYTES)
        held = len(decoder.getstate()[0])  # bytes of a character the last piece cut
        try:
            text = decoder.decode(piece, final=not piece)
        except UnicodeDecodeError as exc:
            raise UndecodableTimeMap(f"TimeMap {ep.expand_timemap(original)} is not UTF-8: "
                                     f"{exc.reason} at byte offset "
                                     f"{start - held + exc.start}") from exc
        if text:
            yield text
        if not piece:
            return
        start += len(piece)
