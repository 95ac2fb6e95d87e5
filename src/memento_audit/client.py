"""Memento archive client: TimeMap intake.

`fetch_timemap` GETs a TimeMap into a `TimeMapBody`, which hashes, counts and
spools the body as it arrives; once the GET is done, the spooled file is
checked once for a robots exclusion.  A body that was only hashed, to
revalidate a stored TimeMap of the same length, is not checked: its digest
decides whether it is that TimeMap, which passed the check.
`decode_timemap_pieces` then reads the spool back as text.
"""

import codecs
import hashlib
import http.client
import mmap
import re
import tempfile
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

from .errors import NetworkError, NotArchived, RobotsExcluded, UndecodableTimeMap
from .fetching import PoliteFetcher, Write
from .replay import ArchiveEndpoint, validate_original_uri

ROBOTS_MARKER = b"robots.txt"
#: The start of a link-format entry, `<uri>;` (RFC 6690 §2).
_LINK_ENTRY_START_RE = re.compile(rb"\s*<[^>]*>\s*;")
#: Bytes of a TimeMap body decoded at a time.
_PIECE_BYTES = 1 << 14


class TimeMapBody:
    """A TimeMap body as a GET takes it in: its SHA-256 and length, and the
    body itself, spooled into an unnamed file that no crash leaves behind,
    unless its Content-Length is `hash_only_bytes`.  The file is made in
    `spool_dir`, or in the system temporary directory when that is None."""

    def __init__(self, spool_dir: Path | None = None, hash_only_bytes: int | None = None):
        self.spool_dir = spool_dir
        self.hash_only_bytes = hash_only_bytes
        self.spool = None

    def open(self, status: int, headers: http.client.HTTPMessage) -> Write | None:
        """The writer of one attempt's body, for a 200 only; each attempt
        starts afresh."""
        if status != 200:
            return None
        self.sha256, self.size = hashlib.sha256(), 0
        self.spooled = (self.hash_only_bytes is None
                        or headers.get("Content-Length") != str(self.hash_only_bytes))
        if self.spooled:
            if self.spool is None:
                if self.spool_dir is not None:
                    self.spool_dir.mkdir(parents=True, exist_ok=True)
                self.spool = tempfile.TemporaryFile(dir=self.spool_dir)
            self.spool.seek(0)
            self.spool.truncate()
        return self.write

    def write(self, piece: bytes) -> None:
        self.sha256.update(piece)
        self.size += len(piece)
        if self.spooled:
            self.spool.write(piece)

    def excluded(self) -> bool:
        """Whether the spooled body is a robots exclusion: it holds
        ROBOTS_MARKER and does not start like a link-format entry.  An empty
        body is not."""
        self.spool.flush()
        if not self.size:
            return False
        with mmap.mmap(self.spool.fileno(), 0, access=mmap.ACCESS_READ) as view:
            return not _LINK_ENTRY_START_RE.match(view) and view.find(ROBOTS_MARKER) >= 0

    def close(self) -> None:
        if self.spool is not None:
            self.spool.close()


def fetch_timemap(original: str, ep: ArchiveEndpoint, fetcher: PoliteFetcher,
                  body: TimeMapBody, etag: str | None = None) -> http.client.HTTPMessage | None:
    """GET the TimeMap for an original URI into `body`, as it arrives, and
    return the response's headers.  A retried GET starts `body` afresh.

    Given the `etag` of a stored TimeMap, the GET is conditional on it
    (If-None-Match, RFC 9110 §13.1.2), and a 304 Not Modified returns None.
    A 304 to an unconditional GET is a NetworkError.  Archives signal robots
    exclusions inconsistently, so both a 403 and a 200 whose spooled body is
    one (`TimeMapBody.excluded`) map to RobotsExcluded.  The body of any
    other status is not written.
    """
    validate_original_uri(original)
    uri = ep.expand_timemap(original)
    result = fetcher.follow(uri, headers=None if etag is None else {"If-None-Match": etag},
                            open_body=body.open)
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
    if body.spooled and body.excluded():
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
