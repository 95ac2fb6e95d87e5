"""Polite HTTP fetch layer: per-host concurrency caps, inter-request delay,
one retry on transport errors, and manual redirect-chain following.

One PoliteFetcher instance should be shared across everything that talks to
the same hosts so the per-host limits hold globally.  It keeps connections
open for reuse, so close it, or use it as a context manager, when done.

Each GET is one request over the standard library's `http.client`, with the
headers, content decoding and cookie handling a `requests` session would
apply.  What such a session would take from the environment, proxies
honouring `no_proxy`, a `REQUESTS_CA_BUNDLE`/`CURL_CA_BUNDLE` CA bundle and
`.netrc` credentials, is resolved once per host instead, when the host is
first seen.
"""

import base64
import functools
import http.client
import http.cookiejar
import logging
import os
import re
import ssl
import threading
import time
import urllib.request
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from urllib.parse import SplitResult, quote, unquote, urljoin, urlsplit

import certifi
import idna
import requests
from requests.compat import chardet
from requests.utils import get_encoding_from_headers

from . import __version__

logger = logging.getLogger(__name__)

REDIRECT_STATUSES = (301, 302, 303, 307, 308)
USER_AGENT = f"memento-audit/{__version__}"
#: Further attempts after a GET fails in transport.
RETRIES = 1
#: Most bytes of a body read from the socket at a time.
PIECE_BYTES = 1 << 18
#: The headers of every GET, as a `requests` session sends them.
BASE_HEADERS = {
    "User-Agent": USER_AGENT,
    "Accept-Encoding": "gzip, deflate",
    "Accept": "*/*",
    "Connection": "keep-alive",
}
#: What a GET that fails in transport raises: socket and TLS errors, a
#: malformed or cut-short response, a URI that cannot be requested, and a
#: body whose content coding does not decode.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError, zlib.error)
#: What a reused connection raises, before any status line, when the server
#: closed it while it was idle (RemoteDisconnected is a ConnectionResetError).
_STALE = (ConnectionResetError, BrokenPipeError)
_SCHEME_PORTS = {"http": 80, "https": 443}

#: What urllib3 leaves unescaped in a path or a query ("?" only occurs in
#: the query); every other character is percent-encoded as UTF-8.
_TARGET_SAFE = "!$&'()*+,;=:@/?"
_ESCAPE_RE = re.compile(r"%[0-9A-Fa-f]{2}")
_UNRESERVED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")

#: Takes a response body, one decoded piece per call.
Write = Callable[[bytes], object]
#: Given a response's status and headers, the writer of its body, or None
#: to read the body and drop it.  Called afresh for every attempt.
OpenBody = Callable[[int, http.client.HTTPMessage], Write | None]


def final_status_of(chain: Sequence[tuple[int, str]], error: str | None) -> int | None:
    """A fetch's final status: its chain's last status, or None when the
    fetch ended in an error or made no hop."""
    return chain[-1][0] if chain and error is None else None


@dataclass
class ChainResult:
    """Outcome of following one URI through its redirect chain: the final
    response's headers and decoded body.  The body is empty when the chain
    ended in an error, or when it went to a writer `follow` was given."""

    hops: list[tuple[int, str]] = field(default_factory=list)
    headers: http.client.HTTPMessage = field(default_factory=http.client.HTTPMessage)
    body: bytes = b""
    error: str | None = None

    @property
    def final_status(self) -> int | None:
        return final_status_of(self.hops, self.error)

    @property
    def final_uri(self) -> str | None:
        return self.hops[-1][1] if self.hops else None

    @property
    def text(self) -> str:
        """The body decoded as `requests` decodes it: by the Content-Type
        charset, ISO-8859-1 for any other text/* type, else by the charset
        detected in the body."""
        if not self.body:
            return ""
        encoding = (get_encoding_from_headers(self.headers)
                    or chardet.detect(self.body)["encoding"])
        try:
            return str(self.body, encoding, errors="replace")
        except (LookupError, TypeError):
            return str(self.body, errors="replace")


def _environment_settings(uri: str) -> dict:
    """The request settings a `trust_env` session reads from the environment
    for `uri`'s host: proxies (empty when `no_proxy` bypasses the host), the
    CA bundle and `.netrc` credentials."""
    settings: dict = {"proxies": requests.utils.get_environ_proxies(uri)}
    ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if ca_bundle:
        settings["verify"] = ca_bundle
    auth = requests.utils.get_netrc_auth(uri)
    if auth:
        settings["auth"] = auth
    return settings


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin1")).decode()


@functools.cache
def _tls_context(ca_bundle: str) -> ssl.SSLContext:
    """A context that checks certificates and hostnames against `ca_bundle`,
    a file or a directory of certificates."""
    if os.path.isdir(ca_bundle):
        return ssl.create_default_context(capath=ca_bundle)
    return ssl.create_default_context(cafile=ca_bundle)


def _normal_escape(match: re.Match) -> str:
    char = chr(int(match[0][1:], 16))
    return char if char in _UNRESERVED else match[0].upper()


def _encoded(component: str) -> str:
    """A path or query as requests and urllib3 put it on the wire: when
    every "%" starts an escape, escapes are upper-cased and those of
    unreserved characters undone; otherwise every "%" is escaped too."""
    if "%" in component and component.count("%") == len(_ESCAPE_RE.findall(component)):
        return _ESCAPE_RE.sub(_normal_escape, quote(component, safe=_TARGET_SAFE + "%"))
    return quote(component, safe=_TARGET_SAFE)


def _without_dot_segments(path: str) -> str:
    """`path` with its "." and ".." segments resolved (RFC 3986 §5.2.4), as
    urllib3 resolves them."""
    out: list[str] = []
    for segment in path.split("/"):
        if segment == "..":
            if out:
                out.pop()
        elif segment != ".":
            out.append(segment)
    if path.startswith("/") and (not out or out[0]):
        out.insert(0, "")
    if path.endswith(("/.", "/..")):
        out.append("")
    return "/".join(out)


def _request_target(path: str, query: str) -> str:
    """The origin-form request target (RFC 9112 §3.2.1) of a URI's path and
    query, as requests and urllib3 put it on the wire."""
    if "/." in path:
        path = _without_dot_segments(path)
    return _encoded(path or "/") + ("?" + _encoded(query) if query else "")


class _Gunzip:
    """gzip undone piece by piece, member after member, as urllib3 decodes a
    whole body: a member that fails after the first ends the body, and a
    cut-short member gives what it holds.  A later member's output is held
    until the member ends, because one that fails gives nothing."""

    def __init__(self):
        self.member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        self.later = False  # past the first member
        self.held = bytearray()
        self.failed = False  # a later member failed: the rest is dropped

    def decode(self, data: bytes, final: bool) -> bytes:
        out = bytearray()
        while data and not self.failed:
            try:
                self.held += self.member.decompress(data)
            except zlib.error:
                if not self.later:
                    raise
                self.failed = True
                self.held.clear()
                break
            if not self.later or self.member.eof:
                out += self.held
                self.held.clear()
            if not self.member.eof:
                break
            data = self.member.unused_data
            self.member, self.later = zlib.decompressobj(16 + zlib.MAX_WBITS), True
        if final:
            out += self.held
        return bytes(out)


class _Inflate:
    """A zlib stream or, as urllib3 falls back to, a raw deflate stream,
    undone piece by piece.  The input is held until the zlib decoder gives
    output or ends; when it fails before that, the input starts over as raw
    deflate.  (A stream that passes for zlib until after its first output
    and then fails is an error, where a whole-body decoder would retry it
    as raw deflate; no standard raw deflate stream passes that far.)"""

    def __init__(self):
        self.stream = zlib.decompressobj()
        self.held: bytearray | None = bytearray()  # None once the coding is settled

    def decode(self, data: bytes, final: bool) -> bytes:
        if self.stream.eof:
            return b""  # what follows the stream is ignored
        if self.held is None:
            return self.stream.decompress(data)
        self.held += data
        try:
            out = self.stream.decompress(data)
        except zlib.error:
            self.stream = zlib.decompressobj(-zlib.MAX_WBITS)
            data, self.held = bytes(self.held), None
            return self.stream.decompress(data)
        if out or self.stream.eof:
            self.held = None
        return out


def _read_body(resp: http.client.HTTPResponse, write: Write | None) -> None:
    """Read `resp`'s body PIECE_BYTES at a time, undo its gzip and deflate
    content codings as it comes, the last listed first (any other coding is
    left as it is), and hand each decoded piece to `write`.  With no
    `write`, the body is read, decoded and dropped."""
    codings = ", ".join(resp.headers.get_all("Content-Encoding") or ()).lower().split(",")
    decoders = [_Inflate() if coding == "deflate" else _Gunzip()
                for coding in map(str.strip, reversed(codings))
                if coding in ("gzip", "x-gzip", "deflate")]
    while True:
        piece = resp.read(PIECE_BYTES)
        final = not piece
        if final and resp.length:  # the connection closed short of Content-Length
            raise http.client.IncompleteRead(b"", resp.length)
        for decoder in decoders:
            piece = decoder.decode(piece, final)
        if piece and write is not None:
            write(piece)
        if final:
            return
        del piece  # so that two pieces are never held at once


def _send(conn: http.client.HTTPConnection, target: str,
          headers: dict[str, str]) -> http.client.HTTPResponse:
    """Send a GET on `conn` and read the response up to its body; `conn` is
    closed when that fails."""
    try:
        conn.request("GET", target, headers=headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


class _HostGate:
    """One host's share of the fetcher: a concurrency cap and a minimum
    spacing between request starts, the host's environment settings, and
    up to `per_host` idle connections per scheme."""

    def __init__(self, per_host: int, delay_s: float, uri: str):
        self.semaphore = threading.Semaphore(per_host)
        self.lock = threading.Lock()
        self.delay_s = delay_s
        self.next_at = 0.0
        self.per_host = per_host
        self.idle: dict[str, list[http.client.HTTPConnection]] = {s: [] for s in _SCHEME_PORTS}
        settings = _environment_settings(uri)
        self.ca_bundle = settings.get("verify") or certifi.where()
        # netrc credentials, else those in the URI, as requests picks them.
        parts = urlsplit(uri)
        auth = settings.get("auth") or (
            (unquote(parts.username), unquote(parts.password or ""))
            if parts.username is not None else None)
        self.authorization = _basic_auth(*auth) if auth else None
        #: scheme -> (proxy scheme, host and port, its Proxy-Authorization header)
        self.proxies: dict[str, tuple[str, str, int, dict[str, str]]] = {}
        for scheme in _SCHEME_PORTS:
            proxy = requests.utils.select_proxy(f"{scheme}://{parts.netloc}",
                                                settings["proxies"])
            if proxy:
                proxy_parts = urlsplit(requests.utils.prepend_scheme_if_needed(proxy, "http"))
                proxy_user, proxy_password = requests.utils.get_auth_from_url(proxy)
                self.proxies[scheme] = (
                    proxy_parts.scheme, proxy_parts.hostname, proxy_parts.port or 80,
                    {"Proxy-Authorization": _basic_auth(proxy_user, proxy_password)}
                    if proxy_user else {})

    def __enter__(self):
        self.semaphore.acquire()
        with self.lock:
            now = time.monotonic()
            wait = self.next_at - now
            self.next_at = max(now, self.next_at) + self.delay_s
        if wait > 0:
            time.sleep(wait)
        return self

    def __exit__(self, *exc):
        self.semaphore.release()
        return False

    def _connection(self, scheme: str, host: str, port: int,
                    timeout_s: float) -> http.client.HTTPConnection:
        """A new connection to host:port; through the scheme's proxy, if
        any, by a CONNECT tunnel for https.  Only http:// proxies are
        spoken to."""
        proxy = self.proxies.get(scheme)
        if proxy and proxy[0] != "http":
            raise http.client.InvalidURL(f"{proxy[0]}:// proxies are not supported")
        address = proxy[1:3] if proxy else (host, port)
        if scheme == "http":
            return http.client.HTTPConnection(*address, timeout=timeout_s)
        conn = http.client.HTTPSConnection(*address, timeout=timeout_s,
                                           context=_tls_context(self.ca_bundle))
        if proxy:
            conn.set_tunnel(host, port, headers=proxy[3])
        return conn

    def exchange(self, scheme: str, host: str, port: int, target: str,
                 headers: dict[str, str], timeout_s: float,
                 open_body: OpenBody) -> http.client.HTTPResponse:
        """One GET: the response, its body read through into the writer
        open_body(status, headers) gives.

        An idle connection is used when there is one.  If the server closed
        it while idle, the GET is sent once more on a new connection.  The
        connection is kept for reuse unless the response closes it."""
        with self.lock:
            idle = self.idle[scheme]
            conn = idle.pop() if idle else None
        resp = None
        if conn is not None:
            try:
                resp = _send(conn, target, headers)
            except _STALE as exc:
                logger.debug("idle connection to %s closed (%s); sending again", host, exc)
        if resp is None:
            conn = self._connection(scheme, host, port, timeout_s)
            resp = _send(conn, target, headers)
        try:
            _read_body(resp, open_body(resp.status, resp.headers))
        except BaseException:
            resp.close()
            conn.close()
            raise
        with self.lock:
            keep = not resp.will_close and len(idle) < self.per_host
            if keep:
                idle.append(conn)
        if not keep:
            conn.close()
        return resp

    def close(self) -> None:
        with self.lock:
            conns = [conn for idle in self.idle.values() for conn in idle]
            for idle in self.idle.values():
                idle.clear()
        for conn in conns:
            conn.close()


class PoliteFetcher:
    def __init__(self, timeout_s: float = 10.0, politeness_s: float = 0.5,
                 per_host: int = 2, max_redirects: int = 10):
        self.timeout_s = timeout_s
        self.politeness_s = politeness_s
        self.per_host = per_host
        self.max_redirects = max_redirects
        self.cookies = http.cookiejar.CookieJar()
        self._gates: dict[str, _HostGate] = {}
        self._gates_lock = threading.Lock()

    def __enter__(self) -> "PoliteFetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close every idle connection; the fetcher stays usable."""
        with self._gates_lock:
            gates = list(self._gates.values())
        for gate in gates:
            gate.close()

    def _gate_for(self, netloc: str, uri: str) -> _HostGate:
        with self._gates_lock:
            gate = self._gates.get(netloc)
            if gate is None:
                gate = _HostGate(self.per_host, self.politeness_s, uri)
                self._gates[netloc] = gate
            return gate

    def _get(self, gate: _HostGate, uri: str, parts: SplitResult, headers: dict[str, str] | None,
             open_body: OpenBody) -> tuple[int, http.client.HTTPMessage]:
        if parts.scheme not in _SCHEME_PORTS or not parts.hostname:
            raise http.client.InvalidURL(f"not an http(s) URI: {uri!r}")
        port = parts.port or _SCHEME_PORTS[parts.scheme]
        host, netloc = parts.hostname, parts.netloc.rpartition("@")[2]
        if not netloc.isascii():  # an internationalised name, sent as requests sends it
            host = idna.encode(host, uts46=True).decode()
            netloc = f"{host}:{parts.port}" if parts.port else host
        target = _request_target(parts.path, parts.query)
        sent = BASE_HEADERS | headers if headers else dict(BASE_HEADERS)
        proxy = gate.proxies.get(parts.scheme)
        if proxy and parts.scheme == "http":
            # Absolute form, without user information (RFC 9112 §3.2.2).
            target = f"http://{netloc}{target}"
            sent |= proxy[3]
        request = urllib.request.Request(uri)
        self.cookies.add_cookie_header(request)
        cookie = request.get_header("Cookie")
        if cookie:
            sent["Cookie"] = cookie
        if gate.authorization:
            sent["Authorization"] = gate.authorization
        resp = gate.exchange(parts.scheme, host, port, target, sent, self.timeout_s, open_body)
        if "Set-Cookie" in resp.headers:
            self.cookies.extract_cookies(resp, request)
        return resp.status, resp.headers

    def get_once(self, uri: str, headers: dict[str, str] | None,
                 open_body: OpenBody) -> tuple[int, http.client.HTTPMessage]:
        """One GET with `headers` added to BASE_HEADERS, no redirect
        following: (status, response headers).  The body goes, decoded, to
        the writer open_body(status, headers) gives, a fresh one for each
        attempt.  Raises one of TRANSPORT_ERRORS after RETRIES further
        attempts."""
        last_exc: Exception | None = None
        parts = urlsplit(uri)
        gate = self._gate_for(parts.netloc.lower(), uri)
        for attempt in range(RETRIES + 1):
            with gate:
                try:
                    return self._get(gate, uri, parts, headers, open_body)
                except TRANSPORT_ERRORS as exc:
                    last_exc = exc
                    logger.debug("GET %s failed (attempt %d): %s", uri, attempt + 1, exc)
        assert last_exc is not None
        raise last_exc

    def _followed(self, status: int, headers: http.client.HTTPMessage, hops: int) -> bool:
        """Whether a chain goes on past its `hops`-th response."""
        return (status in REDIRECT_STATUSES and bool(headers.get("Location"))
                and hops < self.max_redirects)

    def follow(self, uri: str, headers: dict[str, str] | None = None,
               open_body: OpenBody | None = None) -> ChainResult:
        """Follow `uri` through 3xx hops, recording (status, uri) per hop;
        every hop's GET carries `headers`.

        The final response's body goes, decoded, piece by piece to the
        writer open_body(status, headers) gives, a fresh one for each
        attempt; without `open_body` it is kept as the result's `body`.  The
        body of a 3xx that is followed is read and dropped.

        Transport failures, and a 3xx whose Location does not parse, end the
        chain with `error` set; hops observed so far are kept.  A 3xx with
        no Location ends the chain as it is.  The chain is capped at
        max_redirects hops.
        """
        result = ChainResult()
        kept: list[bytes] = []

        def writer(status: int, headers_in: http.client.HTTPMessage) -> Write | None:
            if self._followed(status, headers_in, len(result.hops) + 1):
                return None
            if open_body is not None:
                return open_body(status, headers_in)
            kept.clear()
            return kept.append

        current = uri
        while True:
            try:
                status, headers_in = self.get_once(current, headers, writer)
            except TRANSPORT_ERRORS as exc:
                result.error = f"{type(exc).__name__}: {exc}"
                return result
            result.hops.append((status, current))
            if self._followed(status, headers_in, len(result.hops)):
                location = headers_in["Location"]
                try:
                    current = urljoin(current, location)
                except ValueError as exc:  # e.g. "http://[bad/x"
                    result.error = f"unparsable Location {location!r}: {exc}"
                    return result
                continue
            result.headers, result.body = headers_in, b"".join(kept)
            return result
