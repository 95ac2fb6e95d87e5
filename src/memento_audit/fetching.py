"""Polite HTTP fetch layer: per-host concurrency caps, inter-request delay,
one retry on transport errors, and manual redirect-chain following.

One PoliteFetcher instance should be shared across everything that talks to
the same hosts so the per-host limits hold globally.  It keeps connections
open for reuse, so close it, or use it as a context manager, when done.

Each GET is one request over the standard library's `http.client`, with the
headers, content decoding and cookie handling a `requests` session would
apply.  What such a session would take from the environment, proxies
honouring `no_proxy`, a `REQUESTS_CA_BUNDLE`/`CURL_CA_BUNDLE` CA bundle and
`.netrc` credentials, is read by the same rules with the standard library,
once per host, when the host is first seen.  A page or stylesheet body is
decoded as a browser decodes it (`ChainResult.decoded`).
"""

import base64
import codecs
import functools
import http.client
import http.cookiejar
import itertools
import logging
import netrc
import os
import re
import socket
import ssl
import threading
import time
import urllib.request
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from urllib.parse import SplitResult, quote, unquote, urlsplit

import certifi
import idna

from . import __version__
from .replay import join_reference, remove_dot_segments

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

    def decoded(self, referrer_encoding: str | None = None) -> tuple[str, str]:
        """The body as a browser decodes it, and the codec that decoded it.

        A page, when no `referrer_encoding` is given, is decoded by its byte
        order mark, else by its Content-Type charset, else by a <meta>
        charset in its first 1 024 bytes, else as windows-1252 (WHATWG HTML,
        "determining the character encoding").  A stylesheet is decoded by
        its byte order mark, else by its Content-Type charset, else by its
        @charset rule, else in `referrer_encoding`, the codec of the page or
        stylesheet that linked it (CSS Syntax 3).  A label that names no
        encoding is passed over; nothing is guessed from the bytes, and
        bytes the codec cannot decode become U+FFFD."""
        body = self.body
        for bom, encoding in _BOMS:
            if body.startswith(bom):
                return str(body[len(bom):], encoding, errors="replace"), encoding
        encoding = _charset(self.headers.get_content_charset())
        if encoding is None and referrer_encoding is None:
            encoding = _meta_charset(body[:_PRESCAN_BYTES]) or _WINDOWS_1252
        elif encoding is None:
            rule = _CSS_CHARSET_RE.match(body)
            encoding = (rule and _declared_charset(rule[1])) or referrer_encoding
        if encoding == _WINDOWS_1252:
            return codecs.charmap_decode(body, "strict", _WINDOWS_1252_TABLE)[0], encoding
        return str(body, encoding, errors="replace"), encoding


#: Byte order marks, which outrank every declared charset.
_BOMS = ((codecs.BOM_UTF8, "utf-8"), (codecs.BOM_UTF16_BE, "utf-16-be"),
         (codecs.BOM_UTF16_LE, "utf-16-le"))
_WINDOWS_1252 = "cp1252"
#: windows-1252 as a browser decodes it (WHATWG Encoding): Python's cp1252,
#: but the five bytes it leaves undefined, 0x81, 0x8D, 0x8F, 0x90 and 0x9D,
#: become the C1 controls U+0081 and so on, not U+FFFD.
_WINDOWS_1252_TABLE = "".join(bytes([byte]).decode(_WINDOWS_1252, "ignore") or chr(byte)
                              for byte in range(256))
#: How far into a page a <meta> charset is looked for.
_PRESCAN_BYTES = 1024
#: Python codecs that no browser decodes a document with.
_NOT_CHARSETS = frozenset({"idna", "punycode", "raw-unicode-escape", "unicode-escape",
                           "utf-7", "utf-32", "utf-32-be", "utf-32-le"})
#: A comment, or a <meta> tag's attributes, in a page's first bytes.
_META_RE = re.compile(rb"""<!--.*?-->|<meta[\s/]((?:[^>"']|"[^"]*"|'[^']*')*)>""",
                      re.IGNORECASE | re.DOTALL)
_ATTRIBUTE_RE = re.compile(rb"""([^\s/>=]+)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s>]*))?""")
#: The charset in a <meta http-equiv="Content-Type"> tag's content.
_CONTENT_CHARSET_RE = re.compile(rb"""charset\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s;"']+))""",
                                 re.IGNORECASE)
#: A stylesheet's @charset rule, which counts only as its very first bytes.
_CSS_CHARSET_RE = re.compile(rb'@charset "([^";]*)";')


def _charset(label: str | None) -> str | None:
    """The codec a charset label names, read as a browser reads it, where
    ISO-8859-1 and ASCII mean windows-1252; None when it names none."""
    if not label:
        return None
    try:
        name = codecs.lookup(label.strip()).name
        "".encode(name)  # LookupError for a codec that is not a text encoding
    except (LookupError, ValueError, UnicodeError):
        return None
    if name in _NOT_CHARSETS:
        return None
    return _WINDOWS_1252 if name in ("ascii", "iso8859-1") else name


def _declared_charset(label: bytes) -> str | None:
    """The codec a label in a document's own bytes names.  UTF-16 means
    UTF-8 there: a document whose label could be read as ASCII is not
    UTF-16, and no byte order mark said it was."""
    encoding = _charset(label.decode("latin-1"))
    return "utf-8" if encoding and encoding.startswith("utf-16") else encoding


def _meta_charset(head: bytes) -> str | None:
    """The codec the first <meta> in `head` that declares a known charset
    names: by its charset attribute, else by the content of an http-equiv
    Content-Type."""
    for tag in _META_RE.finditer(head):
        if tag[1] is None:
            continue  # a comment
        attributes: dict[bytes, bytes] = {}
        for name, value in _ATTRIBUTE_RE.findall(tag[1]):
            if value[:1] in (b'"', b"'"):
                value = value[1:-1]
            attributes.setdefault(name.lower(), value)
        label = attributes.get(b"charset")
        if label is None and attributes.get(b"http-equiv", b"").lower() == b"content-type":
            match = _CONTENT_CHARSET_RE.search(attributes.get(b"content", b""))
            label = match and match[match.lastindex]
        encoding = label is not None and _declared_charset(label)
        if encoding:
            return encoding
    return None


# --- the environment, as a `requests` session reads it ------------------------


def _environ_proxies(uri: str) -> dict[str, str]:
    """The environment's proxies for `uri` (`requests.utils.get_environ_proxies`):
    none when `no_proxy` or `NO_PROXY`, a comma list, names the host.  An
    IPv4 host is named by itself or by a CIDR block that holds it; any other
    host by itself, by host:port, or by a suffix of either at a dot."""
    parts = urlsplit(uri)
    host = parts.hostname
    if host is None:
        return {}
    no_proxy = os.environ.get("no_proxy") or os.environ.get("NO_PROXY")
    entries = [entry for entry in (no_proxy or "").replace(" ", "").split(",") if entry]
    address = _ipv4(host)
    if address is not None:
        if any(_in_block(address, entry) if entry.count("/") == 1 else host == entry
               for entry in entries):
            return {}
    else:
        named = (host, f"{host}:{parts.port}" if parts.port else host)
        for entry in entries:
            entry = entry.lstrip(".")
            if entry in named or any(name.endswith("." + entry) for name in named):
                return {}
    try:
        if urllib.request.proxy_bypass(host):  # "*", and the platform's own list
            return {}
    except (TypeError, socket.gaierror):
        pass
    return urllib.request.getproxies()


def _ipv4(text: str) -> int | None:
    """`text` as an IPv4 address in any form inet_aton reads, else None."""
    try:
        return int.from_bytes(socket.inet_aton(text), "big")
    except OSError:
        return None


def _in_block(address: int, block: str) -> bool:
    """Whether `address` is in `block`, an address/bits CIDR block with 1 to
    32 bits; False when `block` is not one."""
    network, _, bits = block.partition("/")
    try:
        width = int(bits)
    except ValueError:
        return False
    base = _ipv4(network)
    if base is None or not 1 <= width <= 32:
        return False
    mask = (0xFFFFFFFF << (32 - width)) & 0xFFFFFFFF
    return address & mask == base & mask


def _select_proxy(uri: str, proxies: dict[str, str]) -> str | None:
    """The proxy for `uri` (`requests.utils.select_proxy`): the first of
    scheme://host, scheme, all://host and all that `proxies` holds."""
    parts = urlsplit(uri)
    if parts.hostname is None:
        return proxies.get(parts.scheme, proxies.get("all"))
    for key in (f"{parts.scheme}://{parts.hostname}", parts.scheme,
                f"all://{parts.hostname}", "all"):
        if key in proxies:
            return proxies[key]
    return None


def _with_scheme(url: str) -> SplitResult:
    """A proxy URL's parts, as `requests.utils.prepend_scheme_if_needed(url,
    "http")` gives them: http:// is assumed when no scheme is given."""
    if not re.match(r"[a-zA-Z][a-zA-Z0-9+-]*:|/", url):
        url = "//" + url
    parts = urlsplit(url)
    return parts._replace(scheme=parts.scheme or "http")


def _url_auth(parts: SplitResult) -> tuple[str, str]:
    """The user and password in a URL (`requests.utils.get_auth_from_url`):
    both empty unless the URL gives both."""
    if parts.username is None or parts.password is None:
        return "", ""
    return unquote(parts.username), unquote(parts.password)


def _netrc_auth(uri: str) -> tuple[str, str] | None:
    """`.netrc` credentials for `uri`'s host (`requests.utils.get_netrc_auth`):
    from the file NETRC names, else the first of ~/.netrc and ~/_netrc that
    exists; the entry's login, else its account, and its password.  None
    when there is no such entry, or the file cannot be read or parsed."""
    named = os.environ.get("NETRC")
    paths = [os.path.expanduser(path)
             for path in ((named,) if named is not None else ("~/.netrc", "~/_netrc"))]
    path = next((path for path in paths if os.path.exists(path)), None)
    host = urlsplit(uri).hostname
    if path is None or host is None:
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if not entry or not any(entry):
        return None
    login, account, password = entry
    return login or account or "", password or ""


def ca_bundle() -> str:
    """The CA bundle to check certificates against: the environment's, else certifi's."""
    return (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            or certifi.where())


def _environment_settings(uri: str) -> dict:
    """The request settings a `trust_env` session reads from the environment
    for `uri`'s host: proxies (empty when `no_proxy` bypasses the host), the
    CA bundle and `.netrc` credentials."""
    settings: dict = {"proxies": _environ_proxies(uri), "verify": ca_bundle()}
    auth = _netrc_auth(uri)
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


def new_connection(scheme: str, host: str, port: int | None, timeout_s: float,
                   bundle: str) -> http.client.HTTPConnection:
    """A new http or https connection to host:port, checked against `bundle`."""
    if scheme == "http":
        return http.client.HTTPConnection(host, port, timeout=timeout_s)
    if scheme == "https":
        return http.client.HTTPSConnection(host, port, timeout=timeout_s,
                                           context=_tls_context(bundle))
    raise http.client.InvalidURL(f"not an http(s) scheme: {scheme!r}")


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


def _request_target(path: str, query: str) -> str:
    """The origin-form request target (RFC 9112 §3.2.1) of a URI's path, its
    dot segments removed by the resolver's rule, and query, as _encoded gives them."""
    return _encoded(remove_dot_segments(path) or "/") + ("?" + _encoded(query) if query else "")


def _inflated(stream, data: bytes, replay_failure: bool = False) -> Iterator[bytes]:
    """What `stream`, a zlib decompressor, gives for `data`, in pieces of at
    most PIECE_BYTES however far the data expands.  With `replay_failure`, a
    stream that fails first gives what its input up to the failing byte
    decodes to, however that input was cut into pieces."""
    while True:
        before = stream.copy() if replay_failure else None
        try:
            out = stream.decompress(data, PIECE_BYTES)
        except zlib.error:
            if before is None:
                raise
            # The call's output is lost with it: decode its input again from
            # where the call began, a byte at a time, up to the failing byte,
            # which raises again.
            stream, out = before, b""
            for at in range(len(data)):
                if piece := stream.decompress(data[at:at + 1]):  # a few KiB at most
                    yield piece
        if out:
            yield out
        data = stream.unconsumed_tail
        if stream.eof or (not data and len(out) < PIECE_BYTES):
            return


class _Gunzip:
    """gzip undone piece by piece, member after member, as urllib3 decodes a
    whole body: a member that fails after the first ends the body, keeping
    what its input up to the failing byte decoded to, and a cut-short member
    gives what it holds.  The output comes in pieces of at most PIECE_BYTES."""

    def __init__(self):
        self.member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        self.later = False  # past the first member
        self.failed = False  # a later member failed: the rest is dropped

    def decode(self, data: bytes) -> Iterator[bytes]:
        while data and not self.failed:
            try:
                yield from _inflated(self.member, data, self.later)
            except zlib.error:
                if not self.later:
                    raise
                self.failed = True
                return
            if not self.member.eof:
                return
            data = self.member.unused_data
            self.member, self.later = zlib.decompressobj(16 + zlib.MAX_WBITS), True


class _Inflate:
    """A zlib stream or, as urllib3 falls back to, a raw deflate stream,
    undone piece by piece, in pieces of at most PIECE_BYTES.  The input is
    held until the zlib decoder gives output or ends; when it fails before
    that, the input starts over as raw deflate.  (A stream that passes for
    zlib until after its first output and then fails is an error, where a
    whole-body decoder would retry it as raw deflate; no standard raw
    deflate stream passes that far.)"""

    def __init__(self):
        self.stream = zlib.decompressobj()
        self.held: bytearray | None = bytearray()  # None once the coding is settled

    def decode(self, data: bytes) -> Iterator[bytes]:
        if self.stream.eof:
            return  # what follows the stream is ignored
        if self.held is not None:
            self.held += data
            try:
                out = self.stream.decompress(data, PIECE_BYTES)
            except zlib.error:
                self.stream = zlib.decompressobj(-zlib.MAX_WBITS)
                data, self.held = bytes(self.held), None
                yield from _inflated(self.stream, data)
                return
            if not out and not self.stream.eof:
                return
            self.held = None
            yield out
            data = self.stream.unconsumed_tail
        yield from _inflated(self.stream, data)


def _read_body(resp: http.client.HTTPResponse, write: Write | None) -> None:
    """Read `resp`'s body PIECE_BYTES at a time, undo its gzip and deflate
    content codings as it comes, the last listed first (any other coding is
    left as it is), and hand each decoded piece, of at most PIECE_BYTES, to
    `write`.  With no `write`, the body is read, decoded and dropped."""
    codings = ", ".join(resp.headers.get_all("Content-Encoding") or ()).lower().split(",")
    decoders = [_Inflate() if coding == "deflate" else _Gunzip()
                for coding in map(str.strip, reversed(codings))
                if coding in ("gzip", "x-gzip", "deflate")]
    while piece := resp.read(PIECE_BYTES):
        pieces: Iterable[bytes] = (piece,)
        for decoder in decoders:
            pieces = itertools.chain.from_iterable(map(decoder.decode, pieces))
        for out in pieces:
            if out and write is not None:
                write(out)
        piece = pieces = out = None  # so that two pieces are never held at once
    if resp.length:  # the connection closed short of Content-Length
        raise http.client.IncompleteRead(b"", resp.length)


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
        self.ca_bundle = settings["verify"]
        # netrc credentials, else those in the URI, as requests picks them.
        parts = urlsplit(uri)
        auth = settings.get("auth") or _url_auth(parts)
        self.authorization = _basic_auth(*auth) if any(auth) else None
        #: scheme -> (proxy scheme, host and port, its Proxy-Authorization header)
        self.proxies: dict[str, tuple[str, str, int, dict[str, str]]] = {}
        for scheme in _SCHEME_PORTS:
            proxy = _select_proxy(f"{scheme}://{parts.netloc}", settings["proxies"])
            if proxy:
                proxy_parts = _with_scheme(proxy)
                proxy_user, proxy_password = _url_auth(proxy_parts)
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
        conn = new_connection(scheme, *address, timeout_s, self.ca_bundle)
        if proxy and scheme == "https":
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
        every hop's GET carries `headers`; replay.join_reference resolves each Location.

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
                    current = join_reference(current, location)
                except ValueError as exc:  # e.g. "http://[bad/x"
                    result.error = f"unparsable Location {location!r}: {exc}"
                    return result
                continue
            result.headers, result.body = headers_in, b"".join(kept)
            return result
