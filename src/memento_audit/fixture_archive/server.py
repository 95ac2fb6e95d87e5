"""HTTP service pair realizing a manifest: a miniature replay archive and a
companion "live web" server for leak targets.

Archive endpoints:

    GET /list/timemap/link/{original}   link-format TimeMap
    GET /memento/{ts}/{original}        memento (API-style address)
    GET /web/{ts}/{original-or-sub}     memento or subresource under replay
    GET /static/...                     replay chrome assets

Responses are a pure function of the manifest: no Date/Server headers, bodies
fixed by the manifest, so identical manifests serve identical bytes.
"""

import logging
import re
import socketserver
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import PortInUse
from ..linkformat import MementoRecord, serialize_link_format
from ..replay import ArchiveEndpoint
from ..timefmt import format_rfc1123, parse_ts14
from .manifest import (
    ConcreteResponse,
    FixtureManifest,
    SiteFixture,
    _host,
    concrete_responses,
    is_text_media,
    validate_manifest,
)

logger = logging.getLogger(__name__)

_REPLAY_PATH_RE = re.compile(r"^/(?:memento|web)/(\d{14})/(.+)$")

CHROME_ASSETS = {
    "/static/replay-banner.css": (b"#replay-banner { position: fixed; top: 0; }\n",
                                  "text/css"),
}


class _QuietHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"

    def log_message(self, fmt, *args):  # noqa: D102 - silence default stderr noise
        logger.debug("%s %s", self.address_string(), fmt % args)

    def respond(self, status: int, body: bytes = b"", media_type: str = "text/plain",
                headers: dict[str, str] | None = None) -> None:
        # send_response_only: no Date/Server headers, keeping responses
        # byte-identical across runs.
        self.send_response_only(status)
        self.send_header("Content-Type", media_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if body:
            self.wfile.write(body)


def _handler(serve: Callable[[_QuietHandler], None]) -> type[_QuietHandler]:
    """A handler class that answers every GET with `serve(handler)`."""

    class Handler(_QuietHandler):
        def do_GET(self):
            serve(self)

    return Handler


#: How often a serving loop looks for stop_serving's request, in seconds.
POLL_S = 0.05


def serve_in_thread(host: str, port: int,
                    handler: type[socketserver.BaseRequestHandler]) -> ThreadingHTTPServer:
    """Bind host:port, PortInUse when it cannot, and serve it from a daemon
    thread, its `serving_thread`, until stop_serving."""
    try:
        server = ThreadingHTTPServer((host, port), handler)
    except OSError as exc:
        raise PortInUse(f"cannot bind {host}:{port}: {exc}") from exc
    server.daemon_threads = False  # so that server_close waits for every handler
    server.serving_thread = threading.Thread(target=server.serve_forever, args=(POLL_S,),
                                             daemon=True)
    server.serving_thread.start()
    return server


def stop_serving(server: ThreadingHTTPServer | None) -> None:
    """End serve_in_thread's loop, its thread and the handlers still at work,
    and close its socket; None is a no-op."""
    if server is not None:
        server.shutdown()
        server.serving_thread.join()
        server.server_close()


class FixtureService:
    """Run the archive and live servers for one manifest."""

    def __init__(self, manifest: FixtureManifest, port: int = 0, live_port: int = 0,
                 host: str = "localhost"):
        validate_manifest(manifest)
        self.manifest = manifest
        self.host = host
        self._requested_ports = (port, live_port)
        self._archive_server: ThreadingHTTPServer | None = None
        self._live_server: ThreadingHTTPServer | None = None
        self._sites_by_host = {_host(s.original): s for s in manifest.sites}
        self._bundles = {s.original: {b.timestamp: b for b in s.mementos}
                         for s in manifest.sites}
        self._live_map = {res.path: res for res in manifest.live}
        # Each filled on the first request that needs an entry (two racing
        # first requests build equal values, so no lock); TimeMap bodies
        # embed the archive's port, so start() empties theirs.
        self._timemap_bodies: dict[str, bytes] = {}
        self._concrete: dict[tuple[str, str], dict[str, ConcreteResponse]] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "FixtureService":
        port, live_port = self._requested_ports
        self._timemap_bodies.clear()
        self._archive_server = serve_in_thread(self.host, port,
                                               _handler(self._serve_archive))
        try:
            self._live_server = serve_in_thread(self.host, live_port,
                                                _handler(self._serve_live))
        except PortInUse:
            self.stop()
            raise
        logger.info("fixture archive at %s, live web at %s",
                    self.archive_base, self.live_base)
        return self

    def stop(self) -> None:
        stop_serving(self._archive_server)
        stop_serving(self._live_server)

    def __enter__(self) -> "FixtureService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- addressing -----------------------------------------------------------

    @property
    def archive_authority(self) -> str:
        return f"{self.host}:{self._archive_server.server_address[1]}"

    @property
    def live_authority(self) -> str:
        return f"{self.host}:{self._live_server.server_address[1]}"

    @property
    def archive_base(self) -> str:
        return f"http://{self.archive_authority}"

    @property
    def live_base(self) -> str:
        return f"http://{self.live_authority}"

    def endpoint(self) -> ArchiveEndpoint:
        return ArchiveEndpoint.from_base(self.archive_base)

    def substitute(self, text: str) -> str:
        return (text.replace("{archive}", self.archive_authority)
                    .replace("{live}", self.live_authority))

    def memento_uri(self, timestamp: str, original: str) -> str:
        return f"{self.archive_base}/memento/{timestamp}/{original}"

    def timegate_uri(self, original: str) -> str:
        """Advertised in every TimeMap, as RFC 7089 requires; not served."""
        return f"{self.archive_base}/timegate/{original}"

    def timemap_uri(self, original: str) -> str:
        return f"{self.archive_base}/list/timemap/link/{original}"

    # -- archive behavior -----------------------------------------------------

    def _timemap_body(self, site: SiteFixture) -> bytes:
        body = self._timemap_bodies.get(site.original)
        if body is not None:
            return body
        stamps = sorted(b.timestamp for b in site.mementos)
        roles = {"original": site.original, "timemap": self.timemap_uri(site.original),
                 "timegate": self.timegate_uri(site.original)}
        records = (MementoRecord(parse_ts14(ts), self.memento_uri(ts, site.original),
                                 i == 0, i == len(stamps) - 1)
                   for i, ts in enumerate(stamps))
        body = self._timemap_bodies[site.original] = "".join(
            serialize_link_format(roles, records)).encode("utf-8")
        return body

    def _serve_archive(self, handler: _QuietHandler) -> None:
        path = handler.path

        if path.startswith("/static/"):
            asset = CHROME_ASSETS.get(path)
            if asset is None:
                handler.respond(404, b"no such chrome asset")
            else:
                handler.respond(200, asset[0], asset[1])
            return

        if path.startswith("/list/timemap/link/"):
            original = path[len("/list/timemap/link/"):]
            site = self.manifest.site_for(original)
            if site is None:
                handler.respond(404, b"no holdings for this URI")
            elif site.robots_blocked:
                handler.respond(site.robots_status,
                                self.substitute(site.robots_body).encode("utf-8"))
            elif not site.mementos:
                handler.respond(404, b"no mementos")
            else:
                handler.respond(200, self._timemap_body(site),
                                "application/link-format")
            return

        m = _REPLAY_PATH_RE.match(path)
        if m:
            self._serve_replay(handler, m.group(1), m.group(2))
            return

        handler.respond(404, b"unknown path")

    def _serve_replay(self, handler: _QuietHandler, timestamp: str, uri: str) -> None:
        site = self._sites_by_host.get(_host(uri))
        if site is None:
            handler.respond(404, b"host not archived")
            return
        bundle = self._bundles[site.original].get(timestamp)
        if bundle is None:
            handler.respond(404, b"no memento at this timestamp")
            return
        memento_dt = format_rfc1123(parse_ts14(timestamp))

        if uri == site.original:
            body = self.substitute(bundle.html).encode(bundle.encoding, "surrogateescape")
            handler.respond(200, body, "text/html",
                            headers={"Memento-Datetime": memento_dt})
            return

        key = (site.original, timestamp)
        responses = self._concrete.get(key)
        if responses is None:
            responses = self._concrete[key] = concrete_responses(site, bundle)
        concrete = responses.get(uri)
        if concrete is None:
            handler.respond(404, b"not archived",
                            headers={"Memento-Datetime": memento_dt})
            return
        self._serve_concrete(handler, timestamp, concrete, memento_dt)

    def _serve_concrete(self, handler: _QuietHandler, timestamp: str,
                        concrete: ConcreteResponse, memento_dt: str) -> None:
        headers = {"Memento-Datetime": memento_dt}
        if concrete.location is not None and 300 <= concrete.status < 400:
            target = self.substitute(concrete.location)
            if _host(target) == self.live_authority:
                headers["Location"] = target  # replay escaping to the live web
            else:
                headers["Location"] = f"{self.archive_base}/web/{timestamp}/{target}"
            handler.respond(concrete.status, b"", headers=headers)
            return
        body = concrete.body
        if is_text_media(concrete.media_type):
            body = self.substitute(body.decode("utf-8")).encode("utf-8")
        handler.respond(concrete.status, body, concrete.media_type, headers=headers)

    # -- live behavior --------------------------------------------------------

    def _serve_live(self, handler: _QuietHandler) -> None:
        res = self._live_map.get(handler.path)
        if res is None:
            handler.respond(404, b"live web: not found")
            return
        body = res.body
        if is_text_media(res.media_type):
            body = self.substitute(body.decode("utf-8")).encode("utf-8")
        handler.respond(res.status, body, res.media_type)
