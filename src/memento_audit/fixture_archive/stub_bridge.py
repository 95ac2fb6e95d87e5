"""A stand-in browser bridge speaking the capture protocol over HTTP.

It "renders" a page the way a trivial browser would: fetch, resolve references
against the page URL, recurse into stylesheets, and — when scripting is on —
also fetch whatever each script tag declares in its data-loads attribute
(fixture pages declare their runtime loads that way instead of shipping a JS
engine).  With scripting off, script sources and declared loads are skipped,
like a browser with JavaScript disabled.
"""

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urldefrag, urljoin

from ..errors import PortInUse
from ..extract import extract_css_refs, extract_page_refs
from ..fetching import ChainResult, PoliteFetcher
from ..replay import SKIP_SCHEMES

logger = logging.getLogger(__name__)

#: 1x1 PNG, base64 — the screenshot artifact this stub always "takes".
SCREENSHOT_B64 = ("iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJAAAADUlEQVR4"
                  "2mNkYPhfDwAChwGA60e6kgAAAABJRU5ErkJggg==")


def _chain_doc(result: ChainResult) -> dict:
    doc = {
        "chain": [[status, uri] for status, uri in result.hops],
        "error": result.error,
        "content_type": None,
        "bytes": 0,
    }
    if result.response is not None:
        raw_ct = result.response.headers.get("Content-Type")
        if raw_ct:
            doc["content_type"] = raw_ct
        doc["bytes"] = len(result.response.content or b"")
    return doc


def _resolvable(absolute: str) -> bool:
    return not absolute.startswith(SKIP_SCHEMES) and absolute.startswith(
        ("http://", "https://"))


_REPLAY_SPLIT_RE = re.compile(r"^(https?://[^/]+.*/\d{14}/)(https?://.+)$")


def _browser_join(base: str, ref: str) -> str:
    """Resolve a reference the way a browser under replay does.

    Python's urljoin collapses the empty path segment inside an embedded
    original ('http://' becomes 'http:/'), which a browser does not do — so
    when the base is a replay URL, resolve against the embedded original and
    put the replay prefix back.  A reference that does not parse, such as
    "//[bad", resolves to "", which is never fetched.
    """
    try:
        ref = urldefrag(ref.strip())[0]
        if not ref or ref.startswith(SKIP_SCHEMES) or ref.startswith(("http://", "https://")):
            return ref
        m = _REPLAY_SPLIT_RE.match(base)
        if m is None:
            return urljoin(base, ref)
        prefix, original = m.group(1), m.group(2)
        return prefix + urljoin(original, ref)
    except ValueError:
        return ""


class StubBridge:
    """Serve /status and /capture on a local port."""

    def __init__(self, port: int = 0, host: str = "localhost"):
        self.host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.fetcher = PoliteFetcher(politeness_s=0.0)

    def start(self) -> "StubBridge":
        try:
            self._server = ThreadingHTTPServer(
                (self.host, self._requested_port), self._handler())
        except OSError as exc:
            raise PortInUse(
                f"cannot bind {self.host}:{self._requested_port}: {exc}") from exc
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        logger.info("stub bridge at %s", self.url)
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "StubBridge":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self._server.server_address[1]}"

    # -- the "browser" --------------------------------------------------------

    def browse(self, payload: dict) -> dict:
        url = payload["url"]
        scripting = payload.get("scripting", "on")
        page_result = self.fetcher.follow(url)
        doc = {
            "page": _chain_doc(page_result),
            "subresources": [],
            "screenshot_b64": SCREENSHOT_B64 if payload.get("screenshot") else None,
        }
        response = page_result.response
        page_ok = (page_result.error is None and response is not None
                   and response.status_code < 400)
        content_type = (response.headers.get("Content-Type", "") if response else "")
        if not page_ok or ("html" not in content_type and content_type):
            return doc

        html = response.text
        page_url = page_result.final_uri or url
        planned: list[tuple[str, str, str]] = []  # (ref, base, initiator)
        markup, script_srcs, script_loads = extract_page_refs(html)
        for ref in markup:
            if scripting != "on" and ref in script_srcs:
                continue  # script disabled: its source is never fetched
            planned.append((ref, page_url, "parser"))
        if scripting == "on":
            planned.extend((ref, page_url, "script") for ref in script_loads)

        seen: set[str] = set()
        entries: list[dict] = []
        queue = list(planned)
        while queue:
            ref, base, initiator = queue.pop(0)
            absolute = _browser_join(base, ref)
            if not _resolvable(absolute) or absolute == page_url or absolute in seen:
                continue
            seen.add(absolute)
            result = self.fetcher.follow(absolute)
            entry = _chain_doc(result)
            entry["request_uri"] = absolute
            entry["initiator"] = initiator
            entries.append(entry)
            response_ct = entry["content_type"] or ""
            ok = result.error is None and result.hops and result.hops[-1][0] < 400
            if ok and "css" in response_ct and result.response is not None:
                css_base = result.final_uri or absolute
                queue.extend((css_ref, css_base, "stylesheet")
                             for css_ref in extract_css_refs(result.response.text))
        doc["subresources"] = entries
        return doc

    # -- plumbing -------------------------------------------------------------

    def _handler(self):
        bridge = self

        class BridgeHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.0"

            def log_message(self, fmt, *args):
                logger.debug("%s %s", self.address_string(), fmt % args)

            def _reply(self, status: int, doc: dict) -> None:
                body = json.dumps(doc).encode("utf-8")
                self.send_response_only(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/status":
                    self._reply(200, {"ok": True, "engine": "stub"})
                else:
                    self._reply(404, {"error": "unknown path"})

            def do_POST(self):
                if self.path != "/capture":
                    self._reply(404, {"error": "unknown path"})
                    return
                length = int(self.headers.get("Content-Length", "0"))
                try:
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    self._reply(200, bridge.browse(payload))
                except Exception as exc:  # surface stub bugs to the caller
                    logger.exception("stub bridge failed")
                    self._reply(500, {"error": str(exc)})

        return BridgeHandler
