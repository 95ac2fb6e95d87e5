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
from urllib.parse import urldefrag

from ..bridge import _INITIATOR_TRIGGERS
from ..capture import (PHASE_PAGE, PHASE_SUBRESOURCE, SCRIPTING_ON, TRIGGER_MARKUP,
                       ResourceFetch, _fetch_from_chain, _looks_like_css, _looks_like_html)
from ..extract import extract_css_refs, extract_page_refs
from ..fetching import PoliteFetcher
from ..replay import MEMENTO_SHAPE_RE, SKIP_SCHEMES, join_reference
from .server import _QuietHandler, serve_in_thread, stop_serving

logger = logging.getLogger(__name__)

#: 1x1 PNG, base64 — the screenshot artifact this stub always "takes".
SCREENSHOT_B64 = ("iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJAAAADUlEQVR4"
                  "2mNkYPhfDwAChwGA60e6kgAAAABJRU5ErkJggg==")


def _fetch_doc(fetch: ResourceFetch) -> dict:
    """A fetch as the capture protocol reports it."""
    return {"chain": fetch.chain, "error": fetch.error,
            "content_type": fetch.content_type, "bytes": fetch.bytes}


def _resolvable(absolute: str) -> bool:
    return not absolute.startswith(SKIP_SCHEMES) and absolute.startswith(
        ("http://", "https://"))


def _browser_join(base: str, ref: str) -> str:
    """Resolve a reference the way a browser under replay does.

    When the base is a memento URI, resolve against its original, as the
    auditor splits it, and put the replay prefix back.  A reference that does
    not parse, such as "//[bad", resolves to "", which is never fetched.
    """
    try:
        ref = urldefrag(ref.strip())[0]
        if not ref or ref.startswith(SKIP_SCHEMES) or ref.startswith(("http://", "https://")):
            return ref
        m = MEMENTO_SHAPE_RE.match(base)
        if m is None:
            return join_reference(base, ref)
        prefix, timestamp, original = m.groups()
        return f"{prefix}/{timestamp}/{join_reference(original, ref)}"
    except ValueError:
        return ""


class StubBridge:
    """Serve /status and /capture on a local port."""

    def __init__(self, port: int = 0, host: str = "localhost"):
        self.host = host
        self._requested_port = port
        self._server = None
        self.fetcher = PoliteFetcher(politeness_s=0.0)

    def start(self) -> "StubBridge":
        self._server = serve_in_thread(self.host, self._requested_port, self._handler())
        logger.info("stub bridge at %s", self.url)
        return self

    def stop(self) -> None:
        stop_serving(self._server)
        self.fetcher.close()

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
        scripting = payload.get("scripting", SCRIPTING_ON)
        page_result = self.fetcher.follow(url)
        page = _fetch_from_chain(url, page_result, TRIGGER_MARKUP, PHASE_PAGE)
        doc = {
            "page": _fetch_doc(page),
            "subresources": [],
            "screenshot_b64": SCREENSHOT_B64 if payload.get("screenshot") else None,
        }
        if not (page.ok and _looks_like_html(page)):
            return doc

        page_url = page_result.final_uri or url
        page_text, page_encoding = page_result.decoded()
        # (ref, base, initiator, the referring document's encoding)
        planned: list[tuple[str, str, str, str]] = []
        markup, script_srcs, script_loads = extract_page_refs(page_text)
        for ref in markup:
            if scripting != SCRIPTING_ON and ref in script_srcs:
                continue  # script disabled: its source is never fetched
            planned.append((ref, page_url, "parser", page_encoding))
        if scripting == SCRIPTING_ON:
            planned.extend((ref, page_url, "script", page_encoding) for ref in script_loads)

        seen: set[str] = set()
        entries: list[dict] = []
        queue = list(planned)
        while queue:
            ref, base, initiator, referrer_encoding = queue.pop(0)
            absolute = _browser_join(base, ref)
            if not _resolvable(absolute) or absolute == page_url or absolute in seen:
                continue
            seen.add(absolute)
            result = self.fetcher.follow(absolute)
            fetch = _fetch_from_chain(absolute, result, _INITIATOR_TRIGGERS[initiator],
                                      PHASE_SUBRESOURCE)
            entries.append({**_fetch_doc(fetch), "request_uri": absolute,
                            "initiator": initiator})
            if fetch.ok and _looks_like_css(fetch):
                css_base = result.final_uri or absolute
                css_text, css_encoding = result.decoded(referrer_encoding)
                queue.extend((css_ref, css_base, "stylesheet", css_encoding)
                             for css_ref in extract_css_refs(css_text))
        doc["subresources"] = entries
        return doc

    # -- plumbing -------------------------------------------------------------

    def _handler(self):
        bridge = self

        class BridgeHandler(_QuietHandler):
            def reply(self, status: int, doc: dict) -> None:
                self.respond(status, json.dumps(doc).encode("utf-8"), "application/json")

            def do_GET(self):
                if self.path == "/status":
                    self.reply(200, {"ok": True, "engine": "stub"})
                else:
                    self.reply(404, {"error": "unknown path"})

            def do_POST(self):
                if self.path != "/capture":
                    self.reply(404, {"error": "unknown path"})
                    return
                length = int(self.headers.get("Content-Length", "0"))
                try:
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    self.reply(200, bridge.browse(payload))
                except Exception as exc:  # surface stub bugs to the caller
                    logger.exception("stub bridge failed")
                    self.reply(500, {"error": str(exc)})

        return BridgeHandler
