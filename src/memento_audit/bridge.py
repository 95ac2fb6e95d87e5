"""Scripted capture via an external browser bridge.

The bridge is any HTTP service that loads a URL in a real browser and reports
every network request it made.  Protocol:

    GET  {bridge}/status
        -> 200 {"ok": true, ...}            bridge is up

    POST {bridge}/capture
         {"url": str, "scripting": "on"|"off", "settle_ms": int,
          "page_timeout_s": float, "screenshot": bool}
        -> 200 {"page": {"chain": [[status, uri], ...], "content_type": str?,
                         "bytes": int?, "error": str?},
                "subresources": [{"request_uri": str, "chain": [...],
                                  "content_type": str?, "bytes": int?,
                                  "initiator": "parser"|"stylesheet"|"script",
                                  "error": str?}, ...],
                "screenshot_b64": str?}

`page`, and `chain` in every fetch, are required; a `?` marks an optional
key.  A fetch's final status is its chain's last status unless `error` is
set, for both engines and for cached capture logs: a cached log stores no
`final_status`, and one that an older version stored is not read.

Each call is one request on a new `http.client` connection, made straight to
the bridge: no environment proxy, no `.netrc` credentials and no redirect.  A
bridge that cannot be reached, or answers other than 200, raises
BridgeUnavailable; one that accepts the job but never settles (a 504, or no
answer within the timeout) raises BridgeTimeout; a reply that does not fit the
shape above raises ProtocolError, which fails that memento only.  The static
engine and everything after capture run without a bridge; a scripted `audit`
or `capture` whose bridge is unreachable at the start exits 2 before capturing
anything.
"""

import base64
import dataclasses
import http.client
import json
import logging
from pathlib import Path
from urllib.parse import urlsplit

from .capture import (
    ENGINE_SCRIPTED,
    PHASE_PAGE,
    PHASE_SUBRESOURCE,
    SCRIPTING_ON,
    TRIGGER_MARKUP,
    TRIGGER_SCRIPT,
    TRIGGER_STYLESHEET,
    CaptureLog,
    ResourceFetch,
    _order_fetches,
    fetch_from_entry,
    log_filename,
)
from .errors import BridgeTimeout, BridgeUnavailable, ProtocolError
from .fetching import USER_AGENT, ca_bundle, new_connection
from .replay import ArchiveEndpoint, ReplayUri
from .timefmt import utc_now_s

logger = logging.getLogger(__name__)

_INITIATOR_TRIGGERS = {
    "parser": TRIGGER_MARKUP,
    "stylesheet": TRIGGER_STYLESHEET,
    "script": TRIGGER_SCRIPT,
}

#: Extra wall-clock allowance on top of the page timeout for bridge round-trips.
BRIDGE_GRACE_S = 15.0


def _call(bridge_url: str, method: str, path: str, payload: dict | None,
          timeout_s: float) -> tuple[int, bytes]:
    """One request to the bridge: (status, body).  `timeout_s` bounds the
    connect and each read.  TimeoutError when it runs out; any other OSError
    or an http.client.HTTPException when the bridge cannot be reached."""
    parts = urlsplit(bridge_url)
    conn = new_connection(parts.scheme, parts.netloc, None, timeout_s, ca_bundle())
    headers = {"User-Agent": USER_AGENT, "Accept": "application/json"}
    body = None
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    try:
        conn.request(method, parts.path.rstrip("/") + path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def bridge_available(bridge_url: str, timeout_s: float = 2.0) -> bool:
    """True when the bridge answers its status endpoint."""
    try:
        status, _ = _call(bridge_url, "GET", "/status", None, timeout_s)
    except (OSError, http.client.HTTPException):
        return False
    return status == 200


class ScriptedEngine:
    """Browser-perspective capture through a bridge service."""

    def __init__(self, bridge_url: str, settle_ms: int = 3000,
                 page_timeout_s: float = 30.0, screenshot_dir: str | Path | None = None):
        self.bridge_url = bridge_url.rstrip("/")
        self.settle_ms = settle_ms
        self.page_timeout_s = page_timeout_s
        self.screenshot_dir = Path(screenshot_dir) if screenshot_dir else None

    def capture(self, m: ReplayUri, ep: ArchiveEndpoint,
                scripting: str = SCRIPTING_ON) -> CaptureLog:
        started = utc_now_s()
        payload = {
            "url": m.uri,
            "scripting": scripting,
            "settle_ms": self.settle_ms,
            "page_timeout_s": self.page_timeout_s,
            "screenshot": self.screenshot_dir is not None,
        }
        try:
            status, body = _call(self.bridge_url, "POST", "/capture", payload,
                                 self.page_timeout_s + BRIDGE_GRACE_S)
        except TimeoutError as exc:
            raise BridgeTimeout(f"bridge did not answer within "
                                f"{self.page_timeout_s + BRIDGE_GRACE_S:.0f}s: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BridgeUnavailable(f"cannot reach bridge at {self.bridge_url}: {exc}") from exc
        if status == 504:
            raise BridgeTimeout(f"bridge timed out loading {m.uri}")
        if status != 200:
            raise BridgeUnavailable(f"bridge returned {status} for {m.uri}")
        try:
            doc = json.loads(body)
            page = fetch_from_entry(doc["page"], m.uri, TRIGGER_MARKUP, PHASE_PAGE)
            subs: dict[str, ResourceFetch] = {}
            for entry in doc.get("subresources") or ():
                request_uri = entry["request_uri"]
                if request_uri == m.uri or request_uri in subs:
                    continue
                trigger = _INITIATOR_TRIGGERS.get(entry.get("initiator"), TRIGGER_MARKUP)
                subs[request_uri] = fetch_from_entry(entry, request_uri, trigger,
                                                     PHASE_SUBRESOURCE)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed bridge reply for {m.uri} "
                                f"({type(exc).__name__}: {exc})") from exc

        finished = utc_now_s()
        log = CaptureLog(
            memento=m,
            engine=ENGINE_SCRIPTED,
            scripting=scripting,
            fetches=_order_fetches(page, list(subs.values())),
            started=started,
            finished=finished,
            settle_ms=self.settle_ms,
            page_timeout_s=self.page_timeout_s,
        )
        shot = doc.get("screenshot_b64")
        if shot and self.screenshot_dir is not None:
            name = log_filename(log).rsplit(".", 1)[0] + ".png"
            self.screenshot_dir.mkdir(parents=True, exist_ok=True)
            (self.screenshot_dir / name).write_bytes(base64.b64decode(shot))
            log = dataclasses.replace(log, screenshot=name)
        return log

