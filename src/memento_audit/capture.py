"""Capture a memento through archive replay and record every subresource fetch.

The static engine fetches the page over HTTP, extracts references from markup
and linked CSS, rewrites them into the archive, and dereferences each once.
The scripted engine (see bridge.py) drives an external browser instead; the
whole analysis pipeline works with no browser present.
"""

import hashlib
import json
import logging
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from pathlib import Path

from .errors import (AuditError, BadTimestamp, MementoMismatch, UnrecognizedShape,
                     UnresolvableReference)
from .extract import extract_css_refs, extract_markup_refs
from .fetching import ChainResult, PoliteFetcher, final_status_of
from .replay import (
    HOST_LIVE,
    ArchiveEndpoint,
    ReplayUri,
    classify_host,
    parse_replay_uri,
    resolve_reference,
    rewrite_subresource,
)
from .timefmt import format_iso, parse_iso, utc_now_s

logger = logging.getLogger(__name__)

ENGINE_STATIC = "static"
ENGINE_SCRIPTED = "scripted"
SCRIPTING_ON = "on"
SCRIPTING_OFF = "off"
SCRIPTING_BOTH = "both"  # a setting, not a mode: each memento on, then off

PHASE_PAGE = "page"
PHASE_SUBRESOURCE = "subresource"
TRIGGER_MARKUP = "markup"
TRIGGER_STYLESHEET = "stylesheet"
TRIGGER_SCRIPT = "script-runtime"

_TRIGGER_ORDER = {TRIGGER_MARKUP: 0, TRIGGER_STYLESHEET: 1, TRIGGER_SCRIPT: 2}

LOG_SCHEMA_VERSION = "1"
#: A site's run metadata file name, given its digest; "*" makes it a glob.
RUN_META_NAME = "run_{}.json"


@dataclass(frozen=True)
class ResourceFetch:
    """One dereferenced (or deliberately skipped) subresource request."""

    request_uri: str
    chain: tuple[tuple[int, str], ...]
    content_type: str | None
    bytes: int
    trigger: str
    phase: str
    error: str | None = None

    @property
    def final_status(self) -> int | None:
        return final_status_of(self.chain, self.error)

    @property
    def ok(self) -> bool:
        """Fetched without error, and the chain ended below 400."""
        return self.error is None and self.final_status is not None and self.final_status < 400


@dataclass(frozen=True)
class CaptureLog:
    """All fetches observed for one memento under one engine and script mode."""

    memento: ReplayUri
    engine: str
    scripting: str
    fetches: tuple[ResourceFetch, ...]
    started: datetime
    finished: datetime
    screenshot: str | None = None
    settle_ms: int | None = None
    page_timeout_s: float | None = None

    @property
    def page_fetch(self) -> ResourceFetch | None:
        for f in self.fetches:
            if f.phase == PHASE_PAGE:
                return f
        return None

    @property
    def page_failed(self) -> bool:
        page = self.page_fetch
        return page is None or not page.ok

    def subresources(self) -> list[ResourceFetch]:
        return [f for f in self.fetches if f.phase == PHASE_SUBRESOURCE]


def media_type(content_type: str | None) -> str | None:
    """The lowercased media type of a Content-Type value; None when it names
    none, such as "; charset=utf-8"."""
    return (content_type or "").split(";")[0].strip().lower() or None


def _fetch_from_chain(request_uri: str, result: ChainResult, trigger: str,
                      phase: str) -> ResourceFetch:
    """The record of a fetch that followed its chain, whichever crawler made it."""
    return ResourceFetch(
        request_uri=request_uri,
        chain=tuple(result.hops),
        content_type=media_type(result.headers.get("Content-Type")),
        bytes=len(result.body),
        trigger=trigger,
        phase=phase,
        error=result.error,
    )


def fetch_from_entry(entry: dict, request_uri: str, trigger: str,
                     phase: str) -> ResourceFetch:
    """The record of a fetch read from a document: a bridge reply's page or
    subresource, or a cached capture log's fetch.  `request_uri` must be a
    string, and `trigger` and `phase` one of the TRIGGER_* and PHASE_*
    strings.  `chain` is required, a list of [status, URI] hops, each status
    an int in 100-599 and each URI a string; `content_type` (a string or
    null), `bytes` (an int, at least 0) and `error` (a string or null) are
    optional.  A stored `final_status` is not read: the chain decides it.
    KeyError, TypeError or ValueError when the entry does not fit; nothing
    is coerced."""
    if not isinstance(request_uri, str):
        raise TypeError(f"request_uri {request_uri!r} is not a string")
    if trigger not in _TRIGGER_ORDER or phase not in (PHASE_PAGE, PHASE_SUBRESOURCE):
        raise ValueError(f"trigger {trigger!r} or phase {phase!r} is not one of the "
                         f"known triggers and phases")
    chain = []
    for status, uri in entry["chain"]:
        if type(status) is not int or not 100 <= status <= 599 or not isinstance(uri, str):
            raise ValueError(f"hop {[status, uri]!r} is not [status 100-599, URI string]")
        chain.append((status, uri))
    nbytes, error = entry.get("bytes", 0), entry.get("error")
    content_type = entry.get("content_type")
    if type(nbytes) is not int or nbytes < 0:
        raise ValueError(f"bytes {nbytes!r} is not an int of at least 0")
    if error is not None and not isinstance(error, str):
        raise TypeError(f"error {error!r} is not a string")
    if content_type is not None and not isinstance(content_type, str):
        raise TypeError(f"content_type {content_type!r} is not a string")
    return ResourceFetch(
        request_uri=request_uri,
        chain=tuple(chain),
        content_type=media_type(content_type),
        bytes=nbytes,
        trigger=trigger,
        phase=phase,
        error=error,
    )


def _skipped_fetch(raw_ref: str, trigger: str) -> ResourceFetch:
    return ResourceFetch(
        request_uri=raw_ref, chain=(), content_type=None,
        bytes=0, trigger=trigger, phase=PHASE_SUBRESOURCE,
    )


def _order_fetches(page: ResourceFetch, subs: list[ResourceFetch]) -> tuple[ResourceFetch, ...]:
    ordered = sorted(subs, key=lambda f: (_TRIGGER_ORDER[f.trigger], f.request_uri))
    return (page, *ordered)


def _looks_like_html(fetch: ResourceFetch) -> bool:
    return fetch.content_type is None or "html" in fetch.content_type


def _looks_like_css(fetch: ResourceFetch) -> bool:
    if fetch.content_type is not None:
        return "css" in fetch.content_type
    return fetch.request_uri.lower().endswith(".css")


class StaticEngine:
    """Crawler-perspective capture: markup and CSS only, no script execution.
    Each wave (the markup's references, then those of the stylesheets the last
    wave fetched) runs on one pool of 2 x per_host threads that only fetch."""

    def __init__(self, fetcher: PoliteFetcher):
        self.fetcher = fetcher

    def _dereference(self, request_uri: str, queued: tuple[str, str]
                     ) -> tuple[ResourceFetch, tuple[str, str, str] | None]:
        """Fetch one subresource, queued as (its trigger, the encoding of the
        document that referred to it).  Returns its record and, for a
        stylesheet, (the URI its body came from, its text, its encoding);
        the response is dropped."""
        trigger, referrer_encoding = queued
        result = self.fetcher.follow(request_uri)
        fetch = _fetch_from_chain(request_uri, result, trigger, PHASE_SUBRESOURCE)
        if fetch.ok and _looks_like_css(fetch):
            return fetch, (result.final_uri, *result.decoded(referrer_encoding))
        return fetch, None

    def capture(self, m: ReplayUri, ep: ArchiveEndpoint) -> CaptureLog:
        started = utc_now_s()
        page_result = self.fetcher.follow(m.uri)
        page = _fetch_from_chain(m.uri, page_result, TRIGGER_MARKUP, PHASE_PAGE)

        subs: dict[str, ResourceFetch] = {}
        # request uri -> (trigger, the referring document's encoding), for the next wave
        wave: dict[str, tuple[str, str]] = {}

        def discover(resolve: Callable[[str], str], refs: list[str], trigger: str,
                     encoding: str) -> None:
            for ref in refs:
                try:
                    request_uri = resolve(ref)
                except UnresolvableReference:
                    if ref not in subs and ref not in wave:
                        subs[ref] = _skipped_fetch(ref, trigger)
                    continue
                if request_uri not in subs and request_uri not in wave and request_uri != m.uri:
                    wave[request_uri] = (trigger, encoding)

        if page.ok and _looks_like_html(page):
            page_text, page_encoding = page_result.decoded()
            discover(partial(rewrite_subresource, m, ep=ep),
                     extract_markup_refs(page_text), TRIGGER_MARKUP, page_encoding)
            # Not the audit's memento pool: a memento task waits on these
            # fetches, so one bounded pool for both deadlocks when full.
            with ThreadPoolExecutor(max_workers=2 * self.fetcher.per_host) as pool:
                while wave:
                    results = list(pool.map(self._dereference, wave, wave.values()))
                    wave.clear()
                    subs.update((fetch.request_uri, fetch) for fetch, _ in results)
                    for _, stylesheet in results:
                        if stylesheet is None:
                            continue
                        css_base_uri, css_text, css_encoding = stylesheet
                        # A browser resolves a redirected stylesheet's url()s
                        # against where the redirects ended, not where they began.
                        if classify_host(css_base_uri, ep) == HOST_LIVE:
                            # It left the archive: its url()s are live leaks too.
                            resolve = partial(resolve_reference, css_base_uri)
                        else:
                            try:
                                ts, css_original = parse_replay_uri(css_base_uri, ep)
                            except (UnrecognizedShape, BadTimestamp):
                                continue  # chrome or foreign stylesheet: do not recurse
                            css_base = ReplayUri(timestamp=ts, original=css_original,
                                                 uri=css_base_uri)
                            resolve = partial(rewrite_subresource, css_base, ep=ep)
                        discover(resolve, extract_css_refs(css_text), TRIGGER_STYLESHEET,
                                 css_encoding)

        return CaptureLog(
            memento=m,
            engine=ENGINE_STATIC,
            scripting=SCRIPTING_OFF,
            fetches=_order_fetches(page, list(subs.values())),
            started=started,
            finished=utc_now_s(),
        )


def diff_captures(on: CaptureLog, off: CaptureLog) -> frozenset[str]:
    """The subresource request URIs that a scripting-on capture fetched and
    a scripting-off capture of the same memento did not."""
    if on.memento.uri != off.memento.uri:
        raise MementoMismatch(
            f"cannot diff captures of {on.memento.uri} and {off.memento.uri}")
    on_set = {f.request_uri for f in on.subresources()}
    off_set = {f.request_uri for f in off.subresources()}
    return frozenset(on_set - off_set)


# --- persistence -------------------------------------------------------------

def site_digest(original: str) -> str:
    """Short digest of an original URI, shared by every cache file name."""
    return hashlib.sha256(original.encode("utf-8")).hexdigest()[:12]


def capture_filename(m: ReplayUri, engine: str, scripting: str) -> str:
    return f"{m.timestamp}_{site_digest(m.original)}_{engine}_{scripting}.json"


def run_meta_filename(site: str) -> str:
    return RUN_META_NAME.format(site_digest(site))


def log_filename(log: CaptureLog) -> str:
    return capture_filename(log.memento, log.engine, log.scripting)


def log_to_document(log: CaptureLog) -> dict:
    return {
        "schema_version": LOG_SCHEMA_VERSION,
        "memento": {
            "timestamp": log.memento.timestamp,
            "original": log.memento.original,
            "uri": log.memento.uri,
        },
        "engine": log.engine,
        "scripting": log.scripting,
        "started": format_iso(log.started),
        "finished": format_iso(log.finished),
        "settle_ms": log.settle_ms,
        "page_timeout_s": log.page_timeout_s,
        "screenshot": log.screenshot,
        "fetches": [
            {
                "request_uri": f.request_uri,
                "chain": [[status, uri] for status, uri in f.chain],
                "content_type": f.content_type,
                "bytes": f.bytes,
                "trigger": f.trigger,
                "phase": f.phase,
                "error": f.error,
            }
            for f in log.fetches
        ],
    }


def log_from_document(doc: dict) -> CaptureLog:
    mem = doc["memento"]
    fetches = tuple([fetch_from_entry(f, f["request_uri"], f["trigger"], f["phase"])
                     for f in doc["fetches"]])
    return CaptureLog(
        memento=ReplayUri(timestamp=mem["timestamp"], original=mem["original"], uri=mem["uri"]),
        engine=doc["engine"],
        scripting=doc["scripting"],
        fetches=fetches,
        started=parse_iso(doc["started"]),
        finished=parse_iso(doc["finished"]),
        screenshot=doc.get("screenshot"),
        settle_ms=doc.get("settle_ms"),
        page_timeout_s=doc.get("page_timeout_s"),
    )


def write_text_atomic(path: Path, text: str) -> None:
    """Write `path` whole or not at all: a temporary file in the same
    directory, renamed over the old file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_log(log: CaptureLog, directory: str | Path) -> Path:
    path = Path(directory) / log_filename(log)
    write_text_atomic(path, json.dumps(log_to_document(log), indent=2) + "\n")
    return path


def load_log(path: str | Path) -> CaptureLog:
    """The capture log at `path`; AuditError naming the file when it holds no
    capture log."""
    try:
        return log_from_document(json.loads(Path(path).read_text(encoding="utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AuditError(f"unreadable capture log {path} "
                         f"({type(exc).__name__}: {exc})") from exc
