"""Declarative description of what the fixture archive serves.

A manifest lists sites; each site has mementos keyed by 14-digit timestamp;
each memento bundles a page body plus a resource map whose entries carry a
response chain — a list of (status, location) steps ending in a terminal
status.  Bodies and redirect targets may use the placeholders ``{archive}``
and ``{live}``, replaced with the actual host:port authorities at serve time,
so manifests are port-independent.  ``live`` entries are what the companion
live-web server answers — the escape targets for leak scenarios.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from ..errors import InvalidManifest
from ..replay import validate_original_uri
from ..timefmt import parse_ts14

REDIRECT_RANGE = range(300, 400)

_TEXT_MEDIA_HINTS = ("text/", "css", "html", "javascript", "json", "xml",
                     "link-format")


def is_text_media(media_type: str) -> bool:
    return any(hint in media_type for hint in _TEXT_MEDIA_HINTS)


@dataclass(frozen=True)
class ResourceSpec:
    """One addressable resource and the response chain replay gives for it."""

    uri: str
    chain: tuple[tuple[int, str | None], ...] = ((200, None),)
    body: bytes = b""
    media_type: str = "application/octet-stream"


@dataclass(frozen=True)
class MementoBundle:
    """One memento: its page, served as `html` in `encoding`, and the
    resources replay gives under it.  A surrogate escape in `html` (U+DC80 to
    U+DCFF) stands for one byte of the page, which `encoding` may not define."""

    timestamp: str
    html: str
    resources: tuple[ResourceSpec, ...] = ()
    script_loaded: tuple[str, ...] = ()
    leaks: tuple[str, ...] = ()
    encoding: str = "utf-8"


@dataclass(frozen=True)
class SiteFixture:
    original: str
    mementos: tuple[MementoBundle, ...] = ()
    robots_blocked: bool = False
    robots_status: int = 403
    robots_body: str = "This URI is excluded from the archive by robots.txt."


@dataclass(frozen=True)
class LiveResource:
    """What the companion live-web server returns for a path."""

    path: str
    body: bytes = b""
    media_type: str = "application/octet-stream"
    status: int = 200


@dataclass(frozen=True)
class FixtureManifest:
    sites: tuple[SiteFixture, ...] = ()
    live: tuple[LiveResource, ...] = ()

    def site_for(self, original: str) -> SiteFixture | None:
        for site in self.sites:
            if site.original == original:
                return site
        return None


def _host(uri: str) -> str:
    return urlsplit(uri).netloc.lower()


def validate_manifest(m: FixtureManifest) -> None:
    """Raise InvalidManifest on any structural problem."""
    hosts: set[str] = set()
    for site in m.sites:
        try:
            validate_original_uri(site.original)
        except ValueError as exc:
            raise InvalidManifest(str(exc)) from exc
        host = _host(site.original)
        if host in hosts:
            raise InvalidManifest(f"two sites share the host {host!r}")
        hosts.add(host)
        seen_ts: set[str] = set()
        for bundle in site.mementos:
            try:
                parse_ts14(bundle.timestamp)
            except Exception as exc:
                raise InvalidManifest(
                    f"{site.original}: bad timestamp {bundle.timestamp!r}") from exc
            if bundle.timestamp in seen_ts:
                raise InvalidManifest(
                    f"{site.original}: duplicate timestamp {bundle.timestamp}")
            seen_ts.add(bundle.timestamp)
            resource_uris = set()
            for spec in bundle.resources:
                _validate_chain(site, spec)
                if _host(spec.uri) != host:
                    raise InvalidManifest(
                        f"{spec.uri}: resources must live under {host!r}; "
                        f"live targets belong in redirect chains")
                resource_uris.add(spec.uri)
            allowed = resource_uris | set(bundle.leaks)
            stray = set(bundle.script_loaded) - allowed
            if stray:
                raise InvalidManifest(
                    f"{site.original}@{bundle.timestamp}: script_loaded entries "
                    f"{sorted(stray)} are neither resources nor leak targets")
    for res in m.live:
        if not res.path.startswith("/"):
            raise InvalidManifest(f"live path must start with '/': {res.path!r}")


def _validate_chain(site: SiteFixture, spec: ResourceSpec) -> None:
    if not spec.chain:
        raise InvalidManifest(f"{spec.uri}: empty response chain")
    for idx, (status, location) in enumerate(spec.chain):
        final = idx == len(spec.chain) - 1
        if final:
            if status in REDIRECT_RANGE:
                raise InvalidManifest(
                    f"{spec.uri}: chain must end in a terminal status, ends {status}")
        else:
            if status not in REDIRECT_RANGE:
                raise InvalidManifest(
                    f"{spec.uri}: non-final chain status must be 3xx, got {status}")
            if not location:
                raise InvalidManifest(
                    f"{spec.uri}: redirect step {idx} has no location")
    if not spec.media_type:
        raise InvalidManifest(f"{spec.uri}: empty media type")


@dataclass(frozen=True)
class ConcreteResponse:
    """One fully resolved HTTP answer the archive gives for a URI."""

    status: int
    location: str | None = None
    body: bytes = b""
    media_type: str = "application/octet-stream"


def concrete_responses(site: SiteFixture, bundle: MementoBundle) -> dict[str, ConcreteResponse]:
    """Unroll every resource's chain into per-URI responses.

    A chain [(302, next), (404, None)] makes its own URI answer 302 and
    registers `next` (when it is under this site and not an explicit resource)
    to answer 404.  Explicit resources always win over chain-implied entries.
    """
    host = _host(site.original)
    explicit: dict[str, ConcreteResponse] = {}
    implicit: dict[str, ConcreteResponse] = {}
    for spec in bundle.resources:
        uri = spec.uri
        for idx, (status, location) in enumerate(spec.chain):
            final = idx == len(spec.chain) - 1
            response = ConcreteResponse(
                status=status,
                location=location,
                body=spec.body if final else b"",
                media_type=spec.media_type,
            )
            if idx == 0:
                explicit[uri] = response
            elif uri not in explicit:
                if uri in implicit and implicit[uri] != response:
                    raise InvalidManifest(
                        f"{uri}: two chains imply conflicting responses")
                implicit[uri] = response
            if location is None or "{live}" in location or _host(location) != host:
                break
            uri = location
    merged = dict(implicit)
    merged.update(explicit)
    return merged


# --- on-disk format ----------------------------------------------------------

def save_manifest(m: FixtureManifest, root: str | Path) -> Path:
    """Write one directory per site (manifest.json plus body files) and a
    live.json for the companion server."""
    validate_manifest(m)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for site in m.sites:
        site_dir = root / _host(site.original).replace(":", "_")
        bodies = site_dir / "bodies"
        bodies.mkdir(parents=True, exist_ok=True)
        mementos = []
        for bundle in site.mementos:
            page_name = f"page-{bundle.timestamp}.html"
            (site_dir / page_name).write_text(bundle.html, encoding=bundle.encoding,
                                              errors="surrogateescape")
            resources = []
            for i, spec in enumerate(bundle.resources):
                body_name = f"{bundle.timestamp}-{i:03d}.bin"
                (bodies / body_name).write_bytes(spec.body)
                resources.append({
                    "uri": spec.uri,
                    "media_type": spec.media_type,
                    "chain": [[status, location] for status, location in spec.chain],
                    "body_file": f"bodies/{body_name}",
                })
            mementos.append({
                "timestamp": bundle.timestamp,
                "html_file": page_name,
                "resources": resources,
                "script_loaded": list(bundle.script_loaded),
                "leaks": list(bundle.leaks),
                "encoding": bundle.encoding,
            })
        doc = {
            "original": site.original,
            "robots_blocked": site.robots_blocked,
            "robots_status": site.robots_status,
            "robots_body": site.robots_body,
            "mementos": mementos,
        }
        (site_dir / "manifest.json").write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    live_bodies = root / "live-bodies"
    live_entries = []
    for i, res in enumerate(sorted(m.live, key=lambda r: r.path)):
        body_name = f"{i:03d}.bin"
        live_bodies.mkdir(parents=True, exist_ok=True)
        (live_bodies / body_name).write_bytes(res.body)
        live_entries.append({
            "path": res.path,
            "media_type": res.media_type,
            "status": res.status,
            "body_file": f"live-bodies/{body_name}",
        })
    (root / "live.json").write_text(
        json.dumps({"resources": live_entries}, indent=2) + "\n", encoding="utf-8")
    return root


def load_manifest(root: str | Path) -> FixtureManifest:
    """Inverse of save_manifest; validates before returning."""
    root = Path(root)
    sites = []
    for manifest_path in sorted(root.glob("*/manifest.json")):
        site_dir = manifest_path.parent
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        bundles = []
        for entry in doc["mementos"]:
            encoding = entry.get("encoding", "utf-8")
            resources = tuple(
                ResourceSpec(
                    uri=r["uri"],
                    chain=tuple((int(s), loc) for s, loc in r["chain"]),
                    body=(site_dir / r["body_file"]).read_bytes(),
                    media_type=r["media_type"],
                )
                for r in entry["resources"]
            )
            bundles.append(MementoBundle(
                timestamp=entry["timestamp"],
                html=(site_dir / entry["html_file"]).read_text(encoding=encoding,
                                                               errors="surrogateescape"),
                resources=resources,
                script_loaded=tuple(entry.get("script_loaded", ())),
                leaks=tuple(entry.get("leaks", ())),
                encoding=encoding,
            ))
        sites.append(SiteFixture(
            original=doc["original"],
            mementos=tuple(bundles),
            robots_blocked=doc.get("robots_blocked", False),
            robots_status=doc.get("robots_status", 403),
            robots_body=doc.get("robots_body", ""),
        ))
    live = ()
    live_path = root / "live.json"
    if live_path.exists():
        live_doc = json.loads(live_path.read_text(encoding="utf-8"))
        live = tuple(
            LiveResource(
                path=r["path"],
                body=(root / r["body_file"]).read_bytes(),
                media_type=r["media_type"],
                status=r.get("status", 200),
            )
            for r in live_doc["resources"]
        )
    manifest = FixtureManifest(sites=tuple(sites), live=live)
    validate_manifest(manifest)
    return manifest
