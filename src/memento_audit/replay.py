"""Archive URI space: endpoint templates, replay URIs, the URL resolver,
rewriting, host classes.

join_reference resolves every page reference and every redirect's Location
as WHATWG URL does for http(s), and its remove_dot_segments is the request
target's rule too.  Original URIs are kept byte-for-byte: replay services
are sensitive to the exact bytes of the embedded original, so nothing here
percent-encodes, and no host or port is canonicalised.
"""

import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from .errors import UnrecognizedShape, UnresolvableReference
from .timefmt import parse_ts14, split_netloc_path

HOST_ARCHIVE = "archive"
HOST_LIVE = "live"
HOST_CHROME = "replay-chrome"

#: The path prefixes of replay chrome on an archive host, unless configured.
CHROME_PREFIXES = ("/static/",)

#: What WHATWG URL strips from both ends of a reference: C0 controls and space.
C0_CONTROL_OR_SPACE = "".join(map(chr, range(0x21)))
#: (scheme, authority, path, "?" query, "#" fragment) of a reference, where
#: a `\\` before the query reads as `/`.
_REFERENCE_RE = re.compile(
    r"(?:([A-Za-z][A-Za-z0-9+.-]*):)?(?:[/\\]{2}([^/\\?#]*))?([^?#]*)(\?[^#]*)?(#.*)?", re.S)

#: (replay prefix, timestamp, original) of a memento URI, at its first timestamp.
MEMENTO_SHAPE_RE = re.compile(r"^(https?://[^/]+.*?)/(\d{14})/(https?://.+)$")


def validate_original_uri(uri: str) -> str:
    """Check the absolute http(s), fragment-free form required of originals."""
    parts = urlsplit(uri)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise ValueError(f"original URI must be absolute http(s): {uri!r}")
    if parts.fragment:
        raise ValueError(f"original URI must not carry a fragment: {uri!r}")
    return uri


@dataclass(frozen=True)
class ArchiveEndpoint:
    """How one archive exposes TimeMaps and replay, and which hosts it owns.

    Templates use `{original}` and `{timestamp}` placeholders, e.g.
    `http://web.archive.org/web/{timestamp}/{original}`.
    """

    timemap_template: str
    replay_template: str
    archive_hosts: frozenset[str]
    replay_chrome_prefixes: tuple[str, ...] = CHROME_PREFIXES

    def __post_init__(self):
        if "{original}" not in self.timemap_template:
            raise ValueError("timemap_template needs an {original} slot")
        if "{timestamp}" not in self.replay_template or "{original}" not in self.replay_template:
            raise ValueError("replay_template needs {timestamp} and {original} slots")
        if not self.archive_hosts:
            raise ValueError("archive_hosts must not be empty")
        object.__setattr__(
            self, "archive_hosts", frozenset(h.lower() for h in self.archive_hosts)
        )

    @classmethod
    def from_base(cls, base_url: str, chrome_prefixes: tuple[str, ...] = CHROME_PREFIXES,
                  extra_hosts: tuple[str, ...] = ()) -> "ArchiveEndpoint":
        """Derive the conventional endpoint layout from one base URL."""
        base = base_url.rstrip("/")
        host = urlsplit(base).netloc
        return cls(
            timemap_template=base + "/list/timemap/link/{original}",
            replay_template=base + "/web/{timestamp}/{original}",
            archive_hosts=frozenset({host, *extra_hosts}),
            replay_chrome_prefixes=chrome_prefixes,
        )

    def expand_timemap(self, original: str) -> str:
        return self.timemap_template.replace("{original}", original)

    def expand_replay(self, timestamp: str, original: str) -> str:
        return self.replay_template.replace("{timestamp}", timestamp).replace(
            "{original}", original
        )


@dataclass(frozen=True)
class ReplayUri:
    """A memento addressed through the archive's replay endpoint."""

    timestamp: str
    original: str
    uri: str

    @property
    def year(self) -> int:
        """The calendar year the memento counts for: its timestamp's."""
        return int(self.timestamp[:4])


def make_replay_uri(timestamp: str, original: str, ep: ArchiveEndpoint) -> ReplayUri:
    parse_ts14(timestamp)
    return ReplayUri(timestamp=timestamp, original=original,
                     uri=ep.expand_replay(timestamp, original))


def _replay_pattern(ep: ArchiveEndpoint) -> re.Pattern:
    pattern = re.escape(ep.replay_template)
    pattern = pattern.replace(re.escape("{timestamp}"), r"(\d{14})")
    pattern = pattern.replace(re.escape("{original}"), r"(.+)")
    return re.compile("^" + pattern + "$")


def parse_replay_uri(uri: str, ep: ArchiveEndpoint) -> tuple[str, str]:
    """Split a replay-form URI back into (timestamp, original).

    Round-trips with make_replay_uri: recomposing yields the identical URI.
    """
    m = _replay_pattern(ep).match(uri)
    if m is None:
        raise UnrecognizedShape(f"not a replay URI for this endpoint: {uri!r}")
    timestamp, original = m.group(1), m.group(2)
    parse_ts14(timestamp)
    if not original.startswith(("http://", "https://")):
        raise UnrecognizedShape(f"replay URI embeds no absolute original: {uri!r}")
    return timestamp, original


def to_replay_uri(memento_uri: str, ep: ArchiveEndpoint) -> ReplayUri:
    """Rewrite an API-style memento URI into replay form; replay input passes
    through, and replay input whose timestamp names no instant raises
    BadTimestamp."""
    try:
        ts, original = parse_replay_uri(memento_uri, ep)
        return ReplayUri(timestamp=ts, original=original, uri=memento_uri)
    except UnrecognizedShape:
        pass
    m = MEMENTO_SHAPE_RE.match(memento_uri)
    if m is None:
        raise UnrecognizedShape(f"no timestamped memento segment in {memento_uri!r}")
    timestamp, original = m.group(2), m.group(3)
    return make_replay_uri(timestamp, original, ep)


def classify_host(uri: str, ep: ArchiveEndpoint) -> str:
    """Partition an absolute URI into archive, live, or replay-chrome."""
    netloc, path = split_netloc_path(uri)
    if netloc.lower() not in ep.archive_hosts:
        return HOST_LIVE
    for prefix in ep.replay_chrome_prefixes:
        if path.startswith(prefix):
            return HOST_CHROME
    return HOST_ARCHIVE


def remove_dot_segments(path: str) -> str:
    """The absolute `path` without its dot segments, as WHATWG URL's path state
    reads them: ".", ".." and either with "%2e" for a dot, in any case.  Empty
    segments stay, and a dot segment at the end leaves a trailing "/"."""
    if "/." not in path and "%2" not in path:
        return path
    out: list[str] = []
    for segment in path.split("/")[1:]:
        dots = segment.lower().replace("%2e", ".")
        if dots == "..":
            del out[-1:]
        elif dots != ".":
            out.append(segment)
    if dots in (".", ".."):
        out.append("")
    return "/" + "/".join(out)


def join_reference(base_uri: str, reference: str) -> str:
    """`reference` resolved against the absolute http(s) URI `base_uri`,
    parsed once as WHATWG URL parses it and merged with the base's path as
    RFC 3986 §5.2.3 merges it; the authority is taken as written.  A
    reference with a scheme other than http(s), or with the other of the two
    and no `//`, is returned as given.  Raises ValueError for an authority
    that urlsplit cannot read, such as "[bad"."""
    ref = reference.strip(C0_CONTROL_OR_SPACE)
    ref = ref.replace("\t", "").replace("\n", "").replace("\r", "")
    scheme, authority, path, query, fragment = _REFERENCE_RE.match(ref).groups()
    base_scheme, base_authority, base_path, base_query, _ = _REFERENCE_RE.match(base_uri).groups()
    scheme, base_scheme = (scheme or base_scheme).lower(), base_scheme.lower()
    if scheme not in ("http", "https") or (scheme != base_scheme and authority is None):
        return reference
    path = path.replace("\\", "/")
    if authority is not None:
        urlsplit("//" + authority)  # raises ValueError for a host it cannot read
    else:
        authority = base_authority
        if not path:
            path, query = base_path, base_query if query is None else query
        elif not path.startswith("/"):  # merged with the base's path (RFC 3986 §5.2.3)
            path = (base_path[:base_path.rfind("/") + 1] or "/") + path
    return f"{scheme}://{authority}{remove_dot_segments(path)}{query or ''}{fragment or ''}"


def resolve_reference(base_uri: str, reference: str) -> str:
    """Resolve a page reference against an absolute base URI, without its
    fragment.  Raises UnresolvableReference for what a browser would not
    fetch: an empty or fragment-only reference, and one that names no
    http(s) URI with a host, such as "data:…", "JavaScript:…" or "//[bad"."""
    ref = reference.strip(C0_CONTROL_OR_SPACE)
    try:
        resolved = join_reference(base_uri, ref).partition("#")[0]
        parts = urlsplit(resolved)
    except ValueError as exc:  # a malformed authority, such as "//[bad"
        raise UnresolvableReference(f"malformed reference {reference!r}: {exc}") from exc
    if not ref or ref[0] == "#" or parts.scheme not in ("http", "https") or not parts.netloc:
        raise UnresolvableReference(f"no http(s) URI to fetch: {reference!r}")
    return resolved


def rewrite_subresource(base: ReplayUri, reference: str, ep: ArchiveEndpoint) -> str:
    """Resolve a page reference and address it through the archive.

    Returns the URI to request: the replay wrap of the resolved reference at
    the base timestamp, except that references resolving into an archive host
    (already-rewritten replay URIs, replay chrome assets) pass through
    untouched — wrapping those would ask the archive for a copy of itself.
    """
    resolved = resolve_reference(base.original, reference)
    if urlsplit(resolved).netloc.lower() in ep.archive_hosts:
        return resolved
    return ep.expand_replay(base.timestamp, resolved)
