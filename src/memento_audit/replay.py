"""Archive URI space: endpoint templates, replay URIs, rewriting, host classes.

Original URIs are kept byte-for-byte; replay services are sensitive to the
exact bytes of the embedded original, so nothing here percent-normalizes.
"""

import re
from dataclasses import dataclass, field
from urllib.parse import urldefrag, urljoin, urlsplit, urlunsplit

from .errors import UnrecognizedShape, UnresolvableReference
from .fetching import _without_dot_segments
from .timefmt import parse_ts14, split_netloc_path

HOST_ARCHIVE = "archive"
HOST_LIVE = "live"
HOST_CHROME = "replay-chrome"

# References that carry no archive request and are counted, not fetched.
SKIP_SCHEMES = ("data:", "blob:", "javascript:", "mailto:")

#: The path prefixes of replay chrome on an archive host, unless configured.
CHROME_PREFIXES = ("/static/",)

#: A reference up to its query or fragment.
_BEFORE_QUERY_RE = re.compile(r"[^?#]*")

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


def join_reference(base_uri: str, reference: str) -> str:
    """`reference` resolved against the absolute URI `base_uri` as RFC 3986
    §5.2 and a browser resolve it.  In an http(s) reference, a `\\` before
    any `?` or `#` is read as `/`, as WHATWG URL reads it, so that img\\x.gif
    is img/x.gif and \\\\h\\x.gif is //h/x.gif.  A relative-path reference is
    merged with the base's path, then its dot segments are removed, and every
    empty segment of both is kept: urljoin drops them, so that it joins
    http://h/a//b/c.html and d.gif to http://h/a/b/d.gif, where a browser
    requests http://h/a//b/d.gif.  Every other form of reference goes to
    urljoin."""
    ref = urlsplit(reference)
    if "\\" in reference and (ref.scheme or urlsplit(base_uri).scheme) in ("http", "https"):
        end = _BEFORE_QUERY_RE.match(reference).end()
        reference = reference[:end].replace("\\", "/") + reference[end:]
        ref = urlsplit(reference)
    if ref.scheme or ref.netloc or not ref.path or ref.path.startswith("/"):
        return urljoin(base_uri, reference)
    scheme, netloc, path, _, _ = urlsplit(base_uri)
    path = _without_dot_segments((path[:path.rfind("/") + 1] or "/") + ref.path)
    return urlunsplit((scheme, netloc, path, ref.query, ref.fragment))


def resolve_reference(base_uri: str, reference: str) -> str:
    """Resolve a page reference against an absolute base URI, without its
    fragment. Raises UnresolvableReference for what a browser would not fetch."""
    ref = reference.strip()
    if not ref or ref.startswith("#"):
        raise UnresolvableReference(f"fragment-only reference: {reference!r}")
    lowered = ref.lower()
    for scheme in SKIP_SCHEMES:
        if lowered.startswith(scheme):
            raise UnresolvableReference(f"non-fetchable scheme: {reference!r}")
    try:
        resolved, _frag = urldefrag(join_reference(base_uri, ref))
        parts = urlsplit(resolved)
    except ValueError as exc:  # a malformed authority, such as "//[bad"
        raise UnresolvableReference(f"malformed reference {reference!r}: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise UnresolvableReference(f"reference resolves to no http(s) URI: {reference!r}")
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
