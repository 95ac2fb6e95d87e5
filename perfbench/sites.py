"""Seeded synthetic sites and the tables they are authored from.

Every figure the benchmark checks an audit against is fixed here before any
audit runs: which references each sampled memento's page carries, how the
archive answers each one, and therefore how every fetch must be classified.
The same (workload, seed, size) always yields the same site, byte for byte,
so the benchmark process and the archive process build identical copies.
"""

import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

from memento_audit.fixture_archive import (
    FixtureManifest,
    LiveResource,
    MementoBundle,
    ResourceSpec,
    SiteFixture,
)

WORKLOADS = ("cold-static", "warm-bigmap", "cold-scripted")

BARE_HTML = "<html><body><p>nothing of note</p></body></html>\n"

_WORDS = ("archive", "memento", "replay", "harbour", "signal", "lantern",
          "orchard", "meridian", "quarry", "atlas", "cobalt", "tundra")


@dataclass(frozen=True)
class Page:
    """How many references of each kind one rich memento page carries."""

    images: int          # <img>, archived (200)
    css_images: int      # url() refs in the stylesheet the page's stylesheet imports
    scripts: int         # <script src>, archived
    moved: int           # <img> whose replay is 302 then 404
    gone: int            # <img> the archive never held (404)
    tiles: int           # <img> whose replay redirects to the live web (200 there)
    data_refs: int       # data: URIs, never dereferenced
    script_loads: int = 0    # data-loads refs the archive holds
    script_missing: int = 0  # data-loads refs it answers 404

    def expected(self, scripted: bool) -> dict[str, int]:
        """Class counts of the capture the report's counts come from: the
        static capture, or the scripting-on capture of the stub browser
        (which drops data: refs instead of recording them as skipped)."""
        ok = 3 + self.css_images + self.scripts + self.images  # page + 2 stylesheets
        missing = self.moved + self.gone
        if scripted:
            ok += self.script_loads
            missing += self.script_missing
        return {
            "archived_ok": ok,
            "archived_missing": missing,
            "leaked": self.tiles,
            "replay_chrome": 1,
            "skipped": 0 if scripted else self.data_refs,
            "network_error": 0,
        }

    def script_delta(self) -> int:
        """Subresources only a scripting browser requests."""
        return self.scripts + self.script_loads + self.script_missing

    def tile_paths(self) -> list[str]:
        return [f"tiles/{i}.png" for i in range(self.tiles)]


@dataclass(frozen=True)
class Shape:
    """Size and make-up of one workload's site."""

    first_year: int
    last_year: int
    mementos: int        # TimeMap entries; one per year when equal to the span
    scripted: bool
    normal: Page
    collapsed: Page


_STATIC_NORMAL = Page(images=45, css_images=6, scripts=2, moved=4, gone=3,
                      tiles=3, data_refs=3)
_STATIC_COLLAPSED = Page(images=6, css_images=1, scripts=1, moved=1, gone=1,
                         tiles=1, data_refs=1)
_BIGMAP_NORMAL = Page(images=10, css_images=2, scripts=1, moved=1, gone=1,
                      tiles=1, data_refs=1)
_BIGMAP_COLLAPSED = Page(images=1, css_images=0, scripts=0, moved=1, gone=0,
                         tiles=1, data_refs=1)
_SCRIPTED_NORMAL = Page(images=20, css_images=3, scripts=3, moved=2, gone=2,
                        tiles=2, data_refs=2, script_loads=6, script_missing=4)
_SCRIPTED_COLLAPSED = Page(images=3, css_images=1, scripts=1, moved=1, gone=0,
                           tiles=1, data_refs=1, script_loads=2, script_missing=2)


def shape(workload: str, short: bool) -> Shape:
    if workload == "cold-static":
        first, last = (2016, 2019) if short else (2000, 2019)
        return Shape(first, last, last - first + 1, False,
                     _STATIC_NORMAL, _STATIC_COLLAPSED)
    if workload == "warm-bigmap":
        first, last = (2019, 2024) if short else (1996, 2024)
        return Shape(first, last, 2_000 if short else 100_000, False,
                     _BIGMAP_NORMAL, _BIGMAP_COLLAPSED)
    if workload == "cold-scripted":
        first, last = (2017, 2019) if short else (2006, 2019)
        return Shape(first, last, last - first + 1, True,
                     _SCRIPTED_NORMAL, _SCRIPTED_COLLAPSED)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Timeline:
    """Every memento of the site, ascending, as 14-digit timestamps."""

    original: str
    timestamps: tuple[str, ...]
    shape: Shape

    def datetimes(self) -> list[datetime]:
        return [datetime.strptime(ts, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
                for ts in self.timestamps]


def timeline(workload: str, seed: int, short: bool = False) -> Timeline:
    sh = shape(workload, short)
    rng = random.Random(f"{workload}/{seed}/timeline")
    original = f"http://site{seed}.example/"
    years = sh.last_year - sh.first_year + 1
    if sh.mementos == years:
        # One capture a year, mid-year, so the annual sampler takes each.
        stamps = []
        for year in range(sh.first_year, sh.last_year + 1):
            dt = datetime(year, rng.randint(4, 8), rng.randint(1, 28),
                          rng.randrange(24), rng.randrange(60), rng.randrange(60))
            stamps.append(dt.strftime("%Y%m%d%H%M%S"))
        return Timeline(original, tuple(stamps), sh)
    start = datetime(sh.first_year, 1, 1)
    span = int((datetime(sh.last_year + 1, 1, 1) - start).total_seconds())
    offsets = sorted(rng.sample(range(span), sh.mementos))
    stamps = tuple((start + timedelta(seconds=s)).strftime("%Y%m%d%H%M%S")
                   for s in offsets)
    return Timeline(original, stamps, sh)


def author_pages(workload: str, seed: int, rich: list[str], sh: Shape) -> dict[str, Page]:
    """Give each rich (sampled) memento its page make-up: the normal page with
    a seeded jitter of -2..+2 images, except a run of three collapsed years
    (fewer when the history is short), placed by the seed, that the drop
    detector should flag.  The jitters are a shuffled, balanced set and the
    run's length is fixed, so requests per audit does not depend on the seed."""
    rng = random.Random(f"{workload}/{seed}/pages")
    n = len(rich)
    length = min(3, n - 1)
    start = rng.randint(max(1, n // 3), n - length)
    jitter = [i % 5 - 2 for i in range(n - length)]
    rng.shuffle(jitter)
    pages = {}
    for i, ts in enumerate(rich):
        if start <= i < start + length:
            pages[ts] = sh.collapsed
        else:
            pages[ts] = replace(sh.normal, images=sh.normal.images + jitter.pop())
    return pages


# --- the manifest the fixture archive serves ----------------------------------

def _filler(rng: random.Random, paragraphs: int) -> str:
    return "\n".join(
        "<p>" + " ".join(rng.choice(_WORDS) for _ in range(40)) + "</p>"
        for _ in range(paragraphs))


def _bundle(original: str, ts: str, page: Page, rng: random.Random) -> MementoBundle:
    def archived(path: str, media_type: str, body: bytes | None = None) -> ResourceSpec:
        if body is None:
            # Sizes vary with the seed, but so little that bytes per audit
            # stays within a percent or so of its median.
            body = rng.randbytes(rng.randint(500, 700))
        return ResourceSpec(uri=original + path, body=body, media_type=media_type)

    resources = [
        archived("css/site.css", "text/css",
                 b"@import url(theme.css);\nbody { margin: 0; }\n"),
        archived("css/theme.css", "text/css", "".join(
            f".t{j} {{ background: url(../img/tex-{j}.gif); }}\n"
            for j in range(page.css_images)).encode("ascii")),
    ]
    resources += [archived(f"img/tex-{j}.gif", "image/gif")
                  for j in range(page.css_images)]
    resources += [archived(f"js/app-{k}.js", "application/javascript",
                           f"var app{k} = {rng.randrange(10**6)};\n".encode("ascii"))
                  for k in range(page.scripts)]
    resources += [archived(f"img/{i:03d}.gif", "image/gif") for i in range(page.images)]
    resources += [ResourceSpec(uri=f"{original}img/old/{i}.gif",
                               chain=((302, f"{original}img/moved/{i}.gif"), (404, None)),
                               media_type="image/gif")
                  for i in range(page.moved)]
    resources += [ResourceSpec(uri=original + path,
                               chain=((302, "http://{live}/" + path), (200, None)),
                               media_type="image/png")
                  for path in page.tile_paths()]
    loads = [f"gallery/{i}.jpg" for i in range(page.script_loads)]
    lost = [f"gallery/lost-{i}.jpg" for i in range(page.script_missing)]
    resources += [archived(path, "image/jpeg") for path in loads]
    resources += [ResourceSpec(uri=original + path, chain=((404, None),),
                               media_type="image/jpeg")
                  for path in lost]

    head = ['<link rel="stylesheet" href="css/site.css">',
            '<link rel="stylesheet" href="http://{archive}/static/replay-banner.css">']
    head += [f'<script src="js/app-{k}.js"></script>' for k in range(page.scripts)]
    if loads or lost:
        head.append(f'<script data-loads="{" ".join(loads + lost)}">'
                    "/* fills the gallery after load */</script>")
    body = [f'<img src="img/{i:03d}.gif" alt="picture {i}">' for i in range(page.images)]
    body += [f'<img src="img/old/{i}.gif">' for i in range(page.moved)]
    body += [f'<img src="img/gone/{i}.gif">' for i in range(page.gone)]
    body += [f'<img src="{path}">' for path in page.tile_paths()]
    body += [f'<img src="data:image/gif;base64,R0lGOD{ts}{i}">' for i in range(page.data_refs)]
    rng.shuffle(body)
    html = ("<html><head><title>" + ts + "</title>\n" + "\n".join(head)
            + "\n</head><body>\n" + _filler(rng, 4) + "\n" + "\n".join(body)
            + "\n" + _filler(rng, 4) + "\n</body></html>\n")
    return MementoBundle(timestamp=ts, html=html, resources=tuple(resources),
                         script_loaded=tuple(original + p for p in loads + lost),
                         leaks=tuple(original + p for p in page.tile_paths()))


def build_manifest(tl: Timeline, pages: dict[str, Page], seed: int) -> FixtureManifest:
    """The site the archive serves.  Rich mementos come first in the bundle
    tuple: the fixture archive finds a replayed memento by a linear scan of
    that tuple, and its TimeMap sorts bundles itself, so the order changes
    nothing an audit can see but keeps set-up from timing the scan."""
    rng = random.Random(f"{seed}/bodies")
    rich = [_bundle(tl.original, ts, pages[ts], rng) for ts in pages]
    bare = [MementoBundle(timestamp=ts, html=BARE_HTML)
            for ts in tl.timestamps if ts not in pages]
    tiles = max(page.tiles for page in pages.values())
    live = tuple(LiveResource(path=f"/tiles/{i}.png", body=rng.randbytes(600),
                              media_type="image/png")
                 for i in range(tiles))
    site = SiteFixture(original=tl.original, mementos=tuple(rich + bare))
    return FixtureManifest(sites=(site,), live=live)
