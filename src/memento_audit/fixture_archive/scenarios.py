"""Authored fixture sites exercising every replay phenomenon the auditor
classifies: clean annual growth with a sustained collapse, a one-year dip,
script-only resources that were never archived, a redirect chain ending 404,
redirects escaping to the live web, a robots-excluded site, replay chrome,
stylesheets redirected to another directory and to the live web, a
reference that does not parse, and pages that name their encoding only in
markup or not at all.

All references in fixture bodies are relative (never root-relative) so that
resolution against the original URI and against the replay URL agree — the
same trick real replay services achieve by rewriting markup server-side.
Every numeric expectation in tests traces back to the tables and tuples here.
"""

from urllib.parse import quote

from .manifest import (
    FixtureManifest,
    LiveResource,
    MementoBundle,
    ResourceSpec,
    SiteFixture,
)

#: 1x1 transparent GIF — stands in for every fixture image body.
GIF_BYTES = (b"GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\xff\xff\xff"
             b"!\xf9\x04\x01\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00"
             b"\x00\x02\x02D\x01\x00;")


def _img(uri: str, media_type: str = "image/gif") -> ResourceSpec:
    return ResourceSpec(uri=uri, body=GIF_BYTES, media_type=media_type)


def _css(uri: str, text: str) -> ResourceSpec:
    return ResourceSpec(uri=uri, body=text.encode("utf-8"), media_type="text/css")


# --- nasa: eleven years, sustained 2004-2006 collapse ------------------------

#: Authored per-year resource totals (page + stylesheet + background + images).
NASA_COUNTS = {
    1996: 7, 1997: 9, 1998: 12, 1999: 14, 2000: 16, 2001: 18,
    2002: 20, 2003: 22, 2004: 5, 2005: 4, 2006: 6,
}
#: What the drop detector must report for NASA_COUNTS at defaults (0.5 / 2).
NASA_EXPECTED_FLAG = {"start_year": 2004, "end_year": 2006,
                      "baseline": 15.0, "dropped_value": 5.0}

NASA_ORIGINAL = "http://nasa.example/"


def nasa_site() -> SiteFixture:
    bundles = []
    for year, total in sorted(NASA_COUNTS.items()):
        images = total - 3  # page, stylesheet and background make up the rest
        img_tags = "\n".join(
            f'<img src="img/{year}-{i}.gif">' for i in range(images))
        html = (f"<html><head><title>Space agency {year}</title>\n"
                f'<link rel="stylesheet" href="styles/site.css">\n'
                f"</head><body>\n{img_tags}\n</body></html>\n")
        resources = [
            _css(f"{NASA_ORIGINAL}styles/site.css",
                 f"body {{ background: url(../img/bg-{year}.gif); }}\n"),
            _img(f"{NASA_ORIGINAL}img/bg-{year}.gif"),
        ]
        resources += [_img(f"{NASA_ORIGINAL}img/{year}-{i}.gif")
                      for i in range(images)]
        bundles.append(MementoBundle(
            timestamp=f"{year}0615120000", html=html, resources=tuple(resources)))
    return SiteFixture(original=NASA_ORIGINAL, mementos=tuple(bundles))


# --- whitehouse: one-year dip that must NOT be flagged at window 2 -----------

#: 2010's stylesheet is missing (404), hiding its background image: the count
#: dips for a single year, below half the running median, then recovers.
WHITEHOUSE_COUNTS = {
    2004: 10, 2005: 10, 2006: 11, 2007: 11, 2008: 12, 2009: 12,
    2010: 5, 2011: 11,
}
WHITEHOUSE_MISSING_CSS_YEAR = 2010
WHITEHOUSE_ORIGINAL = "http://whitehouse.example/"


def whitehouse_site() -> SiteFixture:
    bundles = []
    for year, total in sorted(WHITEHOUSE_COUNTS.items()):
        css_missing = year == WHITEHOUSE_MISSING_CSS_YEAR
        images = total - 2 if css_missing else total - 3
        img_tags = "\n".join(
            f'<img src="media/{year}-{i}.png">' for i in range(images))
        html = (f"<html><head><title>Executive mansion {year}</title>\n"
                f'<link rel="stylesheet" href="css/main.css">\n'
                f"</head><body>\n{img_tags}\n</body></html>\n")
        if css_missing:
            css = ResourceSpec(uri=f"{WHITEHOUSE_ORIGINAL}css/main.css",
                               chain=((404, None),), media_type="text/css")
            resources = [css]
        else:
            resources = [
                _css(f"{WHITEHOUSE_ORIGINAL}css/main.css",
                     f"h1 {{ background: url(../media/banner-{year}.png); }}\n"),
                _img(f"{WHITEHOUSE_ORIGINAL}media/banner-{year}.png", "image/png"),
            ]
        resources += [_img(f"{WHITEHOUSE_ORIGINAL}media/{year}-{i}.png", "image/png")
                      for i in range(images)]
        bundles.append(MementoBundle(
            timestamp=f"{year}0401000000", html=html, resources=tuple(resources)))
    return SiteFixture(original=WHITEHOUSE_ORIGINAL, mementos=tuple(bundles))


# --- youtube2006: gallery images only a script would load, never archived ----

YT2006_ORIGINAL = "http://youtube2006.example/"
YT2006_TIMESTAMP = "20060601000000"
YT2006_SCRIPT_LOADED = (
    f"{YT2006_ORIGINAL}img/g1.jpg",
    f"{YT2006_ORIGINAL}img/g2.jpg",
    f"{YT2006_ORIGINAL}img/g3.jpg",
)


def youtube2006_site() -> SiteFixture:
    html = ("<html><head><title>Video gallery</title></head><body>\n"
            '<img src="img/spinner.gif">\n'
            '<script data-loads="img/g1.jpg img/g2.jpg img/g3.jpg">'
            "/* fills the gallery after load */</script>\n"
            "</body></html>\n")
    resources = (
        _img(f"{YT2006_ORIGINAL}img/spinner.gif"),
        # The gallery was never captured: requesting it yields 404.
        *(ResourceSpec(uri=uri, chain=((404, None),), media_type="image/jpeg")
          for uri in YT2006_SCRIPT_LOADED),
    )
    bundle = MementoBundle(
        timestamp=YT2006_TIMESTAMP, html=html, resources=resources,
        script_loaded=YT2006_SCRIPT_LOADED)
    return SiteFixture(original=YT2006_ORIGINAL, mementos=(bundle,))


# --- youtube2011: stylesheet redirect chain ending 404 -----------------------

YT2011_ORIGINAL = "http://youtube2011.example/"
YT2011_TIMESTAMP = "20110420002216"
YT2011_BROKEN_CSS = f"{YT2011_ORIGINAL}css/base.css"


def youtube2011_site() -> SiteFixture:
    html = ("<html><head>\n"
            '<link rel="stylesheet" href="css/base.css">\n'
            "</head><body>\n"
            '<img src="img/logo.gif">\n'
            "</body></html>\n")
    resources = (
        ResourceSpec(uri=YT2011_BROKEN_CSS,
                     chain=((302, f"{YT2011_ORIGINAL}css/base2.css"), (404, None)),
                     media_type="text/css"),
        _img(f"{YT2011_ORIGINAL}img/logo.gif"),
    )
    bundle = MementoBundle(timestamp=YT2011_TIMESTAMP, html=html, resources=resources)
    return SiteFixture(original=YT2011_ORIGINAL, mementos=(bundle,))


# --- gmaps: tiles redirect out of the archive into the live web --------------

GMAPS_ORIGINAL = "http://gmaps.example/"
GMAPS_TIMESTAMP = "20120430000000"
GMAPS_LEAKS = (
    f"{GMAPS_ORIGINAL}tiles/t1.png",
    f"{GMAPS_ORIGINAL}tiles/t2.png",
    f"{GMAPS_ORIGINAL}tiles/t3.png",
)


def gmaps_site() -> SiteFixture:
    html = ("<html><head>\n"
            '<link rel="stylesheet" href="css/maps.css">\n'
            "</head><body>\n"
            '<img src="img/logo.png">\n'
            '<img src="tiles/t1.png">\n'
            '<img src="tiles/t2.png">\n'
            '<img src="tiles/t3.png">\n'
            "</body></html>\n")
    resources = (
        _css(f"{GMAPS_ORIGINAL}css/maps.css",
             "div.map { background: url(../img/map-bg.png); }\n"),
        _img(f"{GMAPS_ORIGINAL}img/map-bg.png", "image/png"),
        _img(f"{GMAPS_ORIGINAL}img/logo.png", "image/png"),
        *(ResourceSpec(uri=uri,
                       chain=((302, "http://{live}" + uri[len(GMAPS_ORIGINAL) - 1:]),
                              (200, None)),
                       media_type="image/png")
          for uri in GMAPS_LEAKS),
    )
    bundle = MementoBundle(timestamp=GMAPS_TIMESTAMP, html=html,
                           resources=resources, leaks=GMAPS_LEAKS)
    return SiteFixture(original=GMAPS_ORIGINAL, mementos=(bundle,))


def gmaps_live_resources() -> tuple[LiveResource, ...]:
    return tuple(
        LiveResource(path=uri[len(GMAPS_ORIGINAL) - 1:], body=GIF_BYTES,
                     media_type="image/png")
        for uri in GMAPS_LEAKS
    )


# --- news site: nine mementos spanning 2000-2012, for sampling ---------------

NEWS_ORIGINAL = "http://news.example/"
NEWS_TIMESTAMPS = (
    "20000620180259",
    "20010815120000",
    "20020901000000",
    "20040101060000",
    "20050601000000",
    "20070315000000",
    "20090710120000",
    "20110301000000",
    "20121209201112",
)


def news_site() -> SiteFixture:
    bundles = tuple(
        MementoBundle(timestamp=ts,
                      html=f"<html><body><p>News as of {ts}</p></body></html>\n")
        for ts in NEWS_TIMESTAMPS
    )
    return SiteFixture(original=NEWS_ORIGINAL, mementos=bundles)


# --- robots: excluded site, no holdings served -------------------------------

ROBOTS_ORIGINAL = "http://robots.example/"


def robots_site() -> SiteFixture:
    return SiteFixture(
        original=ROBOTS_ORIGINAL,
        robots_blocked=True,
        robots_status=403,
        robots_body=("Access to http://robots.example/ has been excluded "
                     "per the site's robots.txt.\n"),
    )


# --- static6: the hand-countable page — 3 images, 1 stylesheet, 1 background -

STATIC6_ORIGINAL = "http://static6.example/"
STATIC6_TIMESTAMP = "20100101000000"
STATIC6_FETCH_TOTAL = 6  # 1 page + 3 images + 1 stylesheet + 1 background
STATIC6_BACKGROUND = f"{STATIC6_ORIGINAL}bg.gif"


def static6_site() -> SiteFixture:
    html = ("<html><head>\n"
            '<link rel="stylesheet" href="s.css">\n'
            "</head><body>\n"
            '<img src="a.gif"><img src="b.gif"><img src="c.gif">\n'
            "</body></html>\n")
    resources = (
        _css(f"{STATIC6_ORIGINAL}s.css", "body { background: url(bg.gif); }\n"),
        _img(STATIC6_BACKGROUND),
        _img(f"{STATIC6_ORIGINAL}a.gif"),
        _img(f"{STATIC6_ORIGINAL}b.gif"),
        _img(f"{STATIC6_ORIGINAL}c.gif"),
    )
    bundle = MementoBundle(timestamp=STATIC6_TIMESTAMP, html=html, resources=resources)
    return SiteFixture(original=STATIC6_ORIGINAL, mementos=(bundle,))


# --- chrome: page pulling a replay-UI asset that must stay out of counts -----

CHROME_ORIGINAL = "http://chrome.example/"
CHROME_TIMESTAMP = "20150101000000"


def chrome_site() -> SiteFixture:
    html = ("<html><head>\n"
            '<link rel="stylesheet" href="http://{archive}/static/replay-banner.css">\n'
            "</head><body>\n"
            '<img src="pic.gif">\n'
            "</body></html>\n")
    bundle = MementoBundle(
        timestamp=CHROME_TIMESTAMP, html=html,
        resources=(_img(f"{CHROME_ORIGINAL}pic.gif"),))
    return SiteFixture(original=CHROME_ORIGINAL, mementos=(bundle,))


# --- movedcss: stylesheets redirected one directory down and to the live web -

MOVEDCSS_ORIGINAL = "http://movedcss.example/"
MOVEDCSS_TIMESTAMP = "20130101000000"
#: css/a.css answers 302 to css/v2/a.css, whose url(bg.gif) means css/v2/bg.gif.
MOVEDCSS_BACKGROUND = f"{MOVEDCSS_ORIGINAL}css/v2/bg.gif"
#: css/b.css answers 302 to the live web, whose url(leak.gif) is live too.
MOVEDCSS_LEAK = f"{MOVEDCSS_ORIGINAL}css/b.css"
MOVEDCSS_LIVE_PATHS = ("/movedcss/b.css", "/movedcss/leak.gif")


def movedcss_site() -> SiteFixture:
    html = ("<html><head>\n"
            '<link rel="stylesheet" href="css/a.css">\n'
            '<link rel="stylesheet" href="css/b.css">\n'
            "</head><body></body></html>\n")
    resources = (
        ResourceSpec(uri=f"{MOVEDCSS_ORIGINAL}css/a.css",
                     chain=((302, f"{MOVEDCSS_ORIGINAL}css/v2/a.css"), (200, None)),
                     body=b"body { background: url(bg.gif); }\n",
                     media_type="text/css"),
        _img(MOVEDCSS_BACKGROUND),
        ResourceSpec(uri=MOVEDCSS_LEAK,
                     chain=((302, "http://{live}" + MOVEDCSS_LIVE_PATHS[0]), (200, None)),
                     media_type="text/css"),
    )
    bundle = MementoBundle(timestamp=MOVEDCSS_TIMESTAMP, html=html, resources=resources,
                           leaks=(MOVEDCSS_LEAK,))
    return SiteFixture(original=MOVEDCSS_ORIGINAL, mementos=(bundle,))


def movedcss_live_resources() -> tuple[LiveResource, ...]:
    css_path, gif_path = MOVEDCSS_LIVE_PATHS
    return (
        LiveResource(path=css_path, body=b"body { background: url(leak.gif); }\n",
                     media_type="text/css"),
        LiveResource(path=gif_path, body=GIF_BYTES, media_type="image/gif"),
    )


# --- badref: a page holding a reference that does not parse as a URI ---------

BADREF_ORIGINAL = "http://badref.example/"
BADREF_TIMESTAMP = "20140101000000"
#: An authority with an unclosed IPv6 bracket: no browser can fetch it.
BADREF_REFERENCE = "//[bad"


def badref_site() -> SiteFixture:
    html = ("<html><body>\n"
            f'<img src="{BADREF_REFERENCE}">\n'
            '<img src="pic.gif">\n'
            "</body></html>\n")
    bundle = MementoBundle(
        timestamp=BADREF_TIMESTAMP, html=html,
        resources=(_img(f"{BADREF_ORIGINAL}pic.gif"),))
    return SiteFixture(original=BADREF_ORIGINAL, mementos=(bundle,))


# --- charsets: pages that name their encoding only in markup, or not at all ---

CHARSETS_ORIGINAL = "http://charsets.example/"
#: A UTF-8 page that names its charset only in <meta>; its stylesheet names
#: none, so it is read in the page's encoding.
CHARSETS_UTF8_TIMESTAMP = "20030101000000"
#: A windows-1252 page that names no charset at all.  One name holds the
#: byte 0x81, which Python's cp1252 leaves undefined and a browser decodes
#: as U+0081.
CHARSETS_CP1252_TIMESTAMP = "19990101000000"
#: The non-ASCII file names each page references, as a browser decodes them.
CHARSETS_NAMES = {
    CHARSETS_UTF8_TIMESTAMP: ("caf\u00e9.css", "na\u00efve.gif", "fond-\u00e9t\u00e9.gif"),
    CHARSETS_CP1252_TIMESTAMP: ("menu-\u20ac.gif", "cr\u00e8me.gif", "c1-\x81.gif"),
}


def charsets_site() -> SiteFixture:
    """Both pages are served as text/html with no charset.  Every name is
    archived under its UTF-8 percent-encoding, the form a browser requests."""
    stylesheet, image, background = (f"{CHARSETS_ORIGINAL}{quote(name)}"
                                     for name in CHARSETS_NAMES[CHARSETS_UTF8_TIMESTAMP])
    utf8_page = MementoBundle(
        timestamp=CHARSETS_UTF8_TIMESTAMP,
        html=('<html><head><meta charset="utf-8">\n'
              '<link rel="stylesheet" href="caf\u00e9.css">\n'
              "</head><body>\n"
              '<img src="na\u00efve.gif">\n'
              "</body></html>\n"),
        resources=(_css(stylesheet, "body { background: url(fond-\u00e9t\u00e9.gif); }\n"),
                   _img(image), _img(background)))
    cp1252_page = MementoBundle(
        timestamp=CHARSETS_CP1252_TIMESTAMP,
        html=("<html><head><title>Caf\u00e9 menu</title></head><body>\n"
              '<img src="menu-\u20ac.gif"><img src="cr\u00e8me.gif">\n'
              '<img src="c1-\udc81.gif">\n'  # the byte 0x81, as a surrogate escape
              "</body></html>\n"),
        resources=tuple(_img(f"{CHARSETS_ORIGINAL}{quote(name)}")
                        for name in CHARSETS_NAMES[CHARSETS_CP1252_TIMESTAMP]),
        encoding="cp1252")
    return SiteFixture(original=CHARSETS_ORIGINAL, mementos=(cp1252_page, utf8_page))


def build_all() -> FixtureManifest:
    """Every authored scenario plus the live targets they escape to."""
    return FixtureManifest(
        sites=(
            nasa_site(),
            whitehouse_site(),
            youtube2006_site(),
            youtube2011_site(),
            gmaps_site(),
            news_site(),
            robots_site(),
            static6_site(),
            chrome_site(),
            movedcss_site(),
            badref_site(),
            charsets_site(),
        ),
        live=(*gmaps_live_resources(), *movedcss_live_resources()),
    )
