"""Subresource reference extraction from HTML markup and CSS text."""

import re
from html.parser import HTMLParser

# Attributes that embed a fetchable resource, per tag.
_SRC_TAGS = {
    "img": "src",
    "script": "src",
    "iframe": "src",
    "embed": "src",
    "source": "src",
}

_CSS_URL_RE = re.compile(r"""url\(\s*['"]?([^'")\s]+)['"]?\s*\)""", re.IGNORECASE)
_CSS_IMPORT_RE = re.compile(r"""@import\s+(?!url\()['"]([^'"]+)['"]""", re.IGNORECASE)


def extract_css_refs(css_text: str) -> list[str]:
    """References pulled from url(...) and @import in CSS, document order."""
    matches = [(m.start(), m.group(1)) for m in _CSS_URL_RE.finditer(css_text)]
    matches += [(m.start(), m.group(1)) for m in _CSS_IMPORT_RE.finditer(css_text)]
    return _dedup([ref for _, ref in sorted(matches)])


class _MarkupRefParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.refs: list[str] = []
        self.script_loads: list[str] = []
        self.script_srcs: list[str] = []
        self._in_style = False
        self._style_buf: list[str] = []

    def _add(self, ref: str | None):
        if ref:
            self.refs.append(ref)

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag in _SRC_TAGS:
            self._add(attrs.get(_SRC_TAGS[tag]))
        elif tag == "object":
            self._add(attrs.get("data"))
        elif tag == "link":
            rel = (attrs.get("rel") or "").lower().split()
            if "stylesheet" in rel:
                self._add(attrs.get("href"))
        elif tag == "style":
            self._in_style = True
        if tag == "script":
            if attrs.get("src"):
                self.script_srcs.append(attrs["src"])
            if attrs.get("data-loads"):
                # Stub-browser convention: scripts declare what they would
                # fetch at runtime in a data-loads attribute.
                self.script_loads.extend(attrs["data-loads"].split())
        style_attr = attrs.get("style")
        if style_attr:
            self.refs.extend(extract_css_refs(style_attr))

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag == "style":
            self._in_style = False
            self.refs.extend(extract_css_refs("".join(self._style_buf)))
            self._style_buf.clear()

    def handle_data(self, data):
        if self._in_style:
            self._style_buf.append(data)


def extract_markup_refs(html: str) -> list[str]:
    """Subresource references a non-scripting client would fetch from markup:
    img/script/iframe/embed/source src, object data, stylesheet link href,
    and url(...) inside style blocks and style attributes."""
    return extract_page_refs(html)[0]


def extract_page_refs(html: str) -> tuple[list[str], list[str], list[str]]:
    """One parse of a page: its markup references (as extract_markup_refs),
    its external script sources (the refs a script-disabled browser skips),
    and the references its scripts declare via the data-loads stub convention
    (see capture docs)."""
    parser = _MarkupRefParser()
    parser.feed(html)
    parser.close()
    return _dedup(parser.refs), _dedup(parser.script_srcs), _dedup(parser.script_loads)


def _dedup(refs: list[str]) -> list[str]:
    deduped = []
    seen = set()
    for ref in refs:
        if ref not in seen:
            seen.add(ref)
            deduped.append(ref)
    return deduped
