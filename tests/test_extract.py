from memento_audit.extract import extract_css_refs, extract_markup_refs, extract_page_refs

PAGE = """\
<html><head>
<link rel="stylesheet" href="css/site.css">
<link rel="icon" href="favicon.ico">
<style>
  body { background: url("bg.png"); }
</style>
<script src="js/app.js" data-loads="img/lazy1.jpg img/lazy2.jpg"></script>
</head><body>
<img src="img/a.gif">
<img src="img/a.gif">
<IMG SRC="img/b.gif">
<div style="background-image: url(inline.png)">x</div>
<iframe src="frame.html"></iframe>
<object data="movie.swf"></object>
<embed src="sound.mid">
<img src="">
</body></html>
"""


def test_markup_refs_cover_tags_and_styles():
    refs = extract_markup_refs(PAGE)
    assert refs == [
        "css/site.css",
        "bg.png",       # style block closes before the script tag
        "js/app.js",
        "img/a.gif",
        "img/b.gif",
        "inline.png",
        "frame.html",
        "movie.swf",
        "sound.mid",
    ]


def test_markup_refs_deduplicate_keeping_first():
    refs = extract_markup_refs('<img src="x.gif"><img src="x.gif"><img src="y.gif">')
    assert refs == ["x.gif", "y.gif"]


def test_self_closing_tags_are_read_like_start_tags():
    """The XHTML form, `<img ... />`, names the same references.  A browser
    ignores the slash on a `style` start tag, so the sheet after it is read."""
    html = ('<link rel="stylesheet" href="s.css"/><img src="a.gif"/>'
            '<style/>p { background: url(bg.png) }</style>')
    assert extract_markup_refs(html) == ["s.css", "a.gif", "bg.png"]


def test_non_stylesheet_links_ignored():
    refs = extract_markup_refs('<link rel="icon" href="favicon.ico">')
    assert refs == []


def test_empty_and_missing_src_ignored():
    assert extract_markup_refs('<img src=""><img><br>') == []


def test_script_src_listed_separately():
    assert extract_page_refs(PAGE)[1] == ["js/app.js"]


def test_script_declared_refs():
    assert extract_page_refs(PAGE)[2] == ["img/lazy1.jpg", "img/lazy2.jpg"]


def test_script_declared_refs_without_src():
    html = '<script data-loads="a.png b.png">/* inline */</script>'
    assert extract_page_refs(html) == ([], [], ["a.png", "b.png"])
    assert extract_markup_refs(html) == []


def test_css_url_forms():
    css = """
    a { background: url(plain.gif); }
    b { background: url('quoted.gif'); }
    c { background: url( "spaced.gif" ); }
    @import "imported.css";
    @import url(also-imported.css);
    """
    assert extract_css_refs(css) == [
        "plain.gif", "quoted.gif", "spaced.gif", "imported.css", "also-imported.css"]


def test_css_refs_in_document_order_and_deduped():
    css = "a{background:url(one.gif)} b{background:url(two.gif)} c{background:url(one.gif)}"
    assert extract_css_refs(css) == ["one.gif", "two.gif"]


def test_malformed_html_does_not_crash():
    refs = extract_markup_refs("<img src='broken.gif'<p><<<>")
    assert "broken.gif" in refs
