import socket
from datetime import datetime, timezone

import pytest
import requests

from memento_audit.errors import InvalidManifest, PortInUse
from memento_audit.fixture_archive.manifest import (
    FixtureManifest,
    LiveResource,
    MementoBundle,
    ResourceSpec,
    SiteFixture,
    concrete_responses,
    load_manifest,
    save_manifest,
    validate_manifest,
)
from memento_audit.fixture_archive.scenarios import (
    GMAPS_ORIGINAL,
    GMAPS_TIMESTAMP,
    NEWS_ORIGINAL,
    NEWS_TIMESTAMPS,
    YT2011_BROKEN_CSS,
    build_all,
    youtube2011_site,
)
from memento_audit.fixture_archive import server
from memento_audit.fixture_archive.server import FixtureService
from memento_audit.fixture_archive.stub_bridge import StubBridge
from memento_audit.linkformat import parse_link_format
from memento_audit.replay import to_replay_uri
from memento_audit.timefmt import parse_rfc1123


def _site(**kwargs) -> SiteFixture:
    defaults = dict(
        original="http://unit.example/",
        mementos=(MementoBundle(timestamp="20100101000000", html="<html></html>"),),
    )
    defaults.update(kwargs)
    return SiteFixture(**defaults)


# --- manifest validation -----------------------------------------------------


def test_scenarios_manifest_is_valid():
    validate_manifest(build_all())


def test_duplicate_site_hosts_rejected():
    m = FixtureManifest(sites=(
        _site(), _site(original="http://unit.example/other")))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_bad_timestamp_rejected():
    m = FixtureManifest(sites=(_site(
        mementos=(MementoBundle(timestamp="20101301000000", html=""),)),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_duplicate_timestamps_rejected():
    bundle = MementoBundle(timestamp="20100101000000", html="")
    m = FixtureManifest(sites=(_site(mementos=(bundle, bundle)),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_foreign_resource_uri_rejected():
    m = FixtureManifest(sites=(_site(mementos=(MementoBundle(
        timestamp="20100101000000", html="",
        resources=(ResourceSpec(uri="http://elsewhere.example/x.gif"),)),)),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_chain_must_end_terminally():
    spec = ResourceSpec(uri="http://unit.example/a",
                        chain=((302, "http://unit.example/b"),))
    m = FixtureManifest(sites=(_site(mementos=(MementoBundle(
        timestamp="20100101000000", html="", resources=(spec,)),)),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_redirect_steps_need_locations():
    spec = ResourceSpec(uri="http://unit.example/a",
                        chain=((302, None), (200, None)))
    m = FixtureManifest(sites=(_site(mementos=(MementoBundle(
        timestamp="20100101000000", html="", resources=(spec,)),)),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_script_loaded_must_reference_known_uris():
    m = FixtureManifest(sites=(_site(mementos=(MementoBundle(
        timestamp="20100101000000", html="",
        script_loaded=("http://unit.example/ghost.js",)),)),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


def test_live_paths_must_be_absolute():
    m = FixtureManifest(live=(LiveResource(path="frag.png"),))
    with pytest.raises(InvalidManifest):
        validate_manifest(m)


# --- chain unrolling ---------------------------------------------------------


def test_chain_unrolls_to_both_uris():
    site = youtube2011_site()
    bundle = site.mementos[0]
    concrete = concrete_responses(site, bundle)
    first = concrete[YT2011_BROKEN_CSS]
    assert first.status == 302
    assert first.location == "http://youtube2011.example/css/base2.css"
    second = concrete["http://youtube2011.example/css/base2.css"]
    assert second.status == 404
    assert second.location is None


def test_explicit_resource_wins_over_chain_implied():
    target = "http://unit.example/real.css"
    redirecting = ResourceSpec(uri="http://unit.example/alias.css",
                               chain=((302, target), (404, None)))
    real = ResourceSpec(uri=target, body=b"x { color: red }",
                        media_type="text/css")
    site = _site(mementos=(MementoBundle(
        timestamp="20100101000000", html="", resources=(redirecting, real)),))
    concrete = concrete_responses(site, site.mementos[0])
    assert concrete[target].status == 200
    assert concrete[target].body == b"x { color: red }"


def test_conflicting_implied_responses_rejected():
    target = "http://unit.example/shared"
    a = ResourceSpec(uri="http://unit.example/a",
                     chain=((302, target), (404, None)))
    b = ResourceSpec(uri="http://unit.example/b",
                     chain=((302, target), (410, None)))
    site = _site(mementos=(MementoBundle(
        timestamp="20100101000000", html="", resources=(a, b)),))
    with pytest.raises(InvalidManifest):
        concrete_responses(site, site.mementos[0])


def test_chain_stops_at_live_placeholder():
    spec = ResourceSpec(uri="http://unit.example/t.png",
                        chain=((302, "http://{live}/t.png"), (200, None)))
    site = _site(mementos=(MementoBundle(
        timestamp="20100101000000", html="", resources=(spec,)),))
    concrete = concrete_responses(site, site.mementos[0])
    # The 200 step belongs to the live server; only the redirect is archived.
    assert set(concrete) == {"http://unit.example/t.png"}
    assert concrete["http://unit.example/t.png"].status == 302
    assert concrete["http://unit.example/t.png"].location == "http://{live}/t.png"


# --- serving -----------------------------------------------------------------


def test_served_timemap_reparses(service):
    resp = requests.get(service.timemap_uri(NEWS_ORIGINAL), timeout=5)
    assert resp.status_code == 200
    assert resp.headers["Content-Type"].startswith("application/link-format")
    tm = parse_link_format(resp.text)
    assert len(tm.mementos) == len(NEWS_TIMESTAMPS)
    for record in tm.mementos:
        # Entries are in the shorthand memento form; normalize to replay form.
        replay = to_replay_uri(record.uri, service.endpoint())
        assert replay.original == NEWS_ORIGINAL
        assert replay.timestamp in NEWS_TIMESTAMPS


def test_memento_page_carries_datetime_header(service):
    uri = service.memento_uri(NEWS_TIMESTAMPS[0], NEWS_ORIGINAL)
    resp = requests.get(uri, timeout=5)
    assert resp.status_code == 200
    dt = parse_rfc1123(resp.headers["Memento-Datetime"])
    assert dt == datetime(2000, 6, 20, 18, 2, 59, tzinfo=timezone.utc)


def test_web_and_memento_paths_serve_same_page(service):
    api = requests.get(service.memento_uri(NEWS_TIMESTAMPS[0], NEWS_ORIGINAL), timeout=5)
    web = requests.get(
        f"{service.archive_base}/web/{NEWS_TIMESTAMPS[0]}/{NEWS_ORIGINAL}", timeout=5)
    assert api.content == web.content


def test_leak_redirect_targets_live_host(service):
    uri = f"{service.archive_base}/web/{GMAPS_TIMESTAMP}/{GMAPS_ORIGINAL}tiles/t1.png"
    resp = requests.get(uri, timeout=5, allow_redirects=False)
    assert resp.status_code == 302
    assert resp.headers["Location"] == f"{service.live_base}/tiles/t1.png"
    followed = requests.get(uri, timeout=5)
    assert followed.status_code == 200
    assert followed.url.startswith(service.live_base)


def test_onhost_redirects_stay_wrapped(service):
    uri = f"{service.archive_base}/web/20110420002216/http://youtube2011.example/css/base.css"
    resp = requests.get(uri, timeout=5, allow_redirects=False)
    assert resp.status_code == 302
    location = resp.headers["Location"]
    assert location.startswith(f"{service.archive_base}/web/20110420002216/")
    assert requests.get(location, timeout=5).status_code == 404


def test_unknown_timestamp_404(service):
    resp = requests.get(service.memento_uri("19900101000000", NEWS_ORIGINAL), timeout=5)
    assert resp.status_code == 404


def test_responses_are_byte_identical(service):
    uri = service.timemap_uri(NEWS_ORIGINAL)
    a = requests.get(uri, timeout=5)
    b = requests.get(uri, timeout=5)
    assert a.content == b.content
    assert "Date" not in a.headers
    assert "Server" not in a.headers


def test_timemaps_and_bundle_responses_are_built_once(manifest, monkeypatch):
    renders, unrolls = [], []
    serialize, unroll = server.serialize_link_format, server.concrete_responses
    monkeypatch.setattr(server, "serialize_link_format",
                        lambda roles, records: renders.append(roles["original"])
                        or serialize(roles, records))
    monkeypatch.setattr(server, "concrete_responses",
                        lambda site, bundle: unrolls.append(bundle.timestamp)
                        or unroll(site, bundle))
    css = "/web/20110420002216/http://youtube2011.example/css/base.css"
    svc = FixtureService(manifest)
    with svc:
        timemaps = {requests.get(svc.timemap_uri(NEWS_ORIGINAL), timeout=5).content
                    for _ in range(3)}
        statuses = [requests.get(svc.archive_base + css, timeout=5,
                                 allow_redirects=False).status_code for _ in range(3)]
    assert len(timemaps) == 1 and statuses == [302] * 3
    assert renders == [NEWS_ORIGINAL]
    assert unrolls == ["20110420002216"]
    # A restarted service may listen elsewhere, and its TimeMaps say where.
    with svc:
        again = requests.get(svc.timemap_uri(NEWS_ORIGINAL), timeout=5).text
        assert svc.archive_authority in again
    assert renders == [NEWS_ORIGINAL] * 2


@pytest.mark.parametrize("server_on", [
    lambda port: FixtureService(build_all(), port=port),
    lambda port: FixtureService(build_all(), live_port=port),
    lambda port: StubBridge(port=port),
], ids=["FixtureService", "FixtureService-live", "StubBridge"])
def test_port_in_use_rejected(service, server_on):
    taken = service._archive_server.server_address[1]
    with pytest.raises(PortInUse):
        server_on(taken).start()


# --- persistence -------------------------------------------------------------


def test_manifest_round_trips_through_disk(tmp_path):
    original = build_all()
    save_manifest(original, tmp_path)
    loaded = load_manifest(tmp_path)
    # Loading walks site directories alphabetically; compare contents, not order.
    assert {s.original: s for s in loaded.sites} == {s.original: s for s in original.sites}
    assert set(loaded.live) == set(original.live)


def test_loaded_manifest_serves_identically(tmp_path):
    save_manifest(build_all(), tmp_path)
    with FixtureService(load_manifest(tmp_path)) as reloaded:
        own = requests.get(reloaded.timemap_uri(NEWS_ORIGINAL), timeout=5)
        # TimeMap bodies embed the serving port; compare structure, not bytes.
        tm = parse_link_format(own.text)
        assert [to_replay_uri(r.uri, reloaded.endpoint()).timestamp
                for r in tm.mementos] == list(NEWS_TIMESTAMPS)


# --- what the fixture archive refuses -----------------------------------------


@pytest.mark.parametrize("site, message", [
    (_site(original="ftp://unit.example/"), "must be absolute http"),
    (_site(mementos=(MementoBundle(timestamp="20100101000000", html="", resources=(
        ResourceSpec(uri="http://unit.example/a", chain=()),)),)), "empty response chain"),
    (_site(mementos=(MementoBundle(timestamp="20100101000000", html="", resources=(
        ResourceSpec(uri="http://unit.example/a", chain=((200, None), (200, None))),)),)),
     "non-final chain status must be 3xx, got 200"),
    (_site(mementos=(MementoBundle(timestamp="20100101000000", html="", resources=(
        ResourceSpec(uri="http://unit.example/a", media_type=""),)),)), "empty media type"),
], ids=["original-not-http", "empty-chain", "non-final-not-3xx", "empty-media-type"])
def test_malformed_sites_rejected(site, message):
    with pytest.raises(InvalidManifest, match=message):
        validate_manifest(FixtureManifest(sites=(site,)))


_UNIT_TS = "20100101000000"
_UNIT_PAGE = '<script src="app.js"></script><img src="a.gif">'


@pytest.fixture(scope="module")
def unit_service():
    """An archive of two sites, one with a single memento whose page has a
    script source and an image, and a text file that holds the same markup,
    one with no memento, and a live web of one page."""
    manifest = FixtureManifest(
        sites=(_site(mementos=(MementoBundle(timestamp=_UNIT_TS, html=_UNIT_PAGE, resources=(
            ResourceSpec(uri="http://unit.example/app.js", body=b"1;",
                         media_type="text/javascript"),
            ResourceSpec(uri="http://unit.example/a.gif", body=b"GIF89a",
                         media_type="image/gif"),
            ResourceSpec(uri="http://unit.example/page.txt", body=_UNIT_PAGE.encode(),
                         media_type="text/plain"))),)),
               SiteFixture(original="http://empty.example/")),
        live=(LiveResource(path="/here.png"),))
    with FixtureService(manifest) as svc:
        yield svc


def test_unknown_addresses_answer_404(unit_service):
    web = f"{unit_service.archive_base}/web/{_UNIT_TS}"
    cases = [
        (f"{unit_service.archive_base}/static/nothing.css", b"no such chrome asset"),
        (unit_service.timemap_uri("http://empty.example/"), b"no mementos"),
        (f"{web}/http://elsewhere.example/", b"host not archived"),
        (f"{web}/http://unit.example/missing.gif", b"not archived"),
        (f"{unit_service.live_base}/missing.png", b"live web: not found"),
    ]
    for uri, body in cases:
        resp = requests.get(uri, timeout=5, allow_redirects=False)
        assert (resp.status_code, resp.content) == (404, body), uri
    resp = requests.get(f"{web}/http://unit.example/missing.gif", timeout=5)
    assert resp.headers["Memento-Datetime"] == "Fri, 01 Jan 2010 00:00:00 GMT"


def test_server_messages_go_to_the_log(unit_service, caplog):
    """A request the server cannot read is answered 400, and its message
    goes to the module's logger, not to stderr."""
    host, port = unit_service._archive_server.server_address[:2]
    with caplog.at_level("DEBUG", logger=server.__name__):
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(b"NOT HTTP\r\n\r\n")
            # the reply ends when the handler closes the connection, after its log call
            reply = b"".join(iter(lambda: conn.recv(4096), b""))
    assert b"Error code: 400" in reply
    assert any("Bad HTTP/0.9 request type" in record.getMessage()
               for record in caplog.records)


def _browsed(stub_bridge, uri: str, scripting: str) -> tuple[dict, list[str]]:
    doc = stub_bridge.browse({"url": uri, "scripting": scripting})
    return doc["page"], [entry["request_uri"] for entry in doc["subresources"]]


def test_stub_browser_skips_script_sources_with_scripting_off(unit_service, stub_bridge):
    page = unit_service.memento_uri(_UNIT_TS, "http://unit.example/")
    base = f"{unit_service.archive_base}/memento/{_UNIT_TS}/http://unit.example"
    assert _browsed(stub_bridge, page, "on")[1] == [f"{base}/app.js", f"{base}/a.gif"]
    assert _browsed(stub_bridge, page, "off")[1] == [f"{base}/a.gif"]


def test_stub_browser_fetches_nothing_from_a_page_that_is_not_html(unit_service,
                                                                    stub_bridge):
    text = f"{unit_service.archive_base}/web/{_UNIT_TS}/http://unit.example/page.txt"
    page, subresources = _browsed(stub_bridge, text, "on")
    assert (page["content_type"], page["bytes"], subresources) == (
        "text/plain", len(_UNIT_PAGE), [])


def test_stub_bridge_answers_unknown_paths_and_its_own_failures(stub_bridge):
    assert requests.get(f"{stub_bridge.url}/nothing", timeout=5).status_code == 404
    resp = requests.post(f"{stub_bridge.url}/nothing", json={}, timeout=5)
    assert (resp.status_code, resp.json()) == (404, {"error": "unknown path"})
    resp = requests.post(f"{stub_bridge.url}/capture", json={}, timeout=5)
    assert (resp.status_code, resp.json()) == (500, {"error": "'url'"})
