import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from memento_audit.analysis import FetchClass, classify_fetch
from memento_audit.bridge import ScriptedEngine
from memento_audit.capture import (
    PHASE_SUBRESOURCE,
    SCRIPTING_OFF,
    TRIGGER_MARKUP,
    StaticEngine,
    _fetch_from_chain,
)
from memento_audit.fetching import PoliteFetcher, _environment_settings
from memento_audit.fixture_archive.server import serve_in_thread, stop_serving
from memento_audit.fixture_archive.scenarios import (
    GMAPS_ORIGINAL,
    GMAPS_TIMESTAMP,
    NEWS_ORIGINAL,
    NEWS_TIMESTAMPS,
    YT2011_ORIGINAL,
)
from memento_audit.replay import ArchiveEndpoint, make_replay_uri


def test_follow_records_single_hop(service, fetcher):
    result = fetcher.follow(service.memento_uri(NEWS_TIMESTAMPS[0], NEWS_ORIGINAL))
    assert result.error is None
    assert result.final_status == 200
    assert len(result.hops) == 1
    assert result.response is not None


def test_follow_walks_redirect_chain(service, fetcher):
    uri = f"{service.archive_base}/web/20110420002216/{YT2011_ORIGINAL}css/base.css"
    result = fetcher.follow(uri)
    assert [status for status, _ in result.hops] == [302, 404]
    assert result.final_status == 404
    assert result.hops[0][1] == uri


def test_follow_crosses_hosts_on_leak(service, fetcher):
    uri = f"{service.archive_base}/web/{GMAPS_TIMESTAMP}/{GMAPS_ORIGINAL}tiles/t1.png"
    result = fetcher.follow(uri)
    assert result.final_status == 200
    assert result.final_uri == f"{service.live_base}/tiles/t1.png"


def test_follow_reports_transport_error(fetcher):
    result = fetcher.follow("http://localhost:1/unreachable")
    assert result.error is not None
    assert result.hops == []
    assert result.final_status is None


def test_max_redirects_caps_chain(service):
    fetcher = PoliteFetcher(politeness_s=0.0, max_redirects=1)
    try:
        uri = f"{service.archive_base}/web/20110420002216/{YT2011_ORIGINAL}css/base.css"
        result = fetcher.follow(uri)
        assert result.error is None
        assert len(result.hops) == 1
        assert result.final_status == 302
    finally:
        fetcher.close()


class _BadLocation(BaseHTTPRequestHandler):
    """Answers 302 with a Location whose authority does not parse."""

    def do_GET(self):
        self.send_response(302)
        self.send_header("Location", "http://[bad/x")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def test_follow_ends_chain_at_unparsable_location(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _BadLocation)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    uri = f"http://127.0.0.1:{server.server_port}/moved"
    _clear_proxy_environment(monkeypatch)
    fetcher = PoliteFetcher(politeness_s=0.0)
    try:
        result = fetcher.follow(uri)
    finally:
        fetcher.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert result.hops == [(302, uri)]
    assert "http://[bad/x" in result.error
    assert result.final_status is None
    fetch = _fetch_from_chain(uri, result, TRIGGER_MARKUP, PHASE_SUBRESOURCE)
    assert classify_fetch(fetch, ArchiveEndpoint.from_base(uri)) \
        == FetchClass.NETWORK_ERROR


def test_politeness_spaces_requests(service):
    fetcher = PoliteFetcher(politeness_s=0.2)
    try:
        uri = service.memento_uri(NEWS_TIMESTAMPS[0], NEWS_ORIGINAL)
        start = time.monotonic()
        fetcher.follow(uri)
        fetcher.follow(uri)
        fetcher.follow(uri)
        elapsed = time.monotonic() - start
        # Three starts against one host: at least two 0.2 s gaps.
        assert elapsed >= 0.4
    finally:
        fetcher.close()


_SLOW_IMAGES = 8


class _SlowImages(BaseHTTPRequestHandler):
    """Serves a page of _SLOW_IMAGES images, answers each image after about
    50 ms, and records the most requests it had in flight at once."""

    lock = threading.Lock()
    in_flight = 0
    peak = 0

    def do_GET(self):
        cls = type(self)
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        if self.path.endswith(".gif"):
            time.sleep(0.05)
            body, content_type = b"GIF89a", "image/gif"
        else:
            body = "".join(f'<img src="i{n}.gif">' for n in range(_SLOW_IMAGES)).encode()
            content_type = "text/html"
        # Leave before answering, so a client's next request cannot be
        # counted while this one still is.
        with cls.lock:
            cls.in_flight -= 1
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("per_host", [1, 2])
def test_static_capture_fills_but_never_exceeds_the_host_cap(monkeypatch, per_host):
    handler = type("Handler", (_SlowImages,), {"lock": threading.Lock()})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ep = ArchiveEndpoint.from_base(f"http://127.0.0.1:{server.server_port}")
    m = make_replay_uri("20100101000000", "http://slow.example/", ep)
    _clear_proxy_environment(monkeypatch)
    fetcher = PoliteFetcher(politeness_s=0.0, per_host=per_host)

    def pool_threads():
        return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")}

    before = pool_threads()
    try:
        log = StaticEngine(fetcher).capture(m, ep)
        left_running = pool_threads() - before
    finally:
        fetcher.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert [f.final_status for f in log.fetches] == [200] * (1 + _SLOW_IMAGES)
    assert handler.peak == per_host
    assert not left_running


class _UntypedStylesheet(BaseHTTPRequestHandler):
    """Serves a page showing a.gif and linking s.css, which holds
    url(bg.gif).  a.gif and s.css come with `untyped` as their Content-Type,
    or with none when it is None."""

    untyped: str | None = None

    def do_GET(self):
        if self.path.endswith("/s.css"):
            body, content_type = b"body { background: url(bg.gif) }", self.untyped
        elif self.path.endswith("/a.gif"):
            body, content_type = b"GIF89a", self.untyped
        elif self.path.endswith("/bg.gif"):
            body, content_type = b"GIF89a", "image/gif"
        else:
            body = b'<img src="a.gif"><link rel="stylesheet" href="s.css">'
            content_type = "text/html"
        self.send_response(200)
        if content_type is not None:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _ParameterOnlyContentType(_UntypedStylesheet):
    untyped = "; charset=utf-8"


def _capture_both_ways(monkeypatch, stub_bridge, handler) -> dict:
    """Capture the page `handler` serves statically and through the stub
    bridge with scripting off; assert both record the same subresources
    and return the static ones by request URI."""
    _clear_proxy_environment(monkeypatch)
    server = serve_in_thread("127.0.0.1", 0, handler)
    ep = ArchiveEndpoint.from_base(f"http://127.0.0.1:{server.server_port}")
    m = make_replay_uri("20100101000000", "http://untyped.example/", ep)
    fetcher = PoliteFetcher(politeness_s=0.0)
    try:
        static = StaticEngine(fetcher).capture(m, ep)
        browser = ScriptedEngine(stub_bridge.url, settle_ms=0).capture(
            m, ep, scripting=SCRIPTING_OFF)
    finally:
        fetcher.close()
        stop_serving(server)
    assert static.subresources() == browser.subresources()
    # With no media type, s.css is sniffed by its suffix, so its url() is fetched.
    by_uri = {f.request_uri: f for f in static.subresources()}
    assert make_replay_uri("20100101000000", "http://untyped.example/bg.gif",
                           ep).uri in by_uri
    return {uri.rsplit("/", 1)[1]: fetch for uri, fetch in by_uri.items()}


def test_untyped_stylesheet_recorded_alike_by_both_crawlers(monkeypatch, stub_bridge):
    _capture_both_ways(monkeypatch, stub_bridge, _UntypedStylesheet)


def test_parameter_only_content_type_recorded_alike_by_both_crawlers(monkeypatch,
                                                                     stub_bridge):
    fetches = _capture_both_ways(monkeypatch, stub_bridge, _ParameterOnlyContentType)
    assert fetches["a.gif"].content_type is None
    assert fetches["s.css"].content_type is None


def _clear_proxy_environment(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


class _RecordingProxy(BaseHTTPRequestHandler):
    """Answers every request itself and records the request line's target,
    which is the absolute URI when a client sends through a proxy."""

    seen: list[str] = []

    def do_GET(self):
        self.seen.append(self.path)
        body = b"via proxy"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_proxy_environment_resolved_per_host(service, monkeypatch):
    # Both hosts are local names, so a fetch that wrongly skips or takes the
    # proxy fails against this machine instead of looking a name up outside.
    with socket.socket() as s:
        s.bind(("localhost", 0))
        closed_port = s.getsockname()[1]
    proxy = ThreadingHTTPServer(("127.0.0.1", 0), _RecordingProxy)
    thread = threading.Thread(target=proxy.serve_forever, daemon=True)
    thread.start()
    _RecordingProxy.seen = []
    try:
        _clear_proxy_environment(monkeypatch)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.server_port}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        fetcher = PoliteFetcher(politeness_s=0.0)
        try:
            proxied = fetcher.follow(f"http://localhost:{closed_port}/page")
            direct_uri = service.memento_uri(NEWS_TIMESTAMPS[0], NEWS_ORIGINAL).replace(
                "//localhost:", "//127.0.0.1:", 1)
            bypassed = fetcher.follow(direct_uri)
        finally:
            fetcher.close()
    finally:
        proxy.shutdown()
        proxy.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert proxied.final_status == 200
    assert proxied.response.content == b"via proxy"
    assert bypassed.final_status == 200
    assert b"News as of" in bypassed.response.content
    assert _RecordingProxy.seen == [f"http://localhost:{closed_port}/page"]


def test_environment_settings_match_a_trust_env_session(tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine archive.example login alice password s3cret\n")
    netrc.chmod(0o600)
    bundle = tmp_path / "ca.pem"
    _clear_proxy_environment(monkeypatch)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
    monkeypatch.setenv("HTTP_PROXY", "http://proxy.example:3128")
    monkeypatch.setenv("NO_PROXY", "other.example")
    for uri in ("http://archive.example/web/1/", "http://other.example/"):
        settings = _environment_settings(uri)
        session = requests.Session()  # trust_env: what requests itself would read
        merged = session.merge_environment_settings(uri, {}, None, None, None)
        assert settings["proxies"] == merged["proxies"]
        assert settings["verify"] == merged["verify"] == str(bundle)
        theirs = session.prepare_request(requests.Request("GET", uri))
        ours = requests.Request("GET", uri, auth=settings.get("auth")).prepare()
        assert ours.headers.get("Authorization") == theirs.headers.get("Authorization")
        session.close()
    assert _environment_settings("http://archive.example/")["auth"] == ("alice", "s3cret")
    assert "auth" not in _environment_settings("http://other.example/")
    assert _environment_settings("http://other.example/")["proxies"] == {}
