import json
import socket
import socketserver
import ssl
import time
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

from memento_audit import bridge
from memento_audit.bridge import ScriptedEngine, bridge_available
from memento_audit.cli import main
from memento_audit.capture import (
    ENGINE_SCRIPTED,
    SCRIPTING_OFF,
    SCRIPTING_ON,
    TRIGGER_MARKUP,
    TRIGGER_SCRIPT,
    diff_captures,
)
from memento_audit.errors import BridgeTimeout, BridgeUnavailable, ProtocolError
from memento_audit.fixture_archive.scenarios import (
    NEWS_ORIGINAL,
    NEWS_TIMESTAMPS,
    YT2006_ORIGINAL,
    YT2006_SCRIPT_LOADED,
    YT2006_TIMESTAMP,
)
from memento_audit.fixture_archive.server import serve_in_thread, stop_serving
from memento_audit.replay import make_replay_uri, parse_replay_uri


def _closed_port() -> int:
    with socket.socket() as s:
        s.bind(("localhost", 0))
        return s.getsockname()[1]


def test_bridge_available_against_stub(stub_bridge):
    assert bridge_available(stub_bridge.url)


def test_bridge_available_false_for_closed_port():
    assert not bridge_available(f"http://localhost:{_closed_port()}", timeout_s=0.5)


def test_scripted_capture_runs_declared_loads(service, endpoint, stub_bridge):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    engine = ScriptedEngine(stub_bridge.url, settle_ms=0)
    log = engine.capture(m, endpoint, scripting=SCRIPTING_ON)
    assert log.engine == ENGINE_SCRIPTED
    assert log.scripting == SCRIPTING_ON
    assert not log.page_failed
    originals = {parse_replay_uri(f.request_uri, endpoint)[1]
                 for f in log.subresources()}
    assert set(YT2006_SCRIPT_LOADED) <= originals
    by_original = {parse_replay_uri(f.request_uri, endpoint)[1]: f
                   for f in log.subresources()}
    for uri in YT2006_SCRIPT_LOADED:
        assert by_original[uri].trigger == TRIGGER_SCRIPT
        assert by_original[uri].final_status == 404
    assert by_original[f"{YT2006_ORIGINAL}img/spinner.gif"].trigger == TRIGGER_MARKUP


def test_scripting_off_skips_declared_loads(service, endpoint, stub_bridge):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    engine = ScriptedEngine(stub_bridge.url, settle_ms=0)
    log = engine.capture(m, endpoint, scripting=SCRIPTING_OFF)
    originals = {parse_replay_uri(f.request_uri, endpoint)[1]
                 for f in log.subresources()}
    assert originals == {f"{YT2006_ORIGINAL}img/spinner.gif"}


def test_mode_diff_isolates_script_loads(service, endpoint, stub_bridge):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    engine = ScriptedEngine(stub_bridge.url, settle_ms=0)
    on = engine.capture(m, endpoint, scripting=SCRIPTING_ON)
    off = engine.capture(m, endpoint, scripting=SCRIPTING_OFF)
    diff = diff_captures(on, off)
    script_only_originals = {parse_replay_uri(uri, endpoint)[1]
                             for uri in diff.script_only}
    assert script_only_originals == set(YT2006_SCRIPT_LOADED)
    assert diff.script_delta == len(YT2006_SCRIPT_LOADED)


def test_unreachable_bridge_raises(service, endpoint):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    engine = ScriptedEngine(f"http://localhost:{_closed_port()}")
    with pytest.raises(BridgeUnavailable):
        engine.capture(m, endpoint)


class _Always504(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        body = json.dumps({"error": "page took too long"}).encode()
        self.send_response_only(504)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def gateway_timeout_server():
    server = serve_in_thread("localhost", 0, _Always504)
    yield f"http://localhost:{server.server_address[1]}"
    stop_serving(server)


def test_bridge_gateway_timeout_raises(service, endpoint, gateway_timeout_server):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    engine = ScriptedEngine(gateway_timeout_server)
    with pytest.raises(BridgeTimeout):
        engine.capture(m, endpoint)


class _FakeBridge(BaseHTTPRequestHandler):
    """Answers /status, and each /capture with `server.status` and the bytes
    `server.reply(url)` gives for the page URL asked for."""

    def log_message(self, fmt, *args):
        pass

    def _send(self, body: bytes, status: int = 200) -> None:
        self.send_response_only(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._send(b'{"ok": true}')

    def do_POST(self):
        job = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.jobs.append((self.path, self.headers["Content-Type"], job))
        self._send(self.server.reply(job["url"]), self.server.status)


@pytest.fixture()
def fake_bridge():
    server = serve_in_thread("localhost", 0, _FakeBridge)
    server.url = f"http://localhost:{server.server_address[1]}"
    server.status = 200
    server.jobs = []
    yield server
    stop_serving(server)


def _good_reply(url: str) -> dict:
    return {"page": {"chain": [[200, url]], "content_type": "text/html", "bytes": 9},
            "subresources": [{"request_uri": url + "a.png", "chain": [[200, url + "a.png"]],
                              "content_type": "image/png", "bytes": 4}]}


def _with_page(url: str, **page) -> dict:
    return {**_good_reply(url), "page": {**_good_reply(url)["page"], **page}}


def _with_sub(url: str, **sub) -> dict:
    return {**_good_reply(url), "subresources": [{**_good_reply(url)["subresources"][0], **sub}]}


_MALFORMED = {
    "not_json": lambda url: "<html>",
    "not_an_object": lambda url: [_good_reply(url)],
    "page_not_an_object": lambda url: {"page": [200, url]},
    "no_page": lambda url: {"subresources": _good_reply(url)["subresources"]},
    "page_without_chain": lambda url: {**_good_reply(url),
                                       "page": {"content_type": "text/html", "bytes": 9}},
    "no_request_uri": lambda url: {**_good_reply(url), "subresources": [{"chain": []}]},
    "request_uri_not_a_string": lambda url: _with_sub(url, request_uri=7),
    "status_not_an_integer": lambda url: _with_page(url, chain=[["OK", url]]),
    "hop_not_a_pair": lambda url: _with_sub(url, chain=[[200]]),
    "hop_uri_not_a_string": lambda url: _with_page(url, chain=[[200, None]]),
    "bytes_not_an_integer": lambda url: _with_sub(url, bytes="four"),
    "status_a_float": lambda url: _with_page(url, chain=[[200.7, url]]),
    "status_a_bool": lambda url: _with_sub(url, chain=[[True, url + "a.png"]]),
    "status_below_100": lambda url: _with_sub(url, chain=[[99, url + "a.png"]]),
    "status_above_599": lambda url: _with_page(url, chain=[[600, url]]),
    "error_not_a_string": lambda url: _with_sub(url, error=5),
    "bytes_a_numeric_string": lambda url: _with_sub(url, bytes="12"),
    "bytes_a_float": lambda url: _with_page(url, bytes=9.5),
    "bytes_negative": lambda url: _with_sub(url, bytes=-1),
    "content_type_falsy": lambda url: _with_page(url, content_type=False),
    "subresources_not_a_list": lambda url: {**_good_reply(url), "subresources": 3},
}


def _encode(reply) -> bytes:
    return reply.encode() if isinstance(reply, str) else json.dumps(reply).encode()


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_malformed_bridge_reply_raises_protocol_error(service, endpoint, fake_bridge,
                                                     kind):
    fake_bridge.reply = lambda url: _encode(_MALFORMED[kind](url))
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    with pytest.raises(ProtocolError, match="malformed bridge reply"):
        ScriptedEngine(fake_bridge.url).capture(m, endpoint)


@pytest.mark.parametrize("kind", ["no_request_uri", "status_not_an_integer"])
def test_malformed_bridge_reply_fails_that_memento_only(service, fake_bridge, capsys,
                                                        tmp_path, kind):
    bad = NEWS_TIMESTAMPS[0]  # the pivot: always sampled
    fake_bridge.reply = lambda url: _encode(
        _MALFORMED[kind](url) if f"/{bad}/" in url else _good_reply(url))
    out = tmp_path / "out"
    rc = main(["audit", NEWS_ORIGINAL, "--endpoint", service.archive_base,
               "--engine", "scripted", "--scripting", "on", "--bridge", fake_bridge.url,
               "--politeness-ms", "0", "--cache-dir", str(tmp_path / "cache"),
               "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"failed:  {service.memento_uri(bad, NEWS_ORIGINAL)}: malformed bridge reply" in err
    report = json.loads((out / "report.json").read_text())
    years = [point["year"] for point in report["series"]]
    assert int(bad[:4]) not in years
    assert len(years) >= 2


def _yt2006(endpoint):
    return make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)


def test_bridge_error_status_raises_unavailable(service, endpoint, fake_bridge):
    fake_bridge.status = 500
    fake_bridge.reply = lambda url: _encode(_good_reply(url))
    with pytest.raises(BridgeUnavailable, match="bridge returned 500"):
        ScriptedEngine(fake_bridge.url).capture(_yt2006(endpoint), endpoint)


def test_bridge_slower_than_its_allowance_raises_timeout(service, endpoint, fake_bridge,
                                                        monkeypatch):
    monkeypatch.setattr(bridge, "BRIDGE_GRACE_S", 0.1)
    fake_bridge.reply = lambda url: time.sleep(0.6) or _encode(_good_reply(url))
    engine = ScriptedEngine(fake_bridge.url, page_timeout_s=0.1)
    with pytest.raises(BridgeTimeout, match="bridge did not answer within"):
        engine.capture(_yt2006(endpoint), endpoint)


def test_reply_listing_a_fetch_again_keeps_its_first_listing(service, endpoint, fake_bridge):
    def reply(url):
        image = _good_reply(url)["subresources"][0]
        return _encode({**_good_reply(url), "subresources": [
            {"request_uri": url, "chain": [[404, url]]},
            image,
            {**image, "chain": [[404, image["request_uri"]]]},
        ]})

    fake_bridge.reply = reply
    m = _yt2006(endpoint)
    log = ScriptedEngine(fake_bridge.url).capture(m, endpoint)
    assert [(f.request_uri, f.chain) for f in log.fetches] == [
        (m.uri, ((200, m.uri),)), (m.uri + "a.png", ((200, m.uri + "a.png"),))]


def test_capture_job_is_posted_as_json(service, endpoint, fake_bridge):
    fake_bridge.reply = lambda url: _encode(_good_reply(url))
    m = _yt2006(endpoint)
    ScriptedEngine(fake_bridge.url + "/", settle_ms=5, page_timeout_s=7.5).capture(
        m, endpoint, scripting=SCRIPTING_OFF)
    assert fake_bridge.jobs == [("/capture", "application/json", {
        "url": m.uri, "scripting": "off", "settle_ms": 5, "page_timeout_s": 7.5,
        "screenshot": False})]


def test_bridge_is_reached_directly_not_through_an_environment_proxy(
        service, endpoint, fake_bridge, monkeypatch):
    # Every proxy variable names a closed port, so a call through one fails.
    proxy = f"http://localhost:{_closed_port()}"
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "all_proxy",
                 "ALL_PROXY"):
        monkeypatch.setenv(name, proxy)
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    fake_bridge.reply = lambda url: _encode(_good_reply(url))
    assert bridge_available(fake_bridge.url)
    log = ScriptedEngine(fake_bridge.url).capture(_yt2006(endpoint), endpoint)
    assert not log.page_failed
    assert len(fake_bridge.jobs) == 1


#: A self-signed certificate for the name "localhost" only, and its key.
_LOCALHOST_PEM = str(Path(__file__).with_name("localhost.pem"))


def test_https_bridge_is_checked_against_the_ca_bundle(service, endpoint, fake_bridge,
                                                       monkeypatch):
    tls = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    tls.load_cert_chain(_LOCALHOST_PEM)
    fake_bridge.socket = tls.wrap_socket(fake_bridge.socket, server_side=True)
    fake_bridge.reply = lambda url: _encode(_good_reply(url))
    url = fake_bridge.url.replace("http://", "https://")
    monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    assert not bridge_available(url)
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", _LOCALHOST_PEM)
    assert bridge_available(url)
    assert not ScriptedEngine(url).capture(_yt2006(endpoint), endpoint).page_failed


class _NotHttp(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.recv(65536)
        self.request.sendall(b"SSH-2.0-not a bridge\r\n")


def test_bridge_answering_other_than_http_is_unavailable(service, endpoint):
    server = serve_in_thread("localhost", 0, _NotHttp)
    url = f"http://localhost:{server.server_address[1]}"
    try:
        assert not bridge_available(url)
        with pytest.raises(BridgeUnavailable, match="cannot reach bridge"):
            ScriptedEngine(url).capture(_yt2006(endpoint), endpoint)
    finally:
        stop_serving(server)


def test_bridge_url_that_is_not_http_is_unavailable(service, endpoint):
    assert not bridge_available("ftp://localhost:9")
    with pytest.raises(BridgeUnavailable, match="not an http"):
        ScriptedEngine("localhost:9").capture(_yt2006(endpoint), endpoint)


def _scripted_news_audit(service, bridge_url: str, tmp_path) -> int:
    return main(["audit", NEWS_ORIGINAL, "--endpoint", service.archive_base,
                 "--engine", "scripted", "--scripting", "on", "--bridge", bridge_url,
                 "--politeness-ms", "0", "--cache-dir", str(tmp_path / "cache"),
                 "--out-dir", str(tmp_path / "out")])


def test_scripted_audit_with_an_unreachable_bridge_exits_2(service, capsys, tmp_path):
    bridge_url = f"http://localhost:{_closed_port()}"
    assert _scripted_news_audit(service, bridge_url, tmp_path) == 2
    assert capsys.readouterr().err == f"error: browser bridge unreachable at {bridge_url}\n"
    assert list((tmp_path / "cache").glob("*.json")) == []


def test_audit_whose_every_capture_fails_exits_2(service, fake_bridge, capsys, tmp_path):
    fake_bridge.status = 500
    fake_bridge.reply = lambda url: _encode(_good_reply(url))
    assert _scripted_news_audit(service, fake_bridge.url, tmp_path) == 2
    assert capsys.readouterr().err == "error: every capture failed; no report to emit\n"
    assert not (tmp_path / "out").exists()
    assert list((tmp_path / "cache").glob("*.json")) == []


def test_screenshot_saved_next_to_logs(service, endpoint, stub_bridge, tmp_path):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    log = ScriptedEngine(stub_bridge.url, settle_ms=0,
                         screenshot_dir=tmp_path).capture(m, endpoint)
    assert log.screenshot is not None
    shot = tmp_path / log.screenshot
    assert shot.exists()
    assert shot.read_bytes().startswith(b"\x89PNG")
    assert log.screenshot.startswith(YT2006_TIMESTAMP)
    assert log.screenshot.endswith("_scripted_on.png")


def test_no_screenshot_without_directory(service, endpoint, stub_bridge):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    log = ScriptedEngine(stub_bridge.url, settle_ms=0).capture(m, endpoint)
    assert log.screenshot is None
