import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from memento_audit.bridge import ScriptedEngine, bridge_available
from memento_audit.capture import (
    ENGINE_SCRIPTED,
    SCRIPTING_OFF,
    SCRIPTING_ON,
    TRIGGER_MARKUP,
    TRIGGER_SCRIPT,
    diff_captures,
)
from memento_audit.errors import BridgeTimeout, BridgeUnavailable
from memento_audit.fixture_archive.scenarios import (
    YT2006_ORIGINAL,
    YT2006_SCRIPT_LOADED,
    YT2006_TIMESTAMP,
)
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
    assert diff.noscript_only == frozenset()
    assert not diff.degraded


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
    server = ThreadingHTTPServer(("localhost", 0), _Always504)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://localhost:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_bridge_gateway_timeout_raises(service, endpoint, gateway_timeout_server):
    m = make_replay_uri(YT2006_TIMESTAMP, YT2006_ORIGINAL, endpoint)
    engine = ScriptedEngine(gateway_timeout_server)
    with pytest.raises(BridgeTimeout):
        engine.capture(m, endpoint)


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
