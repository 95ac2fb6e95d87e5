"""The archive side of the benchmark, run as its own process.

It builds a workload's seeded site, serves it with the package's fixture
archive, live-web companion and (for scripted workloads) stub browser bridge,
and, once it has said {"ready": true}, answers one JSON command per line on
stdin:

    {"cmd": "setup", "workload", "seed", "short", "rich", "trace"}
        -> {"archive": url, "live": url, "bridge": url or null}
    {"cmd": "teardown"}          stop every server started so far
    {"cmd": "mark", "op": id}    -> {"requests": n, "bytes": n} so far;
                                 spans recorded from now on carry `op`
    {"cmd": "spans"}             -> {"spans": [[name, start_ns, end_ns, op], ...]}
    {"cmd": "quit"}

Running apart from the auditor keeps the archive's memory (10^5 bundles for
warm-bigmap) out of the auditor's peak RSS and its handler threads off the
auditor's interpreter lock.  Requests and response-body bytes are counted
where the archive and the live companion answer, so the stub bridge's
fetches are included.
"""

import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from memento_audit.fixture_archive import FixtureService, StubBridge  # noqa: E402

import sites  # noqa: E402


class CountingService(FixtureService):
    """The fixture archive, counting what it answers and rendering each
    TimeMap once at set-up rather than on every request (the stock service
    re-serialises the whole TimeMap per request, ~1.25 s at 10^5 entries)."""

    def __init__(self, manifest, tracer):
        super().__init__(manifest)
        self.tracer = tracer
        self.lock = threading.Lock()
        self.requests = 0
        self.bytes = 0
        self._timemaps: dict[str, bytes] = {}

    def start(self) -> "CountingService":
        super().start()
        self._timemaps = {site.original: FixtureService._timemap_body(self, site)
                          for site in self.manifest.sites if site.mementos}
        return self

    def _timemap_body(self, site) -> bytes:
        return self._timemaps[site.original]

    def _counted(self, handler, serve) -> None:
        respond = handler.respond

        def counting(status, body=b"", *args, **kwargs):
            with self.lock:
                self.requests += 1
                self.bytes += len(body)
            respond(status, body, *args, **kwargs)

        handler.respond = counting
        self.tracer.call("fixture_archive.serve", serve, handler)

    def _serve_archive(self, handler) -> None:
        self._counted(handler, super()._serve_archive)

    def _serve_live(self, handler) -> None:
        self._counted(handler, super()._serve_live)


class TracedBridge(StubBridge):
    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def browse(self, payload: dict) -> dict:
        return self.tracer.call("fixture_archive.browse", super().browse, payload)


class SpanLog:
    """Spans of the archive-side layers, tagged with the auditor's current
    operation; nothing is recorded while tracing is off or no op is marked."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans: list[tuple] = []

    def call(self, name: str, fn, *args):
        op = self.op
        if not self.enabled or op is None:
            return fn(*args)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), op))


def _stop_all(servers: list) -> None:
    """Stop servers concurrently: each stop waits out a serve_forever poll."""
    threads = [threading.Thread(target=server.stop) for server in servers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    servers.clear()


def main() -> int:
    tracer = SpanLog()
    running: list = []   # every server started and not yet stopped
    service = None       # the archive of the latest set-up
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "setup":
            tl = sites.timeline(msg["workload"], msg["seed"], msg["short"])
            pages = sites.author_pages(msg["workload"], msg["seed"], msg["rich"], tl.shape)
            manifest = sites.build_manifest(tl, pages, msg["seed"])
            tracer.enabled = msg["trace"]
            service = CountingService(manifest, tracer).start()
            running.append(service)
            bridge = None
            if tl.shape.scripted:
                bridge = TracedBridge(tracer).start()
                running.append(bridge)
            reply = {"archive": service.archive_base, "live": service.live_base,
                     "bridge": bridge.url if bridge is not None else None}
        elif cmd == "teardown":
            _stop_all(running)
            reply = {}
        elif cmd == "mark":
            tracer.op = msg["op"]
            with service.lock:
                reply = {"requests": service.requests, "bytes": service.bytes}
        elif cmd == "spans":
            reply = {"spans": tracer.spans}
        elif cmd == "quit":
            break
        else:
            reply = {"error": f"unknown command {cmd!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    _stop_all(running)
    return 0


if __name__ == "__main__":
    sys.exit(main())
