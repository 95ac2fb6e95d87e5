"""Spans around the auditor's layers, recorded from the benchmark's own code.

`Tracer.install()` wraps the public functions and methods listed in LAYERS
wherever the auditor's modules hold them (a function imported by name into
another module is wrapped there too); `uninstall()` puts the originals back,
so untraced rounds run the unmodified program.  Each span is
(id, name, start_ns, end_ns, parent id, op id, sizes), where `sizes` holds
the layer's work counts for calls that have them (entries parsed, bytes
read...).  A span's parent is the innermost open span of its thread, or the operation's
root span for work started on a pool thread.
"""

import gzip
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


#: (module, attribute, span name, {size name: size of one call})
LAYERS = (
    ("client", "fetch_timemap", "client.fetch_timemap", {}),
    ("linkformat", "parse_link_format", "linkformat.parse",
     {"entries": lambda args, r: len(r.mementos)}),
    ("timefmt", "parse_rfc1123", "timefmt.parse_rfc1123", {}),
    ("sampling", "select_annual", "sampling.select",
     {"records": lambda args, r: len(args[0].mementos),
      "selections": lambda args, r: len(r.selections)}),
    ("fetching", "PoliteFetcher.follow", "fetching.follow",
     {"hops": lambda args, r: len(r.hops)}),
    ("fetching", "PoliteFetcher.get_once", "fetching.get_once", {}),
    ("extract", "extract_markup_refs", "extract.markup",
     {"bytes": lambda args, r: len(args[0])}),
    ("extract", "extract_css_refs", "extract.css",
     {"bytes": lambda args, r: len(args[0])}),
    ("replay", "rewrite_subresource", "replay.rewrite", {}),
    ("replay", "classify_host", "replay.classify_host", {}),
    ("capture", "StaticEngine.capture", "capture.engine", {}),
    ("capture", "save_log", "capture.save_log",
     {"bytes": lambda args, r: os.path.getsize(r)}),
    ("capture", "load_log", "capture.load_log",
     {"bytes": lambda args, r: os.path.getsize(args[0])}),
    ("capture", "diff_captures", "capture.diff", {}),
    ("bridge", "ScriptedEngine.capture", "bridge.capture", {}),
    ("analysis", "compute_metrics", "analysis.compute_metrics", {}),
    ("analysis", "classify_fetch", "analysis.classify_fetch", {}),
    ("analysis", "detect_drops", "analysis.detect_drops", {}),
    ("report", "collect_leaks", "report.collect_leaks", {}),
    ("report", "emit_json", "report.emit_json", {"bytes": lambda args, r: len(r)}),
    ("report", "emit_csv_series", "report.emit_csv", {}),
)

PACKAGE = "memento_audit"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None
        self.root: int | None = None
        self.missing: set[str] = set()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, size):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            sizes = {key: count(args, result) for key, count in size.items()} or None
            tracer.spans.append((sid, name, start, end, parent, tracer.op, sizes))
            return result

        traced.__wrapped__ = fn
        return traced

    def operation(self, op: int, kind: str, fn):
        """Run one audit or report call as the root span of operation `op`."""
        self.op = op
        self.root = next(self._ids)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.spans.append((self.root, f"op.{kind}", start, time.perf_counter_ns(),
                               None, op, None))
            self.op = self.root = None

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr, name, size in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            cls_name, _, fn_name = attr.rpartition(".")
            holder = getattr(module, cls_name, None) if cls_name else module
            original = getattr(holder, fn_name, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, original, size)
            holders = [holder] if cls_name else [
                m for m in modules if getattr(m, fn_name, None) is original]
            for h in holders:
                self._patch(h, fn_name, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path, archive_spans: list, summary: dict) -> None:
        """Write a summary line, then every span, auditor and archive side, as
        JSON lines (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({**summary, "unwrapped": sorted(self.missing)}) + "\n")
            for sid, name, start, end, parent, op, sizes in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "op": op,
                                      "sizes": sizes}) + "\n")
            for name, start, end, op in archive_spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "op": op, "process": "archive"}) + "\n")


# --- deriving the per-layer metrics ------------------------------------------

def _union_ns(intervals) -> int:
    """Nanoseconds covered by the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _self_ns(span, covering) -> int:
    start, end = span[2], span[3]
    inside = [(max(s, start), min(e, end)) for s, e in covering if e > start and s < end]
    return (end - start) - _union_ns(inside)


class _Totals:
    """Per span name: calls, inclusive and self nanoseconds, summed sizes."""

    def __init__(self, spans, archive_spans):
        children: dict[int, list[tuple[int, int]]] = {}
        by_op: dict[int, list[tuple[int, int]]] = {}
        for span in spans:
            sid, name, start, end, parent, op, sizes = span
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
            if not name.startswith("op."):
                by_op.setdefault(op, []).append((start, end))
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        audit_ops = {span[5] for span in spans if span[1] == "op.audit"}
        self.cache_hits = 0
        for span in spans:
            sid, name, start, end, parent, op, sizes = span
            # An operation's self time is what no auditor span of any thread covers.
            covering = by_op.get(op, ()) if name.startswith("op.") else children.get(sid, ())
            self._add(name, end - start, _self_ns(span, covering))
            for key, n in (sizes or {}).items():
                self.sizes[f"{name}.{key}"] = self.sizes.get(f"{name}.{key}", 0) + n
            if name == "capture.load_log" and op in audit_ops:
                self.cache_hits += 1
        for name, start, end, op in archive_spans:
            self._add(name, end - start, end - start)

    def _add(self, name, total, own) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + total
        self.self_ns[name] = self.self_ns.get(name, 0) + own


def summarize(spans, archive_spans, rounds: int) -> tuple[dict, dict]:
    """The per-layer metrics, and per span name its calls, inclusive seconds
    and self seconds, all per round (one audit and the reports that follow
    it), from the spans of `rounds` traced rounds."""
    tot = _Totals(spans, archive_spans)

    def s(name):
        return tot.total_ns.get(name, 0) / 1e9 / rounds

    def own(name):
        return tot.self_ns.get(name, 0) / 1e9 / rounds

    def calls(name):
        return tot.calls.get(name, 0) / rounds

    def size(key):
        return tot.sizes.get(key, 0) / rounds

    requests = calls("fetching.get_once")
    metrics = {
        "client.fetch_timemap_s": own("client.fetch_timemap"),
        "linkformat.parse_s": s("linkformat.parse"),
        "linkformat.entries": size("linkformat.parse.entries"),
        "timefmt.parse_rfc1123_s": s("timefmt.parse_rfc1123"),
        "timefmt.parse_rfc1123_calls": calls("timefmt.parse_rfc1123"),
        "sampling.select_s": s("sampling.select"),
        "sampling.records": size("sampling.select.records"),
        "sampling.selections": size("sampling.select.selections"),
        "fetching.follow_s": s("fetching.follow"),
        "fetching.requests": requests,
        "fetching.hops": size("fetching.follow.hops"),
        "fetching.us_per_request": s("fetching.follow") / requests * 1e6 if requests else 0.0,
        "fixture_archive.serve_s": s("fixture_archive.serve"),
        "fixture_archive.browse_s": s("fixture_archive.browse"),
        "extract.markup_s": s("extract.markup"),
        "extract.markup_calls": calls("extract.markup"),
        "extract.css_s": s("extract.css"),
        "extract.css_calls": calls("extract.css"),
        "extract.bytes": size("extract.markup.bytes") + size("extract.css.bytes"),
        "replay.rewrite_s": s("replay.rewrite"),
        "replay.rewrite_calls": calls("replay.rewrite"),
        "replay.classify_host_s": s("replay.classify_host"),
        "replay.classify_host_calls": calls("replay.classify_host"),
        "capture.engine_s": s("capture.engine"),
        "capture.captures": calls("capture.engine") + calls("bridge.capture"),
        "capture.cache_hits": tot.cache_hits / rounds,
        "capture.save_log_s": s("capture.save_log"),
        "capture.load_log_s": s("capture.load_log"),
        "capture.log_bytes": size("capture.save_log.bytes") + size("capture.load_log.bytes"),
        "capture.diff_s": s("capture.diff"),
        "bridge.capture_s": s("bridge.capture"),
        "bridge.protocol_s": s("bridge.capture") - s("fixture_archive.browse"),
        "analysis.compute_metrics_s": s("analysis.compute_metrics"),
        "analysis.classify_fetch_s": s("analysis.classify_fetch"),
        "analysis.classify_fetch_calls": calls("analysis.classify_fetch"),
        "analysis.detect_drops_s": s("analysis.detect_drops"),
        "report.collect_leaks_s": s("report.collect_leaks"),
        "report.emit_json_s": s("report.emit_json"),
        "report.emit_csv_s": s("report.emit_csv"),
        "report.json_bytes": size("report.emit_json.bytes"),
        "cli.self_s": own("op.audit"),
    }
    table = {name: {"calls": calls(name), "total_s": s(name), "self_s": own(name)}
             for name in sorted(tot.calls)}
    return metrics, table
