"""Hermetic end-to-end benchmark of memento-audit against the fixture archive.

    python3 perfbench/run.py --workload cold-static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short        # every workload once, small: the self-test

Each run builds the workload's seeded site (perfbench/sites.py), serves it from
a separate archive process (perfbench/archive.py), and drives the real entry
points, `cli.main(["audit", ...])` and `cli.main(["report", ...])`, in rounds
of one audit and one report until --seconds have passed.  Every output is
checked against the tables the site was authored from, the oracles in
tests/oracles.py, and byte equality of audit and report output.  The last
line of stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (see perfbench/README.md).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
TRACES = HERE / "traces"

#: One process, one request in flight per host, no politeness gap.
LOAD_FLAGS = ["--jobs", "1", "--per-host", "1", "--politeness-ms", "0"]

#: A run repeats one set-up and one round until its time is up, so set-ups
#: and rounds both sample the whole run (the host's speed drifts over tens of
#: seconds); it makes at least MIN_SETUPS set-ups, and set-up time is their
#: median.
MIN_SETUPS = 2

#: Report calls per round: a report takes tens of milliseconds, so the median
#: of report_s needs more samples than audit_s does.
REPORTS_PER_ROUND = 3

END_TO_END_UNITS = {"setup_s": "s", "audit_s": "s", "report_s": "s",
                    "requests_per_audit": "count", "bytes_per_audit": "bytes",
                    "peak_rss_mb": "MB"}


def _load_program():
    if not (SRC / "memento_audit" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        sys.exit(f"error: {ROOT} holds no src/memento_audit or tests/oracles.py; "
                 "run the benchmark from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]


_load_program()

import oracles  # noqa: E402
import sites  # noqa: E402
from memento_audit import cli  # noqa: E402
from memento_audit.timefmt import format_iso  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


class Archive:
    """The archive process and its line-per-command JSON channel."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "archive.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()  # started and imported: nothing of that is timed

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the archive process ended unexpectedly")
        return json.loads(line)

    def ask(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Expected:
    """What a correct audit of one workload's site reports, derived without
    the program: the authored page tables, oracle_select over the generated
    datetimes and oracle_drops over the authored counts."""

    def __init__(self, workload: str, seed: int, short: bool):
        self.tl = sites.timeline(workload, seed, short)
        self.scripted = self.tl.shape.scripted
        dts = self.tl.datetimes()
        picks = oracles.oracle_select(dts)
        self.sample = [(format_iso(target), self.tl.timestamps[i], format_iso(dts[i]),
                        int((dts[i] - target).total_seconds()))
                       for target, i in picks]
        rich, years = [], set()
        for target, i in picks:
            if dts[i].year not in years:
                years.add(dts[i].year)
                rich.append(self.tl.timestamps[i])
        self.pages = sites.author_pages(workload, seed, rich, self.tl.shape)
        counts = {ts: page.expected(self.scripted) for ts, page in self.pages.items()}
        totals = [c["archived_ok"] + c["archived_missing"] + c["leaked"] + c["network_error"]
                  for c in counts.values()]
        self.counts, self.totals = counts, totals
        yrs = [int(ts[:4]) for ts in self.pages]
        self.flags = [dict(zip(("start_year", "end_year", "baseline", "dropped_value",
                                "ratio"), flag))
                      for flag in oracles.oracle_drops(yrs, totals)]
        if not self.flags:
            raise ValueError(f"{workload} seed {seed}: the authored collapse is not flagged")
        rows = ["year,resource_count,archived_ok,archived_missing,leaked,"
                "completeness,script_delta"]
        for (ts, page), total in zip(self.pages.items(), totals):
            c = counts[ts]
            delta = page.script_delta() if self.scripted else ""
            rows.append(f"{ts[:4]},{total},{c['archived_ok']},{c['archived_missing']},"
                        f"{c['leaked']},{c['archived_ok'] / total:.4f},{delta}")
        self.csv = "\n".join(rows) + "\n"

    def problems(self, out: Path, urls: dict) -> list[str]:
        """Every way the audit output in `out` differs from the expectation."""
        found = []
        if (out / "series.csv").read_text(encoding="utf-8") != self.csv:
            found.append("series.csv differs from the authored table")
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        archive, live, original = urls["archive"], urls["live"], self.tl.original
        sample = [(e["target"], e["memento"], e["datetime"], e["deviation_s"])
                  for e in doc["sample"]]
        want = [(target, f"{archive}/memento/{ts}/{original}", when, dev)
                for target, ts, when, dev in self.sample]
        if sample != want:
            found.append("sample differs from oracle_select")
        mementos = [(m["uri"], m["counts"], m["total_requested"], m["script_delta"])
                    for m in doc["mementos"]]
        want = [(f"{archive}/web/{ts}/{original}", self.counts[ts], total,
                 page.script_delta() if self.scripted else None)
                for (ts, page), total in zip(self.pages.items(), self.totals)]
        if mementos != want:
            found.append("per-memento counts differ from the authored table")
        if doc["drop_flags"] != self.flags:
            found.append("drop flags differ from oracle_drops")
        leaks = []
        for ts, page in self.pages.items():
            for path in page.tile_paths():
                request = f"{archive}/web/{ts}/{original}{path}"
                leaks.append({"memento": f"{archive}/web/{ts}/{original}",
                              "request_uri": request,
                              "chain": [[302, request], [200, f"{live}/{path}"]],
                              "final_status": 200, "trigger": "markup"})
        if doc["leaks"] != sorted(leaks, key=lambda x: (x["memento"], x["request_uri"])):
            found.append("leaks differ from the authored tiles")
        return found


def _read(out: Path) -> tuple[bytes, bytes]:
    return (out / "report.json").read_bytes(), (out / "series.csv").read_bytes()


class Workload:
    def __init__(self, name: str, seed: int, short: bool, archive: Archive, work: Path):
        self.name, self.seed, self.short = name, seed, short
        self.archive, self.work = archive, work
        self.expected = Expected(name, seed, short)
        self.warm = name == "warm-bigmap"
        self.urls: dict = {}
        self.primed: tuple[bytes, bytes] | None = None
        self.problems: list[str] = []
        self.ops = 0

    def _audit_argv(self, cache: Path, out: Path) -> list[str]:
        argv = ["audit", self.expected.tl.original, "--endpoint", self.urls["archive"],
                "--cache-dir", str(cache), "--out-dir", str(out), *LOAD_FLAGS]
        if self.expected.scripted:
            argv += ["--engine", "scripted", "--scripting", "both",
                     "--bridge", self.urls["bridge"]]
        return argv

    def _call(self, argv: list[str], kind: str, tracer: Tracer | None):
        """One audit or report call: (exit code, seconds, requests, bytes)."""
        self.ops += 1
        op = self.ops
        before = self.archive.ask(cmd="mark", op=op if tracer else None)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.operation(op, kind, lambda: cli.main(argv))
            except Exception:
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - start
        after = self.archive.ask(cmd="mark", op=None)
        return rc, seconds, after["requests"] - before["requests"], after["bytes"] - before["bytes"]

    def setup(self, trace: bool) -> float:
        """Build and serve the site (and, warm, prime a cache); seconds taken.
        Earlier cold sites stay up, idle; a big site is stopped first, to
        bound the archive process's memory."""
        if self.warm:
            self.archive.ask(cmd="teardown")
            shutil.rmtree(self.work / "cache", ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        self.urls = self.archive.ask(cmd="setup", workload=self.name, seed=self.seed,
                                     short=self.short, rich=list(self.expected.pages),
                                     trace=trace)
        if self.warm:
            out = self.work / "primed"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(self._audit_argv(self.work / "cache", out))
        seconds = time.perf_counter() - start
        if self.warm:
            if rc != 0:
                raise RuntimeError(f"priming audit exited {rc}")
            self.problems += [f"priming audit: {p}"
                              for p in self.expected.problems(out, self.urls)]
            self.primed = _read(out)
        return seconds

    def round(self, n: int, tracer: Tracer | None) -> dict:
        """One audit, then REPORTS_PER_ROUND reports over the cache it left;
        every output checked."""
        cache = self.work / ("cache" if self.warm else f"cache-{n}")
        out_audit = self.work / f"audit-{n}"
        outs = [self.work / f"report-{n}-{i}" for i in range(REPORTS_PER_ROUND)]
        if tracer:
            tracer.install()
        try:
            rc_a, audit_s, requests, nbytes = self._call(
                self._audit_argv(cache, out_audit), "audit", tracer)
            reports = [self._call(["report", str(cache), "--out-dir", str(out)], "report",
                                  tracer)
                       for out in outs]
        finally:
            if tracer:
                tracer.uninstall()
        bad = [f"audit exited {rc_a}"] if rc_a != 0 else self.expected.problems(
            out_audit, self.urls)
        if not bad and self.warm and _read(out_audit) != self.primed:
            bad = ["warm audit output differs from the priming audit's"]
        failed = bool(bad)
        for (rc, *_), out in zip(reports, outs):
            if rc != 0:
                bad.append(f"report exited {rc}")
            elif failed or _read(out) != _read(out_audit):
                bad.append("report output differs from audit output")
            else:
                continue
            failed += 1
        self.problems += bad
        for path in [out_audit, *outs] + ([] if self.warm else [cache]):
            shutil.rmtree(path, ignore_errors=True)
        return {"audit_s": audit_s, "report_s": [r[1] for r in reports],
                "requests": requests, "bytes": nbytes, "failed": failed}


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_request"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    """One run of one workload; returns the result object to print."""
    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    archive = Archive()
    try:
        bench = Workload(name, seed, short, archive, work)
        tracer = Tracer() if trace else None
        setups, rounds = [], []
        deadline = time.perf_counter() + seconds
        min_setups = 1 if short else MIN_SETUPS
        # Traced runs alternate untraced and traced rounds, so the tracing
        # overhead is measured against the same site in the same process.
        while (len(setups) < min_setups or time.perf_counter() < deadline
               or len(rounds) < (2 if trace else 1)):
            setups.append(bench.setup(trace))
            traced = trace and len(rounds) % 2 == 1
            rounds.append(bench.round(len(rounds), tracer if traced else None)
                          | {"traced": traced})
        archive_spans = archive.ask(cmd="spans")["spans"] if trace else []
    finally:
        archive.close()
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    attempted = (1 + REPORTS_PER_ROUND) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r["audit_s"] for r in rounds if r["traced"]]
        traced_s = statistics.median(traced)
        untraced_s = statistics.median(r["audit_s"] for r in plain)
        values, table = summarize(tracer.spans, archive_spans, len(traced))
        values["trace.overhead_s"] = traced_s - untraced_s
        tracer.write(TRACES / f"{name}.jsonl.gz", archive_spans,
                     {"traced_audit_s": traced_s, "untraced_audit_s": untraced_s,
                      "self_times_per_round": table, "metrics": values})
        if tracer.missing:
            print(f"{name}: not traced, missing: {', '.join(sorted(tracer.missing))}",
                  file=sys.stderr)
        metrics = {k: {"value": v, "unit": _units(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "audit_s": statistics.median(r["audit_s"] for r in plain),
            "report_s": statistics.median(s for r in plain for s in r["report_s"]),
            "requests_per_audit": statistics.median(r["requests"] for r in plain),
            "bytes_per_audit": statistics.median(r["bytes"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{name} seed {seed}: set-ups " + " ".join(f"{s:.3f}" for s in setups)
              + "; audits " + " ".join(f"{r['audit_s']:.3f}" for r in rounds)
              + "; reports " + " ".join(f"{s:.4f}" for r in rounds for s in r["report_s"]),
              file=sys.stderr)
    return {"correct": not bench.problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sites.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="run every workload (or --workload) once at a small size")
    args = parser.parse_args(argv)
    if args.short:
        ok = True
        for name in [args.workload] if args.workload else sites.WORKLOADS:
            for trace in (False, True):
                result = measure(name, args.seed, 0, trace, short=True)
                passed = result["correct"] and result["failed"] == 0
                ok = ok and passed
                print(f"{name} trace={int(trace)}: {'PASS' if passed else 'FAIL'} "
                      f"({result['attempted']} operations)")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --short is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), short=False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
