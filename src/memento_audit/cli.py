"""Command-line pipeline: timemap -> sample -> capture -> analyze -> report.

    memento-audit timemap <uri>          print the TimeMap in link-format
    memento-audit sample  <uri>          print the annual memento selections
    memento-audit capture <memento-uri>  one capture, written to the cache
    memento-audit audit   <uri>          full pipeline, report.json + series.csv
    memento-audit report  <cache-dir>    recompute the report from cached logs

Exit codes: 0 success; 1 when `capture`'s page failed, or when `audit` wrote
a report though the capture of some sampled memento raised an error (a sampled
page that answers 404 is classified, not a failure); 2 fatal, including an
unreachable bridge and unusable run metadata or capture logs in `report`.  The
cache directory resolves flag > MEMENTO_AUDIT_CACHE environment variable >
config file > default.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import http.client
import json
import logging
import os
import sys
import tempfile
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import BinaryIO

from .bridge import ScriptedEngine, bridge_available
from .capture import (ENGINE_SCRIPTED, ENGINE_STATIC, RUN_META_NAME, SCRIPTING_BOTH,
                      SCRIPTING_OFF, SCRIPTING_ON, CaptureLog, StaticEngine, capture_filename,
                      load_log, log_filename, run_meta_filename, save_log, sweep_temporary_files,
                      write_text_atomic)
from .client import decode_timemap_pieces, fetch_timemap
from .config import CACHE_ENV, AuditConfig, endpoint_from_echo, parse_config_file
from .errors import AuditError
from .fetching import PoliteFetcher, Write
from .linkformat import index_timemap, read_mementos, serialize_link_format
from .replay import (CHROME_PREFIXES, ArchiveEndpoint, ReplayUri, to_replay_uri,
                     validate_original_uri)
from .report import (
    AuditReport,
    assemble_report,
    sample_from_docs,
    sample_to_docs,
    write_report,
)
from .sampling import Selection, parse_interval, sample_timemap
from .timefmt import format_iso

logger = logging.getLogger(__name__)

RUN_META_SCHEMA_VERSION = "2"

#: The config echo keys that, with the TimeMap body, decide the sample.
SAMPLE_CONFIG_KEYS = ("interval", "fixed_grid", "timemap_template")

DEFAULT_ENDPOINT_BASE = "http://web.archive.org"


# --- argument handling -------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags win")
    parser.add_argument("--endpoint",
                        help=f"archive base URL (default {DEFAULT_ENDPOINT_BASE})")
    parser.add_argument("--timemap-template",
                        help="explicit TimeMap URI template with {original}")
    parser.add_argument("--replay-template",
                        help="explicit replay URI template with {timestamp}/{original}")
    parser.add_argument("--archive-host", action="append",
                        help="extra host to treat as the archive (repeatable)")
    parser.add_argument("--chrome-prefix", action="append",
                        help="path prefix of replay UI assets (repeatable)")
    parser.add_argument("--interval", type=parse_interval,
                        help="sampling interval: Ny or Nd (default 1y)")
    parser.add_argument("--fixed-grid", action="store_true", default=None,
                        help="targets advance from the first memento, not the "
                             "previously chosen one")
    parser.add_argument("--engine", choices=(ENGINE_STATIC, ENGINE_SCRIPTED))
    parser.add_argument("--scripting", choices=(SCRIPTING_ON, SCRIPTING_OFF, SCRIPTING_BOTH))
    parser.add_argument("--bridge", help="browser bridge URL for the scripted engine")
    parser.add_argument("--drop-threshold", type=float)
    parser.add_argument("--sustain-window", type=int)
    parser.add_argument("--timeout-s", type=float)
    parser.add_argument("--politeness-ms", type=int)
    parser.add_argument("--per-host", type=int)
    parser.add_argument("--max-redirects", type=int)
    parser.add_argument("--settle-ms", type=int)
    parser.add_argument("--page-timeout-s", type=float)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--screenshot", action="store_true", default=None)
    parser.add_argument("--cache-dir", type=Path)
    parser.add_argument("--out-dir", type=Path)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given `command`, the subcommand that argv
    names, only that subcommand gets its arguments: parsing needs no other,
    and every subcommand is still listed by --help."""
    parser = argparse.ArgumentParser(
        prog="memento-audit",
        description="Audit how completely an archive can replay a page's history.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, target, target_help in (
            ("timemap", "fetch and print a TimeMap", "uri", "original URI"),
            ("sample", "print annual memento selections", "uri", "original URI"),
            ("capture", "capture one memento into the cache",
             "memento", "memento URI (API or replay form)"),
            ("audit", "run the full pipeline for a site", "uri", "original URI")):
        p_common = sub.add_parser(name, help=help_text)
        if command in (None, name):
            p_common.add_argument(target, help=target_help)
            _add_common_flags(p_common)

    p_report = sub.add_parser("report",
                              help="recompute the report from cached capture logs")
    if command in (None, "report"):
        p_report.add_argument("cache", help="cache directory holding capture logs")
        p_report.add_argument("--site", help="site to report on when several are cached")
        p_report.add_argument("--out-dir")
    return parser


def _parse_bool(raw: str) -> bool:
    """A config-file value for a switch flag such as `--fixed-grid`."""
    word = raw.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return word in ("1", "true", "yes", "on")


def _file_value(action: argparse.Action, key: str, entries: list[tuple[int, str]],
                path: str):
    """The config-file value of `key`, parsed and checked as its flag's would
    be: every value of a repeatable flag, else the last one.  ValueError
    naming the file, line and key when a value does not parse or is not one
    of the flag's choices."""
    repeatable = isinstance(action, argparse._AppendAction)
    switch = isinstance(action, argparse._StoreTrueAction)
    values = []
    for lineno, raw in entries if repeatable else entries[-1:]:
        try:
            value = _parse_bool(raw) if switch else (action.type or str)(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"invalid choice {raw!r} "
                                 f"(choose from {', '.join(action.choices)})")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from exc
        values.append(value)
    return values if repeatable else values[0]


def resolve_config(args: argparse.Namespace) -> AuditConfig:
    """Merge flags, environment, config file, and defaults into an AuditConfig.
    A config-file key is a common flag's name without `--`; ValueError naming
    the file, line and key for a key that is unknown or whose value does not
    parse."""
    path = getattr(args, "config", None)
    file_vals = parse_config_file(path) if path else {}
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    actions = {a.dest.replace("_", "-"): a for a in common._actions if a.dest != "config"}
    for key, entries in file_vals.items():
        if key not in actions:
            raise ValueError(f"{path}:{entries[0][0]}: unknown key {key!r}")

    settings = {}  # flag > environment (cache-dir only) > file; else the default
    for key, action in actions.items():
        value = getattr(args, action.dest)
        if value is None and key == "cache-dir" and os.environ.get(CACHE_ENV):
            value = Path(os.environ[CACHE_ENV])
        if value is None and key in file_vals:
            value = _file_value(action, key, file_vals[key], path)
        if value is not None:
            settings[action.dest] = value

    endpoint = ArchiveEndpoint.from_base(
        settings.pop("endpoint", DEFAULT_ENDPOINT_BASE),
        chrome_prefixes=tuple(settings.pop("chrome_prefix", CHROME_PREFIXES)),
        extra_hosts=tuple(settings.pop("archive_host", ())))
    templates = {name: settings.pop(name) for name in ("timemap_template",
                                                       "replay_template")
                 if name in settings}
    cfg = AuditConfig(endpoint=dataclasses.replace(endpoint, **templates), **settings)
    cfg.validate()
    return cfg


def _fetcher(cfg: AuditConfig) -> PoliteFetcher:
    return PoliteFetcher(
        timeout_s=cfg.timeout_s,
        politeness_s=cfg.politeness_ms / 1000.0,
        per_host=cfg.per_host,
        max_redirects=cfg.max_redirects,
    )


# --- capture plumbing --------------------------------------------------------

def _modes(cfg: AuditConfig) -> list[tuple[str, str]]:
    """The (engine, scripting) captures of each memento.  AuditError when
    they need a browser bridge that does not answer."""
    if cfg.engine == ENGINE_STATIC:
        return [(ENGINE_STATIC, SCRIPTING_OFF)]
    if not bridge_available(cfg.bridge):
        raise AuditError(f"browser bridge unreachable at {cfg.bridge}")
    if cfg.scripting == SCRIPTING_BOTH:
        return [(ENGINE_SCRIPTED, SCRIPTING_ON), (ENGINE_SCRIPTED, SCRIPTING_OFF)]
    return [(ENGINE_SCRIPTED, cfg.scripting)]


def _cached_log(cfg: AuditConfig, m, engine: str, scripting: str) -> CaptureLog | None:
    path = cfg.cache_dir / capture_filename(m, engine, scripting)
    if not path.exists():
        return None
    try:
        log = load_log(path)
    except AuditError as exc:
        logger.warning("%s; capturing again", exc)
        return None
    if log.memento.uri != m.uri:
        return None
    if engine == ENGINE_SCRIPTED and (log.settle_ms != cfg.settle_ms
                                      or log.page_timeout_s != cfg.page_timeout_s):
        return None
    return log


def _capture_one(cfg: AuditConfig, m, engine: str, scripting: str,
                 fetcher: PoliteFetcher) -> CaptureLog:
    cached = _cached_log(cfg, m, engine, scripting)
    if cached is not None:
        logger.info("cache hit: %s %s/%s", m.uri, engine, scripting)
        return cached
    if engine == ENGINE_STATIC:
        log = StaticEngine(fetcher).capture(m, cfg.endpoint)
    else:
        shots = cfg.out_dir / "screenshots" if cfg.screenshot else None
        log = ScriptedEngine(cfg.bridge, settle_ms=cfg.settle_ms,
                             page_timeout_s=cfg.page_timeout_s,
                             screenshot_dir=shots).capture(m, cfg.endpoint,
                                                           scripting=scripting)
    save_log(log, cfg.cache_dir)
    return log


# --- subcommands -------------------------------------------------------------

@contextlib.contextmanager
def _spooled_timemap(cfg: AuditConfig, uri: str) -> Iterator[BinaryIO]:
    """GET `uri`'s TimeMap into an unnamed file in the system temporary
    directory, and yield that file: `timemap` and `sample` leave nothing in
    the cache directory."""
    body = _TimeMapBody(None, None)
    try:
        with _fetcher(cfg) as fetcher:
            fetch_timemap(uri, cfg.endpoint, fetcher, body.open)
        yield body.spool
    finally:
        body.close()


def cmd_timemap(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    roles: dict[str, str] = {}
    with _spooled_timemap(cfg, args.uri) as spool:
        seconds, starts, _ = index_timemap(decode_timemap_pieces(spool, args.uri, cfg.endpoint),
                                           roles)
        sys.stdout.writelines(serialize_link_format(roles, read_mementos(spool, seconds, starts)))
    print()
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    with _spooled_timemap(cfg, args.uri) as spool:
        sample = sample_timemap(spool, decode_timemap_pieces(spool, args.uri, cfg.endpoint),
                                interval=cfg.interval, fixed_grid=cfg.fixed_grid)
    for sel in sample.selections:
        deviation = int(sel.deviation.total_seconds())
        print(f"{format_iso(sel.target)}\t{format_iso(sel.chosen.datetime)}"
              f"\t{deviation:+d}s\t{sel.chosen.uri}")
    return 0


def cmd_capture(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    m = to_replay_uri(args.memento, cfg.endpoint)
    engine, scripting = _modes(cfg)[0]
    with _fetcher(cfg) as fetcher:
        log = _capture_one(cfg, m, engine, scripting, fetcher)
    path = cfg.cache_dir / log_filename(log)
    status = "failed" if log.page_failed else "ok"
    print(f"{status}\t{len(log.fetches)} fetches\t{path}")
    return 0 if not log.page_failed else 1


def _read_run_meta(path: Path) -> dict:
    """The run metadata at `path`, its sample decoded.  AuditError naming the
    file when it cannot be read, or when a value that `audit` or `report`
    reads is missing or malformed."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise AuditError(f"unreadable run metadata {path}: {exc}") from exc
    try:
        echo = meta["config"]
        endpoint_from_echo(echo)
        if not (isinstance(meta["site"], str) and meta["sample"]
                and isinstance(meta["log_files"], list) and meta["log_files"]
                and all(isinstance(name, str) for name in meta["log_files"])
                and 0 < echo["drop_threshold"] < 1
                and isinstance(echo["sustain_window"], int)
                and echo["sustain_window"] > 0):
            raise ValueError("site, sample, log_files, drop_threshold or sustain_window "
                             "is missing, empty or out of range")
        meta["sample"] = sample_from_docs(meta["sample"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AuditError(f"malformed run metadata {path} "
                         f"({type(exc).__name__}: {exc})") from exc
    return meta


def _stored_run(cfg: AuditConfig, site: str) -> dict | None:
    """The run metadata the last audit of `site` stored, when its sample was
    drawn under the same sampling settings; else None.  Metadata that cannot
    be used is logged and treated as absent."""
    path = cfg.cache_dir / run_meta_filename(site)
    if not path.exists():
        return None
    try:
        meta = _read_run_meta(path)
        version = meta.get("schema_version")
        if version != RUN_META_SCHEMA_VERSION:
            raise AuditError(f"run metadata {path} has schema_version {version!r}, "
                             f"not {RUN_META_SCHEMA_VERSION!r}")
        if not (isinstance(meta.get("timemap_sha256"), str)
                and isinstance(meta.get("timemap_etag"), (str, type(None)))):
            raise AuditError(f"malformed run metadata {path}: timemap_sha256 or "
                             f"timemap_etag is not text")
    except AuditError as exc:
        logger.warning("%s; sampling the TimeMap afresh", exc)
        return None
    stored, echo = meta["config"], cfg.echo()
    if meta["site"] != site or any(stored.get(key) != echo[key]
                                   for key in SAMPLE_CONFIG_KEYS):
        return None
    return meta


def _content_length(headers: http.client.HTTPMessage) -> int | None:
    try:
        return int(headers["Content-Length"])
    except (TypeError, ValueError):
        return None


class _TimeMapBody:
    """A TimeMap body as it is taken in: its SHA-256 and length, and the
    body itself, spooled into an unnamed file that no crash leaves behind,
    unless its Content-Length is `stored_bytes`.  The file is made in
    `cache_dir`, or in the system temporary directory when that is None."""

    def __init__(self, cache_dir: Path | None, stored_bytes: int | None):
        self.cache_dir = cache_dir
        self.stored_bytes = stored_bytes
        self.spool = None

    def open(self, headers: http.client.HTTPMessage) -> Write:
        """The writer of one attempt's body; each attempt starts afresh."""
        self.sha256, self.size = hashlib.sha256(), 0
        self.spooled = (self.stored_bytes is None
                        or _content_length(headers) != self.stored_bytes)
        if self.spooled:
            if self.spool is None:
                if self.cache_dir is not None:
                    self.cache_dir.mkdir(parents=True, exist_ok=True)
                self.spool = tempfile.TemporaryFile(dir=self.cache_dir)
            self.spool.seek(0)
            self.spool.truncate()
        return self.write

    def write(self, piece: bytes) -> None:
        self.sha256.update(piece)
        self.size += len(piece)
        if self.spooled:
            self.spool.write(piece)

    def close(self) -> None:
        if self.spool is not None:
            self.spool.close()


def _annual_sample(cfg: AuditConfig, site: str,
                   fetcher: PoliteFetcher) -> tuple[tuple[Selection, ...], dict]:
    """GET the site's TimeMap and return (its annual sample, the run metadata
    keys that describe the TimeMap: its SHA-256, its ETag and its length).

    When the last audit stored a sample drawn under the same settings, the
    GET is conditional on that TimeMap's ETag, and a 304 reuses the sample
    without reading a body.  So does a 200 whose body has the stored digest,
    for an archive that sends no ETag.  The digest is taken over the body's
    bytes, the parser's input once decoded as UTF-8.

    The body is never held whole.  A body whose Content-Length is the stored
    TimeMap's length is only hashed as it arrives; should its digest differ
    after all, it is fetched again.  Any other body is hashed and spooled to
    a file, then sampled in one pass over the file, in memory bounded by 16
    bytes per memento plus one piece."""
    stored = _stored_run(cfg, site) or {}
    keys = ("timemap_sha256", "timemap_etag", "timemap_bytes")
    body = _TimeMapBody(cfg.cache_dir, stored.get("timemap_bytes"))
    try:
        headers = fetch_timemap(site, cfg.endpoint, fetcher, body.open,
                                etag=stored.get("timemap_etag"))
        if headers is None:
            logger.info("TimeMap not modified; reusing the stored sample for %s", site)
            return stored["sample"], {key: stored[key] for key in keys if key in stored}
        if not body.spooled and body.sha256.hexdigest() != stored["timemap_sha256"]:
            logger.info("TimeMap of %s changed at the same length; fetching it again", site)
            body.stored_bytes = None
            headers = fetch_timemap(site, cfg.endpoint, fetcher, body.open)
        digest = body.sha256.hexdigest()
        if stored.get("timemap_sha256") == digest:
            logger.info("TimeMap unchanged; reusing the stored sample for %s", site)
            sample = stored["sample"]
        else:
            sample = sample_timemap(body.spool,
                                    decode_timemap_pieces(body.spool, site, cfg.endpoint),
                                    interval=cfg.interval, fixed_grid=cfg.fixed_grid).selections
    finally:
        body.close()
    return sample, {"timemap_sha256": digest, "timemap_etag": headers.get("ETag"),
                    "timemap_bytes": body.size}


def _audit_site(cfg: AuditConfig, site: str) -> tuple[AuditReport, list[str], dict]:
    """Run the pipeline for one site.  Returns (report, failure messages,
    run metadata for the cache)."""
    with _fetcher(cfg) as fetcher:
        sample, timemap_keys = _annual_sample(cfg, site, fetcher)
        modes = _modes(cfg)
        failures: list[str] = []

        # One memento per calendar year, ReplayUri.year: the first pick of each.
        chosen: dict[int, tuple[str, ReplayUri]] = {}
        for sel in sample:
            try:
                m = to_replay_uri(sel.chosen.uri, cfg.endpoint)
            except AuditError as exc:
                failures.append(f"{sel.chosen.uri}: {exc}")
                continue
            chosen.setdefault(m.year, (sel.chosen.uri, m))

        def work(m: ReplayUri) -> list[CaptureLog]:
            return [_capture_one(cfg, m, engine, scripting, fetcher)
                    for engine, scripting in modes]

        logs: list[CaptureLog] = []
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [(uri, pool.submit(work, m)) for uri, m in chosen.values()]
            for uri, future in futures:
                try:
                    logs.extend(future.result())
                except (AuditError, OSError) as exc:
                    failures.append(f"{uri}: {exc}")

    if not logs:
        raise AuditError("every capture failed; no report to emit")
    echo = cfg.echo()
    meta = {
        "schema_version": RUN_META_SCHEMA_VERSION,
        "site": site,
        "config": echo,
        # timemap_etag and timemap_bytes are optional: readers that predate
        # them ignore them; without the ETag the GET is unconditional, and
        # without the length every body is spooled.
        **timemap_keys,
        "sample": sample_to_docs(sample),
        "log_files": [log_filename(log) for log in logs],
        "failures": failures,
    }
    return assemble_report(site, echo, sample, logs), failures, meta


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    site = validate_original_uri(args.uri)
    sweep_temporary_files(cfg.cache_dir)
    report, failures, meta = _audit_site(cfg, site)
    json_path, csv_path = write_report(report, cfg.out_dir)
    write_text_atomic(cfg.cache_dir / run_meta_filename(site),
                      json.dumps(meta, indent=2) + "\n")
    print(f"site:    {site}")
    print(f"points:  {len(report.series)}")
    print(f"flags:   {len(report.flags)}")
    print(f"leaks:   {len(report.leaks)}")
    print(f"report:  {json_path}")
    print(f"series:  {csv_path}")
    for failure in failures:
        print(f"failed:  {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    cache = Path(args.cache)
    metas = sorted(cache.glob(RUN_META_NAME.format("*")))
    if args.site:
        metas = [m for m in metas if m.name == run_meta_filename(args.site)]
    if not metas:
        print("error: no capture logs found", file=sys.stderr)
        return 2
    if len(metas) > 1:
        print("error: several audited sites are cached; pick one with --site",
              file=sys.stderr)
        return 2
    meta = _read_run_meta(metas[0])
    logs = []
    for name in meta["log_files"]:
        path = cache / name
        if not path.exists():
            print(f"error: cached log missing: {name}", file=sys.stderr)
            return 2
        logs.append(load_log(path))
    report = assemble_report(meta["site"], meta["config"], meta["sample"], logs)
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    json_path, csv_path = write_report(report, out_dir)
    print(f"report:  {json_path}")
    print(f"series:  {csv_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option with a value, so its first
    # positional argument, the subcommand, is argv's first non-option.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    handlers = {
        "timemap": cmd_timemap,
        "sample": cmd_sample,
        "capture": cmd_capture,
        "audit": cmd_audit,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (AuditError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())  # statement-gate: not run by tests
