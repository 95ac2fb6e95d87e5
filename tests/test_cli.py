import dataclasses
import hashlib
import json
import logging
import socket
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
import requests

from memento_audit import analysis, capture, cli, fetching
from memento_audit.capture import TMP_PREFIX, load_log
from memento_audit.cli import build_parser, main, resolve_config, run_meta_filename
from memento_audit.config import CACHE_ENV, parse_config_file
from memento_audit.errors import (
    NetworkError,
    NotArchived,
    RobotsExcluded,
    UndecodableTimeMap,
)
from memento_audit.fixture_archive.scenarios import (
    BADREF_ORIGINAL,
    BADREF_REFERENCE,
    CHARSETS_CP1252_TIMESTAMP,
    CHARSETS_ORIGINAL,
    CHARSETS_UTF8_TIMESTAMP,
    GMAPS_LEAKS,
    GMAPS_ORIGINAL,
    NASA_ORIGINAL,
    NEWS_ORIGINAL,
    NEWS_TIMESTAMPS,
    ROBOTS_ORIGINAL,
    STATIC6_FETCH_TOTAL,
    STATIC6_ORIGINAL,
    STATIC6_TIMESTAMP,
    WHITEHOUSE_ORIGINAL,
    YT2006_ORIGINAL,
    YT2006_SCRIPT_LOADED,
)
from memento_audit.fixture_archive.server import serve_in_thread, stop_serving
from memento_audit.linkformat import MementoRecord, TimeMap, parse_link_format
from memento_audit.report import sample_to_docs
from memento_audit.sampling import select_annual
from memento_audit.timefmt import format_rfc1123, parse_ts14
from oracles_linkformat import oracle_serialize_link_format
from test_client import fetched_body


def _resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def _quiet(argv):
    # Flags belong to the subcommand, so they go after it.
    return [*argv, "--politeness-ms", "0"]


# --- configuration resolution ------------------------------------------------


def test_cache_dir_flag_beats_env_and_file(tmp_path, monkeypatch):
    conf = tmp_path / "audit.conf"
    conf.write_text("cache-dir=/from/file\n")
    monkeypatch.setenv(CACHE_ENV, "/from/env")
    cfg = _resolve(["audit", "http://s.example/", "--config", str(conf),
                    "--cache-dir", "/from/flag"])
    assert cfg.cache_dir == Path("/from/flag")


def test_cache_dir_env_beats_file(tmp_path, monkeypatch):
    conf = tmp_path / "audit.conf"
    conf.write_text("cache-dir=/from/file\n")
    monkeypatch.setenv(CACHE_ENV, "/from/env")
    cfg = _resolve(["audit", "http://s.example/", "--config", str(conf)])
    assert cfg.cache_dir == Path("/from/env")


def test_cache_dir_file_beats_default(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    conf = tmp_path / "audit.conf"
    conf.write_text("cache-dir=/from/file\n")
    cfg = _resolve(["audit", "http://s.example/", "--config", str(conf)])
    assert cfg.cache_dir == Path("/from/file")


def test_cache_dir_default(monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    cfg = _resolve(["audit", "http://s.example/"])
    assert cfg.cache_dir == Path(".memento-audit-cache")


def test_flag_beats_config_file_for_knobs(tmp_path):
    conf = tmp_path / "audit.conf"
    conf.write_text("interval=365d\ndrop_threshold=0.7\n# comment\n")
    cfg = _resolve(["audit", "http://s.example/", "--config", str(conf),
                    "--interval", "1y"])
    assert str(cfg.interval) == "1y"       # flag wins
    assert cfg.drop_threshold == 0.7       # file beats default


def test_defaults_without_any_source(monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    cfg = _resolve(["audit", "http://s.example/"])
    assert str(cfg.interval) == "1y"
    assert cfg.engine == "static"
    assert cfg.scripting == "off"
    assert cfg.drop_threshold == 0.5
    assert cfg.sustain_window == 2
    assert not cfg.fixed_grid


def test_endpoint_flag_shapes_templates():
    cfg = _resolve(["audit", "http://s.example/",
                    "--endpoint", "http://localhost:7777"])
    assert cfg.endpoint.expand_replay("20000101000000", "http://s.example/") == (
        "http://localhost:7777/web/20000101000000/http://s.example/")
    assert "localhost:7777" in cfg.endpoint.archive_hosts


def test_extra_archive_hosts_and_chrome_prefixes():
    cfg = _resolve(["audit", "http://s.example/",
                    "--archive-host", "cdn.archive.example",
                    "--chrome-prefix", "/banner/"])
    assert "cdn.archive.example" in cfg.endpoint.archive_hosts
    assert cfg.endpoint.replay_chrome_prefixes == ("/banner/",)


def test_config_file_grammar(tmp_path):
    conf = tmp_path / "audit.conf"
    conf.write_text(
        "# full-line comment\n"
        "engine = static   # trailing comment\n"
        "archive_host=a.example\n"
        "archive-host=b.example\n"
        "\n")
    values = parse_config_file(conf)
    assert values["engine"] == [(2, "static")]
    assert values["archive-host"] == [(3, "a.example"), (4, "b.example")]


def test_config_file_rejects_bare_words(tmp_path):
    conf = tmp_path / "audit.conf"
    conf.write_text("this is not an assignment\n")
    with pytest.raises(ValueError):
        parse_config_file(conf)


@pytest.mark.parametrize("text, line, key", [
    ("politness-ms = 0\n", 1, "politness-ms"),
    ("# full-line comment\nscreenshot = maybe\n", 2, "screenshot"),
    ("archive_host = a.example\nfixed_grid = sometimes\n", 2, "fixed-grid"),
    ("interval = 1y\ninterval = yearly\n", 2, "interval"),
    ("engine = scriptd\n", 1, "engine"),
    ("scripting = maybe\n", 1, "scripting"),
], ids=["unknown_key", "bad_boolean", "bad_boolean_underscored", "bad_interval",
        "bad_engine_choice", "bad_scripting_choice"])
def test_config_file_errors_name_file_line_and_key(service, capsys, tmp_path,
                                                   text, line, key):
    conf = tmp_path / "audit.conf"
    conf.write_text(text)
    rc = main(_quiet(["timemap", NEWS_ORIGINAL, "--endpoint", service.archive_base,
                      "--config", str(conf)]))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{conf}:{line}:" in err and repr(key) in err


def test_config_file_accepts_every_common_flag_name(tmp_path):
    conf = tmp_path / "audit.conf"
    conf.write_text("timemap_template = http://a.example/tm/{original}\n"
                    "fixed-grid = off\nscreenshot = YES\nout-dir = /from/file\n")
    cfg = _resolve(["audit", "http://s.example/", "--config", str(conf)])
    assert cfg.endpoint.timemap_template == "http://a.example/tm/{original}"
    assert (cfg.fixed_grid, cfg.screenshot) == (False, True)
    assert cfg.out_dir == Path("/from/file")


def test_default_echo_is_pinned(monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert _resolve(["audit", "http://s.example/"]).echo() == {
        "archive_hosts": ["web.archive.org"],
        "bridge": None,
        "chrome_prefixes": ["/static/"],
        "drop_threshold": 0.5,
        "engine": "static",
        "fixed_grid": False,
        "interval": "1y",
        "jobs": 1,
        "max_redirects": 10,
        "page_timeout_s": 30.0,
        "per_host": 2,
        "politeness_ms": 500,
        "replay_template": "http://web.archive.org/web/{timestamp}/{original}",
        "screenshot": False,
        "scripting": "off",
        "settle_ms": 3000,
        "sustain_window": 2,
        "timemap_template": "http://web.archive.org/list/timemap/link/{original}",
        "timeout_s": 10.0,
    }


# The rejection tests below point their audits at a closed port on this
# machine: were their settings let through, they would reach no archive.


def test_invalid_combination_exits_2(capsys):
    rc = main(["audit", "http://s.example/", "--endpoint", "http://127.0.0.1:9",
               "--scripting", "on"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_scripted_engine_requires_bridge(capsys):
    rc = main(["audit", "http://s.example/", "--endpoint", "http://127.0.0.1:9",
               "--engine", "scripted"])
    assert rc == 2
    assert "bridge" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--drop-threshold", "1.5"], "drop_threshold must be in (0, 1), got 1.5"),
    (["--jobs", "0"], "jobs must be positive, got 0"),
    (["--politeness-ms", "-1"], "politeness_ms and settle_ms must be >= 0"),
    (["--settle-ms", "-1"], "politeness_ms and settle_ms must be >= 0"),
], ids=["drop-threshold", "jobs", "politeness-ms", "settle-ms"])
def test_out_of_range_setting_exits_2(capsys, flags, message):
    rc = main(["audit", "http://s.example/", "--endpoint", "http://127.0.0.1:9", *flags])
    assert rc == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def _parse_outcome(parse, argv, capsys) -> tuple:
    """The exit status, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    out, err = capsys.readouterr()
    return exited.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], [],
    *([name, "--help"] for name in ("timemap", "sample", "capture", "audit", "report")),
    ["report"], ["audit"], ["bogus"], ["--bogus", "audit", "http://s.example/"],
    ["audit", "http://s.example/", "--bogus"], ["report", ".", "--jobs", "2"],
    ["--", "report"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_for_one_subcommand_parses_as_the_full_one(capsys, argv):
    """`main` builds only the named subcommand's arguments: the same help,
    errors and exit status as the parser that builds them all."""
    full = _parse_outcome(build_parser().parse_args, argv, capsys)
    assert _parse_outcome(main, argv, capsys) == full
    assert full[0] in (0, 2)


# --- subcommands against the fixture archive ---------------------------------


def test_timemap_command_prints_link_format(service, capsys):
    rc = main(_quiet(["timemap", NEWS_ORIGINAL, "--endpoint", service.archive_base]))
    assert rc == 0
    tm = parse_link_format(capsys.readouterr().out)
    assert tm.original == NEWS_ORIGINAL
    assert len(tm.mementos) == len(NEWS_TIMESTAMPS)


def test_sample_command_one_line_per_selection(service, capsys):
    rc = main(_quiet(["sample", NEWS_ORIGINAL, "--endpoint", service.archive_base]))
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 < len(lines) <= len(NEWS_TIMESTAMPS)
    first = lines[0].split("\t")
    assert len(first) == 4
    assert first[2] == "+0s"  # the pivot has no deviation
    assert first[3].endswith(NEWS_ORIGINAL)


def test_sample_single_memento_site(service, capsys):
    rc = main(_quiet(["sample", STATIC6_ORIGINAL, "--endpoint", service.archive_base]))
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1


def test_capture_command_writes_cache(service, capsys, tmp_path):
    memento = service.memento_uri(STATIC6_TIMESTAMP, STATIC6_ORIGINAL)
    rc = main(_quiet(["capture", memento, "--endpoint", service.archive_base,
                      "--cache-dir", str(tmp_path)]))
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ok")
    assert f"{STATIC6_FETCH_TOTAL} fetches" in out
    logs = list(tmp_path.glob("*_static_off.json"))
    assert len(logs) == 1


def test_capture_of_missing_memento_reports_failure(service, capsys, tmp_path):
    memento = service.memento_uri("19990101000000", NEWS_ORIGINAL)
    rc = main(_quiet(["capture", memento, "--endpoint", service.archive_base,
                      "--cache-dir", str(tmp_path)]))
    assert rc == 1
    assert capsys.readouterr().out.startswith("failed")


def test_audit_of_missing_pages_exits_0(service, capsys, tmp_path):
    # A sampled page that answers 404 is classified, not a failed capture.
    gone = service.archive_base + "/gone/{timestamp}/{original}"
    cache, out = tmp_path / "cache", tmp_path / "out"
    rc = main(_quiet(["audit", NEWS_ORIGINAL, "--endpoint", service.archive_base,
                      "--replay-template", gone,
                      "--cache-dir", str(cache), "--out-dir", str(out)]))
    assert rc == 0
    mementos = json.loads((out / "report.json").read_text())["mementos"]
    assert mementos
    assert all((m["counts"]["archived_missing"], m["total_requested"]) == (1, 1)
               for m in mementos)
    pages = [load_log(path).page_fetch for path in cache.glob("*_static_off.json")]
    assert len(pages) == len(mementos)
    assert all(page.final_status == 404 for page in pages)
    assert json.loads((cache / run_meta_filename(NEWS_ORIGINAL)).read_text())["failures"] == []


def test_audit_of_excluded_site_exits_2(service, capsys, tmp_path):
    rc = main(_quiet(["audit", ROBOTS_ORIGINAL, "--endpoint", service.archive_base,
                      "--cache-dir", str(tmp_path / "cache"),
                      "--out-dir", str(tmp_path / "out")]))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_timemap_get_failing_in_transport_exits_2(capsys, tmp_path):
    with socket.socket() as s:
        s.bind(("localhost", 0))
        closed = f"http://localhost:{s.getsockname()[1]}"
    rc = main(_quiet(["audit", NEWS_ORIGINAL, "--endpoint", closed,
                      "--cache-dir", str(tmp_path / "cache"),
                      "--out-dir", str(tmp_path / "out")]))
    assert rc == 2
    assert f"fetching TimeMap {closed}/list/timemap/link/{NEWS_ORIGINAL}" \
        in capsys.readouterr().err


def test_report_on_empty_cache_exits_2(capsys, tmp_path):
    rc = main(["report", str(tmp_path)])
    assert rc == 2
    assert "no capture logs found" in capsys.readouterr().err


def _run_audit(service, tmp_path, site, label):
    cache = tmp_path / f"cache-{label}"
    out = tmp_path / f"out-{label}"
    rc = main(_quiet(["audit", site, "--endpoint", service.archive_base,
                      "--cache-dir", str(cache), "--out-dir", str(out)]))
    assert rc == 0
    return cache, out


def test_audit_writes_report_and_run_metadata(service, capsys, tmp_path):
    cache, out = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "s6")
    assert (out / "report.json").exists()
    assert (out / "series.csv").exists()
    meta_path = cache / run_meta_filename(STATIC6_ORIGINAL)
    assert meta_path.exists()
    meta = json.loads(meta_path.read_text())
    assert meta["site"] == STATIC6_ORIGINAL
    assert meta["failures"] == []
    assert all((cache / name).exists() for name in meta["log_files"])


def test_audit_sweeps_the_temporary_files_of_killed_writes(service, capsys, tmp_path,
                                                          monkeypatch):
    """A write killed before its rename leaves its temporary file in the
    cache.  A cold audit and a warm one each remove every such file when they
    start, by its name's one prefix, and leave every other file as it was."""
    cache = tmp_path / "cache-sweep"
    cache.mkdir()
    kept = [cache / ".x.json.4242.7.tmp", cache / "notes.tmp-", cache / ".tmp"]
    for path in kept:
        path.write_text("{")
    (cache / f"{TMP_PREFIX}dir").mkdir()
    kept.append(cache / f"{TMP_PREFIX}dir")
    replaced = []
    real_replace = capture.os.replace

    def recording_replace(src, dst):
        replaced.append(Path(src).name)
        real_replace(src, dst)

    monkeypatch.setattr(capture.os, "replace", recording_replace)
    untouched: dict[Path, int] = {}
    for _ in ("cold", "warm"):
        stray = cache / f"{TMP_PREFIX}{run_meta_filename(STATIC6_ORIGINAL)}.4242.7"
        stray.write_text("{")
        untouched = {path: path.stat().st_mtime_ns for path in cache.iterdir()
                     if path != stray and not path.name.startswith("run_")}
        _run_audit(service, tmp_path, STATIC6_ORIGINAL, "sweep")
        assert not stray.exists()
        assert {path: path.stat().st_mtime_ns for path in untouched} == untouched
    assert set(untouched) > set(kept) and all(path.exists() for path in kept)
    assert replaced and all(name.startswith(TMP_PREFIX) for name in replaced)


def test_report_recomputes_from_cache(service, capsys, tmp_path):
    cache, out = _run_audit(service, tmp_path, WHITEHOUSE_ORIGINAL, "wh")
    first = (out / "report.json").read_bytes()
    first_csv = (out / "series.csv").read_bytes()

    out2 = tmp_path / "out-wh-2"
    rc = main(["report", str(cache), "--out-dir", str(out2)])
    assert rc == 0
    assert (out2 / "report.json").read_bytes() == first
    assert (out2 / "series.csv").read_bytes() == first_csv


def test_report_with_two_cached_sites_needs_site_flag(service, capsys, tmp_path):
    cache_a, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "two-a")
    # Audit a second site into the same cache.
    out_b = tmp_path / "out-two-b"
    rc = main(_quiet(["audit", NEWS_ORIGINAL, "--endpoint", service.archive_base,
                      "--cache-dir", str(cache_a), "--out-dir", str(out_b)]))
    assert rc == 0
    capsys.readouterr()

    rc = main(["report", str(cache_a), "--out-dir", str(tmp_path / "out-two-c")])
    assert rc == 2
    assert "--site" in capsys.readouterr().err

    rc = main(["report", str(cache_a), "--site", NEWS_ORIGINAL,
               "--out-dir", str(tmp_path / "out-two-d")])
    assert rc == 0
    report = json.loads((tmp_path / "out-two-d" / "report.json").read_text())
    assert report["site"] == NEWS_ORIGINAL


def test_jobs_and_per_host_do_not_change_the_report(service, capsys, tmp_path):
    outputs = []
    for label, width in (("wide", "3"), ("narrow", "1")):
        out = tmp_path / f"out-{label}"
        rc = main(_quiet(["audit", NASA_ORIGINAL, "--endpoint", service.archive_base,
                          "--jobs", width, "--per-host", width,
                          "--cache-dir", str(tmp_path / f"cache-{label}"),
                          "--out-dir", str(out)]))
        assert rc == 0
        report, series = _outputs_but_generated(out)
        config = report["config"]  # echoes the two flags, so they differ
        assert (config.pop("jobs"), config.pop("per_host")) == (int(width), int(width))
        outputs.append((report, series))
    assert outputs[0] == outputs[1]


# --- reusing the sample of an unchanged TimeMap -------------------------------


@pytest.fixture()
def news_timemap(service):
    """A TimeMap server whose response the test sets: it starts with the news
    site's TimeMap (mementos on the fixture archive), counts its GETs and
    keeps each GET's request headers and answered status.  Given an `etag`
    or a `last_modified`, it sends them with its 200s and answers a GET that
    sends one back unchanged (If-None-Match, If-Modified-Since) with 304.
    With `chunked` set, a body goes chunked, with no Content-Length; while
    `cut` is above 0, a GET gets half its body, then the connection closes,
    and `cut` falls by one."""
    state = {"status": 200, "body": requests.get(service.timemap_uri(NEWS_ORIGINAL),
                                                 timeout=10).content, "gets": 0,
             "etag": None, "last_modified": None, "requests": [], "statuses": [],
             "chunked": False, "cut": 0}

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            state["gets"] += 1
            state["requests"].append(self.headers)
            validators = {name: state[key] for name, key in (
                ("ETag", "etag"), ("Last-Modified", "last_modified")) if state[key]}
            conditions = (("If-None-Match", "ETag"), ("If-Modified-Since", "Last-Modified"))
            status = state["status"]
            if status == 200 and any(name in validators and self.headers.get(header)
                                     == validators[name] for header, name in conditions):
                status = 304
            state["statuses"].append(status)
            body = state["body"] if status != 304 else b""
            if state["chunked"]:
                self.protocol_version = "HTTP/1.1"
            self.send_response(status)
            for name, value in validators.items():
                self.send_header(name, value)
            if status != 304:
                self.send_header("Content-Type", "application/link-format")
                if state["chunked"]:
                    self.send_header("Transfer-Encoding", "chunked")
                    self.send_header("Connection", "close")
                else:
                    self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if state["cut"]:
                state["cut"] -= 1
                body = body[:len(body) // 2]
            if state["chunked"]:
                for start in range(0, len(body), 1000):
                    chunk = body[start:start + 1000]
                    self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                self.wfile.write(b"0\r\n\r\n")
            else:
                self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = serve_in_thread("localhost", 0, Handler)
    state["template"] = f"http://localhost:{server.server_address[1]}/tm/{{original}}"
    yield state
    stop_serving(server)


def _news_argv(service, news_timemap, tmp_path, out, *extra):
    return _quiet(["audit", NEWS_ORIGINAL, "--endpoint", service.archive_base,
                   "--timemap-template", news_timemap["template"],
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out-dir", str(tmp_path / out), *extra])


def _outputs(out: Path) -> tuple[bytes, bytes]:
    return (out / "report.json").read_bytes(), (out / "series.csv").read_bytes()


def _count_parses(monkeypatch) -> list:
    """The bodies that `audit` samples from here on."""
    calls = []
    real = cli.sample_timemap
    monkeypatch.setattr(cli, "sample_timemap",
                        lambda body, *args, **kwargs: calls.append(body)
                        or real(body, *args, **kwargs))
    return calls


def _refuse_parsing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an unchanged TimeMap was parsed again")
    for name in ("sample_timemap", "index_timemap"):
        monkeypatch.setattr(cli, name, refuse)


def _meta_path(tmp_path) -> Path:
    return tmp_path / "cache" / run_meta_filename(NEWS_ORIGINAL)


def test_unchanged_timemap_reuses_the_sample(service, news_timemap, tmp_path,
                                             monkeypatch, capsys):
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    meta = json.loads(_meta_path(tmp_path).read_text())
    assert meta["schema_version"] == "2"
    assert len(meta["timemap_sha256"]) == 64

    _refuse_parsing(monkeypatch)
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert news_timemap["gets"] == 2
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    assert json.loads(_meta_path(tmp_path).read_text()) == meta


def test_changed_timemap_is_sampled_afresh(service, news_timemap, tmp_path,
                                           monkeypatch, capsys):
    full = news_timemap["body"]
    tm = parse_link_format(full.decode("utf-8"))
    news_timemap["body"] = oracle_serialize_link_format(
        dataclasses.replace(tm, mementos=tm.mementos[:-1])).encode("utf-8")
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    first = json.loads((tmp_path / "first" / "report.json").read_text())

    news_timemap["body"] = full  # the archive gained its latest memento
    parses = _count_parses(monkeypatch)
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert len(parses) == 1
    second = json.loads((tmp_path / "second" / "report.json").read_text())
    assert len(second["sample"]) == len(first["sample"]) + 1
    assert second["sample"][-1]["memento"] == tm.mementos[-1].uri
    assert second["sample"][:-1] == first["sample"]


@pytest.mark.parametrize("extra", [["--interval", "365d"], ["--fixed-grid"]])
def test_changed_sampling_settings_resample(service, news_timemap, tmp_path,
                                            monkeypatch, capsys, extra):
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    parses = _count_parses(monkeypatch)
    assert main(_news_argv(service, news_timemap, tmp_path, "second", *extra)) == 0
    assert len(parses) == 1
    # The settings the sample was drawn with are now the stored ones.
    assert main(_news_argv(service, news_timemap, tmp_path, "third", *extra)) == 0
    assert len(parses) == 1


@pytest.mark.parametrize("status, body, error", [
    (403, b"", RobotsExcluded),
    (200, b"Blocked by robots.txt", RobotsExcluded),
    # Not link-format, several pieces long, and the marker past the first.
    pytest.param(200, b"<p>" + b"x" * (3 * fetching.PIECE_BYTES) + b" see robots.txt</p>",
                 RobotsExcluded, id="200-marker-past-the-first-piece-RobotsExcluded"),
    (404, b"", NotArchived),
])
def test_timemap_checks_run_before_reuse(service, news_timemap, tmp_path, capsys,
                                         status, body, error):
    argv = _news_argv(service, news_timemap, tmp_path, "first")
    assert main(argv) == 0
    capsys.readouterr()
    news_timemap["status"], news_timemap["body"] = status, body
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(error):
        cli._audit_site(_resolve(argv), NEWS_ORIGINAL)


def test_timemap_naming_robots_txt_is_not_an_exclusion(service, news_timemap, tmp_path):
    """A 200 that starts like a link-format entry is a TimeMap, even when its
    URIs hold the robots marker."""
    original = "http://example.com/robots.txt"
    memento = service.memento_uri("20100101000000", original)
    news_timemap["body"] = oracle_serialize_link_format(TimeMap(
        original=original, timegate_uri=service.timegate_uri(original),
        timemap_uri=news_timemap["template"].format(original=original),
        mementos=(MementoRecord(datetime(2010, 1, 1, tzinfo=timezone.utc), memento),),
    )).encode("utf-8")
    cfg = _resolve(_news_argv(service, news_timemap, tmp_path, "unused"))
    fetcher = cli._fetcher(cfg)
    try:
        body = fetched_body(original, cfg.endpoint, fetcher)
    finally:
        fetcher.close()
    tm = parse_link_format(body.decode("utf-8"))
    assert [r.uri for r in tm.mementos] == [memento]


def _as_v1(meta: dict) -> dict:
    return {**{k: v for k, v in meta.items() if k != "timemap_sha256"},
            "schema_version": "1"}


@pytest.mark.parametrize("status, body, error", [
    (403, b"", RobotsExcluded),
    (200, b"Blocked by robots.txt", RobotsExcluded),
    (404, b"", NotArchived),
])
def test_timemap_checks_run_before_revalidated_reuse(service, news_timemap, tmp_path,
                                                     capsys, status, body, error):
    news_timemap["etag"] = '"v1"'
    argv = _news_argv(service, news_timemap, tmp_path, "first")
    assert main(argv) == 0
    capsys.readouterr()
    news_timemap["status"], news_timemap["body"], news_timemap["etag"] = status, body, '"v2"'
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert news_timemap["requests"][-1]["If-None-Match"] == '"v1"'
    with pytest.raises(error):
        cli._audit_site(_resolve(argv), NEWS_ORIGINAL)


# --- revalidating the TimeMap by its validators -------------------------------


def _conditions(request) -> tuple:
    return request.get("If-None-Match"), request.get("If-Modified-Since")


def test_revalidated_timemap_reuses_the_sample(service, news_timemap, tmp_path,
                                               monkeypatch, capsys):
    news_timemap["etag"] = '"v1"'
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    meta = json.loads(_meta_path(tmp_path).read_text())
    assert meta["timemap_etag"] == '"v1"'
    assert len(meta["timemap_sha256"]) == 64

    _refuse_parsing(monkeypatch)
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert [_conditions(r) for r in news_timemap["requests"]] == [(None, None),
                                                                  ('"v1"', None)]
    assert news_timemap["statuses"] == [200, 304]
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    assert json.loads(_meta_path(tmp_path).read_text()) == meta


def test_new_etag_is_sampled_afresh(service, news_timemap, tmp_path, monkeypatch,
                                    capsys):
    full = news_timemap["body"]
    tm = parse_link_format(full.decode("utf-8"))
    news_timemap["body"] = oracle_serialize_link_format(
        dataclasses.replace(tm, mementos=tm.mementos[:-1])).encode("utf-8")
    news_timemap["etag"] = '"v1"'
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    first = json.loads((tmp_path / "first" / "report.json").read_text())
    first_digest = json.loads(_meta_path(tmp_path).read_text())["timemap_sha256"]

    news_timemap["body"], news_timemap["etag"] = full, '"v2"'
    parses = _count_parses(monkeypatch)
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert _conditions(news_timemap["requests"][-1]) == ('"v1"', None)
    assert news_timemap["statuses"] == [200, 200]
    assert len(parses) == 1
    second = json.loads((tmp_path / "second" / "report.json").read_text())
    assert len(second["sample"]) == len(first["sample"]) + 1
    meta = json.loads(_meta_path(tmp_path).read_text())
    assert meta["timemap_etag"] == '"v2"'
    assert meta["timemap_sha256"] not in (first_digest, None)


def _reordered(body: bytes) -> bytes:
    """`body` with its last two entries swapped: the same length, the same
    TimeMap, other bytes."""
    head, second, last = body.rsplit(b",\n", 2)
    assert second != last
    return b",\n".join([head, last, second])


def _news_without_its_last_memento(body: bytes) -> bytes:
    tm = parse_link_format(body.decode("utf-8"))
    return oracle_serialize_link_format(
        dataclasses.replace(tm, mementos=tm.mementos[:-1])).encode()


@pytest.mark.parametrize("case, first, second, gets, spools, parses", [
    ("unchanged", None, None, 1, 0, 0),
    ("changed-length", _news_without_its_last_memento, None, 1, 1, 1),
    ("same-length-other-bytes", None, _reordered, 2, 1, 1),
    ("chunked-unchanged", None, "chunked", 1, 1, 0),
], ids=lambda value: value if isinstance(value, str) else None)
def test_warm_timemap_gets(service, news_timemap, tmp_path, monkeypatch, capsys,
                           case, first, second, gets, spools, parses):
    """A warm audit makes one TimeMap GET, but two when a body of the stored
    length turns out to be another TimeMap: it was only hashed, not kept.
    A body of any other length is spooled."""
    full = news_timemap["body"]
    if first is not None:
        news_timemap["body"] = first(full)
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    assert json.loads(_meta_path(tmp_path).read_text())["timemap_bytes"] \
        == len(news_timemap["body"])
    news_timemap["body"] = full
    if second == "chunked":
        news_timemap["chunked"] = True
    elif second is not None:
        news_timemap["body"] = second(full)
    calls = _count_parses(monkeypatch)
    opened = []
    temporary_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda **kwargs: opened.append(kwargs) or temporary_file(**kwargs))
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert news_timemap["gets"] == 1 + gets
    assert len(opened) == spools and len(calls) == parses
    meta = json.loads(_meta_path(tmp_path).read_text())
    assert meta["timemap_sha256"] == hashlib.sha256(news_timemap["body"]).hexdigest()
    assert meta["timemap_bytes"] == len(news_timemap["body"])
    if case != "changed-length":
        assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    assert list((tmp_path / "cache").glob("tmp*")) == []


def test_robots_page_of_the_stored_length_costs_one_more_get(service, news_timemap, tmp_path,
                                                            monkeypatch, capsys, caplog):
    """A robots page exactly as long as the stored TimeMap is only hashed at
    first.  Its digest differs, so it is fetched again, into the spool, where
    the robots check finds it: no sample is reused and the run metadata
    stays as it was."""
    argv = _news_argv(service, news_timemap, tmp_path, "first")
    assert main(argv) == 0
    meta = _meta_path(tmp_path).read_bytes()
    stored_bytes = json.loads(meta)["timemap_bytes"]
    news_timemap["body"] = b"Blocked by robots.txt".ljust(stored_bytes, b".")
    _refuse_parsing(monkeypatch)
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="memento_audit.cli"):
        assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 2
    assert "robots marker" in capsys.readouterr().err
    assert "changed at the same length" in caplog.text and "reusing" not in caplog.text
    assert news_timemap["gets"] == 3
    assert not (tmp_path / "second").exists()
    assert _meta_path(tmp_path).read_bytes() == meta
    with pytest.raises(RobotsExcluded):
        cli._audit_site(_resolve(argv), NEWS_ORIGINAL)


@pytest.mark.parametrize("warm", [False, True], ids=["spooled", "hashed-only"])
def test_body_cut_short_then_retried_gives_the_whole_body_digest(
        service, news_timemap, tmp_path, monkeypatch, capsys, warm):
    body = news_timemap["body"]
    if warm:
        assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
        _refuse_parsing(monkeypatch)
    news_timemap["cut"] = 1
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert news_timemap["gets"] == 2 + warm and news_timemap["cut"] == 0
    meta = json.loads(_meta_path(tmp_path).read_text())
    assert meta["timemap_sha256"] == hashlib.sha256(body).hexdigest()
    assert meta["timemap_bytes"] == len(body)
    report = json.loads((tmp_path / "second" / "report.json").read_text())
    tm = parse_link_format(body.decode("utf-8"))
    assert [e["memento"] for e in report["sample"]] \
        == [sel.chosen.uri for sel in select_annual(tm).selections]


def _big_timemap(entries: int) -> bytes:
    """A TimeMap of `entries` mementos, each some 500 bytes long, as archives
    with long original URIs have: the body is many pieces long."""
    start = datetime(1996, 1, 1, tzinfo=timezone.utc)
    path = "story/" + "a-long-headline-slug-" * 18
    lines = [f'<{NEWS_ORIGINAL}>; rel="original"',
             f'<http://archive.example/tm/{NEWS_ORIGINAL}>; rel="timemap"',
             f'<http://archive.example/tg/{NEWS_ORIGINAL}>; rel="timegate"']
    for i in range(entries):
        dt = start + timedelta(hours=9 * i)
        lines.append(f'<http://archive.example/web/{dt:%Y%m%d%H%M%S}/{NEWS_ORIGINAL}{path}{i}>'
                     f'; rel="memento"; datetime="{format_rfc1123(dt)}"')
    return ",\n".join(lines).encode("utf-8")


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_annual_sample_never_holds_the_timemap_whole(service, news_timemap, tmp_path):
    """Through a real server: sampling a new 2x10^4-entry TimeMap peaks under
    a quarter of its body, and revalidating it by its digest alone under a
    twentieth."""
    body = news_timemap["body"] = _big_timemap(20_000)
    assert len(body) > 30 * fetching.PIECE_BYTES
    cfg = _resolve(_news_argv(service, news_timemap, tmp_path, "unused"))
    with cli._fetcher(cfg) as fetcher:
        (sample, keys), cold_peak = _traced_peak(
            lambda: cli._annual_sample(cfg, NEWS_ORIGINAL, fetcher))
        assert keys["timemap_bytes"] == len(body)
        meta = {"schema_version": cli.RUN_META_SCHEMA_VERSION, "site": NEWS_ORIGINAL,
                "config": cfg.echo(), **keys, "sample": sample_to_docs(sample),
                "log_files": ["unused.json"], "failures": []}
        _meta_path(tmp_path).write_text(json.dumps(meta))
        (reused, _), warm_peak = _traced_peak(
            lambda: cli._annual_sample(cfg, NEWS_ORIGINAL, fetcher))
    assert news_timemap["gets"] == 2
    assert reused == sample and len(sample) >= 15
    assert cold_peak < 0.25 * len(body)
    assert warm_peak < 0.05 * len(body)


# Only an ETag is sent back: a Last-Modified alone leaves the GET
# unconditional, and the digest decides.
@pytest.mark.parametrize("last_modified", [None, "Wed, 21 Oct 2015 07:28:00 GMT"],
                         ids=["no-validators", "last-modified-only"])
def test_without_an_etag_the_digest_decides(service, news_timemap, tmp_path,
                                            monkeypatch, capsys, last_modified):
    news_timemap["last_modified"] = last_modified
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    _refuse_parsing(monkeypatch)
    assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert [_conditions(r) for r in news_timemap["requests"]] == [(None, None)] * 2
    assert news_timemap["statuses"] == [200, 200]
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    meta = json.loads(_meta_path(tmp_path).read_text())
    assert meta["timemap_etag"] is None
    assert "timemap_last_modified" not in meta


def _drop_validators(meta: dict) -> dict:
    return {k: v for k, v in meta.items() if k != "timemap_etag"}


@pytest.mark.parametrize("edit, extra", [
    (None, ["--interval", "365d"]),
    (None, ["--fixed-grid"]),
    ("missing", []),
    (_as_v1, []),
    (_drop_validators, []),
    (lambda meta: {**meta, "timemap_etag": 7}, []),
], ids=["interval", "fixed-grid", "missing", "v1", "no-validator-keys", "bad-etag"])
def test_validators_sent_only_with_a_usable_sample(service, news_timemap, tmp_path,
                                                   capsys, edit, extra):
    news_timemap["etag"] = '"v1"'
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    if edit == "missing":
        _meta_path(tmp_path).unlink()
    elif edit is not None:
        meta = json.loads(_meta_path(tmp_path).read_text())
        _meta_path(tmp_path).write_text(json.dumps(edit(meta)))
    assert main(_news_argv(service, news_timemap, tmp_path, "second", *extra)) == 0
    assert _conditions(news_timemap["requests"][-1]) == (None, None)
    assert news_timemap["statuses"] == [200, 200]
    assert json.loads(_meta_path(tmp_path).read_text())["timemap_etag"] == '"v1"'


def test_not_modified_to_an_unconditional_get_exits_2(service, news_timemap, tmp_path,
                                                      capsys):
    argv = _news_argv(service, news_timemap, tmp_path, "first")
    assert main(argv) == 0
    capsys.readouterr()
    news_timemap["status"] = 304
    assert main(argv) == 2
    assert "unexpected status 304" in capsys.readouterr().err
    assert _conditions(news_timemap["requests"][-1]) == (None, None)
    with pytest.raises(NetworkError):
        cli._audit_site(_resolve(argv), NEWS_ORIGINAL)


def test_timemap_is_read_as_utf8(service, news_timemap, tmp_path, capsys):
    tm = parse_link_format(news_timemap["body"].decode("utf-8"))
    paths = ["caf\u00e9/", "\u65e5\u672c/", "na\u00efve-\u00fcber/"]
    mementos = tuple(record._replace(uri=f"{record.uri}{path}")
                     for record, path in zip(tm.mementos, paths))
    news_timemap["body"] = oracle_serialize_link_format(
        dataclasses.replace(tm, mementos=mementos)).encode("utf-8")
    argv = _news_argv(service, news_timemap, tmp_path, "unused")
    cfg = _resolve(argv)
    fetcher = cli._fetcher(cfg)
    try:
        body = fetched_body(NEWS_ORIGINAL, cfg.endpoint, fetcher)
    finally:
        fetcher.close()
    fetched = parse_link_format(body.decode("utf-8"))
    assert [r.uri for r in fetched.mementos] == [r.uri for r in mementos]


def test_timemap_without_mementos_exits_2(service, news_timemap, tmp_path, capsys):
    tm = parse_link_format(news_timemap["body"].decode("utf-8"))
    news_timemap["body"] = oracle_serialize_link_format(
        dataclasses.replace(tm, mementos=())).encode("utf-8")
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 2
    assert "error: TimeMap has no mementos to sample\n" in capsys.readouterr().err


def test_undecodable_timemap_exits_2(service, news_timemap, tmp_path, capsys):
    body = news_timemap["body"]
    offset = body.index(b"/memento/") + 1
    news_timemap["body"] = body[:offset] + b"\xff" + body[offset:]
    argv = _news_argv(service, news_timemap, tmp_path, "first")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"byte offset {offset}" in err
    assert news_timemap["template"].format(original=NEWS_ORIGINAL) in err
    with pytest.raises(UndecodableTimeMap):
        cli._audit_site(_resolve(argv), NEWS_ORIGINAL)
    assert main(["timemap", *argv[1:]]) == 2


@pytest.mark.parametrize("edit, warns", [
    (_as_v1, True),
    (lambda meta: {**meta, "schema_version": "3"}, True),
    (lambda meta: {**meta, "site": "http://other.example/"}, False),
])
def test_other_run_metadata_is_a_miss(service, news_timemap, tmp_path, monkeypatch,
                                      capsys, caplog, edit, warns):
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    meta = json.loads(_meta_path(tmp_path).read_text())
    _meta_path(tmp_path).write_text(json.dumps(edit(meta), indent=2) + "\n")

    parses = _count_parses(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="memento_audit.cli"):
        assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert len(parses) == 1
    assert (str(_meta_path(tmp_path)) in caplog.text) == warns
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    assert json.loads(_meta_path(tmp_path).read_text())["schema_version"] == "2"


def test_truncated_run_metadata_is_a_miss(service, news_timemap, tmp_path,
                                          monkeypatch, capsys, caplog):
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    meta_path = _meta_path(tmp_path)
    text = meta_path.read_text()
    meta_path.write_text(text[:len(text) // 2])

    parses = _count_parses(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="memento_audit.cli"):
        assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert len(parses) == 1
    assert str(meta_path) in caplog.text
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    assert meta_path.read_text() == text
    assert [p.name for p in meta_path.parent.glob(".*")] == []


@pytest.mark.parametrize("damage", [
    lambda meta: "[]",
    lambda meta: json.dumps({k: v for k, v in meta.items() if k != "sample"}),
    lambda meta: json.dumps({**meta, "sample": [{"target": "2000"}]}),
    lambda meta: json.dumps({**meta, "sample": []}),
])
def test_malformed_run_metadata_is_a_miss(service, news_timemap, tmp_path,
                                          monkeypatch, capsys, caplog, damage):
    assert main(_news_argv(service, news_timemap, tmp_path, "first")) == 0
    meta_path = _meta_path(tmp_path)
    meta_path.write_text(damage(json.loads(meta_path.read_text())))

    parses = _count_parses(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="memento_audit.cli"):
        assert main(_news_argv(service, news_timemap, tmp_path, "second")) == 0
    assert len(parses) == 1
    assert str(meta_path) in caplog.text
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")


def test_report_on_run_metadata_with_hosts_not_a_list_exits_2(service, capsys, tmp_path):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "hosts")
    meta_path = cache / run_meta_filename(STATIC6_ORIGINAL)
    meta = json.loads(meta_path.read_text())
    meta["config"]["archive_hosts"] = "archive.example"
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-hosts-2")])
    assert rc == 2
    assert (f"error: malformed run metadata {meta_path} (TypeError: archive_hosts and "
            f"chrome_prefixes must be lists of strings)") in capsys.readouterr().err


def test_report_on_truncated_run_metadata_exits_2(service, capsys, tmp_path):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "torn")
    meta_path = cache / run_meta_filename(STATIC6_ORIGINAL)
    meta_path.write_text(meta_path.read_text()[:40])
    capsys.readouterr()
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-torn-2")])
    assert rc == 2
    assert str(meta_path) in capsys.readouterr().err


def test_report_reads_v1_run_metadata(service, capsys, tmp_path):
    cache, out = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "v1")
    meta_path = cache / run_meta_filename(STATIC6_ORIGINAL)
    meta_path.write_text(json.dumps(_as_v1(json.loads(meta_path.read_text()))))
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-v1-2")])
    assert rc == 0
    assert _outputs(tmp_path / "out-v1-2") == _outputs(out)


@pytest.mark.parametrize("damage", [
    lambda meta: meta.pop("log_files"),
    lambda meta: meta.pop("site"),
    lambda meta: meta.pop("sample"),
    lambda meta: meta.update(sample=[]),
    lambda meta: meta["config"].pop("archive_hosts"),
    lambda meta: meta["config"].pop("drop_threshold"),
    lambda meta: meta["config"].update(sustain_window="2"),
], ids=["log_files", "site", "sample", "sample_empty", "archive_hosts", "drop_threshold",
        "sustain_window"])
def test_report_on_incomplete_run_metadata_exits_2(service, capsys, tmp_path, damage):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "incomplete")
    meta_path = cache / run_meta_filename(STATIC6_ORIGINAL)
    meta = json.loads(meta_path.read_text())
    damage(meta)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-incomplete-2")])
    assert rc == 2
    assert str(meta_path) in capsys.readouterr().err


# --- unreadable capture logs --------------------------------------------------


def _truncate_a_log(cache: Path) -> Path:
    path = sorted(cache.glob("*_static_off.json"))[0]
    path.write_text(path.read_text()[:100])
    return path


def _edit_logs(cache: Path, edit, count: int | None = 1) -> list[Path]:
    """Apply `edit` to the fetches of the first `count` (None: all) static
    capture logs in `cache`."""
    paths = sorted(cache.glob("*_static_off.json"))[:count]
    for path in paths:
        doc = json.loads(path.read_text())
        for fetch in doc["fetches"]:
            edit(fetch)
        path.write_text(json.dumps(doc))
    return paths


def _hop_uri_not_a_string(fetch: dict) -> None:
    fetch["chain"][0][1] = 7


def _outputs_but_generated(out: Path) -> tuple[dict, bytes]:
    report = json.loads((out / "report.json").read_text())
    del report["generated"]
    return report, (out / "series.csv").read_bytes()


def test_truncated_capture_log_is_captured_again(service, capsys, caplog, tmp_path):
    cache, out = _run_audit(service, tmp_path, WHITEHOUSE_ORIGINAL, "torn-log")
    log_path = _truncate_a_log(cache)
    with caplog.at_level(logging.WARNING, logger="memento_audit.cli"):
        rc = main(_quiet(["audit", WHITEHOUSE_ORIGINAL, "--endpoint", service.archive_base,
                          "--cache-dir", str(cache),
                          "--out-dir", str(tmp_path / "out-torn-log-2")]))
    assert rc == 0
    assert str(log_path) in caplog.text
    assert load_log(log_path).memento.original == WHITEHOUSE_ORIGINAL
    assert _outputs_but_generated(tmp_path / "out-torn-log-2") == _outputs_but_generated(out)


def test_report_on_truncated_capture_log_exits_2(service, capsys, tmp_path):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "torn-log-report")
    log_path = _truncate_a_log(cache)
    capsys.readouterr()
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-torn-log-2")])
    assert rc == 2
    assert str(log_path) in capsys.readouterr().err


def test_capture_log_with_a_hop_uri_not_a_string_is_captured_again(service, capsys, caplog,
                                                                   tmp_path):
    cache, out = _run_audit(service, tmp_path, WHITEHOUSE_ORIGINAL, "hop-uri")
    [log_path] = _edit_logs(cache, _hop_uri_not_a_string)
    with caplog.at_level(logging.WARNING, logger="memento_audit.cli"):
        rc = main(_quiet(["audit", WHITEHOUSE_ORIGINAL, "--endpoint", service.archive_base,
                          "--cache-dir", str(cache),
                          "--out-dir", str(tmp_path / "out-hop-uri-2")]))
    assert rc == 0
    assert f"unreadable capture log {log_path}" in caplog.text
    assert all(isinstance(uri, str) for f in load_log(log_path).fetches for _, uri in f.chain)
    assert _outputs_but_generated(tmp_path / "out-hop-uri-2") == _outputs_but_generated(out)


def test_report_on_capture_log_with_a_hop_uri_not_a_string_exits_2(service, capsys,
                                                                   tmp_path):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "hop-uri-report")
    [log_path] = _edit_logs(cache, _hop_uri_not_a_string)
    capsys.readouterr()
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-hop-uri-2")])
    assert rc == 2
    assert f"unreadable capture log {log_path}" in capsys.readouterr().err


def test_report_with_a_listed_capture_log_missing_exits_2(service, capsys, tmp_path):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, "log-gone")
    [name] = json.loads((cache / run_meta_filename(STATIC6_ORIGINAL)).read_text())["log_files"]
    (cache / name).unlink()
    capsys.readouterr()
    assert main(["report", str(cache), "--out-dir", str(tmp_path / "out-log-gone-2")]) == 2
    assert capsys.readouterr().err == f"error: cached log missing: {name}\n"


def test_cached_log_of_another_memento_uri_is_captured_again(service, capsys, tmp_path):
    cache, out = _run_audit(service, tmp_path, WHITEHOUSE_ORIGINAL, "other-uri")
    path = sorted(cache.glob("*_static_off.json"))[0]
    doc = json.loads(path.read_text())
    uri = doc["memento"]["uri"]
    doc["memento"]["uri"] = uri + "?elsewhere"
    path.write_text(json.dumps(doc))
    assert main(_quiet(["audit", WHITEHOUSE_ORIGINAL, "--endpoint", service.archive_base,
                        "--cache-dir", str(cache),
                        "--out-dir", str(tmp_path / "out-other-uri-2")])) == 0
    assert load_log(path).memento.uri == uri
    assert _outputs_but_generated(tmp_path / "out-other-uri-2") == _outputs_but_generated(out)


@pytest.mark.parametrize("flag, first, second", [("--settle-ms", "0", "1"),
                                                 ("--page-timeout-s", "5", "6")])
def test_scripted_log_made_under_other_timing_is_captured_again(service, stub_bridge, capsys,
                                                                tmp_path, flag, first, second):
    def audit(value, out):
        return main(_quiet(["audit", YT2006_ORIGINAL, "--endpoint", service.archive_base,
                            "--engine", "scripted", "--scripting", "on",
                            "--bridge", stub_bridge.url, "--cache-dir", str(tmp_path / "cache"),
                            "--out-dir", str(tmp_path / out), flag, value]))

    assert audit(first, "first") == 0
    assert audit(second, "second") == 0
    logs = [load_log(path) for path in (tmp_path / "cache").glob("*_scripted_on.json")]
    key = flag[2:].replace("-", "_")
    assert logs and {float(getattr(log, key)) for log in logs} == {float(second)}


def _hop_status(value):
    """An edit giving the first hop of each fetch the status value(status)."""
    def edit(fetch: dict) -> None:
        for hop in fetch["chain"][:1]:
            hop[0] = value(hop[0])
    return edit


#: Fetch records that the reader once coerced and now rejects.
_REJECTED_FETCHES = {
    "status_a_float": _hop_status(lambda status: status + 0.7),
    "status_a_bool": _hop_status(lambda status: True),
    "status_out_of_range": _hop_status(lambda status: 600),
    "error_not_a_string": lambda fetch: fetch.update(error=5),
    "bytes_a_string": lambda fetch: fetch.update(bytes=str(fetch["bytes"])),
    "bytes_negative": lambda fetch: fetch.update(bytes=-1),
    "request_uri_not_a_string": lambda fetch: fetch.update(request_uri=7),
    "trigger_unknown": lambda fetch: fetch.update(trigger="parser"),
    "phase_unknown": lambda fetch: fetch.update(phase="main"),
    "content_type_falsy": lambda fetch: fetch.update(content_type=False),
}


@pytest.mark.parametrize("kind", sorted(_REJECTED_FETCHES))
def test_capture_log_the_strict_reader_rejects_is_captured_again(service, capsys, caplog,
                                                                 tmp_path, kind):
    cache, out = _run_audit(service, tmp_path, WHITEHOUSE_ORIGINAL, kind)
    [log_path] = _edit_logs(cache, _REJECTED_FETCHES[kind])
    with caplog.at_level(logging.WARNING, logger="memento_audit.cli"):
        rc = main(_quiet(["audit", WHITEHOUSE_ORIGINAL, "--endpoint", service.archive_base,
                          "--cache-dir", str(cache),
                          "--out-dir", str(tmp_path / f"out-{kind}-2")]))
    assert rc == 0
    assert f"unreadable capture log {log_path}" in caplog.text
    load_log(log_path)
    assert _outputs_but_generated(tmp_path / f"out-{kind}-2") == _outputs_but_generated(out)


@pytest.mark.parametrize("kind", sorted(_REJECTED_FETCHES))
def test_report_on_capture_log_the_strict_reader_rejects_exits_2(service, capsys, tmp_path,
                                                                 kind):
    cache, _ = _run_audit(service, tmp_path, STATIC6_ORIGINAL, f"{kind}-report")
    [log_path] = _edit_logs(cache, _REJECTED_FETCHES[kind])
    capsys.readouterr()
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / f"out-{kind}-2")])
    assert rc == 2
    assert f"unreadable capture log {log_path}" in capsys.readouterr().err


def test_cached_final_status_is_not_read(service, capsys, tmp_path):
    """A cached fetch is classified by its chain, whatever final_status a log
    that an older version wrote stores; the logs written now store none."""
    cache, out = _run_audit(service, tmp_path, WHITEHOUSE_ORIGINAL, "status")

    def contradict(fetch):
        assert "final_status" not in fetch
        fetch["final_status"] = 404 if fetch["chain"][-1][0] == 200 else 200

    _edit_logs(cache, contradict, count=None)
    rc = main(["report", str(cache), "--out-dir", str(tmp_path / "out-status-2")])
    assert rc == 0
    assert _outputs(tmp_path / "out-status-2") == _outputs(out)


# --- scripted audits -----------------------------------------------------------


@pytest.mark.parametrize("site, check", [
    (YT2006_ORIGINAL,
     lambda r: [m["script_delta"] for m in r["mementos"]] == [len(YT2006_SCRIPT_LOADED)]),
    (GMAPS_ORIGINAL, lambda r: len(r["leaks"]) == len(GMAPS_LEAKS)),
    (NASA_ORIGINAL, lambda r: len(r["drop_flags"]) == 1),
], ids=["script_delta", "leaks", "drop_flag"])
def test_scripted_audit_then_report_is_byte_identical(service, stub_bridge, capsys,
                                                      tmp_path, site, check):
    cache, out = tmp_path / "cache", tmp_path / "out"
    rc = main(_quiet(["audit", site, "--endpoint", service.archive_base,
                      "--engine", "scripted", "--scripting", "both",
                      "--bridge", stub_bridge.url, "--settle-ms", "0",
                      "--cache-dir", str(cache), "--out-dir", str(out)]))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert check(report)
    assert len(list(cache.glob("*_scripted_*.json"))) == 2 * len(report["mementos"])
    assert main(["report", str(cache), "--out-dir", str(tmp_path / "again")]) == 0
    assert _outputs(tmp_path / "again") == _outputs(out)


@pytest.mark.parametrize("site, modes", [
    (NASA_ORIGINAL, []),
    (GMAPS_ORIGINAL, ["--engine", "scripted", "--scripting", "both", "--settle-ms", "0"]),
], ids=["static", "scripting_both"])
def test_report_assembly_classifies_each_fetch_once(service, stub_bridge, capsys, tmp_path,
                                                    monkeypatch, site, modes):
    classified = []
    classify = analysis.classify_fetch

    def counting(f, ep):
        classified.append(f)
        return classify(f, ep)

    monkeypatch.setattr(analysis, "classify_fetch", counting)
    monkeypatch.setattr("memento_audit.report.classify_fetch", counting, raising=False)
    if modes:
        modes = [*modes, "--bridge", stub_bridge.url]
    cache = tmp_path / "cache"
    rc = main(_quiet(["audit", site, "--endpoint", service.archive_base, *modes,
                      "--cache-dir", str(cache), "--out-dir", str(tmp_path / "out")]))
    assert rc == 0
    meta = json.loads((cache / run_meta_filename(site)).read_text())
    fetches = sum(len(load_log(cache / name).fetches) for name in meta["log_files"])
    assert len(meta["log_files"]) > 1 and fetches > 0
    assert len(classified) == fetches
    classified.clear()
    assert main(["report", str(cache), "--out-dir", str(tmp_path / "again")]) == 0
    assert len(classified) == fetches


@pytest.mark.parametrize("modes, skipped", [
    ([], 1),
    (["--engine", "scripted", "--scripting", "both", "--settle-ms", "0"], 0),
], ids=["static", "scripting_both"])
def test_malformed_reference_fails_no_memento(service, stub_bridge, capsys, tmp_path,
                                              modes, skipped):
    # Static capture records the reference as skipped; the browser drops it.
    if modes:
        modes = [*modes, "--bridge", stub_bridge.url]
    cache, out = tmp_path / "cache", tmp_path / "out"
    rc = main(_quiet(["audit", BADREF_ORIGINAL, "--endpoint", service.archive_base,
                      *modes, "--cache-dir", str(cache), "--out-dir", str(out)]))
    assert rc == 0
    [memento] = json.loads((out / "report.json").read_text())["mementos"]
    assert (memento["counts"]["archived_ok"], memento["counts"]["skipped"]) == (2, skipped)
    logs = [load_log(path) for path in cache.glob("*_off.json")]
    assert [f.request_uri for log in logs for f in log.subresources()
            if f.request_uri == BADREF_REFERENCE] == [BADREF_REFERENCE] * skipped


def _charsets_audit(service, news_timemap, tmp_path, *mementos) -> int:
    """Audit charsets.example from a TimeMap of `mementos`, (memento URI,
    datetime) pairs; its report goes to tmp_path/out."""
    records = tuple(MementoRecord(dt, uri, first=i == 0, last=i == len(mementos) - 1)
                    for i, (uri, dt) in enumerate(mementos))
    news_timemap["body"] = oracle_serialize_link_format(TimeMap(
        original=CHARSETS_ORIGINAL, timegate_uri=service.timegate_uri(CHARSETS_ORIGINAL),
        timemap_uri=service.timemap_uri(CHARSETS_ORIGINAL), mementos=records)).encode()
    return main(_quiet(["audit", CHARSETS_ORIGINAL, "--endpoint", service.archive_base,
                        "--timemap-template", news_timemap["template"],
                        "--cache-dir", str(tmp_path / "cache"),
                        "--out-dir", str(tmp_path / "out")]))


def _charsets_memento(service, timestamp: str,
                      dt: datetime | None = None) -> tuple[str, datetime]:
    return service.memento_uri(timestamp, CHARSETS_ORIGINAL), dt or parse_ts14(timestamp)


def test_a_memento_counts_for_the_year_of_its_uri_timestamp(service, news_timemap,
                                                            tmp_path, capsys):
    # The 2003 memento is dated 30 minutes before its URI's timestamp, in
    # 2002, and the sampler picks a later 2003 memento after it.  Both count
    # for 2003, so only the first is captured; sorting picks by their
    # datetimes' years captured both, and the series then held 2003 twice.
    late = "20030601000000"
    mementos = [_charsets_memento(service, CHARSETS_CP1252_TIMESTAMP),
                _charsets_memento(service, CHARSETS_UTF8_TIMESTAMP,
                                  datetime(2002, 12, 31, 23, 30, tzinfo=timezone.utc)),
                _charsets_memento(service, late)]
    assert _charsets_audit(service, news_timemap, tmp_path, *mementos) == 0
    assert "failed:" not in capsys.readouterr().err
    out = tmp_path / "out"
    doc = json.loads((out / "report.json").read_text())
    assert [entry["memento"] for entry in doc["sample"]] == [uri for uri, _ in mementos]
    assert [(m["year"], m["timestamp"]) for m in doc["mementos"]] == [
        (1999, CHARSETS_CP1252_TIMESTAMP), (2003, CHARSETS_UTF8_TIMESTAMP)]
    assert [point["year"] for point in doc["series"]] == [1999, 2003]
    assert not list((tmp_path / "cache").glob(f"{late}_*.json"))
    assert main(["report", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "again")]) == 0
    assert _outputs(tmp_path / "again") == _outputs(out)


def test_a_pick_whose_uri_does_not_convert_fails_only_itself(service, news_timemap,
                                                             tmp_path, capsys):
    bad = f"{service.archive_base}/memento/latest/{CHARSETS_ORIGINAL}"
    mementos = [_charsets_memento(service, CHARSETS_CP1252_TIMESTAMP),
                (bad, datetime(2001, 1, 1, tzinfo=timezone.utc)),
                _charsets_memento(service, CHARSETS_UTF8_TIMESTAMP)]
    assert _charsets_audit(service, news_timemap, tmp_path, *mementos) == 1
    err = capsys.readouterr().err
    assert f"failed:  {bad}: no timestamped memento segment" in err
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [point["year"] for point in doc["series"]] == [1999, 2003]
