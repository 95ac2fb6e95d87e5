import csv
import errno
import io
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from memento_audit.analysis import DropFlag, FetchClass, MementoMetrics, build_series
from memento_audit.capture import CaptureLog, ResourceFetch, save_log
from memento_audit.linkformat import MementoRecord
from memento_audit.report import (
    CSV_HEADER,
    AuditReport,
    emit_csv_series,
    emit_json,
    write_report,
)
from memento_audit.replay import ReplayUri
from memento_audit.sampling import Selection


def _metrics(year, ok=5, missing=1, leaked=1, delta=None):
    counts = {cls: 0 for cls in FetchClass}
    counts[FetchClass.ARCHIVED_OK] = ok
    counts[FetchClass.ARCHIVED_MISSING] = missing
    counts[FetchClass.LEAKED] = leaked
    return MementoMetrics(
        memento=ReplayUri(
            timestamp=f"{year}0601000000", original="http://s.example/",
            uri=f"http://archive.example/web/{year}0601000000/http://s.example/"),
        counts=counts, script_delta=delta)


def _report(years=(2004, 2005), delta=None):
    metrics = tuple(_metrics(y, delta=delta) for y in years)
    dt = datetime(2012, 7, 31, 0, 33, 35, tzinfo=timezone.utc)
    sample = tuple(
        Selection(target=dt + timedelta(days=365 * i),
                  chosen=MementoRecord(dt + timedelta(days=365 * i, hours=2), m.memento.uri),
                  deviation=timedelta(hours=2))
        for i, m in enumerate(metrics))
    leaks = (
        (metrics[0].memento.uri, ResourceFetch(
            request_uri="http://archive.example/web/20040601000000/http://s.example/t.png",
            chain=((302, "http://archive.example/web/20040601000000/http://s.example/t.png"),
                   (200, "http://live.example/t.png")),
            content_type="image/png", bytes=4, trigger="markup", phase="subresource")),
    )
    return AuditReport(
        site="http://s.example/",
        generated=dt,
        config_echo={"interval": "1y", "engine": "static", "scripting": "off"},
        sample=sample,
        series=build_series(metrics),
        flags=(DropFlag(start_year=2005, end_year=2005, baseline=7.0,
                        dropped_value=3.0, ratio=3 / 7),),
        leaks=leaks,
    )


def test_equal_reports_equal_bytes():
    assert emit_json(_report()) == emit_json(_report())


def test_field_order_is_fixed():
    text = emit_json(_report())
    top_keys = list(__import__("json").loads(text).keys())
    assert top_keys == ["schema_version", "site", "generated", "config", "notes",
                       "sample", "mementos", "series", "drop_flags", "leaks"]
    # Shuffled config input must not change the serialized form.
    r = _report()
    reordered = AuditReport(**{
        **r.__dict__,
        "config_echo": dict(reversed(list(r.config_echo.items()))),
    })
    assert emit_json(reordered) == text


def test_mementos_sorted_by_year():
    r = _report(years=(2008, 2004, 2006))
    doc = __import__("json").loads(emit_json(r))
    assert [m["year"] for m in doc["mementos"]] == [2004, 2006, 2008]


def test_counts_always_list_every_class():
    doc = __import__("json").loads(emit_json(_report()))
    for entry in doc["mementos"]:
        assert sorted(entry["counts"]) == sorted(cls.value for cls in FetchClass)


def test_csv_layout_and_precision():
    text = emit_csv_series(_report(delta=3).series)
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 3
    year, count, ok, missing, leaked, completeness, delta = rows[1]
    assert (year, count, ok, missing, leaked) == ("2004", "7", "5", "1", "1")
    assert completeness == "0.7143"
    assert delta == "3"


def test_csv_delta_empty_without_scripted_run():
    text = emit_csv_series(_report(delta=None).series)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][-1] == ""


def test_csv_uses_newline_terminators():
    text = emit_csv_series(_report().series)
    assert "\r" not in text
    assert text.endswith("\n")


def test_empty_report_serializes():
    r = AuditReport(
        site="http://s.example/",
        generated=datetime(2012, 1, 1, tzinfo=timezone.utc),
        config_echo={},
        sample=(),
        series=(),
        flags=(),
        leaks=(),
    )
    doc = json.loads(emit_json(r))
    assert (doc["sample"], doc["mementos"], doc["series"], doc["drop_flags"],
            doc["leaks"]) == ([], [], [], [], [])
    text = emit_csv_series(r.series)
    assert text == ",".join(CSV_HEADER) + "\n"


def test_write_report_creates_both_files(tmp_path):
    r = _report()
    json_path, csv_path = write_report(r, tmp_path)
    assert json_path.name == "report.json"
    assert csv_path.name == "series.csv"
    assert json_path.read_text() == emit_json(r)
    assert csv_path.read_text() == emit_csv_series(r.series)


def _log(finished):
    memento = ReplayUri(timestamp="20040601000000", original="http://s.example/",
                        uri="http://archive.example/web/20040601000000/http://s.example/")
    return CaptureLog(memento=memento, engine="static", scripting="off", fetches=(),
                      started=finished, finished=finished)


_T0 = datetime(2012, 7, 31, tzinfo=timezone.utc)


@pytest.mark.parametrize("write, old, new", [
    (lambda log, out: [save_log(log, out)], _log(_T0), _log(_T0 + timedelta(hours=1))),
    (lambda r, out: list(write_report(r, out)), _report(), _report(years=(2004, 2006))),
], ids=["save_log", "write_report"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, write, old, new):
    paths = write(old, tmp_path)
    before = {path: path.read_bytes() for path in paths}

    real_write_text = Path.write_text

    def torn(self, data, *args, **kwargs):
        # Half the text reaches the disk, then the write fails (a full disk).
        real_write_text(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", torn)
    with pytest.raises(OSError):
        write(new, tmp_path)
    assert {path: path.read_bytes() for path in paths} == before
    assert sorted(tmp_path.iterdir()) == sorted(paths)
