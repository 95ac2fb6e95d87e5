"""Serialize audit results: a versioned JSON report and a plot-ready CSV.

Equal report values serialize to identical bytes — field order is fixed, all
lists are sorted, and `generated` is derived from the capture logs rather than
the wall clock — so recomputing from cached logs reproduces the files exactly.
"""

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from .analysis import (
    DropFlag,
    FetchClass,
    MementoMetrics,
    build_series,
    classify_log,
    compute_metrics,
    detect_drops,
)
from .capture import CaptureLog, ResourceFetch, write_text_atomic
from .config import endpoint_from_echo
from .errors import InsufficientData
from .linkformat import memento_record
from .sampling import Selection
from .timefmt import format_iso, parse_iso

REPORT_SCHEMA_VERSION = "1"

CSV_HEADER = ("year", "resource_count", "archived_ok", "archived_missing",
              "leaked", "completeness", "script_delta")

#: Reader-facing counting rules, echoed in every report.
REPORT_NOTES = {
    "completeness": "archived_ok / (archived_ok + archived_missing + leaked "
                    "+ network_error); 1.0 when nothing was attempted",
    "count_includes_page": True,
    "replay_chrome_excluded": True,
}


@dataclass(frozen=True)
class AuditReport:
    site: str
    generated: datetime
    config_echo: dict
    sample: tuple[Selection, ...]
    #: One metrics record per memento, in ascending year order.
    series: tuple[MementoMetrics, ...]
    flags: tuple[DropFlag, ...]
    #: (memento URI, fetch) for each fetch that escaped to the live web.
    leaks: tuple[tuple[str, ResourceFetch], ...]


def sample_to_docs(sample: tuple[Selection, ...]) -> list[dict]:
    """The JSON form of a sample, shared by the report and the run metadata."""
    return [
        {
            "target": format_iso(sel.target),
            "memento": sel.chosen.uri,
            "datetime": format_iso(sel.chosen.datetime),
            "deviation_s": int(sel.deviation.total_seconds()),
        }
        for sel in sample
    ]


def sample_from_docs(docs: list[dict]) -> tuple[Selection, ...]:
    """Inverse of sample_to_docs."""
    return tuple(
        Selection(
            target=parse_iso(e["target"]),
            chosen=memento_record(e["memento"], parse_iso(e["datetime"])),
            deviation=timedelta(seconds=e["deviation_s"]),
        )
        for e in docs
    )


def collect_leaks(logs: list[CaptureLog], classes: list[tuple[FetchClass, ...]]
                  ) -> tuple[tuple[str, ResourceFetch], ...]:
    """(memento URI, fetch) for every Leaked fetch across the given logs,
    deduplicated per memento and request URI, in stable order, where
    classes[i] is classify_log's result for logs[i]."""
    leaks: dict[tuple[str, str], ResourceFetch] = {}
    for log, log_classes in zip(logs, classes):
        for f, cls in zip(log.fetches, log_classes):
            if cls == FetchClass.LEAKED:
                leaks.setdefault((log.memento.uri, f.request_uri), f)
    return tuple((memento_uri, f) for (memento_uri, _), f in sorted(leaks.items()))


def assemble_report(site: str, echo: dict, sample: tuple[Selection, ...],
                    logs: list[CaptureLog]) -> AuditReport:
    """The report on `site` from its capture logs.  It reads only what the run
    metadata stores (the config echo, the sample and the logs), so `audit` and
    `report` build it from equal inputs and write equal bytes.  Each fetch of
    each log is classified once, for both the metrics and the leaks."""
    ep = endpoint_from_echo(echo)
    classes = [classify_log(log, ep) for log in logs]
    by_memento: dict[str, list[int]] = {}
    for i, log in enumerate(logs):
        by_memento.setdefault(log.memento.uri, []).append(i)
    series = build_series(compute_metrics([logs[i] for i in group], [classes[i] for i in group])
                          for group in by_memento.values())
    try:
        flags = tuple(detect_drops(series, echo["drop_threshold"],
                                   echo["sustain_window"]))
    except InsufficientData:
        flags = ()
    return AuditReport(
        site=site,
        generated=max(log.finished for log in logs),
        config_echo=echo,
        sample=sample,
        series=series,
        flags=flags,
        leaks=collect_leaks(logs, classes),
    )


# --- JSON --------------------------------------------------------------------

def _metrics_doc(m: MementoMetrics) -> dict:
    return {
        "uri": m.memento.uri,
        "timestamp": m.memento.timestamp,
        "original": m.memento.original,
        "year": m.year,
        "counts": {cls.value: m.count(cls) for cls in FetchClass},
        "total_requested": m.total_requested,
        "completeness": m.completeness,
        "script_delta": m.script_delta,
    }


def emit_json(r: AuditReport) -> str:
    """Render the report with fixed field order; equal reports give equal bytes."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "site": r.site,
        "generated": format_iso(r.generated),
        "config": dict(sorted(r.config_echo.items())),
        "notes": dict(sorted(REPORT_NOTES.items())),
        "sample": sample_to_docs(r.sample),
        "mementos": [_metrics_doc(m) for m in r.series],
        "series": [{"year": m.year, "resource_count": m.total_requested} for m in r.series],
        "drop_flags": [
            {
                "start_year": f.start_year,
                "end_year": f.end_year,
                "baseline": f.baseline,
                "dropped_value": f.dropped_value,
                "ratio": f.ratio,
            }
            for f in r.flags
        ],
        "leaks": [
            {
                "memento": memento_uri,
                "request_uri": f.request_uri,
                "chain": [[status, uri] for status, uri in f.chain],
                "final_status": f.final_status,
                "trigger": f.trigger,
            }
            for memento_uri, f in r.leaks
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


# --- CSV ---------------------------------------------------------------------

def emit_csv_series(s: tuple[MementoMetrics, ...]) -> str:
    """One row per year of the annual series `s`, ascending; completeness to
    4 decimal places; the script_delta cell is empty when no scripted capture
    ran."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for m in s:
        writer.writerow([
            m.year,
            m.total_requested,
            m.count(FetchClass.ARCHIVED_OK),
            m.count(FetchClass.ARCHIVED_MISSING),
            m.count(FetchClass.LEAKED),
            f"{m.completeness:.4f}",
            "" if m.script_delta is None else m.script_delta,
        ])
    return buf.getvalue()


def write_report(r: AuditReport, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    json_path = out / "report.json"
    csv_path = out / "series.csv"
    write_text_atomic(json_path, emit_json(r))
    write_text_atomic(csv_path, emit_csv_series(r.series))
    return json_path, csv_path
