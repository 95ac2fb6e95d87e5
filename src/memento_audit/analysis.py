"""Classify recorded fetches and compute per-memento and per-year measures.

Completeness here is this tool's definition: the share of attempted archive
requests that the archive actually satisfied,

    completeness = archived_ok / (archived_ok + archived_missing
                                  + leaked + network_error)

defined as 1.0 when nothing was attempted.  Replay chrome and skipped
references are tracked but sit outside the denominator.  Resource counts
include the page itself and exclude replay chrome.
"""

import statistics
from dataclasses import dataclass
from enum import Enum

from .capture import SCRIPTING_ON, CaptureLog, ResourceFetch, diff_captures
from .errors import DuplicateYear, InsufficientData, MementoMismatch, NoPageFetch
from .replay import HOST_CHROME, HOST_LIVE, ArchiveEndpoint, ReplayUri, classify_host


class FetchClass(str, Enum):
    """Exhaustive partition of every recorded fetch."""

    ARCHIVED_OK = "archived_ok"
    ARCHIVED_MISSING = "archived_missing"
    LEAKED = "leaked"
    REPLAY_CHROME = "replay_chrome"
    SKIPPED = "skipped"
    NETWORK_ERROR = "network_error"


#: Classes that enter the completeness denominator.
COUNTED_CLASSES = (
    FetchClass.ARCHIVED_OK,
    FetchClass.ARCHIVED_MISSING,
    FetchClass.LEAKED,
    FetchClass.NETWORK_ERROR,
)


def classify_fetch(f: ResourceFetch, ep: ArchiveEndpoint) -> FetchClass:
    """Assign exactly one class to a fetch.

    Precedence: a reference that was never dereferenced is Skipped; a request
    for the replay service's own UI assets is ReplayChrome; a chain touching
    any live host is Leaked even when it ends 200 — a live 200 under replay is
    the leakage phenomenon, not a success; then transport failures; then the
    final status decides archived-ok (2xx/304) versus archived-missing.
    The request URI's host is looked up once, and a chain URI's only when it
    differs from the request URI.
    """
    if f.error is None and not f.chain:
        return FetchClass.SKIPPED
    host = classify_host(f.request_uri, ep)
    if host == HOST_CHROME:
        return FetchClass.REPLAY_CHROME
    if host == HOST_LIVE or any(uri != f.request_uri and classify_host(uri, ep) == HOST_LIVE
                                for _, uri in f.chain):
        return FetchClass.LEAKED
    if f.error is not None:
        return FetchClass.NETWORK_ERROR
    status = f.final_status
    if status is not None and (200 <= status < 300 or status == 304):
        return FetchClass.ARCHIVED_OK
    return FetchClass.ARCHIVED_MISSING


@dataclass(frozen=True)
class MementoMetrics:
    """Per-memento tallies and the completeness ratio."""

    memento: ReplayUri
    year: int
    counts: dict[FetchClass, int]
    total_requested: int
    completeness: float
    script_delta: int | None = None

    def count(self, cls: FetchClass) -> int:
        return self.counts.get(cls, 0)


def classify_log(log: CaptureLog, ep: ArchiveEndpoint) -> tuple[FetchClass, ...]:
    """The class of each of the log's fetches, in fetch order."""
    return tuple(classify_fetch(f, ep) for f in log.fetches)


def compute_metrics(logs: list[CaptureLog], ep: ArchiveEndpoint,
                    classes: list[tuple[FetchClass, ...]] | None = None) -> MementoMetrics:
    """Tally one memento's capture logs.

    When both scripting modes are present, counts come from the scripting-on
    log (the browser's view of the page) and script_delta from the mode diff;
    otherwise the single log supplies the counts and script_delta is absent.
    `classes`, when given, holds classify_log's result for each of `logs`, so
    a caller that has classified them is not made to classify them again.
    """
    if not logs:
        raise NoPageFetch("no capture logs supplied")
    if len({log.memento.uri for log in logs}) > 1:
        raise MementoMismatch("capture logs refer to different mementos")
    at = next((i for i, log in enumerate(logs) if log.scripting == SCRIPTING_ON), 0)
    primary = logs[at]
    on = primary if primary.scripting == SCRIPTING_ON else None
    off = next((log for log in logs if log.scripting != SCRIPTING_ON), None)
    if primary.page_fetch is None:
        raise NoPageFetch(f"capture of {primary.memento.uri} has no page fetch")

    counts = {cls: 0 for cls in FetchClass}
    for cls in classes[at] if classes is not None else classify_log(primary, ep):
        counts[cls] += 1
    total = sum(counts[cls] for cls in COUNTED_CLASSES)
    completeness = counts[FetchClass.ARCHIVED_OK] / total if total else 1.0

    script_delta = None
    if on is not None and off is not None:
        script_delta = diff_captures(on, off).script_delta

    return MementoMetrics(
        memento=primary.memento,
        year=primary.memento.year,
        counts=counts,
        total_requested=total,
        completeness=completeness,
        script_delta=script_delta,
    )


@dataclass(frozen=True)
class SeriesPoint:
    year: int
    resource_count: int
    metrics: MementoMetrics


@dataclass(frozen=True)
class AnnualSeries:
    """Year-indexed resource counts for one site, ascending."""

    site: str | None
    points: tuple[SeriesPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def years(self) -> list[int]:
        return [p.year for p in self.points]

    def counts(self) -> list[int]:
        return [p.resource_count for p in self.points]


def build_series(ms: list[MementoMetrics]) -> AnnualSeries:
    """Arrange per-memento metrics into a one-point-per-year series."""
    seen: dict[int, MementoMetrics] = {}
    for m in ms:
        if m.year in seen:
            raise DuplicateYear(f"two metrics for year {m.year}")
        seen[m.year] = m
    points = tuple(
        SeriesPoint(year=year, resource_count=seen[year].total_requested,
                    metrics=seen[year])
        for year in sorted(seen)
    )
    site = ms[0].memento.original if ms else None
    return AnnualSeries(site=site, points=points)


@dataclass(frozen=True)
class DropFlag:
    """A sustained collapse in the annual resource count."""

    start_year: int
    end_year: int
    baseline: float
    dropped_value: float
    ratio: float


def detect_drops(s: AnnualSeries, drop_threshold: float = 0.5,
                 sustain_window: int = 2) -> list[DropFlag]:
    """Find maximal runs of years whose counts sit below a fraction of the
    median of all earlier years.

    Scanning left to right: when a year falls below drop_threshold times the
    median of every year before it, the run extends through consecutive years
    below that same cutoff; runs at least sustain_window long are flagged
    (dropped_value is the run's median, ratio = dropped_value / baseline).
    Scanning resumes after the run, so one collapse yields one flag.
    """
    if not 0 < drop_threshold < 1:
        raise ValueError(f"drop_threshold must be in (0, 1), got {drop_threshold}")
    if sustain_window < 1:
        raise ValueError(f"sustain_window must be >= 1, got {sustain_window}")
    counts = s.counts()
    years = s.years()
    if len(counts) < sustain_window + 1:
        raise InsufficientData(
            f"need at least {sustain_window + 1} points, have {len(counts)}")

    flags: list[DropFlag] = []
    i = 1
    while i < len(counts):
        baseline = statistics.median(counts[:i])
        cutoff = drop_threshold * baseline
        if baseline > 0 and counts[i] < cutoff:
            j = i
            while j + 1 < len(counts) and counts[j + 1] < cutoff:
                j += 1
            if j - i + 1 >= sustain_window:
                dropped = statistics.median(counts[i:j + 1])
                flags.append(DropFlag(
                    start_year=years[i], end_year=years[j],
                    baseline=float(baseline), dropped_value=float(dropped),
                    ratio=float(dropped) / float(baseline),
                ))
            i = j + 1
        else:
            i += 1
    return flags
