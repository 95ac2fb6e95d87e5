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
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

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
    """One memento's tallies, and the figures computed from them."""

    memento: ReplayUri
    counts: dict[FetchClass, int]
    script_delta: int | None = None

    def count(self, cls: FetchClass) -> int:
        return self.counts.get(cls, 0)

    @property
    def year(self) -> int:
        return self.memento.year

    @property
    def total_requested(self) -> int:
        """The resource count: the fetches in the completeness denominator."""
        return sum(self.count(cls) for cls in COUNTED_CLASSES)

    @property
    def completeness(self) -> float:
        total = self.total_requested
        return self.count(FetchClass.ARCHIVED_OK) / total if total else 1.0


def classify_log(log: CaptureLog, ep: ArchiveEndpoint) -> tuple[FetchClass, ...]:
    """The class of each of the log's fetches, in fetch order."""
    return tuple(classify_fetch(f, ep) for f in log.fetches)


def compute_metrics(logs: list[CaptureLog],
                    classes: list[tuple[FetchClass, ...]]) -> MementoMetrics:
    """Tally one memento's capture logs, where classes[i] is classify_log's
    result for logs[i].

    When both scripting modes are present, counts come from the scripting-on
    log (the browser's view of the page) and script_delta from the mode diff;
    otherwise the single log supplies the counts and script_delta is absent.
    """
    if not logs:
        raise NoPageFetch("no capture logs supplied")
    if len({log.memento.uri for log in logs}) > 1:
        raise MementoMismatch("capture logs refer to different mementos")
    at = next((i for i, log in enumerate(logs) if log.scripting == SCRIPTING_ON), 0)
    primary = logs[at]
    off = next((log for log in logs if log.scripting != SCRIPTING_ON), None)
    if primary.page_fetch is None:
        raise NoPageFetch(f"capture of {primary.memento.uri} has no page fetch")

    counts = {cls: 0 for cls in FetchClass}
    for cls in classes[at]:
        counts[cls] += 1
    script_delta = None
    if primary.scripting == SCRIPTING_ON and off is not None:
        script_delta = len(diff_captures(primary, off))
    return MementoMetrics(memento=primary.memento, counts=counts, script_delta=script_delta)


def build_series(ms: Iterable[MementoMetrics]) -> tuple[MementoMetrics, ...]:
    """The annual series: the metrics in ascending year order, one per year."""
    series = tuple(sorted(ms, key=attrgetter("year")))
    for m, after in zip(series, series[1:]):
        if m.year == after.year:
            raise DuplicateYear(f"two metrics for year {m.year}")
    return series


@dataclass(frozen=True)
class DropFlag:
    """A sustained collapse in the annual resource count."""

    start_year: int
    end_year: int
    baseline: float
    dropped_value: float
    ratio: float


def detect_drops(s: tuple[MementoMetrics, ...], drop_threshold: float = 0.5,
                 sustain_window: int = 2) -> list[DropFlag]:
    """Find maximal runs of years whose resource counts sit below a fraction
    of the median of all earlier years, in the annual series `s`.

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
    counts = [m.total_requested for m in s]
    years = [m.year for m in s]
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
