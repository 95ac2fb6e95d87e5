"""Audit configuration: one dataclass holding every knob, with defaults,
validation, a canonical echo for reports, and a key=value config-file parser.

Resolution order (applied by the CLI): command-line flag, then the
MEMENTO_AUDIT_CACHE environment variable (cache dir only), then the config
file, then the defaults below.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .replay import ArchiveEndpoint
from .sampling import ONE_YEAR, Interval

CACHE_ENV = "MEMENTO_AUDIT_CACHE"

DEFAULT_DROP_THRESHOLD = 0.5
DEFAULT_SUSTAIN_WINDOW = 2
DEFAULT_TIMEOUT_S = 10.0
DEFAULT_POLITENESS_MS = 500
DEFAULT_PER_HOST = 2
DEFAULT_MAX_REDIRECTS = 10
DEFAULT_SETTLE_MS = 3000
DEFAULT_PAGE_TIMEOUT_S = 30.0
DEFAULT_JOBS = 1

ENGINES = ("static", "scripted")
SCRIPTING_MODES = ("on", "off", "both")


@dataclass
class AuditConfig:
    endpoint: ArchiveEndpoint
    interval: Interval = ONE_YEAR
    fixed_grid: bool = False
    engine: str = "static"
    scripting: str = "off"
    bridge_url: str | None = None
    drop_threshold: float = DEFAULT_DROP_THRESHOLD
    sustain_window: int = DEFAULT_SUSTAIN_WINDOW
    timeout_s: float = DEFAULT_TIMEOUT_S
    politeness_ms: int = DEFAULT_POLITENESS_MS
    per_host: int = DEFAULT_PER_HOST
    max_redirects: int = DEFAULT_MAX_REDIRECTS
    settle_ms: int = DEFAULT_SETTLE_MS
    page_timeout_s: float = DEFAULT_PAGE_TIMEOUT_S
    jobs: int = DEFAULT_JOBS
    screenshot: bool = False
    cache_dir: Path = field(default_factory=lambda: Path(".memento-audit-cache"))
    out_dir: Path = field(default_factory=lambda: Path("."))

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.scripting not in SCRIPTING_MODES:
            raise ValueError(
                f"scripting must be one of {SCRIPTING_MODES}, got {self.scripting!r}")
        if self.engine == "static" and self.scripting != "off":
            raise ValueError("scripting can only run under the scripted engine; "
                             "use --engine scripted")
        if self.engine == "scripted" and not self.bridge_url:
            raise ValueError("the scripted engine needs --bridge <url>")
        if not 0 < self.drop_threshold < 1:
            raise ValueError(f"drop_threshold must be in (0, 1), got {self.drop_threshold}")
        positive = {
            "sustain_window": self.sustain_window,
            "timeout_s": self.timeout_s,
            "per_host": self.per_host,
            "max_redirects": self.max_redirects,
            "page_timeout_s": self.page_timeout_s,
            "jobs": self.jobs,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.politeness_ms < 0 or self.settle_ms < 0:
            raise ValueError("politeness_ms and settle_ms must be >= 0")

    def echo(self) -> dict:
        """Canonical, JSON-ready snapshot of everything that defines this run."""
        return {
            "archive_hosts": sorted(self.endpoint.archive_hosts),
            "bridge": self.bridge_url,
            "chrome_prefixes": list(self.endpoint.replay_chrome_prefixes),
            "drop_threshold": self.drop_threshold,
            "engine": self.engine,
            "fixed_grid": self.fixed_grid,
            "interval": str(self.interval),
            "jobs": self.jobs,
            "max_redirects": self.max_redirects,
            "page_timeout_s": self.page_timeout_s,
            "per_host": self.per_host,
            "politeness_ms": self.politeness_ms,
            "replay_template": self.endpoint.replay_template,
            "screenshot": self.screenshot,
            "scripting": self.scripting,
            "settle_ms": self.settle_ms,
            "sustain_window": self.sustain_window,
            "timemap_template": self.endpoint.timemap_template,
            "timeout_s": self.timeout_s,
        }


def endpoint_from_echo(echo: dict) -> ArchiveEndpoint:
    """The endpoint that AuditConfig.echo() describes; TypeError or ValueError
    when the echo does not describe one."""
    hosts, chrome = echo["archive_hosts"], echo["chrome_prefixes"]
    if not all(isinstance(values, list) and all(isinstance(v, str) for v in values)
               for values in (hosts, chrome)):
        raise TypeError("archive_hosts and chrome_prefixes must be lists of strings")
    return ArchiveEndpoint(
        timemap_template=echo["timemap_template"],
        replay_template=echo["replay_template"],
        archive_hosts=frozenset(hosts),
        replay_chrome_prefixes=tuple(chrome),
    )


def parse_config_file(path: str | Path) -> dict[str, list[tuple[int, str]]]:
    """Parse a key=value config file into key -> [(line number, value), ...];
    '#' starts a comment, keys may repeat (repeatable flags), hyphens and
    underscores in keys are interchangeable."""
    values: dict[str, list[tuple[int, str]]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("_", "-")
        values.setdefault(key, []).append((lineno, value.strip()))
    return values
