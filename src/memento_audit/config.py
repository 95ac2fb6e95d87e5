"""Audit configuration: one dataclass holding every setting, its defaults,
the cross-field and range checks, a canonical echo for reports, and the
key=value config-file parser.

Each field but `endpoint` is named after the common flag that sets it
(`--drop-threshold` sets `drop_threshold`), and its default is the setting's
only default.  The CLI resolves a field from the flag, then the
MEMENTO_AUDIT_CACHE environment variable (cache dir only), then the config
file, whose value it parses and checks through the flag's own argparse
action, then the default here.
"""

from dataclasses import dataclass, fields
from pathlib import Path

from .capture import ENGINE_SCRIPTED, ENGINE_STATIC, SCRIPTING_OFF
from .replay import ArchiveEndpoint
from .sampling import ONE_YEAR, Interval

CACHE_ENV = "MEMENTO_AUDIT_CACHE"

#: Fields the echo leaves out: the endpoint, echoed as its four keys instead,
#: and where the run keeps its files.
_NOT_ECHOED = ("endpoint", "cache_dir", "out_dir")


@dataclass
class AuditConfig:
    endpoint: ArchiveEndpoint
    interval: Interval = ONE_YEAR
    fixed_grid: bool = False
    engine: str = ENGINE_STATIC
    scripting: str = SCRIPTING_OFF
    bridge: str | None = None
    drop_threshold: float = 0.5
    sustain_window: int = 2
    timeout_s: float = 10.0
    politeness_ms: int = 500
    per_host: int = 2
    max_redirects: int = 10
    settle_ms: int = 3000
    page_timeout_s: float = 30.0
    jobs: int = 1
    screenshot: bool = False
    cache_dir: Path = Path(".memento-audit-cache")
    out_dir: Path = Path(".")

    def validate(self) -> None:
        if self.engine == ENGINE_STATIC and self.scripting != SCRIPTING_OFF:
            raise ValueError("scripting can only run under the scripted engine; "
                             "use --engine scripted")
        if self.engine == ENGINE_SCRIPTED and not self.bridge:
            raise ValueError("the scripted engine needs --bridge <url>")
        if not 0 < self.drop_threshold < 1:
            raise ValueError(f"drop_threshold must be in (0, 1), got {self.drop_threshold}")
        for name in ("sustain_window", "timeout_s", "per_host", "max_redirects",
                     "page_timeout_s", "jobs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.politeness_ms < 0 or self.settle_ms < 0:
            raise ValueError("politeness_ms and settle_ms must be >= 0")

    def echo(self) -> dict:
        """Canonical, JSON-ready snapshot of everything that defines this run,
        keys sorted."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _NOT_ECHOED}
        doc.update(
            interval=str(self.interval),
            archive_hosts=sorted(self.endpoint.archive_hosts),
            chrome_prefixes=list(self.endpoint.replay_chrome_prefixes),
            replay_template=self.endpoint.replay_template,
            timemap_template=self.endpoint.timemap_template,
        )
        return dict(sorted(doc.items()))


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
