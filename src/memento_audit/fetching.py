"""Polite HTTP fetch layer: per-host concurrency caps, inter-request delay,
one retry on transport errors, and manual redirect-chain following.

One PoliteFetcher instance should be shared across everything that talks to
the same hosts so the per-host limits hold globally.

The session does not read the environment on each request (`trust_env` is
off). What `requests` would take from it, proxies honouring `no_proxy`, a
`REQUESTS_CA_BUNDLE`/`CURL_CA_BUNDLE` CA bundle and `.netrc` credentials, is
resolved once per host instead, when the host is first seen.
"""

import logging
import os
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import requests

from . import __version__

logger = logging.getLogger(__name__)

REDIRECT_STATUSES = (301, 302, 303, 307, 308)
USER_AGENT = f"memento-audit/{__version__}"
#: Further attempts after a GET fails in transport.
RETRIES = 1


def final_status_of(chain: Sequence[tuple[int, str]], error: str | None) -> int | None:
    """A fetch's final status: its chain's last status, or None when the
    fetch ended in an error or made no hop."""
    return chain[-1][0] if chain and error is None else None


@dataclass
class ChainResult:
    """Outcome of following one URI through its redirect chain."""

    hops: list[tuple[int, str]] = field(default_factory=list)
    response: requests.Response | None = None
    error: str | None = None

    @property
    def final_status(self) -> int | None:
        return final_status_of(self.hops, self.error)

    @property
    def final_uri(self) -> str | None:
        return self.hops[-1][1] if self.hops else None

    @property
    def headers(self):
        """The final response's headers; empty when there is no response."""
        return self.response.headers if self.response is not None else {}

    @property
    def body(self) -> bytes:
        return (self.response.content or b"") if self.response is not None else b""

    @property
    def text(self) -> str:
        """The final response's body, decoded as `requests` decodes it."""
        return self.response.text if self.response is not None else ""


def _environment_settings(uri: str) -> dict:
    """The request settings a `trust_env` session reads from the environment
    for `uri`'s host: proxies (empty when `no_proxy` bypasses the host), the
    CA bundle and `.netrc` credentials."""
    settings: dict = {"proxies": requests.utils.get_environ_proxies(uri)}
    ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if ca_bundle:
        settings["verify"] = ca_bundle
    auth = requests.utils.get_netrc_auth(uri)
    if auth:
        settings["auth"] = auth
    return settings


class _HostGate:
    """Serializes request starts against one host: a concurrency cap plus a
    minimum spacing between starts. Also carries the host's environment
    settings, the keyword arguments every GET to the host passes."""

    def __init__(self, per_host: int, delay_s: float, settings: dict):
        self.semaphore = threading.Semaphore(per_host)
        self.lock = threading.Lock()
        self.delay_s = delay_s
        self.next_at = 0.0
        self.settings = settings

    def __enter__(self):
        self.semaphore.acquire()
        with self.lock:
            now = time.monotonic()
            wait = self.next_at - now
            self.next_at = max(now, self.next_at) + self.delay_s
        if wait > 0:
            time.sleep(wait)
        return self

    def __exit__(self, *exc):
        self.semaphore.release()
        return False


class _Session(requests.Session):
    """A session that leaves redirects to `PoliteFetcher.follow`.  Even when
    not following, requests prepares the next request of every 3xx, and
    raises ValueError for a Location that does not parse."""

    def get_redirect_target(self, resp):
        return None


class PoliteFetcher:
    def __init__(self, timeout_s: float = 10.0, politeness_s: float = 0.5,
                 per_host: int = 2, max_redirects: int = 10):
        self.timeout_s = timeout_s
        self.politeness_s = politeness_s
        self.per_host = per_host
        self.max_redirects = max_redirects
        self.session = _Session()
        self.session.trust_env = False  # read per host in _gate_for, not per request
        self.session.headers["User-Agent"] = USER_AGENT
        self._gates: dict[str, _HostGate] = {}
        self._gates_lock = threading.Lock()

    def close(self) -> None:
        self.session.close()

    def _gate_for(self, uri: str) -> _HostGate:
        host = requests.utils.urlparse(uri).netloc.lower()
        with self._gates_lock:
            gate = self._gates.get(host)
            if gate is None:
                gate = _HostGate(self.per_host, self.politeness_s,
                                 _environment_settings(uri))
                self._gates[host] = gate
            return gate

    def get_once(self, uri: str, headers: dict[str, str] | None = None) -> requests.Response:
        """One GET with `headers` added to the session's, no redirect
        following. Raises requests exceptions after RETRIES further attempts."""
        last_exc: Exception | None = None
        gate = self._gate_for(uri)
        for attempt in range(RETRIES + 1):
            with gate:
                try:
                    return self.session.get(
                        uri, headers=headers, allow_redirects=False,
                        timeout=self.timeout_s, **gate.settings,
                    )
                except requests.RequestException as exc:
                    last_exc = exc
                    logger.debug("GET %s failed (attempt %d): %s", uri, attempt + 1, exc)
        assert last_exc is not None
        raise last_exc

    def follow(self, uri: str, headers: dict[str, str] | None = None) -> ChainResult:
        """Follow `uri` through 3xx hops, recording (status, uri) per hop;
        every hop's GET carries `headers`.

        Transport failures, and a 3xx whose Location does not parse, end the
        chain with `error` set; hops observed so far are kept. The chain is
        capped at max_redirects hops.
        """
        result = ChainResult()
        current = uri
        while True:
            try:
                resp = self.get_once(current, headers)
            except requests.RequestException as exc:
                result.error = f"{type(exc).__name__}: {exc}"
                return result
            result.hops.append((resp.status_code, current))
            if resp.status_code in REDIRECT_STATUSES:
                location = resp.headers.get("Location")
                if not location:
                    # 3xx without Location terminates the chain as-is
                    result.response = resp
                    return result
                if len(result.hops) >= self.max_redirects:
                    result.response = resp
                    return result
                try:
                    current = requests.compat.urljoin(current, location)
                except ValueError as exc:  # e.g. "http://[bad/x"
                    result.error = f"unparsable Location {location!r}: {exc}"
                    return result
                continue
            result.response = resp
            return result
