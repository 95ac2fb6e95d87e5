"""Reference implementations of host and fetch classification, for the
equivalence tests in test_equivalence.py.

They are the classifiers the program replaced: classify_host reads the netloc
and the path through urlsplit, and classify_fetch looks up the request URI's
host twice and then every chain URI's, repeats included.  They live apart
from oracles.py so that perfbench, which imports oracles.py into the process
it measures, does not load them.
"""

from urllib.parse import urlsplit

from memento_audit.analysis import FetchClass
from memento_audit.capture import ResourceFetch
from memento_audit.replay import HOST_ARCHIVE, HOST_CHROME, HOST_LIVE, ArchiveEndpoint


def oracle_split_netloc_path(uri: str) -> tuple[str, str]:
    parts = urlsplit(uri)
    return parts.netloc, parts.path


def oracle_classify_host(uri: str, ep: ArchiveEndpoint) -> str:
    parts = urlsplit(uri)
    if parts.netloc.lower() not in ep.archive_hosts:
        return HOST_LIVE
    for prefix in ep.replay_chrome_prefixes:
        if parts.path.startswith(prefix):
            return HOST_CHROME
    return HOST_ARCHIVE


def oracle_classify_fetch(f: ResourceFetch, ep: ArchiveEndpoint) -> FetchClass:
    if f.error is None and not f.chain:
        return FetchClass.SKIPPED
    if oracle_classify_host(f.request_uri, ep) == HOST_CHROME:
        return FetchClass.REPLAY_CHROME
    touched = [f.request_uri, *(uri for _, uri in f.chain)]
    if any(oracle_classify_host(uri, ep) == HOST_LIVE for uri in touched):
        return FetchClass.LEAKED
    if f.error is not None:
        return FetchClass.NETWORK_ERROR
    status = f.final_status
    if status is not None and (200 <= status < 300 or status == 304):
        return FetchClass.ARCHIVED_OK
    return FetchClass.ARCHIVED_MISSING
