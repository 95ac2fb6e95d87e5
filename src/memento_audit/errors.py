"""Exception hierarchy shared across the toolkit."""


class AuditError(Exception):
    """Base class for all errors raised by this package."""


# --- link-format parsing ---

class MalformedEntry(AuditError):
    """A link-format segment could not be parsed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class MissingRole(AuditError):
    """A TimeMap lacks a required original/timegate/timemap entry."""


class BadDatetime(AuditError):
    """A memento entry's datetime attribute is not valid RFC-1123."""


# --- archive client ---

class NotArchived(AuditError):
    """The archive holds no mementos for the requested URI."""


class RobotsExcluded(AuditError):
    """The archive refuses the URI because of a robots exclusion."""


class NetworkError(AuditError):
    """Transport-level failure (timeout, connection error, unexpected status)."""


class UndecodableTimeMap(AuditError):
    """A TimeMap body is not UTF-8, the only encoding of link-format."""


# --- sampling ---

class TimestampMismatch(AuditError):
    """A memento's datetime attribute and URI-embedded timestamp disagree."""


# --- replay URI handling ---

class UnrecognizedShape(AuditError):
    """A URI matches neither the API memento pattern nor the replay pattern."""


class BadTimestamp(AuditError):
    """A 14-digit timestamp does not encode a valid UTC instant."""


class UnresolvableReference(AuditError):
    """A subresource reference carries no archive request (fragment, data:, ...)."""


# --- capture ---

class BridgeUnavailable(AuditError):
    """No browser bridge is reachable at the configured address."""


class BridgeTimeout(AuditError):
    """The browser bridge did not settle within the page timeout."""


class ProtocolError(AuditError):
    """A browser bridge's capture reply does not fit the bridge protocol."""


class MementoMismatch(AuditError):
    """Two capture logs do not refer to the same memento."""


# --- analysis ---

class NoPageFetch(AuditError):
    """A capture log lacks its page-phase fetch."""


class DuplicateYear(AuditError):
    """Two per-memento metrics map to the same calendar year."""


class InsufficientData(AuditError):
    """A series is too short for the requested drop detection window."""


# --- fixture archive ---

class PortInUse(AuditError):
    """The requested fixture port is already bound."""


class InvalidManifest(AuditError):
    """A fixture manifest violates its structural invariants."""
