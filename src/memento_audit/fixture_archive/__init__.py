"""A hermetic miniature archive for tests: authored TimeMaps, replayable
mementos with injectable failures, a companion live-web server for leak
targets, and a stub browser bridge."""

from .manifest import (  # noqa: F401
    FixtureManifest,
    LiveResource,
    MementoBundle,
    ResourceSpec,
    SiteFixture,
    load_manifest,
    save_manifest,
    validate_manifest,
)
from .server import FixtureService  # noqa: F401
from .stub_bridge import StubBridge  # noqa: F401
