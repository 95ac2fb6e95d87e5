"""The auditor needs no HTTP or date library beyond the standard library's."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
#: Packages the auditor once loaded: `requests` and what it loads, and
#: `python-dateutil` and the `six` it loads.
_NOT_LOADED = ("requests", "urllib3", "charset_normalizer", "chardet", "dateutil", "six")


def test_auditor_loads_no_requests_urllib3_or_charset_detector():
    code = ("import sys, memento_audit.cli, memento_audit.fixture_archive\n"
            "print(*sorted({name.split('.')[0] for name in sys.modules}))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": path}).stdout.split()
    assert "memento_audit" in loaded
    assert [name for name in _NOT_LOADED if name in loaded] == []
