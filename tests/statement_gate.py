"""A pytest plugin that fails the session when a statement of the auditor
never ran.

Run it with tests/ and src/ on the path:

    PYTHONPATH=src:tests python -m pytest -q -p statement_gate

It installs a line tracer with `sys.settrace` and `threading.settrace` when
it is imported, before conftest.py starts any server thread or imports the
package, so every thread later started through `threading` is traced too.
At the end of the session it compiles each `src/memento_audit/*.py` and
`src/memento_audit/fixture_archive/*.py` and compares the lines of every
code object in it (`co_lines()`) with the lines that ran.  A line that
carries the marker comment below is exempt.  The fixture archive's command
line, `fixture_archive/cli.py`, is out of scope: it runs only as an
installed entry point, in a process of its own.
"""

import sys
import threading
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "memento_audit"
MARKER = "# statement-gate: not run by tests"

_SOURCES = {str(path): path for path in sorted([*PACKAGE.glob("*.py"),
                                                 *PACKAGE.glob("fixture_archive/*.py")])
            if path != PACKAGE / "fixture_archive" / "cli.py"}
#: Per code object of a source file met so far, its lines yet to run.
_unrun: dict[CodeType, set[int]] = {}


def _lines(code: CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _trace(frame, event, arg):
    """The global tracer: line tracing for frames of the auditor's code
    objects that still have a line left to run, for no other frame."""
    code = frame.f_code
    unrun = _unrun.get(code)
    if unrun is None:
        if code.co_filename not in _SOURCES:
            return None
        unrun = _unrun.setdefault(code, _lines(code))
    unrun.discard(frame.f_lineno)
    if not unrun:
        return None

    def local(frame, event, arg):
        unrun.discard(frame.f_lineno)
        return local if unrun else None

    return local


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def _never_run() -> list[str]:
    """`path:line` of every statement that never ran and is not exempt."""
    ran: dict[str, set[int]] = {}
    for code, unrun in list(_unrun.items()):
        ran.setdefault(code.co_filename, set()).update(_lines(code) - unrun)
    missing = []
    for filename, path in _SOURCES.items():
        text = path.read_text(encoding="utf-8")
        exempt = {number for number, line in enumerate(text.splitlines(), 1)
                  if MARKER in line}
        wanted = set().union(*map(_lines, _code_objects(compile(text, filename, "exec"))))
        for line in sorted(wanted - ran.get(filename, set()) - exempt):
            missing.append(f"{path.relative_to(PACKAGE.parent.parent)}:{line}")
    return missing


sys.settrace(_trace)
threading.settrace(_trace)
_missing: list[str] = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _missing[:] = _never_run()
    if _missing:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    if _missing:
        terminalreporter.write_sep("=", f"statement gate: {len(_missing)} statements never ran",
                                   red=True)
        for where in _missing:
            terminalreporter.write_line(where)
