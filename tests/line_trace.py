"""List the executable lines of ``src/clawsq`` that the test suite never runs.

Usage, from the repository root::

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

Runs the suite in this process (``tests/`` unless arguments name other
tests) with ``--hypothesis-seed=0`` under a line trace, installed with
``sys.settrace`` and ``threading.settrace`` before ``clawsq`` is imported,
so module bodies count too. Then prints ``file:line: source`` for each line
that the code objects' ``co_lines`` call executable and that did not run,
and exits with pytest's status. Code run in a subprocess is not traced.

Standard library only; pytest does not collect this file.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clawsq"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object compiled from ``path`` runs."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def install_trace(paths) -> dict[Path, set[int]]:
    """Start recording the lines run in ``paths``; returns the sets being filled."""
    ran = {path: set() for path in paths}
    tracers = {}  # co_filename -> local trace function, or None outside ``paths``

    def tracer_for(filename):
        path = Path(filename).resolve()
        if path not in ran:
            return None
        add = ran[path].add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        local = tracers[filename]
        if local is None:
            return None
        return local(frame, event, arg)

    threading.settrace(on_call)
    sys.settrace(on_call)
    return ran


def main(argv: list[str]) -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    ran = install_trace(paths)
    import pytest  # after the trace, so the conftest's clawsq import is traced

    status = pytest.main(["-q", "--hypothesis-seed=0", *(argv or [str(ROOT / "tests")])])
    sys.settrace(None)
    threading.settrace(None)
    for path in paths:
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[path]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
