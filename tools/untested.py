"""The lines of the package that no tier-1 test runs.

    python3 tools/untested.py

Runs the tier-1 suite (`pytest -q` over `tests/`) in this process under a
`sys.settrace` line tracer, then prints each executable line of
`src/houghton` that no test ran, as `path:line: text`, and a count.  The
executable lines of a module are the line starts of every code object
compiled from its source, module body and nested functions and classes
included; a line counts as run when a frame of one of those files reports
a `call` or `line` event at it.  The package is imported only after the
tracer is set, so its module-level lines count too.  A test that calls
`sys.settrace` and does not put the tracer back stops the count for every
later test: when the tracer is not in place at the end of the suite, the
tool prints that cause in one line instead of the list, and exits 1 even
when pytest passed.

Only this process is traced.  Lines that run only in a subprocess, as the
CLI tests start `houghton` in one, show up as unrun unless a test also
runs them in-process, as the CLI tests do for the `MemoryError` handler
of `cli.main` (through a command that raises it) and for its `__main__`
guard (through `runpy`).  The suite runs slower under the tracer than
without it.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "houghton"


def executable_lines(path: Path) -> set:
    """The line starts of every code object compiled from `path`."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    run = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        lines = run.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # noqa: E402  (imports no part of the package)

    sys.settrace(enter)
    try:
        status = pytest.main(["-q", "tests"])
        kept = sys.gettrace() is enter
    finally:
        sys.settrace(None)
    if not kept:
        print("a test replaced the line tracer (sys.settrace), so the lines run after it were not counted")
        return 1

    total = 0
    for name, path in files.items():
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - run[name]):
            total += 1
            print("%s:%d: %s" % (path.relative_to(ROOT), line, text[line - 1].strip()))
    print("%d unrun lines; pytest exit status %d" % (total, status))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
