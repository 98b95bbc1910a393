"""Lines of the ``src/halfhandle`` modules that no test runs.

Runs pytest in this process, with PYTEST_ARGS (the whole suite when none
are given), under a line tracer on the package's own code.  Then prints,
module by module in path order, each executable line that no test ran,
with its text.  A line is executable when ``co_lines`` of one of the
module's code objects names it.

Standard library only, apart from the pytest it runs.  Run from anywhere
in a source checkout::

    python3 tools/linecov.py [PYTEST_ARGS]

Writes nothing into the checkout: no bytecode, no pytest cache or
benchmark store, and the Hypothesis example database goes to a temporary
directory.  Lines that run
only in a child process (``python -m halfhandle``) are not seen, so they
are listed.  Exits with pytest's status.
"""

import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "halfhandle"


def executable_lines(path: Path) -> set:
    """The line numbers that ``co_lines`` names in the module's code."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class LineTracer:
    """A pytest plugin that records, from configure to unconfigure, the
    (file, line) pairs run in frames of the package's modules."""

    def __init__(self, files):
        self.hits = {name: set() for name in files}

    def trace(self, frame, event, arg):  # the global tracer, on each new frame
        lines = self.hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        hit = lines.add
        hit(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hit(frame.f_lineno)
            return local

        return local

    def pytest_configure(self, config):
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)


def main(argv) -> int:
    import pytest

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    modules = sorted(PACKAGE.rglob("*.py"))
    tracer = LineTracer(str(path) for path in modules)
    with tempfile.TemporaryDirectory() as scratch:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        # no cache, and no pytest-benchmark, which makes .benchmarks/
        status = pytest.main(["-p", "no:cacheprovider", "-p", "no:benchmark",
                              "--rootdir", str(ROOT), *(argv or [str(ROOT / "tests")])],
                             plugins=[tracer])
    for path in modules:
        lines = executable_lines(path)
        missed = sorted(lines - tracer.hits[str(path)])
        if not missed:
            continue
        text = path.read_text(encoding="utf-8").splitlines()
        print("%s: %d of %d executable lines not run"
              % (path.relative_to(ROOT), len(missed), len(lines)))
        for line in missed:
            print("%6d  %s" % (line, text[line - 1].strip()))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
