"""``tools/loc.py`` counts the lines of the ``src/`` modules."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", LOC)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment
X = 1  # code with a comment


def f():
    """One line."""
    return """not a docstring,
    but code"""
'''


def test_each_kind_of_line_is_counted_once(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert loc.count_lines(path) == {
        "total": 11, "code": 4, "docstring": 3, "comment": 1, "blank": 3}


def test_the_totals_match_the_files():
    proc = subprocess.run([sys.executable, "-B", str(LOC)], capture_output=True,
                          text=True, timeout=60, check=True)
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "total", "code", "docstring", "comment", "blank"]
    files = sorted((ROOT / "src").rglob("*.py"))
    assert [row[0] for row in rows] == [
        str(p.relative_to(ROOT)) for p in files] + ["total"]
    for row, path in zip(rows, files):
        total, *parts = map(int, row[1:])
        assert total == len(path.read_text().splitlines()) == sum(parts), row
    assert rows[-1][1:] == [str(sum(int(row[i]) for row in rows[:-1]))
                            for i in range(1, 6)]
