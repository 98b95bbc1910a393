"""``tools/loc.py`` counts the lines of the ``src/`` modules."""

import importlib.util
import pathlib
import shutil
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


def test_against_prints_both_checkouts_and_each_module_delta(tmp_path):
    # a copy of src/ with one blank line taken out of one module: this
    # checkout reads one line, one blank, more there and nowhere else
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shorter = tmp_path / "src" / "halfhandle" / "errors.py"
    lines = shorter.read_text().splitlines(keepends=True)
    blank = lines.index("\n")
    shorter.write_text("".join(lines[:blank] + lines[blank + 1:]))
    proc = subprocess.run([sys.executable, "-B", str(LOC), "--against", str(tmp_path)],
                          capture_output=True, text=True, timeout=60, check=True)
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "total", "code", "docstring", "comment", "blank", "side"]
    files = sorted((ROOT / "src").rglob("*.py"))
    names = [str(p.relative_to(ROOT)) for p in files] + ["total"]
    assert [row[0] for row in rows] == [name for name in names for _ in range(3)]
    assert [row[-1] for row in rows] == ["against", "this", "delta"] * len(names)
    for name, (against, this, delta) in zip(names, zip(*[iter(rows)] * 3)):
        if name != "total":
            assert list(map(int, this[1:6])) == list(
                loc.count_lines(ROOT / name).values()), name
        want = [1, 0, 0, 0, 1] if name in ("src/halfhandle/errors.py", "total") else [0] * 5
        assert [int(t) - int(a) for t, a in zip(this[1:6], against[1:6])] == want, name
        assert [int(d) for d in delta[1:6]] == want, name
