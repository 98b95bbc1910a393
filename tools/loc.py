"""Line counts of the ``src/`` modules, the figure the project tracks.

Each line of a module is counted once, as the first of these it is:

* ``blank``: nothing but white space;
* ``docstring``: inside the docstring of the module, a class or a function
  (found by ``ast``), its opening and closing lines included;
* ``comment``: a line whose first character past the indent is ``#``;
* ``code``: any other line.

Standard library only.  Run from anywhere in a source checkout::

    python3 tools/loc.py

Prints one row per module under ``src/``, in path order, and a ``total``
row; ``total`` is the number of lines of each file, as ``wc -l`` counts
them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers (from 1) spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> dict:
    """The counts of ``COLUMNS`` for one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> None:
    paths = sorted((ROOT / "src").rglob("*.py"))
    rows = [(str(p.relative_to(ROOT)), count_lines(p)) for p in paths]
    total = {c: sum(counts[c] for _, counts in rows) for c in COLUMNS}
    width = max(len(name) for name, _ in rows)
    print("%-*s" % (width, "module") + "".join("%11s" % c for c in COLUMNS))
    for name, counts in rows + [("total", total)]:
        print("%-*s" % (width, name) + "".join("%11d" % counts[c] for c in COLUMNS))


if __name__ == "__main__":
    main()
