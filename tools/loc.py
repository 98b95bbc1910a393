"""Line counts of the ``src/`` modules, the figure the project tracks.

Each line of a module is counted once, as the first of these it is:

* ``blank``: nothing but white space;
* ``docstring``: inside the docstring of the module, a class or a function
  (found by ``ast``), its opening and closing lines included;
* ``comment``: a line whose first character past the indent is ``#``;
* ``code``: any other line.

Standard library only.  Run from anywhere in a source checkout::

    python3 tools/loc.py
    python3 tools/loc.py --against PARENT_DIR

Prints one row per module under ``src/``, in path order, and a ``total``
row; ``total`` is the number of lines of each file, as ``wc -l`` counts
them.  With ``--against``, the root of a second checkout, each module and
the total take three rows, marked in a last ``side`` column: that
checkout's counts (``against``), this one's (``this``) and the change
from the one to the other (``delta``).  A module only one side has counts
0 on the other.
"""

import argparse
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


def module_counts(root: Path) -> dict:
    """The counts of every module under ``root/src`` by its path from
    ``root``, in path order, and their sum as ``total``."""
    rows = {str(p.relative_to(root)): count_lines(p)
            for p in sorted((root / "src").rglob("*.py"))}
    rows["total"] = {c: sum(counts[c] for counts in rows.values()) for c in COLUMNS}
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="root of a second checkout, printed before this one")
    args = parser.parse_args(argv)
    this, zero = module_counts(ROOT), dict.fromkeys(COLUMNS, 0)
    sides = [("", this)]
    if args.against is not None:
        against = module_counts(args.against)
        delta = {name: {c: this.get(name, zero)[c] - against.get(name, zero)[c]
                        for c in COLUMNS} for name in {**against, **this}}
        sides = [(" against", against), (" this", this), (" delta", delta)]
    names = sorted(set().union(*(rows for _, rows in sides)) - {"total"}) + ["total"]
    width = max(len(name) for name in names)
    print("%-*s" % (width, "module") + "".join("%11s" % c for c in COLUMNS)
          + ("" if args.against is None else " side"))
    for name in names:
        for side, rows in sides:
            form = "%+11d" if side == " delta" else "%11d"
            cells = "".join(form % rows.get(name, zero)[c] for c in COLUMNS)
            print("%-*s" % (width, name) + cells + side)


if __name__ == "__main__":
    main()
