"""Count the lines of the package sources by kind: code, docstring, comment
and blank.

A line inside a module, class or function docstring is docstring; of the
others, an empty line is blank, a line whose first non-space character is
``#`` is a comment, and the rest are code.  From the repository root:

    python tools/srclines.py [PATH]

prints one row per ``.py`` file under PATH (default ``src``), or for PATH
itself when it is a file, and their total.  It only reports: the exit
status is 0 whatever the counts, and 2, with PATH named on stderr, when
PATH does not exist.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    """Lines of one file, by kind."""
    source = path.read_text()
    doc = _docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main(root: str = "src") -> int:
    root = Path(root)
    if not root.exists():
        print(f"{root}: no such file or directory", file=sys.stderr)
        return 2
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':40} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path):40} {sum(counts.values()):6} "
              + " ".join(f"{counts[k]:9}" for k in KINDS))
    print(f"{'total':40} {sum(total.values()):6} "
          + " ".join(f"{total[k]:9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
