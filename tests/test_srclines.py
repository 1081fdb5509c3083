"""The source line counter of tools/srclines.py sorts lines by one rule."""

import runpy
from pathlib import Path

SRCLINES = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "srclines.py"))

SAMPLE = '''"""Module docstring,

with a blank line inside."""
import math  # a trailing comment keeps a code line

    # an indented comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return "not a docstring"
'''


def test_each_line_has_one_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    counts = SRCLINES["count"](path)
    assert counts == {"code": 4, "docstring": 6, "comment": 1, "blank": 4}
    assert sum(counts.values()) == len(SAMPLE.splitlines())


def test_the_total_row_sums_the_files(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SAMPLE)
    SRCLINES["main"](str(tmp_path))
    *_, total = capsys.readouterr().out.splitlines()
    assert total.split() == ["total", "30", "8", "12", "2", "8"]
