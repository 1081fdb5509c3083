"""The source line counter of tools/srclines.py sorts lines by one rule."""

import runpy
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "srclines.py"
SRCLINES = runpy.run_path(str(TOOL))

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


def test_a_file_argument_counts_itself(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    assert SRCLINES["main"](str(tmp_path / "a.py")) == 0
    *_, row, total = capsys.readouterr().out.splitlines()
    assert row.split()[1:] == total.split()[1:] == ["15", "4", "6", "1", "4"]


def test_a_missing_path_is_named_and_exits_2(tmp_path):
    missing = tmp_path / "scr"
    res = subprocess.run([sys.executable, str(TOOL), str(missing)],
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout == "" and str(missing) in res.stderr
