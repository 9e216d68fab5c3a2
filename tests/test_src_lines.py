import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method
        docstring."""
        text = """a string that is
        not a docstring"""
        return (self.size
                * self.size) + len(text)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # code: import, class, size, def, the two lines of text and of return
    assert src_lines.count_lines(SOURCE) == (20, 8)


def test_every_module_of_src_is_counted(capsys):
    src_lines.main([])
    rows = capsys.readouterr().out.splitlines()
    modules = sorted((SCRIPT.parent.parent / "src").rglob("*.py"))
    assert len(rows) == len(modules) + 1 and rows[-1].endswith("total")
    totals = [sum(int(row.split()[k]) for row in rows[:-1]) for k in (0, 1)]
    assert [int(v) for v in rows[-1].split()[:2]] == totals
