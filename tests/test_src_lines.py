import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring.

Second paragraph.
"""

import os  # a comment on a code line

# a comment line
X = """not a docstring:

a string in code"""


def f():
    """One line."""
    return (1,

            2)
'''

KINDS = [
    "prose", "blank", "prose", "prose", "blank", "code", "blank", "prose", "code",
    "code", "code", "blank", "blank", "code", "prose", "code", "blank", "code",
]  # fmt: skip


def test_a_fixed_module_counts_exactly(tmp_path):
    assert src_lines.classify(SAMPLE) == KINDS
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_lines.count(path) == {"total": 18, "code": 7, "prose": 5, "blank": 6}


@pytest.mark.parametrize("path", src_lines.python_files([str(ROOT / "src")]), ids=lambda p: p.name)
def test_every_source_line_has_one_kind(path):
    counts = src_lines.count(path)
    assert counts["code"] + counts["prose"] + counts["blank"] == counts["total"]
    assert counts["total"] == len(path.read_text().splitlines())
