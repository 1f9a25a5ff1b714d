"""Count the lines of Python files as code, prose and blank.

    python3 tools/src_lines.py [paths ...]

Prints total, code, prose and blank lines per file, then their sums. A
directory counts every ``*.py`` file below it; with no paths, ``src`` is
counted.

A line is code if it holds a token outside docstrings and comments, prose if
it holds only comment or docstring text, and blank otherwise. A docstring is
any statement made of string literals alone. A line inside a docstring that
holds only whitespace is blank, as it is anywhere else.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "prose", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def classify(source: str) -> list[str]:
    """The kind of each line of ``source``, in order."""
    lines = source.splitlines()
    code: set[int] = set()
    prose: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def end_statement() -> None:
        docstring = all(t.type == tokenize.STRING for t in statement)
        for t in statement:
            rows = range(t.start[0], t.end[0] + 1)
            if not docstring:
                code.update(rows)
            else:
                prose.update(r for r in rows if lines[r - 1].strip())
        statement.clear()

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            prose.add(tok.start[0])
        elif tok.type == tokenize.NEWLINE:
            end_statement()
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    end_statement()
    return ["code" if r in code else "prose" if r in prose else "blank" for r in range(1, len(lines) + 1)]


def count(path: Path) -> dict[str, int]:
    kinds = classify(path.read_text())
    return {"total": len(kinds), **{k: kinds.count(k) for k in KINDS}}


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for p in map(Path, paths):
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return files


def main(argv: list[str]) -> int:
    columns = ("total", *KINDS)
    sums = dict.fromkeys(columns, 0)
    print(" ".join(f"{c:>6}" for c in columns), "file")
    for path in python_files(argv or ["src"]):
        counts = count(path)
        for c in columns:
            sums[c] += counts[c]
        print(" ".join(f"{counts[c]:>6}" for c in columns), path)
    print(" ".join(f"{sums[c]:>6}" for c in columns), "(sum)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
