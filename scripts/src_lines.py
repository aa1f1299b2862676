"""Count the lines of the package source, src/flowsched/*.py.

Prints two counts per file and their totals: all lines (what `wc -l`
gives) and code lines, the lines that hold a token of code. Code lines
exclude blank lines, comment-only lines and docstrings (any statement that
is a string literal alone), as read by Python's tokenize module.

    python3 scripts/src_lines.py
"""

import argparse
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flowsched"
# tokens that are not code; NEWLINE, which ends a statement, is kept
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python source file."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIP]
    code = set()
    statement = []  # the code tokens of the current logical line
    for tok in tokens:
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for t in statement:
                code.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(path.read_bytes().splitlines()), len(code)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    total_lines = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
