"""Print the size figures tracked for every change: the non-blank lines of
each module of src/sepzn, split into code, comments and docstrings, their
totals, and the number of names in sepzn.__all__.

    python tools/size.py

A comment line holds only a comment; a line of code with a comment after it
counts as code.  A docstring line is any line of the string that opens a
module, class or function.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("code", "comment", "docstring")


def split(source: str) -> dict:
    """The non-blank lines of source, counted by kind."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    comments = {token.start[0] for token in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT
                and not token.line[:token.start[1]].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if line.strip():
            kind = ("docstring" if number in docstrings else
                    "comment" if number in comments else "code")
            counts[kind] += 1
    return counts


def main():
    sys.path.insert(0, str(SRC))
    import sepzn

    rows = [(path.stem, split(path.read_text()))
            for path in sorted((SRC / "sepzn").glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    print(f"{'module':10} {'code':>5} {'comment':>7} {'docstring':>9} "
          f"{'total':>5}")
    for name, counts in rows + [("total", total)]:
        print(f"{name:10} {counts['code']:5} {counts['comment']:7} "
              f"{counts['docstring']:9} {sum(counts.values()):5}")
    print(f"{'__all__':10} {len(sepzn.__all__):5}")


if __name__ == "__main__":
    main()
