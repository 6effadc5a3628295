"""Print the size figures tracked for every change: the non-blank lines of
each module of src/sepzn, their total, and the number of names in
sepzn.__all__.

    python tools/size.py
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    sys.path.insert(0, str(SRC))
    import sepzn

    total = 0
    for path in sorted((SRC / "sepzn").glob("*.py")):
        lines = sum(1 for line in path.read_text().splitlines()
                    if line.strip())
        total += lines
        print(f"{path.stem:10} {lines:5}")
    print(f"{'total':10} {total:5}")
    print(f"{'__all__':10} {len(sepzn.__all__):5}")


if __name__ == "__main__":
    main()
