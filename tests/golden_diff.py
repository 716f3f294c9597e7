"""Name the fields of the golden outputs that differ from their bytes at a git revision.

    python tests/golden_diff.py REV

For each case under tests/golden/ whose bytes differ from REV's, prints the
case and the names of the fields that changed: the key of a JSON or text
``key: value`` line, and the column of the per-shot CSV. A changed line
without a key, or a change in the number of lines or rows, is printed as
such. Prints nothing, and exits 0, where every byte is unchanged.
"""

import csv
import gzip
import io
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def field(line: str) -> str:
    """The key of a ``key: value`` or JSON ``"key": value`` line, else the line itself."""
    key, sep, _ = line.strip().partition(":")
    return key.strip('"') if sep else repr(line)


def changed_fields(old: bytes, new: bytes, csv_table: bool) -> set[str]:
    if csv_table:
        old_rows = list(csv.reader(io.StringIO(old.decode())))
        new_rows = list(csv.reader(io.StringIO(new.decode())))
        header = new_rows[0]
        pairs = zip(old_rows[1:], new_rows[1:])
        names = {header[i] for a, b in pairs for i, (x, y) in enumerate(zip(a, b)) if x != y}
        return names | ({"header"} if old_rows[0] != header else set())
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    names = {field(b) for a, b in zip(old_lines, new_lines) if a != b}
    return names | ({"number of lines"} if len(old_lines) != len(new_lines) else set())


def main(rev: str) -> int:
    for path in sorted(GOLDEN.iterdir()):
        relative = path.relative_to(GOLDEN.parents[1]).as_posix()
        old = subprocess.run(["git", "show", f"{rev}:{relative}"], capture_output=True, check=True).stdout
        new = path.read_bytes()
        if old == new:
            continue
        csv_table = path.name.endswith(".csv.gz")
        if csv_table:
            old, new = gzip.decompress(old), gzip.decompress(new)
            if old == new:
                continue
        print(f"{path.name}: {', '.join(sorted(changed_fields(old, new, csv_table)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
