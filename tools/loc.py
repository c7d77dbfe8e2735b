#!/usr/bin/env python3
"""Line counts, one rule for every PR: per Rust file, `code` is the non-blank,
non-`//` lines before the first `#[cfg(test)]`; `test` is the same count over
the remainder. `unsafe` and `unsafe(t)` count, with the same split, the lines
that use the `unsafe` keyword outside a `//` comment. Default rows: one per
crate (`src/` only, shims excluded) plus the root package; pass files or
directories to get one row each instead."""
import pathlib
import re
import sys

UNSAFE = re.compile(r"\bunsafe\b")


def count(path):
    """(code, test, unsafe code, unsafe test) lines of one file."""
    counts = [0, 0, 0, 0]
    in_test = False
    for line in path.read_text().splitlines():
        s = line.strip()
        in_test = in_test or s.startswith("#[cfg(test)]")
        if s and not s.startswith("//"):
            counts[in_test] += 1
            counts[2 + in_test] += bool(UNSAFE.search(s.split("//")[0]))
    return counts


def row(path):
    files = [path] if path.is_file() else sorted(path.rglob("*.rs"))
    return [str(path)] + [sum(c) for c in zip([0, 0, 0, 0], *map(count, files))]


root = pathlib.Path(__file__).resolve().parent.parent
targets = [pathlib.Path(a) for a in sys.argv[1:]] or [
    d.relative_to(root) for d in sorted(root.glob("crates/*/src")) + [root / "src"]
]
rows = [row(t) for t in targets]
rows.append(["total"] + [sum(r[i] for r in rows) for i in range(1, 5)])
width = max(len(r[0]) for r in rows)
header = ["path", "code", "test", "unsafe", "unsafe(t)"]
print(f"{header[0]:<{width}}" + "".join(f"  {h:>9}" for h in header[1:]))
for name, *nums in rows:
    print(f"{name:<{width}}" + "".join(f"  {n:>9}" for n in nums))
