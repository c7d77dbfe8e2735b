#!/usr/bin/env python3
"""Line counts, one rule for every PR: per Rust file, `code` is the non-blank,
non-`//` lines before the first `#[cfg(test)]`; `test` is the same count over
the remainder. Default rows: one per crate (`src/` only, shims excluded) plus
the root package; pass files or directories to get one row each instead."""
import pathlib
import sys


def count(path):
    code = test = 0
    in_test = False
    for line in path.read_text().splitlines():
        s = line.strip()
        in_test = in_test or s.startswith("#[cfg(test)]")
        if s and not s.startswith("//"):
            test += in_test
            code += not in_test
    return code, test


def row(path):
    files = [path] if path.is_file() else sorted(path.rglob("*.rs"))
    counts = [count(f) for f in files]
    return str(path), sum(c for c, _ in counts), sum(t for _, t in counts)


root = pathlib.Path(__file__).resolve().parent.parent
targets = [pathlib.Path(a) for a in sys.argv[1:]] or [
    d.relative_to(root) for d in sorted(root.glob("crates/*/src")) + [root / "src"]
]
rows = [row(t) for t in targets]
rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
width = max(len(r[0]) for r in rows)
print(f"{'path':<{width}}  {'code':>7}  {'test':>7}")
for name, code, test in rows:
    print(f"{name:<{width}}  {code:>7}  {test:>7}")
