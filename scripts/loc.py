#!/usr/bin/env python3
"""Counts the workspace's Rust lines, split into non-test and test lines.

Usage: python3 scripts/loc.py [REPO_ROOT]

Under `crates/`, a line is a test line when its file sits in a `tests/`
or `benches/` directory, or when it belongs to an item marked
`#[cfg(test)]` (from the attribute through the item's closing brace or
semicolon). Every other line is a non-test line. Blank and comment
lines count like any other line, so the figures are `wc -l` figures
split by that rule.

Prints per-crate counts, the `crates/` totals, and the facade's
`tests/` directory separately. Standard library only.
"""

import os
import sys

CFG_TEST = "#[cfg(test)]"


def skip_literal(text, i):
    """Returns the index just past the string, char or comment starting at
    `text[i]`, or `i` when nothing literal starts there."""
    c = text[i]
    nxt = text[i + 1] if i + 1 < len(text) else ""
    if c == "/" and nxt == "/":
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if c == "/" and nxt == "*":
        depth, j = 1, i + 2
        while j < len(text) and depth:
            if text.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif text.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    if c == "r" and (nxt == '"' or nxt == "#"):
        j = i + 1
        while j < len(text) and text[j] == "#":
            j += 1
        if j < len(text) and text[j] == '"':
            close = '"' + "#" * (j - i - 1)
            end = text.find(close, j + 1)
            return len(text) if end < 0 else end + len(close)
        return i
    if c == '"':
        j = i + 1
        while j < len(text) and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1
    if c == "'":
        # A char literal ('a', '\n', '\u{..}') closes within a few
        # characters; a lifetime ('a) does not.
        if nxt == "\\":
            end = text.find("'", i + 2)
            return i if end < 0 else end + 1
        if i + 2 < len(text) and text[i + 2] == "'":
            return i + 3
    return i


def item_end(text, start):
    """The offset just past the item whose attributes begin at `start`:
    its matching closing brace, or a `;` before any brace opens."""
    depth, i = 0, start
    while i < len(text):
        j = skip_literal(text, i)
        if j != i:
            i = j
            continue
        c = text[i]
        if c == "[" or c == "(" or c == "{":
            depth += 1
        elif c == "]" or c == ")" or c == "}":
            depth -= 1
            if depth == 0 and c == "}":
                return i + 1
        elif c == ";" and depth == 0:
            return i + 1
        i += 1
    return len(text)


def test_lines(text):
    """The number of lines of `text` inside `#[cfg(test)]` items."""
    lines = 0
    i = 0
    while True:
        at = text.find(CFG_TEST, i)
        if at < 0:
            return lines
        # Skip the attribute itself, then measure the item after it.
        end = item_end(text, at + len(CFG_TEST))
        first = text.count("\n", 0, at)
        last = text.count("\n", 0, max(end - 1, at))
        lines += last - first + 1
        i = end


def count_file(path):
    """`(non-test, test)` lines of one Rust file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    total = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    parts = path.split(os.sep)
    if "tests" in parts or "benches" in parts:
        return 0, total
    tests = test_lines(text)
    return total - tests, tests


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "target")
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def main():
    repo = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.getcwd())
    os.chdir(repo)
    crates = os.path.join(repo, "crates")
    rows = []
    for crate in sorted(os.listdir(crates)):
        path = os.path.join(crates, crate)
        if not os.path.isdir(path):
            continue
        non_test = test = 0
        for file in rust_files(path):
            n, t = count_file(os.path.relpath(file, repo))
            non_test, test = non_test + n, test + t
        rows.append((crate, non_test, test))

    print(f"{'crate':<12} {'non-test':>9} {'test':>7} {'total':>7}")
    for crate, n, t in rows:
        print(f"{crate:<12} {n:>9,} {t:>7,} {n + t:>7,}")
    non_test = sum(n for _, n, _ in rows)
    test = sum(t for _, _, t in rows)
    print(f"{'crates/':<12} {non_test:>9,} {test:>7,} {non_test + test:>7,}")

    facade = os.path.join(repo, "tests")
    facade_lines = sum(sum(count_file(os.path.relpath(f, repo))) for f in rust_files(facade))
    print(f"{'tests/':<12} {'':>9} {facade_lines:>7,} {facade_lines:>7,}  (facade suites)")


if __name__ == "__main__":
    main()
