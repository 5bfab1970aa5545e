#!/usr/bin/env python3
"""Count the non-test lines of the workspace's library sources.

Counts every line of every `.rs` file under `crates/*/src` and
`shims/*/src`, except items marked `#[cfg(test)]`: the attribute line and
the item after it are skipped to the item's closing brace (or to its `;`
when it has no body). A bodiless test module, `#[cfg(test)] mod tests;`,
lives in a file of its own: that file, and any module directory under
it, is skipped too. Blank lines, comments and doc comments count. Braces
inside string and character literals and comments are ignored.

Usage: python3 scripts/nontest_lines.py [ROOT] [--by-crate]

ROOT defaults to the repository this script lives in. Prints the total,
and with --by-crate one line per crate first.
"""

import re
import sys
from pathlib import Path

MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def code_braces(line, in_block_comment):
    """Net `{` minus `}` outside literals and comments, whether a `;` was
    seen there, and whether a block comment is still open at the end."""
    depth, semicolon, i, n = 0, False, 0, len(line)
    while i < n:
        c = line[i]
        if in_block_comment:
            if line.startswith("*/", i):
                in_block_comment = False
                i += 2
                continue
            i += 1
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        if c == '"':
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            # A char literal ('{', '\n', '\u{7b}'); a lifetime has no
            # closing quote within a few characters.
            end = line.find("'", i + 1)
            if end != -1 and (end - i <= 3 or line[i + 1] == "\\"):
                i = end + 1
                continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif c == ";":
            semicolon = True
        i += 1
    return depth, semicolon, in_block_comment


def module_dir(path):
    """The directory a file's `mod name;` declarations resolve in."""
    if path.name in ("lib.rs", "main.rs", "mod.rs"):
        return path.parent
    return path.parent / path.stem


def nontest_lines(path):
    """The file's non-test line count, and the paths of the test modules
    it declares out of line (a file and its module directory)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    count, i, in_comment, test_modules = 0, 0, False, []
    while i < len(lines):
        if not in_comment and lines[i].strip().startswith("#[cfg(test)]"):
            # Skip the attribute and the item it marks.
            i += 1
            depth, opened = 0, False
            while i < len(lines):
                declared = MOD_DECL.match(lines[i])
                delta, semicolon, in_comment = code_braces(lines[i], in_comment)
                depth += delta
                opened = opened or delta > 0 or depth > 0
                i += 1
                if (opened and depth <= 0) or (not opened and semicolon):
                    if declared and not opened:
                        name = declared.group(1)
                        test_modules.append(module_dir(path) / f"{name}.rs")
                        test_modules.append(module_dir(path) / name)
                    break
            continue
        _, _, in_comment = code_braces(lines[i], in_comment)
        count += 1
        i += 1
    return count, test_modules


def crate_lines(src):
    """Non-test lines of every `.rs` file under `src`, test module files
    excluded."""
    counted = {f: nontest_lines(f) for f in sorted(src.rglob("*.rs"))}
    tests = [t for _, modules in counted.values() for t in modules]
    return sum(
        lines
        for f, (lines, _) in counted.items()
        if not any(f == t or t in f.parents for t in tests)
    )


def main(argv):
    by_crate = "--by-crate" in argv
    args = [a for a in argv if a != "--by-crate"]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    total = 0
    for group in ("crates", "shims"):
        for crate in sorted(p for p in (root / group).iterdir() if (p / "src").is_dir()):
            lines = crate_lines(crate / "src")
            total += lines
            if by_crate:
                print(f"{group}/{crate.name}\t{lines}")
    print(total)


if __name__ == "__main__":
    main(sys.argv[1:])
