#!/usr/bin/env python3
"""Non-test Rust code lines, one line per crate.

    scripts/loc.py [--files] [ROOT]

Counts the `.rs` files under each package's `src/` (the workspace root
package and every `crates/*`; `benchmark/` is a package of its own and is
left out), skipping:

* blank lines and lines that hold only a `//` comment (`///` and `//!`
  docs included) or lie inside a `/* */` comment;
* every item, statement or field under `#[cfg(test)]` — a `mod tests {}`
  block, a `cfg(test)` helper, a test-only field — and the file of a
  `#[cfg(test)] mod name;` together with its `name/` directory;
* `tests/`, `examples/` and `benches/` (they are not under `src/`).

This is the "non-test code lines" figure CHANGELOG entries quote. ROOT
defaults to the repository this script lives in, so a second checkout
(say, the parent commit) is counted with `scripts/loc.py /path/to/it`.
`--files` adds one line per counted file under its crate.
"""

import argparse
import re
import sys
from pathlib import Path

# String and char literals, so a brace or `//` inside one is not code
# structure. A lifetime (`'a`) has no closing quote and is left alone.
LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\\\'])\'')
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
ATTRIBUTE = re.compile(r"^\s*#\[.*\]\s*$")
TEST_MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def code_of(line, in_block):
    """`line` without comments and literals, and whether a `/* */`
    comment is still open at its end."""
    line = LITERAL.sub('""', line)
    out = ""
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return out, True
            i, in_block = end + 2, False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            i, in_block = i + 2, True
        else:
            out += line[i]
            i += 1
    return out, in_block


def test_item_end(codes, start):
    """Index of the last line of the item that begins at `codes[start]`:
    where its outermost brace closes, or a `;` / `,` at depth 0 ends it
    (an `else` on the next line continues an `if`)."""
    depth = 0
    opened = False
    i = start
    while i < len(codes):
        for ch in codes[i]:
            if ch in "([{":
                depth += 1
                opened = opened or ch == "{"
            elif ch in ")]}":
                depth -= 1
            elif ch in ";," and depth == 0:
                return i
        if opened and depth == 0:
            nxt = next((c for c in codes[i + 1 :] if c.strip()), "")
            if not nxt.lstrip().startswith("else"):
                return i
        i += 1
    return len(codes) - 1


def count_file(path, skip_files):
    """Code lines of one file; adds the files of its `#[cfg(test)] mod
    name;` declarations to `skip_files`."""
    codes = []
    in_block = False
    for line in path.read_text().splitlines():
        code, in_block = code_of(line, in_block)
        codes.append(code)
    own_dir = path.parent if path.name in ("lib.rs", "main.rs", "mod.rs") else path.with_suffix("")
    count = 0
    i = 0
    while i < len(codes):
        if CFG_TEST.match(codes[i]):
            i += 1
            while i < len(codes) and (not codes[i].strip() or ATTRIBUTE.match(codes[i])):
                i += 1
            if i >= len(codes):
                break
            decl = TEST_MOD_DECL.match(codes[i])
            if decl:
                name = decl.group(1)
                skip_files.update([own_dir / f"{name}.rs", own_dir / name / "mod.rs"])
                skip_files.add(own_dir / name)
            i = test_item_end(codes, i) + 1
            continue
        if codes[i].strip():
            count += 1
        i += 1
    return count


def count_crate(src):
    """`{file: code lines}` for one package's `src/`."""
    skip = set()
    counts = {path: count_file(path, skip) for path in sorted(src.rglob("*.rs"))}
    # A test-only module's file is known only once its parent is read.
    return {p: n for p, n in counts.items() if p not in skip and not any(q in skip for q in p.parents)}


def package_name(dir_):
    manifest = (dir_ / "Cargo.toml").read_text()
    found = re.search(r'^\[package\][^\[]*?^name\s*=\s*"([^"]+)"', manifest, re.M | re.S)
    return found.group(1) if found else dir_.name


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--files", action="store_true", help="one line per file too")
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent, type=Path)
    args = parser.parse_args()
    packages = [args.root] + sorted(p for p in (args.root / "crates").iterdir() if (p / "Cargo.toml").exists())
    total = 0
    for pkg in packages:
        counts = count_crate(pkg / "src")
        n = sum(counts.values())
        total += n
        print(f"{package_name(pkg):<16} {n:>6}")
        if args.files:
            for path, lines in counts.items():
                print(f"  {path.relative_to(pkg)}  {lines}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
