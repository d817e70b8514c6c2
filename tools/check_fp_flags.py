#!/usr/bin/env python3
"""Fail if a build file or CI workflow adds a value-changing float flag.

Every numeric kernel in qens is bit-reproducible: each output element
accumulates in a fixed operand order, and the tests and golden outputs
compare results bit for bit. That holds only while the compiler keeps
IEEE-754 semantics. These flags break it:

    -ffast-math            reassociates and drops NaN/Inf/signed-zero rules
    -Ofast                 implies -ffast-math
    -march=native          may enable FMA, and differs from host to host
    -mfma                  lets the compiler contract a * b + c into one FMA
    -ffp-contract=fast     allows that contraction wherever FMA exists

The tool scans every CMakeLists.txt and *.cmake file in the repository
(build trees and .git excluded) and every workflow under
.github/workflows/. Comments are ignored, so a comment may name a flag
to forbid it.

Usage:
    tools/check_fp_flags.py [--root .]

Exit code 0 when no file adds a flag, 1 otherwise. Registered as the
tier-1 ctest `fp_flags_lint` and run by CI.
"""

import argparse
import pathlib
import re
import sys

FORBIDDEN = ("-ffast-math", "-Ofast", "-march=native", "-mfma",
             "-ffp-contract=fast")

# A flag is a whole token: not preceded or followed by a word character or
# a dash (so -mfma does not match -mfma4 or a longer option name).
FLAG_RE = re.compile(
    r"(?<![\w-])(" + "|".join(re.escape(f) for f in FORBIDDEN) + r")(?![\w-])")

SKIP_DIRS = {".git", ".bench_build", "__pycache__"}


def strip_comment(line: str) -> str:
    """Drop a `#` comment that is not inside a quoted string."""
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return line[:i]
    return line


def find_flags(text: str) -> list[tuple[int, str]]:
    """(line number, flag) for every forbidden flag outside comments."""
    hits = []
    for number, line in enumerate(text.splitlines(), start=1):
        for match in FLAG_RE.finditer(strip_comment(line)):
            hits.append((number, match.group(1)))
    return hits


def self_check() -> None:
    """The detector must see through quoting and skip comments."""
    cases = {
        'add_compile_options(-O3 -ffast-math)': ["-ffast-math"],
        'set(CMAKE_CXX_FLAGS "${CMAKE_CXX_FLAGS} -march=native")':
            ["-march=native"],
        'run: cmake -B b -DCMAKE_CXX_FLAGS="-Ofast -mfma"': ["-Ofast", "-mfma"],
        "COMPILE_OPTIONS -ffp-contract=fast": ["-ffp-contract=fast"],
        "# Deliberately NO -ffast-math / -march=native": [],
        "add_compile_options(-O3)  # never -mfma here": [],
        "add_compile_options(-mfma4 -ffp-contract=off -march=x86-64)": [],
        'message("# not a comment -Ofast")': ["-Ofast"],
    }
    for text, want in cases.items():
        got = [flag for _, flag in find_flags(text)]
        if got != want:
            sys.exit(f"check_fp_flags self-check failed on {text!r}: "
                     f"got {got}, want {want}")


def files_to_scan(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if any(part in SKIP_DIRS or part.startswith("build")
               or part.startswith("cmake-build") for part in rel.parts[:-1]):
            continue
        if path.is_file() and (path.name == "CMakeLists.txt"
                               or path.suffix == ".cmake"):
            files.append(path)
    workflows = root / ".github" / "workflows"
    if workflows.is_dir():
        files += sorted(p for p in workflows.iterdir()
                        if p.suffix in (".yml", ".yaml"))
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", type=pathlib.Path,
                        help="repository root (default: .)")
    args = parser.parse_args()
    self_check()
    root = args.root.resolve()
    files = files_to_scan(root)
    if not any(f.name == "CMakeLists.txt" for f in files):
        print(f"check_fp_flags: no CMakeLists.txt under {root}",
              file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        for number, flag in find_flags(path.read_text(errors="replace")):
            print(f"{path.relative_to(root)}:{number}: forbidden float flag "
                  f"{flag}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"check_fp_flags: {failures} forbidden flag(s); they break "
              "bit-reproducible floating point", file=sys.stderr)
        return 1
    print(f"check_fp_flags: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
