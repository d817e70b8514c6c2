#!/usr/bin/env python3
"""Check that every public header compiles standalone.

A header is self-contained when a translation unit consisting of nothing
but `#include "qens/<module>/<name>.h"` compiles. Headers that silently
lean on what a previous include dragged in break consumers that include
them first — and break refactors that reorder includes. This tool
compiles each header under src/qens/**/ with `-fsyntax-only`, one stub
file per header and `os.cpu_count()` compiles at a time, and reports
every failure in sorted header order.

Usage:
    tools/check_header_selfcontainment.py [--compiler g++] [--src src]

Exit code 0 when every header passes, 1 otherwise. Registered as the
tier-1 ctest `header_selfcontainment` and run by CI.
"""

import argparse
import concurrent.futures
import os
import pathlib
import subprocess
import sys
import tempfile


def find_headers(src: pathlib.Path) -> list[pathlib.Path]:
    return sorted((src / "qens").rglob("*.h"))


def check_header(compiler: str, src: pathlib.Path, header: pathlib.Path,
                 workdir: pathlib.Path) -> "subprocess.CompletedProcess[str]":
    rel = header.relative_to(src)
    stub_name = rel.with_suffix("").as_posix().replace("/", "__")
    stub = workdir / f"{stub_name}.cpp"
    stub.write_text(f'#include "{rel.as_posix()}"\n')
    return subprocess.run(
        [compiler, "-std=c++20", "-fsyntax-only", "-I", str(src), str(stub)],
        capture_output=True,
        text=True,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compiler", default="g++",
                        help="C++ compiler to syntax-check with")
    parser.add_argument("--src", default="src",
                        help="source root containing qens/")
    args = parser.parse_args()

    src = pathlib.Path(args.src).resolve()
    headers = find_headers(src)
    if not headers:
        print(f"error: no headers found under {src}/qens", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1) as pool:
            results = list(pool.map(
                lambda h: check_header(args.compiler, src, h, workdir),
                headers))
    failures = [(header.relative_to(src), result.stderr)
                for header, result in zip(headers, results)
                if result.returncode != 0]

    if failures:
        for rel, stderr in failures:
            print(f"NOT SELF-CONTAINED: {rel}", file=sys.stderr)
            print(stderr, file=sys.stderr)
        print(f"{len(failures)}/{len(headers)} headers failed",
              file=sys.stderr)
        return 1
    print(f"all {len(headers)} headers are self-contained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
