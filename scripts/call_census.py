#!/usr/bin/env python3
"""List every function and method of src/dichroma that nothing calls.

    python3 scripts/call_census.py --seed 1 [--corpora-only]

Runs the tier-1 tests (tests/) in process, unless --corpora-only is given,
then every operation of the three benchmark corpora at the seed through
`dichroma.cli.main` (as scripts/report_digest.py does), under
`sys.setprofile` and `threading.setprofile`, both in a temporary directory.
Prints one line per function or method defined in src/dichroma that was
never entered, as `module:line qualified.name`, in source order.  Class bodies, lambdas and
comprehensions are left out.  The functions are compiled and keyed once,
when the script starts, just after it imports dichroma, so a source edit
during the run cannot shift their keys.  The pytest and corpus output goes
to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys
import tempfile
import threading
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dichroma")
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import pytest  # noqa: E402

import report_digest  # noqa: E402  (puts src and perfbench on the path)


def key(code: CodeType) -> tuple[str, int, str]:
    """(file name, first line, qualified name) of a code object."""
    qualname = getattr(code, "co_qualname", code.co_name)  # Python >= 3.11
    return os.path.basename(code.co_filename), code.co_firstlineno, qualname


def defined() -> list[tuple[str, int, str]]:
    """The `key` of every function and method in src/dichroma, in source
    order."""
    out = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as f:
            stack = [compile(f.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, CodeType)]
            # class bodies run once at import; lambdas and comprehensions
            # are named <...>
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out.append(key(code))
    return sorted(out)


def called(seed: int, tests: bool) -> set[tuple[str, int, str]]:
    """The entries of `defined` that the corpora, and the tests if `tests`,
    enter."""
    seen: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        os.chdir(tmp)  # hypothesis keeps its example database here
        threading.setprofile(profile)
        sys.setprofile(profile)
        code = 0
        try:
            if tests:
                code = pytest.main(["-q", "-p", "no:cacheprovider",
                                    "--continue-on-collection-errors", os.path.join(ROOT, "tests")])
            for workload in sorted(report_digest.corpus.WORKLOADS):
                report_digest.digests(workload, seed)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    if code != 0:
        print(f"warning: pytest exited with {code}", file=sys.stderr)
    return {key(c) for c in seen if os.path.dirname(os.path.abspath(c.co_filename)) == SRC}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--corpora-only", action="store_true", help="run the corpora, not the tests")
    args = ap.parse_args(argv)
    functions = defined()
    hit = called(args.seed, not args.corpora_only)
    for name, line, qualname in functions:
        if (name, line, qualname) not in hit:
            print(f"{name[:-3]}:{line} {qualname}")


if __name__ == "__main__":
    main()
