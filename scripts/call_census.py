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

With --corpora-only the script is a gate on `ALLOWED`, the names the
corpora may leave unreached, each with its reason.  It prints each
unreached name that is not allowed, each allowed name that is reached or
no longer defined, and each reason of an unknown kind, and exits 1 if it
printed anything.  The list is pinned at seed 1: other seeds can reach
more or less.
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


# the kinds of reason an allowed name may have, as the reason's first words
KINDS = (
    "import machinery",
    "malformed input",  # an error path
    "cli branch",  # the command and an input that reaches it
    "acceptance criterion",  # of tests/test_acceptance.py
    "script",  # one of scripts/
)

# "module.qualified.name" -> why the corpora at seed 1 never enter it
ALLOWED = {
    "__init__._lazy": "import machinery: binds the command modules before the census starts",
    "cli._find_offender": "malformed input: the line of a bad arc or edge row",
    "errors.FileSyntaxError.__init__": "malformed input: a graph file that does not parse",
    "errors.FileSemanticError.__init__": "malformed input: a graph file with a loop, repeat or bad index",
    "brooks._merge_blocks": "cli branch: brooks on a 2-regular digraph with a cut vertex",
    "brooks._colour_regular_biconnected": "cli branch: brooks on a symmetric even cycle",
    "colouring.two_colour_odd_free": "cli branch: brooks on a symmetric even cycle",
    "core.Digraph.has_digon": "cli branch: brooks on a symmetric even cycle",
    "defective._parity_two_colour": "cli branch: defective --d 3 --simple on K_{6,6}",
    "extremal._trace_cycle": "cli branch: extremal --k 3 on a symmetric wheel with five rim vertices",
    "extremal.directed_hajos_join": "acceptance criterion 04",
    "extremal._append_mapping": "acceptance criterion 04, through directed_hajos_join",
    "extremal.hajos_star_join": "acceptance criterion 04",
    "extremal.hajos_tree_join": "acceptance criterion 05; also script extremal_pair_demo.py",
    "extremal._tree_structure": "acceptance criterion 05, through hajos_tree_join",
    "defective.colour_shannon_multigraph": "acceptance criterion 08; also script shannon_table.py",
    "defective.shannon_block_order": "acceptance criterion 08, through colour_shannon_multigraph",
    "defective.DefectiveGadget.extend": "acceptance criterion 11",
    "extremal.check_2_extremal": "script wheel_search.py",
}


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
    if not args.corpora_only:
        for name, line, qualname in functions:
            if (name, line, qualname) not in hit:
                print(f"{name[:-3]}:{line} {qualname}")
        return
    unreached = {f"{name[:-3]}.{qualname}": f"{name[:-3]}:{line} {qualname}"
                 for name, line, qualname in functions if (name, line, qualname) not in hit}
    names = {f"{name[:-3]}.{qualname}" for name, _, qualname in functions}
    bad = [where for name, where in unreached.items() if name not in ALLOWED]
    for name, reason in ALLOWED.items():
        if name not in names:
            bad.append(f"{name}: allowed, but not defined")
        elif name not in unreached:
            bad.append(f"{name}: allowed, but reached")
        if not reason.startswith(KINDS):
            bad.append(f"{name}: reason of no known kind: {reason!r}")
    for line in bad:
        print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
