#!/usr/bin/env python3
"""One digest per benchmark operation, to check that two checkouts agree.

    python3 scripts/report_digest.py lambda-extremal --seed 7

Instantiates the workload's corpus (perfbench/corpus.py) for the seed in a
temporary directory and runs every operation through `dichroma.cli.main`,
imported from this checkout's src.  Prints one line per operation, in the
corpus order: the sha256 of its exit code and its standard output with the
`wall_ms` key dropped, then its id.  The last line is the sha256 of all of
them.  Two checkouts whose reports are byte-identical print the same lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402
from dichroma import cli  # noqa: E402


def without_wall_ms(text: str) -> str:
    """The output with `wall_ms` dropped from every JSON object line."""
    lines = []
    for line in text.splitlines():
        try:
            report = json.loads(line)
        except ValueError:
            report = None
        if isinstance(report, dict):
            report.pop("wall_ms", None)
            line = json.dumps(report, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def digests(workload: str, seed: int) -> list[tuple[str, str]]:
    """(sha256, operation id) of every operation, in the corpus order."""
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        ops = corpus.instantiate(workload, seed, tmp, tmp)
        os.chdir(tmp)  # the operations name their files relative to it
        try:
            for op in ops:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(op["argv"])
                blob = f"{code}\n{without_wall_ms(buf.getvalue())}"
                out.append((hashlib.sha256(blob.encode()).hexdigest(), op["id"]))
        finally:
            os.chdir(cwd)
    return out


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    for digest, op_id in digests(args.workload, args.seed):
        print(digest, op_id)
        total.update(digest.encode())
    print(total.hexdigest(), "total")


if __name__ == "__main__":
    main()
