"""Every report of the three benchmark workloads at seeds 1 and 7 stays
byte-identical: each operation's digest from `scripts/report_digest.py`
(its exit code and standard output, `wall_ms` dropped) matches the one in
report_digests.txt, and so does the workload's total.

The file holds one line per operation, `workload seed id digest`, with the
first 16 hex digits of the digest, then a `total` line with the whole sha256
of the workload's digests, as the script prints it.  A change that alters a
report on purpose rewrites the file with

    PYTHONPATH=src python3 tests/test_report_digests.py > tests/report_digests.txt

and says why in CHANGES.md.
"""

import hashlib
import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "report_digests.txt")
WORKLOADS = ("chi-exact", "lambda-extremal", "cli-batch")
SEEDS = (1, 7)

_spec = importlib.util.spec_from_file_location(
    "report_digest", os.path.join(HERE, "..", "scripts", "report_digest.py"))
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def digest_lines(workload: str, seed: int) -> list[str]:
    """The lines of report_digests.txt for one workload and seed, from this
    checkout."""
    digests = report_digest.digests(workload, seed)
    total = hashlib.sha256("".join(digest for digest, _ in digests).encode()).hexdigest()
    lines = [f"{workload} {seed} {op} {digest[:16]}" for digest, op in digests]
    return lines + [f"{workload} {seed} total {total}"]


def _pinned(workload: str, seed: int) -> list[str]:
    with open(PINNED) as f:
        return [line.rstrip("\n") for line in f if line.startswith(f"{workload} {seed} ")]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_match_the_pinned_digests(workload, seed):
    got, want = digest_lines(workload, seed), _pinned(workload, seed)
    assert want, f"no pinned digests for {workload} at seed {seed}"
    for now, then in zip(got, want):
        if now != then:
            pytest.fail(f"first differing operation: {now} (pinned: {then})")
    assert len(got) == len(want), f"{len(got) - 1} operations, {len(want) - 1} pinned"


if __name__ == "__main__":
    for workload in WORKLOADS:
        for seed in SEEDS:
            print("\n".join(digest_lines(workload, seed)))
