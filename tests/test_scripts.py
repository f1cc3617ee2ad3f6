"""Smoke test of the experiment scripts: each runs in a fresh interpreter
against this checkout's src, exits 0, and prints its headline lines.  The
call census runs as a gate."""

import os
import subprocess
import sys

import pytest

import dichroma

SRC = os.path.dirname(os.path.dirname(dichroma.__file__))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["brooks_census.py"],
         ["tight kinds: {'SymmetricComplete': 2, 'DirectedCycle': 9, 'SymmetricOddCycle': 1}"]),
        (["extremal_pair_demo.py", "--certificate"],
         ["embedding order: n=19 arcs=65 lambda=3 chi=4 extremal=True (ParallelHajosJoin)",
          ' "kind": "ParallelHajosJoin",',
          "crossed order: n=19 arcs=65 lambda=4 chi=4 extremal=False (NoDecomposition)"]),
        (["shannon_table.py"], ["all cells match the closed form"]),
        (["wheel_search.py"], ["50 generated wheels, all 2-extremal"]),
    ],
)
def test_script_runs_and_prints_its_headline(argv, lines):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("DICHROMA_BUDGET", None)
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert all(line in printed for line in lines), done.stdout


def test_call_census_gate_passes_at_seed_1():
    # every function the corpora leave unreached is on the census's allow-list
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("DICHROMA_BUDGET", None)
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, "call_census.py"), "--seed", "1",
                           "--corpora-only"], env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (0, ""), done.stdout
