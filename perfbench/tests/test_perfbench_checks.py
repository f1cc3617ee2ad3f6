"""The benchmark's oracles agree with brute force, and each check accepts
dichroma's report and rejects a corrupted copy of it.

    python3 -m pytest -q perfbench/tests
"""

import copy
import itertools
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import graphs as G  # noqa: E402
import oracles as O  # noqa: E402
from dichroma import cli  # noqa: E402


def brute_chi(n, arcs):
    """Least k such that some assignment of k colours leaves every class
    free of a dicycle (sinks peeled one at a time)."""
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v

    def acyclic(s):
        while s:
            sink = next((v for v in range(n) if s >> v & 1 and not out[v] & s), None)
            if sink is None:
                return False
            s &= ~(1 << sink)
        return True

    for k in range(1, n + 1):
        for cols in itertools.product(range(k), repeat=n):
            masks = [sum(1 << v for v in range(n) if cols[v] == c) for c in range(k)]
            if all(acyclic(m) for m in masks):
                return k
    return 0


def test_chi_oracle_on_every_digraph_up_to_4_vertices():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for states in itertools.product(range(4), repeat=len(pairs)):
            arcs = []
            for (u, v), s in zip(pairs, states):
                arcs += [(u, v)] * (s & 1) + [(v, u)] * (s >> 1)
            assert O.chi(n, arcs) == brute_chi(n, arcs), (n, arcs)


def test_chi_oracle_on_random_digraphs_up_to_7_vertices():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(5, 7)
        d = G.random_digraph(n, rng.random(), rng.random() * 0.5, rng)
        assert O.chi(*d) == brute_chi(*d), d


def run(op):
    """Run dichroma on the op's graph and return the parsed outcome."""
    import contextlib
    import io
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        argv = list(op["argv"])
        if op.get("inst"):
            kind, n, pairs = op["inst"]
            path = os.path.join(tmp, "g.txt")
            with open(path, "w") as fh:
                fh.write(G.digraph_text((n, pairs)) if kind == "digraph"
                         else G.multigraph_text((n, pairs)))
            argv = [path if a == "{file}" else a for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    report = json.loads(buf.getvalue())
    report.pop("wall_ms", None)
    return code, report


def make_op(argv, graph, check=None, **params):
    inst = ("digraph", graph[0], graph[1]) if graph else None
    return {"id": "t", "argv": argv, "inst": inst, "check": check or argv[0], "fault": None,
            "params": params}


def test_chi_check_rejects_wrong_value_and_monochromatic_dicycle():
    d = G.fk(3, 3)
    op = make_op(["chi", "{file}"], d)
    answer = {"chi": O.chi(*d)}
    code, rep = run(op)
    assert checks.check(op, (code, rep), answer) is None
    for delta in (-1, 1):
        bad = dict(rep, chi=rep["chi"] + delta)
        assert checks.check(op, (code, bad), answer) is not None
    arcs = set(d[1])
    cycle = next(c for c in itertools.permutations(range(d[0]), 3)
                 if all((c[i], c[(i + 1) % 3]) in arcs for i in range(3)))
    cols = list(rep["colouring"])
    for v in cycle:
        cols[v] = 1
    assert checks.check(op, (code, dict(rep, colouring=cols)), answer) is not None


def test_lambda_check_rejects_off_by_one():
    d = G.directed_join_tree(3, 3, random.Random(1))
    op = make_op(["lambda", "{file}"], d)
    answer = {"lambda": O.lambda_max(*d)}
    code, rep = run(op)
    assert checks.check(op, (code, rep), answer) is None
    for delta in (-1, 1):
        assert checks.check(op, (code, dict(rep, **{"lambda": rep["lambda"] + delta})), answer)


def test_extremal_check_rejects_certificate_one_arc_short():
    tree = [(0, 1), (1, 2), (1, 3)]
    d = G.tree_join(tree, 3, G.plane_leaf_order(tree))
    op = make_op(["extremal", "--k", "3", "{file}"], d, k=3)
    answer = {"extremal": True, "basis": "test"}
    code, rep = run(op)
    assert checks.check(op, (code, rep), answer) is None
    # the same certificate against the input plus one arc replays one arc short
    missing = next((u, v) for u in range(d[0]) for v in range(d[0])
                   if u != v and (u, v) not in set(d[1]))
    longer = make_op(op["argv"], (d[0], sorted(d[1] + [missing])), k=3)
    assert checks.check(longer, (code, rep), answer) is not None
    # and a certificate whose first leaf is a dicycle instead of a K4
    short = copy.deepcopy(rep)
    node = short["certificate"]
    while node["children"]:
        node = node["children"][0]["node"]
    node["kind"], node["witness"] = "BaseDirectedCycle", {"cycle": list(range(node["n"]))}
    assert checks.check(op, (code, short), answer) is not None


def test_free_check_rejects_non_induced_embedding():
    host = G.digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    op = make_op(["free", "--pattern-name", "c3", "{file}"], host, pattern="c3")
    answer = {"contains": True}
    code, rep = run(op)
    assert checks.check(op, (code, rep), answer) is None
    wrong = dict(rep, embedding=[0, 1, 3])
    assert checks.check(op, (code, wrong), answer) is not None


def test_verify_and_fault_checks():
    tri = G.dicycle(3)
    op = make_op(["verify", "--colours", "0,0,0", "{file}"], tri, colours=[0, 0, 0])
    assert checks.check(op, (0, {"valid": True}), None) is not None
    assert checks.check(op, (0, {"valid": False, "witness": {"cycle": [0, 1, 2], "colour": 0}}),
                        None) is None
    assert checks.check(op, (2, {"error": {"type": "InvalidInput"}}), None) is None
    bad = make_op(["verify", "--colours", "1,x,1", "{file}"], tri, check="usage_error")
    assert checks.check(bad, (None, "ValueError"), None) is not None
    assert checks.check(bad, (2, {"error": {"type": "UsageError"}}), None) is None


@pytest.mark.parametrize("k,d", [(4, 1), (7, 3), (9, 5)])
def test_defective_check_rejects_wrong_index(k, d):
    g = G.shannon(k)
    op = {"id": "t", "argv": ["defective", "--d", str(d), "--exact", "{file}"],
          "inst": ("multigraph", g[0], g[1]), "check": "defective", "fault": None,
          "params": {"closed_form": [k, d]}}
    code, rep = run(op)
    assert checks.check(op, (code, rep), None) is None
    assert checks.check(op, (code, dict(rep, colours=rep["colours"] + 1)), None) is not None
