"""Stored oracle answers for the operations whose check is costly.

Answers depend only on the isomorphism class of each graph, which
corpus.BASE_SEED fixes, so they hold for every --seed.  Recompute them all
from the oracles (about 75 s; dichroma is not imported) with

    python3 perfbench/answers.py

Each entry carries a digest of its operation, so an answer left stale by a
change to the corpus is refused instead of trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import corpus

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")
# recognised from their construction: directed Hajos joins of symmetric
# K_{k+1} are k-extremal by theorem
THEOREM_EXTREMAL = ("djoin-",)


def digest(op):
    return hashlib.sha256(json.dumps([op["argv"], op["graph"]]).encode()).hexdigest()[:16]


def _answer(op):
    import graphs as G
    import oracles as O

    kind = op["check"]
    graph = op["graph"]
    if kind == "chi":
        return {"chi": O.chi(graph[1], graph[2])}
    if kind == "lambda":
        return {"lambda": O.lambda_max(graph[1], graph[2])}
    if kind == "extremal":
        n, arcs, k = graph[1], graph[2], op["params"]["k"]
        lam = O.lambda_max(n, arcs)
        if lam != k:
            return {"extremal": False, "basis": f"lambda is {lam}"}
        if n <= O.IE_MAX_N:
            chi = O.chi(n, arcs)
            return {"extremal": chi == k + 1, "basis": f"lambda is {k}, chi is {chi}"}
        if op["id"].startswith(THEOREM_EXTREMAL):
            return {"extremal": True, "basis": "directed Hajos join of extremal digraphs"}
        raise ValueError(f"{op['id']}: no oracle decides extremality")
    if kind == "free":
        pattern = G.patterns()[op["params"]["pattern"]]
        return {"contains": O.contains_induced((graph[1], graph[2]), pattern)}
    if kind == "defective" and "--exact" in op["argv"] and "closed_form" not in op["params"]:
        d = int(op["argv"][op["argv"].index("--d") + 1])
        return {"index": O.defective_index_brute(graph[1], graph[2], d)}
    return None


def compute(workload):
    out = {}
    for op in corpus.WORKLOADS[workload]():
        ans = _answer(op)
        if ans is not None:
            out[op["id"]] = dict(ans, digest=digest(op))
    return out


def load(workload):
    """Stored answers of one workload, checked against the current corpus."""
    with open(PATH) as fh:
        stored = json.load(fh)[workload]
    for op in corpus.WORKLOADS[workload]():
        entry = stored.get(op["id"])
        if entry is not None and entry["digest"] != digest(op):
            raise ValueError(f"stale answer for {workload}/{op['id']}; run perfbench/answers.py")
    return stored


def main():
    result = {}
    for workload in corpus.WORKLOADS:
        result[workload] = compute(workload)
        print(f"{workload}: {len(result[workload])} answers", file=sys.stderr)
    with open(PATH, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
