"""Checks of every dichroma report against oracles or properties the method
must have.  A check returns None when the report is correct and a short
reason when it is not.  `outcome` is (exit code, report dict) or
(None, "<exception name>") when cli.main raised.
"""

from __future__ import annotations

import json
import math

import graphs as G
import oracles as O


def _need(cond, reason):
    return None if cond else reason


def check(op, outcome, answer):
    code, report = outcome
    kind = op["check"]
    if kind == "usage_error":
        return _need(code == 2 and isinstance(report, dict) and "error" in report,
                     "expected a JSON error with exit 2")
    if code is None:
        return f"raised {report}"
    if isinstance(report, dict) and "error" in report and code == 2 and kind == "verify":
        out_of_range = min(op["params"]["colours"]) < 1
        return None if out_of_range else "verify refused a well-formed colouring"
    if not isinstance(report, dict) or "error" in report:
        return f"unexpected error report {report!r}"
    graph = op.get("inst")
    n, pairs = (graph[1], graph[2]) if graph else (None, None)
    return CHECKS[kind](op, code, report, answer, n, pairs)


def _chi(op, code, rep, ans, n, arcs):
    want = ans["chi"]
    if "known_chi" in op["params"] and op["params"]["known_chi"] != want:
        return "stored answer disagrees with the closed form"
    if "bounds" in rep:
        lo, hi = rep["bounds"]
        return _need(lo <= want and (hi is None or want <= hi),
                     f"bounds {rep['bounds']} exclude chi = {want}")
    if rep.get("chi") != want:
        return f"chi {rep.get('chi')} != {want}"
    return _need(O.is_dicolouring(n, arcs, rep["colouring"], want),
                 "colouring is not a valid dicolouring with chi colours")


def _lambda(op, code, rep, ans, n, arcs):
    want = ans["lambda"]
    if rep.get("lambda") != want:
        return f"lambda {rep.get('lambda')} != {want}"
    if want == 0:
        return None
    u, v = rep["argmax"]
    side = set(rep["dicut_side"])
    crossing = sum(1 for a, b in arcs if a in side and b not in side)
    if u not in side or v in side or crossing != want:
        return "dicut witness does not separate argmax with lambda arcs"
    return _need(O.lambda_pair(n, arcs, u, v) == want, "argmax pair does not reach lambda")


def _extremal(op, code, rep, ans, n, arcs):
    k = op["params"]["k"]
    if rep.get("extremal") is not ans["extremal"] or rep.get("k") != k:
        return f"extremal {rep.get('extremal')} != {ans['extremal']} ({ans['basis']})"
    if not ans["extremal"]:
        return _need(code == 1, "non-extremal verdict must exit 1")
    cert = rep.get("certificate")
    if code != 0 or cert is None:
        return "extremal verdict needs exit 0 and a certificate"
    if cert["n"] != n or O.replay_certificate(cert) != set(arcs):
        return "certificate does not replay to the input"
    return _need(O.certificate_leaves_are_bases(cert, k), "certificate leaf is not a base digraph")


def _delta_max(n, arcs):
    dout, din = [0] * n, [0] * n
    for u, v in arcs:
        dout[u] += 1
        din[v] += 1
    return max((max(a, b) for a, b in zip(dout, din)), default=0)


def _tight(n, arcs):
    """Is the component one of the directed Brooks exceptions?"""
    dm = _delta_max(n, arcs)
    arcset = set(arcs)
    sym = all((v, u) in arcset for u, v in arcs)
    if n == 1:
        return True
    if dm == 1:
        return len(arcs) == n and O.nx.is_strongly_connected(O.nx_digraph(n, arcs))
    if dm == 2 and sym and n % 2 == 1 and len(arcs) == 2 * n:
        return True
    return sym and len(arcs) == n * (n - 1) and dm == n - 1


def _brooks(op, code, rep, ans, n, arcs):
    dm = _delta_max(n, arcs)
    comps = [sorted(c) for c in O.nx.weakly_connected_components(O.nx_digraph(n, arcs))]
    if rep["delta_max"] != dm:
        return f"delta_max {rep['delta_max']} != {dm}"
    if sorted(c["vertices"] for c in rep["components"]) != sorted(comps):
        return "components are not the weak components"
    tight = False
    for comp in comps:
        sub = O.induced(arcs, comp)
        tight |= _delta_max(len(comp), sub) == dm and _tight(len(comp), sub)
    if rep["tight"] != tight:
        return f"tight {rep['tight']} != {tight}"
    limit = dm + 1 if tight else max(dm, 1)
    k = rep["colours_used"]
    return _need(k <= limit and O.is_dicolouring(n, arcs, rep["colouring"], k),
                 "colouring invalid or beyond the Brooks bound")


def _verify(op, code, rep, ans, n, pairs):
    cols = op["params"]["colours"]
    if op["inst"][0] == "multigraph":
        d = int(op["argv"][op["argv"].index("--d") + 1])
        return _need(rep["valid"] == O.edge_defects_ok(n, pairs, cols, d), "edge verdict wrong")
    valid = O.is_dicolouring(n, pairs, cols, max(cols))
    if rep["valid"] != valid:
        return f"valid {rep['valid']} != {valid}"
    if valid:
        return None
    cyc, c = rep["witness"]["cycle"], rep["witness"]["colour"]
    arcset = set(pairs)
    closed = all((cyc[i], cyc[(i + 1) % len(cyc)]) in arcset for i in range(len(cyc)))
    return _need(closed and len(set(cyc)) == len(cyc) and all(cols[v] == c for v in cyc),
                 "witness is not a monochromatic dicycle")


def _in_round_order_ok(arcs, order):
    pos = {v: i for i, v in enumerate(order)}
    arcset, m = set(arcs), len(order)
    for x, y in arcs:
        i = (pos[x] + 1) % m
        while i != pos[y]:
            if (order[i], y) not in arcset:
                return False
            i = (i + 1) % m
    return True


def _local_in_round(n, arcs):
    """Every out-neighbourhood a tournament, every in-neighbourhood acyclic."""
    arcset = set(arcs)
    g = O.nx_digraph(n, arcs)
    for v in range(n):
        outs = list(g.successors(v))
        if any((a, b) not in arcset and (b, a) not in arcset for a in outs for b in outs if a < b):
            return False
        if not O.nx.is_directed_acyclic_graph(g.subgraph(g.predecessors(v))):
            return False
    return True


def _round(op, code, rep, ans, n, arcs):
    expect = _local_in_round(n, arcs)
    if rep["in_round"] != expect:
        return f"in_round {rep['in_round']} != {expect}"
    if expect:
        return _need(sorted(rep["order"]) == list(range(n)) and
                     _in_round_order_ok(arcs, rep["order"]), "order is not an in-round order")
    return None


def _hubs(op, code, rep, ans, n, arcs):
    parts = [set(p) for p in rep["hubs"]]
    if sorted(v for p in parts for v in p) != list(range(n)):
        return "hubs do not partition the vertices"
    g = O.nx_digraph(n, arcs)
    for p in parts:
        if len(p) > 1 and not (O.nx.is_strongly_connected(g.subgraph(p)) and any(
                p <= set(g.predecessors(x)) for x in range(n) if x not in p)):
            return "a hub is not strong or not in-dominated"
    owner = {v: i for i, p in enumerate(parts) for v in p}
    quotient = sorted({(owner[u], owner[v]) for u, v in arcs if owner[u] != owner[v]})
    if sorted(map(tuple, rep["quotient_arcs"])) != quotient:
        return "quotient arcs are not the contraction"
    return _need(sorted(rep["order"]) == list(range(len(parts))) and
                 _in_round_order_ok(quotient, rep["order"]), "quotient order not in-round")


def _dicolour2(op, code, rep, ans, n, arcs):
    cols, tt = rep["colouring"], op["params"]["vertices"]
    return _need(O.is_dicolouring(n, arcs, cols, 2) and len({cols[v] for v in tt}) <= 1,
                 "not a 2-dicolouring with the tournament monochromatic")


def _semicomplete(arcset, s):
    return all((a, b) in arcset or (b, a) in arcset for a in s for b in s if a < b)


def _structure(op, code, rep, ans, n, arcs):
    arcset = set(arcs)
    if rep["case"] == "UniversalVertex":
        x = rep["vertex"]
        return _need(all((x, v) in arcset and (v, x) in arcset for v in range(n) if v != x),
                     "vertex is not universal")
    if rep["case"] == "RoundBlowup":
        parts = [set(p) for p in rep["parts"]]
        if sorted(v for p in parts for v in p) != list(range(n)):
            return "parts do not partition the vertices"
        if any(not _semicomplete(arcset, p) for p in parts):
            return "a part is not semicomplete"
        owner = {v: i for i, p in enumerate(parts) for v in p}
        # between two parts either every arc goes one way or there is none
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                if i < j:
                    fwd = [(a, b) in arcset for a in p for b in q]
                    bwd = [(b, a) in arcset for a in p for b in q]
                    if not ((all(fwd) and not any(bwd)) or (all(bwd) and not any(fwd))
                            or not (any(fwd) or any(bwd))):
                        return "parts are not joined uniformly"
        quotient = sorted({(owner[u], owner[v]) for u, v in arcs if owner[u] != owner[v]})
        order = rep["order"]
        pos = {v: i for i, v in enumerate(order)}
        m = len(order)
        for x, y in quotient:  # round: every z between x and y is seen by x and sees y
            i = (pos[x] + 1) % m
            while i != pos[y]:
                z = order[i]
                if (z, y) not in quotient or (x, z) not in quotient:
                    return "quotient order is not round"
                i = (i + 1) % m
        return None
    sets = rep["sets"]
    return _need(sorted(v for s in sets.values() for v in s) == list(range(n)),
                 "four sets do not partition the vertices")


def _king(op, code, rep, ans, n, arcs):
    want = O.least_two_king(n, arcs)
    return _need(rep["king"] == want, f"king {rep['king']} != {want}")


def _free(op, code, rep, ans, n, arcs):
    pattern = G.patterns()[op["params"]["pattern"]]
    if rep["free"] == ans["contains"]:
        return f"free {rep['free']} but the oracle says contains = {ans['contains']}"
    if rep["free"]:
        return _need(code == 0, "free verdict must exit 0")
    return _need(code == 1 and O.is_induced_embedding((n, arcs), pattern, rep["embedding"]),
                 "embedding is not an induced copy of the pattern")


def _gen(op, code, rep, ans, n, pairs):
    name, args = op["argv"][1], op["argv"][2:]

    def arg(flag):
        return int(args[args.index(flag) + 1])

    kind, gn, got = G.parse_text(rep["graph"])
    if gn != rep["n"]:
        return "n does not match the graph"
    if name == "shannon":
        return _need(kind == "multigraph" and sorted(got) == sorted(G.shannon(arg("--k"))[1]),
                     "not the Shannon multigraph")
    if name == "wheel":
        return _need(kind == "digraph" and _is_wheel(json.loads(args[1]), gn, got),
                     "not the generalized wheel")
    want = {"fk": lambda: G.fk(arg("--l"), arg("--k")), "ds": lambda: G.ds(arg("--s")),
            "c122": lambda: G.c122(arg("--k"))}.get(name)
    d = (gn, got)
    if want is not None:
        w = want()
        if not O.nx.is_isomorphic(O.nx_digraph(*w), O.nx_digraph(*d)):
            return f"{name} output is not the construction"
    claimed = {"fk": lambda: arg("--k"), "c122": lambda: arg("--k"),
               "herofree": lambda: arg("--k")}.get(name)
    if claimed is not None and rep["claimed_chi"] != claimed():
        return "claimed chi is not the closed form"
    if name == "herofree" and gn <= O.IE_MAX_N and O.chi(gn, got) != arg("--k"):
        return "herofree output does not need k colours"
    for p in rep["forbidden"]:
        if O.contains_induced(d, G.patterns()[p]):
            return f"generated digraph contains {p}"
    if "--verify" in args:
        ver = rep["verification"]
        if "chi" in ver and (ver["chi"] != rep["claimed_chi"] or not ver["chi_ok"]):
            return "verification chi differs from the closed form"
        if "free" in ver and not all(ver["free"].values()):
            return "verification reports a forbidden pattern"
    return None


def _is_wheel(children, n, arcs):
    want, leaves, stack = set(), [], [0]
    while stack:
        v = stack.pop()
        if not children[v]:
            leaves.append(v)
        for c in children[v]:
            want |= {(v, c), (c, v)}
        stack += reversed(children[v])
    want |= {(leaves[i], leaves[(i + 1) % len(leaves)]) for i in range(len(leaves))}
    return n == len(children) and set(arcs) == want


def _defective(op, code, rep, ans, n, edges):
    d = int(op["argv"][op["argv"].index("--d") + 1])
    k = rep["colours"]
    if not O.edge_defects_ok(n, edges, rep["colouring"], d) or max(rep["colouring"]) > k:
        return "edge colouring exceeds the defect or the colour count"
    degree = max((sum(1 for e in edges if v in e) for v in range(n)), default=0)
    if k < math.ceil(degree / d):
        return "fewer colours than the degree bound allows"
    if "--exact" not in op["argv"]:
        return None
    if "closed_form" in op["params"]:
        sk, sd = op["params"]["closed_form"]
        want = O.shannon_defective_index(sk, sd)
    else:
        want = ans["index"]
    return _need(k == want, f"index {k} != {want}")


def _gadget(op, code, rep, ans, n, pairs):
    kind, gn, got = G.parse_text(rep["graph"])
    k = op["params"]["k"]
    if op["argv"][1] == "deltamin":
        want = set()
        for u in range(n):
            base = u * (k + 1)
            inner = [base + 1 + i for i in range(1, k)]
            for grp in ([base] + inner, [base + 1] + inner):
                want |= {(a, b) for a in grp for b in grp if a != b}
            want.add((base, base + 1))
        want |= {(u * (k + 1) + 1, v * (k + 1)) for u, v in pairs}
        return _need(kind == "digraph" and gn == n * (k + 1) and set(got) == want,
                     "not the min-degree gadget")
    d = op["params"]["d"]
    deg = [0] * gn
    for u, v in got:
        deg[u] += 1
        deg[v] += 1
    tower = (d + 1) * 2 ** (k - 1)
    simple = len(set(got)) == len(got)
    base_kept = sorted(e for e in got if e[1] < n) == sorted(pairs)
    return _need(kind == "multigraph" and simple and base_kept and set(deg) == {k * d}
                 and gn == n + n * (k * (d - 1) // 2) * tower,
                 "gadget is not a kd-regular simple host around the base graph")


CHECKS = {"chi": _chi, "lambda": _lambda, "extremal": _extremal, "brooks": _brooks,
          "verify": _verify, "round": _round, "hubs": _hubs, "dicolour2": _dicolour2,
          "structure": _structure, "king": _king, "free": _free, "gen": _gen,
          "defective": _defective, "gadget": _gadget}
