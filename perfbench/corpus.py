"""The three workload corpora.

Every operation is one dichroma command line on at most one graph file.  The
isomorphism classes of the graphs are fixed by BASE_SEED, so the answers of
the costly oracles can be stored (answers.json, rebuilt by answers.py).  The
benchmark's --seed then draws the order of the operations and a vertex
relabelling of the graphs whose search order does not follow their labels;
dichroma sees only the written files.  Every chi-exact graph, the
lambda-extremal joins, the constructions whose answer is known by theorem and
the operations that fail because of known faults keep their labels and do not
depend on the seed.
"""

from __future__ import annotations

import json
import os

import graphs as G

BASE_SEED = 20230717


def _op(op_id, argv, graph=None, check=None, fixed=False, fault=None, **params):
    """argv uses "{file}" where the graph file goes; graph is
    ("digraph"|"multigraph", n, pairs) on canonical labels."""
    return {"id": op_id, "argv": argv, "graph": graph, "check": check or argv[0],
            "fixed": fixed, "fault": fault, "params": params}


def _d(d):
    return ("digraph", d[0], d[1])


def _m(g):
    return ("multigraph", g[0], g[1])


# -- chi-exact ---------------------------------------------------------------


def chi_exact():
    rng = G.rng_for(BASE_SEED, "chi-exact")
    ops = []
    # Every chi-exact graph keeps its labels on every seed, so the seed draws
    # only the order of the calls: relabelling one input moves the branch and
    # bound's time up to twentyfold (a digon digraph took 53-300 ms over
    # eight seeds), and with the inputs relabelled the seed, not the program,
    # set the spread of lat_p90_ms.
    for i in range(60):
        n = 18 + i % 3
        ops.append(_op(f"tournament-{n}-{i}", ["chi", "{file}"], _d(G.random_tournament(n, rng)),
                       fixed=True))
    for i in range(40):
        n = 18 + i % 5
        ops.append(_op(f"digons-{n}-{i}", ["chi", "{file}"], _d(G.random_digraph(n, 0.55, 0.2, rng)),
                       fixed=True))
    for i in range(40):
        parts = []
        for _ in range(2 + i % 3):
            size = rng.randint(8, 14)
            parts.append(G.random_tournament(size, rng) if rng.random() < 0.6
                         else G.random_digraph(size, 0.5, 0.25, rng))
        ops.append(_op(f"components-{i}", ["chi", "{file}"], _d(G.acyclic_chain(parts, rng)),
                       fixed=True))
    theorem = [("fk-3-3", G.fk(3, 3), 3), ("fk-3-4", G.fk(3, 4), 4), ("fk-4-3", G.fk(4, 3), 3),
               ("c122-2", G.c122(2), 2), ("c122-3", G.c122(3), 3)]
    for m in range(2, 8):
        theorem.append((f"hajos-k4-{m}", G.directed_join_tree(m, 3, rng), 4))
    for name, d, chi in theorem:
        ops.append(_op(name, ["chi", "{file}"], _d(d), fixed=True, known_chi=chi))
    return ops


# -- lambda-extremal ---------------------------------------------------------


def _double_star_crossed(left, right, k):
    """Tree join over two adjacent centres with `left` and `right` leaves,
    the peripheral dicycle alternating between the two sides: no plane
    embedding has this leaf order."""
    tree = [(0, 1)] + [(0, 2 + i) for i in range(left)] + [(1, 2 + left + i) for i in range(right)]
    a, b = list(range(2, 2 + left)), list(range(2 + left, 2 + left + right))
    order = [x for pair in zip(a, b) for x in pair] + a[len(b):] + b[len(a):]
    return G.tree_join(tree, k, order)


def lambda_extremal():
    rng = G.rng_for(BASE_SEED, "lambda-extremal")
    eulerian = []  # (name, digraph, k)
    for count in range(2, 11):
        eulerian.append((f"djoin-k3-{count}", G.directed_join_tree(count, 3, rng), 3))
    for count in range(2, 7):
        eulerian.append((f"djoin-k4-{count}", G.directed_join_tree(count, 4, rng), 4))
    for i in range(24):
        edges = 2 + i % 6
        tree = G.random_tree(edges, rng)
        eulerian.append((f"tree-k3-{i}", G.tree_join(tree, 3, G.plane_leaf_order(tree)), 3))
    for i in range(5):
        tree = G.random_tree(2 + i % 3, rng)
        eulerian.append((f"tree-k4-{i}", G.tree_join(tree, 4, G.plane_leaf_order(tree)), 4))
    for rim in range(2, 6):
        star = [(0, r) for r in range(1, rim + 1)]
        eulerian.append((f"star-k3-{rim}", G.tree_join(star, 3, list(range(1, rim + 1))), 3))
    for length in range(2, 6):
        path = [(i, i + 1) for i in range(length)]
        eulerian.append((f"parallel-k3-{length}", G.tree_join(path, 3, [0, length]), 3))
    for left, right in ((2, 2), (2, 3), (3, 3), (3, 4)):
        eulerian.append((f"crossed-k3-{left}-{right}", _double_star_crossed(left, right, 3), 3))
    for i in range(6):
        n = 10 + 2 * i
        eulerian.append((f"dicycles-{n}", G.dicycle_union(n, 3, rng), 3))
    chain = G.directed_join_tree(16, 3, G.rng_for(BASE_SEED, "djoin-k3-16"))
    eulerian.append(("djoin-k3-16", chain, 3))  # n = 49
    # The joins keep their labels on every seed: the recognizer's search
    # order follows the labels, and relabelling one join moved its
    # `extremal` time up to ninefold (djoin-k3-16: 70-570 ms over eight
    # seeds).  The dicycle unions and the random digraphs are relabelled.
    ops = []
    for name, d, k in eulerian:
        fixed = not name.startswith("dicycles")
        ops.append(_op(f"{name}/lambda", ["lambda", "{file}"], _d(d), fixed=fixed))
        ops.append(_op(f"{name}/extremal", ["extremal", "--k", str(k), "{file}"], _d(d),
                       fixed=fixed, k=k))
    for i in range(16):
        n = 30 + (i * 6) // 16
        ops.append(_op(f"random-{n}-{i}/lambda", ["lambda", "{file}"],
                       _d(G.random_digraph(n, 0.13, 0.0, rng))))
    return ops


# -- cli-batch ---------------------------------------------------------------


def _greedy_acyclic_colouring(d, rng):
    """A valid dicolouring: random order, first class that stays acyclic."""
    n, arcs = d
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    classes, colour = [], [0] * n

    def acyclic(s):
        while s:
            t = s
            for v in range(n):
                if s >> v & 1 and out[v] & s == 0:
                    s &= ~(1 << v)
            if s == t:
                return False
        return True

    for v in G.permutation(n, rng):
        for c, cls in enumerate(classes):
            if acyclic(cls | 1 << v):
                classes[c] |= 1 << v
                colour[v] = c + 1
                break
        else:
            classes.append(1 << v)
            colour[v] = len(classes)
    return colour


def cli_batch():
    rng = G.rng_for(BASE_SEED, "cli-batch")
    ops = []
    # brooks: random digraphs and every tight family
    for i in range(40):
        n = 8 + i % 20
        ops.append(_op(f"brooks-random-{i}", ["brooks", "{file}"],
                       _d(G.random_digraph(n, 0.25, 0.08, rng))))
    for name, d in [("c5", G.sym_cycle(5)), ("c7", G.sym_cycle(7)), ("dicycle", G.dicycle(9)),
                    ("k4", G.sym_complete(4)), ("k5", G.sym_complete(5)),
                    ("mixed", G.digraph(*G.disjoint_union([G.sym_complete(4), G.sym_cycle(5), G.dicycle(4)])))]:
        ops.append(_op(f"brooks-{name}", ["brooks", "{file}"], _d(d)))
    # verify: valid and invalid dicolourings, and edge colourings
    for i in range(40):
        d = G.random_digraph(10 + i % 20, 0.3, 0.1, rng)
        cols = _greedy_acyclic_colouring(d, rng)
        if i % 2:
            cols = [1 + rng.randrange(max(1, max(cols) - 1)) for _ in cols]
        ops.append(_op(f"verify-{i}", ["verify", "--colours", "{colours}", "{file}"], _d(d),
                       colours=cols))
    for i in range(16):
        g = G.random_multigraph(6 + i % 5, 12 + i, rng)
        cols = [1 + rng.randrange(3) for _ in g[1]]
        ops.append(_op(f"verify-edges-{i}", ["verify", "--d", str(1 + i % 3), "--colours",
                                             "{colours}", "{file}"], _m(g), colours=cols))
    # local structure
    for i in range(24):
        d = G.in_round(6 + i % 12, rng)
        ops.append(_op(f"round-inround-{i}", ["round", "{file}"], _d(d)))
    for i in range(12):
        while True:
            d = G.random_tournament(5 + i % 5, rng)
            if G.is_strong(d):
                break
        ops.append(_op(f"round-tournament-{i}", ["round", "{file}"], _d(d)))
    for i in range(24):
        ops.append(_op(f"hubs-{i}", ["hubs", "{file}"], _d(G.lot_instance(3 + i % 5, rng))))
    for i in range(24):
        d = G.lot_instance(3 + i % 5, rng)
        x = rng.randrange(d[0])
        tt = [x] + sorted(v for u, v in d[1] if u == x)
        ops.append(_op(f"dicolour2-{i}", ["dicolour2", "--tt", "{vertices}", "{file}"], _d(d),
                       vertices=tt))
    for i in range(20):
        parts = [rng.choice([1, 1, 3, 4]) for _ in range(5 + i % 4)]
        ops.append(_op(f"structure-blowup-{i}", ["structure", "{file}"],
                       _d(G.round_blowup(2, parts, rng))))
    for n in (3, 4, 6):
        ops.append(_op(f"structure-complete-{n}", ["structure", "{file}"], _d(G.sym_complete(n))))
    for i in range(30):
        d = G.random_tournament(8 + i % 20, rng) if i % 3 else G.random_digraph(12, 0.3, 0.05, rng)
        ops.append(_op(f"king-{i}", ["king", "{file}"], _d(d)))
    # free: every named pattern on random and generated hosts
    names = sorted(G.patterns())
    for i in range(48):
        host = G.random_digraph(9 + i % 6, 0.35 + 0.1 * (i % 3), 0.1 * (i % 2), rng)
        ops.append(_op(f"free-random-{i}", ["free", "--pattern-name", names[i % len(names)],
                                            "{file}"], _d(host), pattern=names[i % len(names)]))
    for host_name, host, pats in [("ds5", G.ds(5), ["c3_1_2_c3", "c3_1_2_3", "c3"]),
                                  ("ds6", G.ds(6), ["c3_1_2_c3", "c3_1_2_3"]),
                                  ("c122-3", G.c122(3), ["c3_1_2_2", "tt3"]),
                                  ("fk-3-3", G.fk(3, 3), names),
                                  ("tt8", G.transitive_tournament(8), ["c3", "tt3"])]:
        for p in pats:
            ops.append(_op(f"free-{host_name}-{p}", ["free", "--pattern-name", p, "{file}"],
                           _d(host), pattern=p))
    # generators (no input file)
    gens = [["fk", "--l", "3", "--k", "3", "--verify"], ["fk", "--l", "3", "--k", "2"],
            ["fk", "--l", "4", "--k", "3"], ["ds", "--s", "5", "--verify"], ["ds", "--s", "6"],
            ["c122", "--k", "2", "--verify"], ["c122", "--k", "3", "--verify"],
            ["herofree", "--k", "1"], ["herofree", "--k", "2", "--verify"]]
    gens += [["shannon", "--k", str(k)] for k in range(1, 13)]
    wheels = [[[1, 2], [], []], [[1, 2, 3], [], [], []], [[1, 2], [3, 4], [5, 6], [], [], [], []],
              [[1, 2, 3], [4], [5], [6], [], [], []]]
    for g in gens:
        ops.append(_op("gen-" + "-".join(g).replace("--", ""), ["gen"] + g, check="gen"))
    for i, w in enumerate(wheels):
        ops.append(_op(f"gen-wheel-{i}", ["gen", "wheel", "--children", json.dumps(w)],
                       check="gen"))
    # defective edge colouring
    for k in range(2, 13):
        for d in (1, 3, 5):
            if not (k >= 11 and d == 3):
                ops.append(_op(f"defective-shannon-{k}-{d}-exact", ["defective", "--d", str(d),
                               "--exact", "{file}"], _m(G.shannon(k)), closed_form=[k, d]))
            ops.append(_op(f"defective-shannon-{k}-{d}", ["defective", "--d", str(d), "{file}"],
                           _m(G.shannon(k))))
    for i in range(24):
        g = G.random_multigraph(4 + i % 3, 6 + i % 5, rng)
        d = 1 + i % 3
        ops.append(_op(f"defective-random-{i}-exact", ["defective", "--d", str(d), "--exact",
                                                        "{file}"], _m(g)))
        ops.append(_op(f"defective-random-{i}", ["defective", "--d", str(d), "{file}"], _m(g)))
    for i in range(12):
        g = G.random_regular_simple(6 + 2 * (i % 4), 3 + i % 3, rng) if i % 2 else \
            G.random_multigraph(8, 14, rng)
        if i % 2 == 0:
            g = (g[0], sorted(set(g[1])))
        ops.append(_op(f"defective-simple-{i}", ["defective", "--d", str(1 + i % 3), "--simple",
                                                  "{file}"], _m(g)))
    # gadgets
    for i in range(12):
        d = G.random_digraph(3 + i % 4, 0.5, 0.2, rng)
        ops.append(_op(f"gadget-deltamin-{i}", ["gadget", "deltamin", "--k", str(2 + i % 2),
                                                "{file}"], _d(d), k=2 + i % 2))
    for i, n in enumerate((4, 6, 8, 4)):
        ops.append(_op(f"gadget-defective-{i}", ["gadget", "defective", "--k", "3", "--d", "3",
                                                 "{file}"], _m(G.random_regular_simple(n, 3, rng)),
                       k=3, d=3))
    # operations that fail because of known faults; their inputs are fixed
    ops.append(_op("fault-verify-colour-0", ["verify", "--colours", "0,0,0", "{file}"],
                   _d(G.dicycle(3)), check="verify", fixed=True, colours=[0, 0, 0],
                   fault="colour 0 is accepted as a valid class"))
    frng = G.rng_for(BASE_SEED, "fault-budget")
    k5_tournament = G.digraph(*G.disjoint_union([G.sym_complete(5), G.random_tournament(14, frng)]))
    ops.append(_op("fault-budget-0-bounds", ["--budget", "0", "chi", "{file}"], _d(k5_tournament),
                   check="chi", fixed=True, fault="budget bounds come from one component"))
    ops.append(_op("fault-verify-bad-colour", ["verify", "--colours", "1,x,1", "{file}"],
                   _d(G.dicycle(3)), check="usage_error", fixed=True,
                   fault="a non-integer colour raises ValueError"))
    return ops


WORKLOADS = {"chi-exact": chi_exact, "lambda-extremal": lambda_extremal, "cli-batch": cli_batch}


def instantiate(workload, seed, root, out_dir):
    """Relabel the workload's graphs for `seed`, write them under out_dir and
    return the operations in the seed's order, each with its final argv and
    its graph on the written labels ("inst")."""
    ops = WORKLOADS[workload]()
    os.makedirs(out_dir, exist_ok=True)
    for op in ops:
        rng = G.rng_for(seed, workload, op["id"])
        params = dict(op["params"])
        argv = list(op["argv"])
        inst = op["graph"]
        if inst is not None:
            kind, n, pairs = inst
            perm = list(range(n)) if op["fixed"] else G.permutation(n, rng)
            if kind == "digraph":
                pairs = G.relabel(pairs, perm)
                text = G.digraph_text((n, pairs))
                if "vertices" in params:
                    params["vertices"] = sorted(perm[v] for v in params["vertices"])
                if "colours" in params and not op["fixed"]:
                    cols = [0] * n
                    for v, c in enumerate(params["colours"]):
                        cols[perm[v]] = c
                    params["colours"] = cols
            else:
                order = list(range(len(pairs))) if op["fixed"] else G.permutation(len(pairs), rng)
                moved = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pairs]
                pairs = [moved[i] for i in order]
                if "colours" in params:
                    params["colours"] = [params["colours"][i] for i in order]
                text = G.multigraph_text((n, pairs))
            inst = (kind, n, pairs)
            path = os.path.join(out_dir, op["id"].replace("/", "_") + ".txt")
            with open(path, "w") as fh:
                fh.write(text)
            rel = os.path.relpath(path, root)
            argv = [rel if a == "{file}" else a for a in argv]
        if "colours" in params and "{colours}" in argv:
            argv[argv.index("{colours}")] = ",".join(map(str, params["colours"]))
        if "vertices" in params:
            argv[argv.index("{vertices}")] = ",".join(map(str, params["vertices"]))
        op.update(argv=argv, inst=inst, params=params)
    G.rng_for(seed, workload, "order").shuffle(ops)
    return ops
