"""Graph constructions for the benchmark corpora, written apart from dichroma.

A digraph is ``(n, arcs)`` with ``arcs`` a sorted list of ``(u, v)`` pairs;
a multigraph is ``(n, edges)`` with one ``(u, v)`` pair, ``u < v``, per edge
copy.  Nothing here imports dichroma: the corpora and the oracles must not
share code with the program they check.
"""

from __future__ import annotations

import itertools
import random


def digraph(n, arcs):
    return n, sorted(set(arcs))


def sym_complete(n):
    return digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def transitive_tournament(n):
    return digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def dicycle(n):
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


def sym_cycle(n):
    return digraph(n, [a for i in range(n) for a in ((i, (i + 1) % n), ((i + 1) % n, i))])


def random_tournament(n, rng):
    return digraph(n, [(i, j) if rng.random() < 0.5 else (j, i)
                       for i in range(n) for j in range(i + 1, n)])


def random_digraph(n, p_arc, p_digon, rng):
    """Each pair is a digon with probability p_digon, else one arc of a
    random direction with probability p_arc."""
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < p_digon:
                arcs += [(i, j), (j, i)]
            elif r < p_digon + p_arc:
                arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return digraph(n, arcs)


def disjoint_union(parts):
    arcs, off = [], 0
    for n, a in parts:
        arcs += [(u + off, v + off) for u, v in a]
        off += n
    return off, arcs


def acyclic_chain(parts, rng, links=3):
    """Disjoint union with a few arcs from each part to the next only, so
    every part stays a separate strong component."""
    n, arcs = disjoint_union(parts)
    offs = list(itertools.accumulate([0] + [p[0] for p in parts]))
    for i in range(len(parts) - 1):
        for _ in range(links):
            u = offs[i] + rng.randrange(parts[i][0])
            v = offs[i + 1] + rng.randrange(parts[i + 1][0])
            arcs.append((u, v))
    return digraph(n, arcs)


def compose_circular(parts):
    """Union of the parts plus every arc from each part to the next one
    around a cycle of parts."""
    n, arcs = disjoint_union(parts)
    offs = list(itertools.accumulate([0] + [p[0] for p in parts]))
    for i in range(len(parts)):
        j = (i + 1) % len(parts)
        arcs += [(offs[i] + u, offs[j] + v)
                 for u in range(parts[i][0]) for v in range(parts[j][0])]
    return digraph(n, arcs)


def fk(ell, k):
    """Layer k of the circular-composition family; needs exactly k colours."""
    d = transitive_tournament(1)
    for _ in range(k - 1):
        d = compose_circular([transitive_tournament(1)] + [d] * (ell - 1))
    return d


def c122(k):
    """Chordal orientation needing exactly k colours: a transitive
    tournament on k vertices with a copy of level k-1 welded behind every
    arc u->v (dominated by v, dominating u)."""
    arcs = []

    def build(level, base):
        if level == 1:
            return 1
        for i in range(level):
            for j in range(i + 1, level):
                arcs.append((base + i, base + j))
        nxt = base + level
        for i in range(level):
            for j in range(i + 1, level):
                size = build(level - 1, nxt)
                for y in range(nxt, nxt + size):
                    arcs.extend([(base + j, y), (y, base + i)])
                nxt += size
        return nxt - base

    return digraph(build(k, 0), arcs)


def ds(s):
    """Oriented complete multipartite digraph on the 3-subsets of 0..s-1,
    parts given by the middle element."""
    triples = list(itertools.combinations(range(s), 3))
    arcs = []
    for a, t1 in enumerate(triples):
        for b, t2 in enumerate(triples):
            if t1[1] < t2[1]:
                forward = (t1[1], t1[2]) == (t2[0], t2[1])
                arcs.append((a, b) if forward else (b, a))
    return digraph(len(triples), arcs)


def patterns():
    """The named forbidden patterns, by their definitions."""
    tt = transitive_tournament
    return {
        "c3": dicycle(3),
        "tt3": tt(3),
        "c3_1_2_2": compose_circular([tt(1), tt(2), tt(2)]),
        "c3_1_2_3": compose_circular([tt(1), tt(2), tt(3)]),
        "c3_1_2_c3": compose_circular([tt(1), tt(2), dicycle(3)]),
        "c3_1_1_2": compose_circular([tt(1), tt(1), tt(2)]),
        "c3_to_k1": digraph(4, dicycle(3)[1] + [(i, 3) for i in range(3)]),
        "k1_to_c3": digraph(4, [(u + 1, v + 1) for u, v in dicycle(3)[1]] + [(0, i) for i in (1, 2, 3)]),
    }


# -- joins of symmetric complete digraphs ------------------------------------


def directed_join(d1, arc1, d2, arc2):
    """Directed Hajos join: drop u->v1 from d1 and v2->w from d2, identify
    v1 with v2 and add u->w.  d2's other vertices follow d1's."""
    (n1, a1), (n2, a2) = d1, d2
    (u, v1), (v2, w) = arc1, arc2
    label, nxt = {v2: v1}, n1
    for x in range(n2):
        if x not in label:
            label[x] = nxt
            nxt += 1
    arcs = [a for a in a1 if a != arc1]
    arcs += [(label[x], label[y]) for x, y in a2 if (x, y) != arc2]
    arcs.append((u, label[w]))
    return digraph(n1 + n2 - 1, arcs)


def directed_join_tree(count, k, rng):
    """`count` copies of the symmetric K_{k+1}, each joined by a directed
    Hajos join at a random arc onto the digraph built so far."""
    d = sym_complete(k + 1)
    for _ in range(count - 1):
        d = directed_join(d, rng.choice(d[1]), sym_complete(k + 1),
                          rng.choice(sym_complete(k + 1)[1]))
    return d


def random_tree(edges, rng):
    """Random labelled tree on edges+1 vertices as a list of (parent, child)."""
    return [(rng.randrange(c), c) for c in range(1, edges + 1)]


def plane_leaf_order(tree):
    """Leaves in depth-first order from vertex 0: the order of a plane
    embedding of the tree."""
    kids = {}
    for p, c in tree:
        kids.setdefault(p, []).append(c)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        if v not in kids:
            order.append(v)
        stack += reversed(kids.get(v, []))
    if 0 in kids and len(kids[0]) == 1:
        order.insert(0, 0)
    return order


def tree_join(tree, k, order):
    """Hajos tree join: a symmetric K_{k+1} on every tree edge (the two tree
    vertices plus k-1 fresh ones), the tree-edge digons removed, and the
    peripheral dicycle order[0] -> order[1] -> ... -> order[0] added."""
    n = len(tree) + 1
    arcs = []
    for u, v in tree:
        part = [u, v] + list(range(n, n + k - 1))
        n += k - 1
        arcs += [(a, b) for a in part for b in part if a != b and {a, b} != {u, v}]
    arcs += [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]
    return digraph(n, arcs)




def dicycle_union(n, count, rng):
    """Union of `count` Hamiltonian dicycles with pairwise disjoint arc sets."""
    arcs = set()
    while len(arcs) < count * n:
        perm = list(range(n))
        rng.shuffle(perm)
        cyc = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
        if not cyc & arcs and not {(b, a) for a, b in cyc} & arcs:
            arcs |= cyc
    return digraph(n, arcs)


# -- local structure ---------------------------------------------------------


def in_round(n, rng):
    """Strong in-round oriented graph: each vertex's in-neighbourhood is a
    cyclic interval just before it, shorter than n/2."""
    top = max(1, (n + 1) // 2 - 1)
    arcs = []
    for v in range(n):
        arcs += [((v - s) % n, v) for s in range(1, rng.randint(1, top) + 1)]
    return digraph(n, arcs)


def round_local_tournament(n, width):
    """Round local tournament: each vertex dominates the next `width`."""
    return digraph(n, [(v, (v + s) % n) for v in range(n) for s in range(1, width + 1)])


def lot_instance(parts_count, rng):
    """Strong locally out-transitive oriented graph: an in-round quotient
    whose vertices become single vertices, dicycles or in-round parts, with
    every arc into a part landing on one transitive entry set."""
    q = in_round(parts_count, rng)
    parts, entries = [], []
    for _ in range(parts_count):
        r = rng.random()
        if r < 0.5:
            parts.append((1, []))
            entries.append([0])
        elif r < 0.8:
            parts.append(dicycle(3))
            entries.append([0] if rng.random() < 0.5 else [0, 1])
        else:
            sub = in_round(rng.randint(3, 5), rng)
            parts.append(sub)
            outs = sorted(v for u, v in sub[1] if u == 0)
            entries.append([0] + outs if rng.random() < 0.5 else [0])
    n, arcs = disjoint_union(parts)
    offs = list(itertools.accumulate([0] + [p[0] for p in parts]))
    for g, h in q[1]:
        arcs += [(offs[g] + u, offs[h] + t) for u in range(parts[g][0]) for t in entries[h]]
    return digraph(n, arcs)


def round_blowup(widths, part_sizes, rng):
    """Locally semicomplete digraph: a round local tournament whose vertices
    are replaced by strong tournaments (or single vertices)."""
    m = len(part_sizes)
    q = round_local_tournament(m, widths)
    parts = []
    for s in part_sizes:
        if s == 1:
            parts.append((1, []))
        else:
            while True:
                t = random_tournament(s, rng)
                if is_strong(t):
                    break
            parts.append(t)
    n, arcs = disjoint_union(parts)
    offs = list(itertools.accumulate([0] + [p[0] for p in parts]))
    for g, h in q[1]:
        arcs += [(offs[g] + u, offs[h] + v) for u in range(parts[g][0]) for v in range(parts[h][0])]
    return digraph(n, arcs)


def is_strong(d):
    n, arcs = d
    if n <= 1:
        return True
    out, inn = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        inn[v].append(u)
    for nbrs in (out, inn):
        seen, stack = {0}, [0]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            return False
    return True


# -- multigraphs -------------------------------------------------------------


def shannon(k):
    """Three vertices joined by floor(k/2), floor(k/2) and ceil(k/2) edges."""
    lo, hi = k // 2, (k + 1) // 2
    return 3, [(1, 2)] * hi + [(0, 1)] * lo + [(0, 2)] * lo


def random_multigraph(n, m, rng):
    edges = []
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v)))
    return n, sorted(edges)


def random_regular_simple(n, deg, rng):
    """Random deg-regular simple graph by the configuration model with
    rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(deg)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == n * deg // 2:
            return n, sorted(edges)


# -- relabelling and files ---------------------------------------------------


def permutation(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return p


def relabel(arcs, perm):
    return sorted((perm[u], perm[v]) for u, v in arcs)




def digraph_text(d):
    n, arcs = d
    return "".join([f"digraph {n}\n"] + [f"{u} {v}\n" for u, v in arcs])


def multigraph_text(g):
    n, edges = g
    return "".join([f"multigraph {n}\n"] + [f"{u} {v}\n" for u, v in edges])


def parse_text(text):
    """Parse a graph file body (the format dichroma reads) into
    (kind, n, pairs)."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    kind, n = rows[0][0], int(rows[0][1])
    return kind, n, [(int(a), int(b)) for a, b in rows[1:]]


def rng_for(*key):
    """A random generator seeded from a tuple of values, stable across runs."""
    return random.Random(repr(key))
