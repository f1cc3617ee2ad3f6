"""Oracles that decide the benchmark's answers without dichroma.

- Dichromatic number by inclusion-exclusion over acyclic vertex sets
  (Bjorklund, Husfeldt & Koivisto 2009, SIAM J. Comput. 39(2)): acyclic
  sets are closed under subsets, so D is k-dicolourable iff
  sum over X of (-1)^(n-|X|) a(X)^k > 0, where a(X) counts the acyclic
  subsets of X (a zeta transform).  The sum is taken modulo two primes
  near 2^31; a positive count divisible by both would be a ~2^-62
  coincidence.
- Local arc-connectivity by networkx maximum flow; on Eulerian digraphs by
  a Gomory-Hu tree of the underlying multigraph (lambda_D = lambda_G / 2).
- Induced-pattern search by the networkx DiGraphMatcher, acyclicity by
  networkx, and small exhaustive searches for the rest.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from networkx.algorithms import isomorphism

PRIMES = (2_147_483_629, 2_147_483_587)
IE_MAX_N = 23


def nx_digraph(n, arcs):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    return g


def strong_parts(n, arcs):
    return [sorted(c) for c in nx.strongly_connected_components(nx_digraph(n, arcs))]


def induced(arcs, vertices):
    """Arcs of the subdigraph induced by `vertices`, relabelled 0..len-1."""
    pos = {v: i for i, v in enumerate(vertices)}
    return [(pos[u], pos[v]) for u, v in arcs if u in pos and v in pos]


def _acyclic_table(n, arcs):
    """acyc[X] for every vertex set X, by repeatedly deleting all sinks."""
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    masks = np.arange(1 << n, dtype=np.int64)
    sinks = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        has_v = (masks >> v) & 1
        sinks |= (has_v & ((masks & out[v]) == 0)) << v
    nxt = masks & ~sinks  # X minus its sinks; a fixed point iff X has no sink
    del sinks
    for _ in range(n.bit_length()):
        nxt = nxt[nxt]
    return nxt == 0


def _zeta_and_sign(n, arcs):
    a = _acyclic_table(n, arcs).astype(np.int64)
    for i in range(n):
        view = a.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    odd = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        odd.reshape(-1, 2, 1 << i)[:, 1, :] ^= 1
    negative = (odd != (n % 2))  # n - |X| is odd
    return a, negative


def _covers(n, arcs):
    """Yield (k, covered) for k = 1, 2, ...: whether k acyclic sets cover V."""
    a, negative = _zeta_and_sign(n, arcs)
    bases = [a % p for p in PRIMES]
    powers = [b.copy() for b in bases]
    k = 1
    while True:
        sums = [int(pw[~negative].sum() - pw[negative].sum()) % p
                for pw, p in zip(powers, PRIMES)]
        yield k, any(sums)
        k += 1
        powers = [(pw * b) % p for pw, b, p in zip(powers, bases, PRIMES)]




def chi_component(n, arcs):
    if n > IE_MAX_N:
        raise ValueError(f"inclusion-exclusion limited to {IE_MAX_N} vertices")
    for k, covered in _covers(n, arcs):
        if covered:
            return k


def chi(n, arcs):
    """Dichromatic number: the maximum over strong components."""
    best = 1 if n else 0
    for comp in strong_parts(n, arcs):
        if len(comp) > 1:
            best = max(best, chi_component(len(comp), induced(arcs, comp)))
    return best






def is_dicolouring(n, arcs, colours, k):
    """Every vertex has a colour in 1..k and every class is acyclic."""
    if len(colours) != n or any(not (isinstance(c, int) and 1 <= c <= k) for c in colours):
        return False
    g = nx_digraph(n, arcs)
    return all(nx.is_directed_acyclic_graph(g.subgraph([v for v in range(n) if colours[v] == c]))
               for c in range(1, k + 1))




# -- arc-connectivity --------------------------------------------------------


def lambda_pair(n, arcs, u, v):
    g = nx_digraph(n, arcs)
    nx.set_edge_attributes(g, 1, "capacity")
    return nx.maximum_flow_value(g, u, v)


def is_eulerian(n, arcs):
    deg = [0] * n
    for u, v in arcs:
        deg[u] += 1
        deg[v] -= 1
    return not any(deg)


def lambda_max(n, arcs):
    """max over ordered pairs of lambda(u, v)."""
    if n < 2:
        return 0
    if is_eulerian(n, arcs):
        und = nx.Graph()
        und.add_nodes_from(range(n))
        for u, v in arcs:
            a, b = min(u, v), max(u, v)
            w = und.edges[a, b]["capacity"] + 1 if und.has_edge(a, b) else 1
            und.add_edge(a, b, capacity=w)
        best = 0
        for comp in nx.connected_components(und):
            if len(comp) > 1:
                tree = nx.gomory_hu_tree(und.subgraph(comp))
                best = max(best, max(w for _, _, w in tree.edges(data="weight")))
        return best // 2
    # lambda(u, v) <= min(d+(u), d-(v)): visit pairs by that bound, stop once
    # no remaining pair can beat the best flow found
    dout, din = [0] * n, [0] * n
    for u, v in arcs:
        dout[u] += 1
        din[v] += 1
    pairs = sorted(((min(dout[u], din[v]), u, v) for u in range(n) for v in range(n) if u != v),
                   reverse=True)
    g = nx_digraph(n, arcs)
    nx.set_edge_attributes(g, 1, "capacity")
    best = 0
    for bound, u, v in pairs:
        if bound <= best:
            break
        best = max(best, nx.maximum_flow_value(g, u, v))
    return best


# -- patterns, kings, certificates, edge colourings --------------------------


def contains_induced(host, pattern):
    """Does the host contain the pattern as an induced subdigraph?"""
    gm = isomorphism.DiGraphMatcher(nx_digraph(*host), nx_digraph(*pattern))
    return gm.subgraph_is_isomorphic()


def is_induced_embedding(host, pattern, mapping):
    (hn, harcs), (pn, parcs) = host, pattern
    if len(mapping) != pn or len(set(mapping)) != pn or any(not 0 <= x < hn for x in mapping):
        return False
    hset, pset = set(harcs), set(parcs)
    return all(((a, b) in pset) == ((mapping[a], mapping[b]) in hset)
               for a in range(pn) for b in range(pn) if a != b)


def least_two_king(n, arcs):
    out = [set() for _ in range(n)]
    for u, v in arcs:
        out[u].add(v)
    for v in range(n):
        reach = {v} | out[v]
        for w in out[v]:
            reach |= out[w]
        if len(reach) == n:
            return v
    return None


def replay_certificate(node):
    """Arc set of a decomposition certificate as emitted by `extremal`,
    rebuilt from the definitions of the base digraphs and joins."""
    kind, n, wit = node["kind"], node["n"], node["witness"]
    kids = [(replay_certificate(c["node"]), c["embed"]) for c in node["children"]]
    if kind == "BaseSymmetricComplete":
        return {(i, j) for i in range(n) for j in range(n) if i != j}
    if kind == "BaseDirectedCycle":
        cyc = wit["cycle"]
        return {(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
    if kind == "BaseSymmetricOddWheel":
        hub, rim = wit["hub"], wit["rim"]
        arcs = set()
        for i, r in enumerate(rim):
            s = rim[(i + 1) % len(rim)]
            arcs |= {(r, s), (s, r), (hub, r), (r, hub)}
        return arcs
    if kind == "DirectedHajosJoin":
        (a1, e1), (a2, e2) = kids
        u, v, w = wit["u"], wit["v"], wit["w"]
        left = {(e1[p], e1[q]) for p, q in a1} - {(u, v)}
        right = {(e2[p], e2[q]) for p, q in a2} - {(v, w)}
        return left | right | {(u, w)}
    if kind == "HajosStarJoin":
        y, rim = wit["centre"], wit["rim"]
        arcs = set()
        for (carcs, emb), p in zip(kids, rim):
            arcs |= {(emb[a], emb[b]) for a, b in carcs} - {(y, p), (p, y)}
        arcs |= {(p, rim[(i + 1) % len(rim)]) for i, p in enumerate(rim)}
        return arcs
    if kind == "ParallelHajosJoin":
        a, b = wit["a"], wit["b"]
        (ac_arcs, emb_ac), (b_arcs, emb_b) = kids
        a_side = set(wit["a_side_child"])
        arcs = {(emb_b[p], emb_b[q]) for p, q in b_arcs if {emb_b[p], emb_b[q]} != {a, b}}
        for p, q in ac_arcs:
            if emb_ac[p] == -1:
                arcs.add((a if q in a_side else b, emb_ac[q]))
            elif emb_ac[q] == -1:
                arcs.add((emb_ac[p], a if p in a_side else b))
            else:
                arcs.add((emb_ac[p], emb_ac[q]))
        return arcs
    raise ValueError(f"unknown certificate node {kind!r}")


def certificate_leaves_are_bases(node, k):
    """Every leaf is a base digraph of the k-extremal class."""
    if node["children"]:
        return all(certificate_leaves_are_bases(c["node"], k) for c in node["children"])
    if node["kind"] == "BaseSymmetricComplete":
        return node["n"] == k + 1
    if node["kind"] == "BaseSymmetricOddWheel":
        return k == 3
    return node["kind"] == "BaseDirectedCycle" and k == 1


def edge_defects_ok(n, edges, colours, d):
    """No vertex sees more than d edges of one colour."""
    if len(colours) != len(edges) or any(not (isinstance(c, int) and c >= 1) for c in colours):
        return False
    seen = {}
    for (u, v), c in zip(edges, colours):
        for x in (u, v):
            seen[(x, c)] = seen.get((x, c), 0) + 1
    return all(cnt <= d for cnt in seen.values())


def defective_index_brute(n, edges, d):
    """Least k with a d-defective k-edge-colouring, by backtracking."""
    if not edges:
        return 0
    m = len(edges)
    for k in range(1, m + 1):
        load = {}
        def place(i, used):
            if i == m:
                return True
            u, v = edges[i]
            for c in range(min(used + 1, k)):
                if load.get((u, c), 0) < d and load.get((v, c), 0) < d:
                    load[(u, c)] = load.get((u, c), 0) + 1
                    load[(v, c)] = load.get((v, c), 0) + 1
                    if place(i + 1, max(used, c + 1)):
                        return True
                    load[(u, c)] -= 1
                    load[(v, c)] -= 1
            return False
        if place(0, 0):
            return k
    return m


def shannon_defective_index(k, d):
    """Closed form for the Shannon multigraph and odd d."""
    return -(-(3 * k - 1) // (3 * d - 1))
