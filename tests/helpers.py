"""Independent brute-force oracles and small fixtures for the test suite.

Each oracle deliberately avoids the algorithm it checks: reachability
closure instead of lowpoint DFS, set-partition enumeration instead of
branch and bound, subset enumeration instead of flow, edge branching
instead of blossoms, trail backtracking instead of the tour construction.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from dichroma.core import (
    Budget,
    Digraph,
    Multigraph,
    build_digraph,
    build_multigraph,
    lexicographic,
)
from dichroma.errors import BadParameters
from dichroma.families import transitive_tournament


# --- adjacency read straight from the arc set ------------------------------


def out_sets(d: Digraph) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        out[u].add(v)
    return out


def in_sets(d: Digraph) -> list[set[int]]:
    inn: list[set[int]] = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        inn[v].add(u)
    return inn


# --- strong components by pairwise reachability ---------------------------


def reachability_scc(d: Digraph) -> list[frozenset[int]]:
    out = out_sets(d)
    reach = [set([v]) for v in range(d.n)]
    for v in range(d.n):
        stack = [v]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y not in reach[v]:
                    reach[v].add(y)
                    stack.append(y)
    comps = []
    seen = set()
    for v in range(d.n):
        if v in seen:
            continue
        comp = {w for w in reach[v] if v in reach[w]}
        seen |= comp
        comps.append(frozenset(comp))
    return comps


# --- blocks by cutvertex enumeration ---------------------------------------


def brute_blocks(d: Digraph) -> set[frozenset[int]]:
    """2-connected components as inclusion-maximal vertex sets inducing a
    connected cutvertex-free underlying subgraph with at least one edge."""
    und = [o | i for o, i in zip(out_sets(d), in_sets(d))]

    def induced_connected(s: set[int]) -> bool:
        start = next(iter(s))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in und[x] & s:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == s

    def two_connected(s: set[int]) -> bool:
        if len(s) < 2 or not induced_connected(s):
            return False
        if len(s) == 2:
            a, b = sorted(s)
            return b in und[a]
        return all(induced_connected(s - {v}) for v in s)

    cands = []
    for size in range(2, d.n + 1):
        for comb in itertools.combinations(range(d.n), size):
            s = set(comb)
            if two_connected(s):
                cands.append(frozenset(s))
    return {s for s in cands if not any(s < t for t in cands)}


# --- induced patterns and transitive subsets by plain backtracking ---------
# The searches heroes.py ran before its candidate bitsets: every host vertex
# is tried at every depth, and arcs are looked up pair by pair.


def backtrack_contains_induced(
    host: Digraph, pattern: Digraph, budget: int | None = 5_000_000
) -> tuple[int, ...] | None:
    """The lexicographically first induced embedding of pattern in host,
    or None.  One budget step is one unused host vertex tried."""
    if pattern.n > host.n:
        return None
    candidates = Budget(budget, "pattern search budget")
    mapping: list[int] = []
    used: set[int] = set()

    def compatible(pv: int, hv: int) -> bool:
        if host.d_plus(hv) < pattern.d_plus(pv) or host.d_minus(hv) < pattern.d_minus(pv):
            return False
        for pu, hu in enumerate(mapping):
            if ((pu, pv) in pattern.arcs) != ((hu, hv) in host.arcs):
                return False
            if ((pv, pu) in pattern.arcs) != ((hv, hu) in host.arcs):
                return False
        return True

    def search(pv: int) -> bool:
        if pv == pattern.n:
            return True
        for hv in range(host.n):
            if hv in used:
                continue
            candidates.tick()
            if compatible(pv, hv):
                mapping.append(hv)
                used.add(hv)
                if search(pv + 1):
                    return True
                used.remove(hv)
                mapping.pop()
        return False

    return tuple(mapping) if search(0) else None


def backtrack_transitive_subsets(d: Digraph) -> list[tuple[int, ...]]:
    """The vertex subsets inducing a transitive tournament, in DFS order
    over increasing vertex indices, each later vertex tested in turn."""
    out: list[tuple[int, ...]] = []
    succ = out_sets(d)

    def extend(s: tuple[int, ...], mask: int, start: int):
        out.append(s)
        for v in range(start, d.n):
            if mask & ~d.und_masks[v] == 0 and is_acyclic_subset(d, s + (v,), succ):
                extend(s + (v,), mask | 1 << v, v + 1)

    for v in range(d.n):
        extend((v,), 1 << v, v + 1)
    return out


# --- exact dicolouring search with per-vertex open-colour sets ------------
# The search colouring.py ran before its transposed open-colour bitsets and
# shut-colour buckets: each node re-scores every uncoloured vertex and
# forward-checks them one at a time.  Same tree, same steps.


def dsatur_feasible_k(d: Digraph, k: int, steps: Budget) -> list[int] | None:
    """Depth-first search for a k-dicolouring that branches on the most
    constrained vertex (DSATUR, Brelaz 1979): the uncoloured vertex with
    the fewest open colours among those a branch may try, then the one
    with the most neighbours, then the least index.  One step per search
    node; k is the value under test, so every smaller one was refuted and
    k bounds the component from below."""
    n = d.n
    out_masks = d.out_masks
    in_masks = d.in_masks
    minus_degree = [-m.bit_count() for m in d.und_masks]
    colour = [0] * n
    # Invariants at every node of the search, for each colour c:
    # - members[c] lists the vertices of class c, and reach[c][x] is the
    #   bitset of class-c vertices reachable from x inside class c (x
    #   included; 0 for x outside the class).  An insertion replaces the
    #   row reach[c] by an updated copy, so backtracking puts the old back;
    # - bit c of dom[w] is set iff the class c plus an uncoloured vertex w
    #   is acyclic.  Inserting v into c changes class c only, so it can
    #   clear bit c of dom and nothing else.
    members: list[list[int]] = [[] for _ in range(k + 1)]
    reach = [[0] * n for _ in range(k + 1)]
    dom = [(1 << (k + 1)) - 2] * n

    def dfs(rest: list[int], used: int) -> bool:
        if not rest:
            return True
        steps.tick(k)
        top = min(used + 1, k)
        t1 = (1 << (top + 1)) - 2
        # rest ascends, so min breaks the remaining ties by index
        v = min(rest, key=lambda w: ((dom[w] & t1).bit_count(), minus_degree[w]))
        later = [w for w in rest if w != v]
        inv = in_masks[v]
        outv = out_masks[v]
        for c in range(1, top + 1):
            bit = 1 << c
            if not dom[v] & bit:
                continue
            # Class c plus v is acyclic.  reach_v: what v reaches in the
            # new class; above: the members that reach v (v included).
            row = reach[c]
            reach_v = above = 1 << v
            gainers = []
            for x in members[c]:
                rx = row[x]
                if outv >> x & 1:
                    reach_v |= rx
                if rx & inv:
                    above |= 1 << x
                    gainers.append(x)
            # An uncoloured w loses colour c iff it closes a dicycle through
            # v: an arc from w into `above` and one from `reach_v` into w.
            # Only such a w can run out of colours in 1..t2: t2 never
            # shrinks down a branch, and every other w passed one level up.
            t2 = (1 << (min(max(used, c) + 1, k) + 1)) - 2
            cleared = []
            ok = True
            for w in later:
                if dom[w] & bit and in_masks[w] & reach_v and out_masks[w] & above:
                    dom[w] ^= bit
                    cleared.append(w)
                    if not dom[w] & t2:
                        ok = False
                        break
            if ok:
                new_row = row[:]
                new_row[v] = reach_v
                for x in gainers:
                    new_row[x] |= reach_v
                reach[c] = new_row
                members[c].append(v)
                colour[v] = c
                if dfs(later, max(used, c)):
                    return True
                colour[v] = 0
                members[c].pop()
                reach[c] = row
            for w in cleared:
                dom[w] |= bit
        return False

    if dfs(list(range(n)), 0):
        return colour
    return None


# --- minimum acyclic partition by restricted growth strings ----------------


def is_acyclic_subset(d: Digraph, s: Iterable[int], out: list[set[int]] | None = None) -> bool:
    """Kahn's peeling of d[s] on neighbour sets read from the arc set;
    `out`, the out-neighbour sets of d, saves rereading it per subset."""
    inside = set(s)
    out = out_sets(d) if out is None else out
    indeg = dict.fromkeys(inside, 0)
    for v in inside:
        for w in out[v] & inside:
            indeg[w] += 1
    ready = [v for v in inside if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in out[v]:
            if w in inside:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    return done == len(inside)


def brute_min_acyclic_partition(d: Digraph) -> int:
    """Minimum class count over all set partitions with acyclic classes."""
    n = d.n
    if n == 0:
        return 0
    best = n

    def grow(i: int, classes: list[list[int]]):
        nonlocal best
        if len(classes) >= best:
            return
        if i == n:
            best = min(best, len(classes))
            return
        for cls in classes:
            cls.append(i)
            if is_acyclic_subset(d, cls):
                grow(i + 1, classes)
            cls.pop()
        classes.append([i])
        grow(i + 1, classes)
        classes.pop()

    grow(0, [])
    return best


# --- euler tours by trail backtracking --------------------------------------


def brute_has_closed_trail(g: Multigraph) -> bool:
    m = g.m()
    if m == 0:
        return True
    start = g.edges[0][0]

    def walk(v: int, used: int) -> bool:
        if used == (1 << m) - 1:
            return v == start
        for w, ei in g.adj[v]:
            if not (used >> ei) & 1:
                if walk(w, used | (1 << ei)):
                    return True
        return False

    return walk(start, 0)


# --- minimum dicut by subset enumeration ------------------------------------


def brute_lambda(d: Digraph, s: int, t: int) -> int:
    best = None
    for mask in range(1 << d.n):
        if not (mask >> s) & 1 or (mask >> t) & 1:
            continue
        cut = sum(
            1 for u, v in d.arcs if (mask >> u) & 1 and not (mask >> v) & 1
        )
        best = cut if best is None else min(best, cut)
    return best or 0


# --- hubs by subset enumeration ---------------------------------------------


def brute_maximal_hubs(d: Digraph) -> set[frozenset[int]]:
    inn = in_sets(d)
    hubs = []
    for size in range(1, d.n):
        for comb in itertools.combinations(range(d.n), size):
            s = set(comb)
            sub, _ = d.induced(comb)
            if not sub.is_strong:
                continue
            if any(s <= inn[x] for x in range(d.n) if x not in s):
                hubs.append(frozenset(s))
    maximal = {h for h in hubs if not any(h < g for g in hubs)}
    return maximal


def brute_maximal_weak_hubs(d: Digraph) -> set[frozenset[int]]:
    out, inn = out_sets(d), in_sets(d)
    hubs = []
    for size in range(1, d.n):
        for comb in itertools.combinations(range(d.n), size):
            s = set(comb)
            sub, _ = d.induced(comb)
            if not sub.is_strong:
                continue
            ok = False
            for x in range(d.n):
                if x in s:
                    continue
                if s <= out[x] - inn[x]:
                    ok = True
                if s <= inn[x] - out[x]:
                    ok = True
            if ok:
                hubs.append(frozenset(s))
    return {h for h in hubs if not any(h < g for g in hubs)}


# --- cyclic orders -----------------------------------------------------------


def brute_inround_exists(d: Digraph) -> bool:
    from dichroma.localstruct import satisfies_in_round

    if d.n == 1:
        return True
    rest = list(range(1, d.n))
    for perm in itertools.permutations(rest):
        if satisfies_in_round(d, (0,) + perm):
            return True
    return False


# --- undirected exact chromatic number (for line graphs) --------------------


def undirected_chromatic(n: int, edges: Sequence[tuple[int, int]]) -> int:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def feasible(k: int) -> bool:
        colour = {}

        def go(i: int) -> bool:
            if i == n:
                return True
            v = order[i]
            used = {colour[w] for w in adj[v] if w in colour}
            top = min(k, max(colour.values(), default=0) + 1)
            for c in range(1, top + 1):
                if c in used:
                    continue
                colour[v] = c
                if go(i + 1):
                    return True
                del colour[v]
            return False

        return go(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


# --- maximum matching by branching over edges ------------------------------


def exhaustive_max_matching(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Size of a maximum matching; for graphs of up to about 20 vertices."""

    def best(avail: int, idx: int) -> int:
        while idx < len(edges):
            u, v = edges[idx]
            if (avail >> u) & 1 and (avail >> v) & 1:
                break
            idx += 1
        else:
            return 0
        u, v = edges[idx]
        take = 1 + best(avail & ~(1 << u) & ~(1 << v), idx + 1)
        skip = best(avail, idx + 1)
        return max(take, skip)

    return best((1 << n) - 1, 0)


# --- small standard families ------------------------------------------------


def sym_complete(n: int) -> Digraph:
    return build_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def sym_cycle(n: int) -> Digraph:
    arcs = []
    for i in range(n):
        j = (i + 1) % n
        arcs += [(i, j), (j, i)]
    return build_digraph(n, arcs)


def out_star(leaves: int) -> Digraph:
    """One source dominating `leaves` pairwise non-adjacent vertices."""
    return build_digraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Multigraph:
    return build_multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_minus_matching(n: int) -> Multigraph:
    """K_n minus a perfect matching (n even): (n-2)-regular and simple."""
    if n % 2 != 0:
        raise BadParameters("n must be even")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (j == i + 1 and i % 2 == 0)
    ]
    return build_multigraph(n, edges)


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_multigraph(10, outer + inner + spokes)


def substitute(g1: Digraph, u: int, h1: Digraph) -> Digraph:
    """Replace vertex u of g1 by a copy of h1; every former neighbour
    relation of u is replicated towards all of h1.

    Labels: vertices below u keep theirs, h1 occupies u..u+|h1|-1, the rest
    shift up; substituting a single vertex is the identity.
    """
    if not 0 <= u < g1.n:
        raise BadParameters(f"vertex {u} not in the host")
    k1 = transitive_tournament(1)
    return lexicographic(g1, [k1] * u + [h1] + [k1] * (g1.n - u - 1))


# --- random digraph / multigraph generators ---------------------------------


def random_digraph(rng, n: int, p: float) -> Digraph:
    arcs = frozenset(
        (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p
    )
    return Digraph(n, arcs)


def random_regular_multigraph(rng, n: int, deg: int) -> Multigraph:
    """Configuration model with loop rejection; retries until loop-free."""
    while True:
        stubs = [v for v in range(n) for _ in range(deg)]
        rng.shuffle(stubs)
        edges = []
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            edges.append((min(u, v), max(u, v)))
        if ok:
            return Multigraph(n, tuple(edges))


# --- structured digraph generators ------------------------------------------


def random_in_round(rng, n: int) -> Digraph:
    """Strong in-round oriented graph: each in-neighbourhood is the cyclic
    interval just before its vertex (interval lengths below n/2 keep the
    graph oriented)."""
    assert n >= 3
    top = max(1, -(-n // 2) - 1)
    arcs = set()
    for v in range(n):
        k = rng.randint(1, top)
        for step in range(1, k + 1):
            arcs.add(((v - step) % n, v))
    return Digraph(n, frozenset(arcs))


def random_lot_instance(rng, max_quotient: int = 7) -> Digraph:
    """Strong locally out-transitive oriented graph built as an in-round
    quotient whose vertices are substituted by strong parts, with all arcs
    into a part landing on a fixed transitive entry set."""
    from dichroma.core import Digraph as DG

    nq = rng.randint(3, max_quotient)
    quotient = random_in_round(rng, nq)
    parts = []
    entries = []
    offset = 0
    offsets = []
    for h in range(nq):
        kind = rng.random()
        if kind < 0.55:
            part_arcs, size = [], 1
            entry = [0]
        elif kind < 0.8:
            part_arcs, size = [(0, 1), (1, 2), (2, 0)], 3
            entry = [0] if rng.random() < 0.5 else [0, 1]
        else:
            size = rng.randint(3, 5)
            sub = random_in_round(rng, size)
            part_arcs = sorted(sub.arcs)
            entry = [0] + sorted(out_sets(sub)[0]) if rng.random() < 0.5 else [0]
        offsets.append(offset)
        parts.append((part_arcs, size))
        entries.append([offset + v for v in entry])
        offset += size
    arcs = set()
    for h, (part_arcs, size) in enumerate(parts):
        for u, v in part_arcs:
            arcs.add((offsets[h] + u, offsets[h] + v))
    for g, h in quotient.arcs:
        for u in range(offsets[g], offsets[g] + parts[g][1]):
            for t in entries[h]:
                arcs.add((u, t))
    return DG(offset, frozenset(arcs))
