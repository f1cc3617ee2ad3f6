"""Defective edge colouring of multigraphs: verification, the density
lower bound, the exact index, the constructive block colouring of the
three-vertex extremal multigraphs, Euler splitting, factor extraction, the
general constructive colouring ladder, and the hardness gadget.

A colouring is valid at defect d when every vertex has at most d incident
edges per colour.  Colourings are stored positionally, one colour per edge
instance in input order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Budget,
    Multigraph,
    bits,
    build_multigraph,
    check_colour_range,
    components,
    euler_tour,
)
from .errors import (
    BadParameters,
    Disconnected,
    EvenD,
    FallbackToExact,
    InvalidInput,
    NotRegular,
    OddK,
    PartialColouring,
)
from .matching import max_matching
from .vizing import vizing_colour

GAMMA_SUBSETS = 1 << 16
GAMMA_SEED = 0


@dataclass(frozen=True)
class EdgeColouring:
    colours: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class EdgeVerifyResult:
    valid: bool
    vertex: int | None = None
    colour: int | None = None
    count: int | None = None


def verify_edge_colouring(g: Multigraph, c: EdgeColouring, d: int) -> EdgeVerifyResult:
    """Valid iff every vertex has at most d incident edges per colour.

    Raises InvalidInput when a colour lies outside 1..k.
    """
    if len(c.colours) != g.m():
        raise PartialColouring(f"{len(c.colours)} colours for {g.m()} edges")
    check_colour_range(c.colours, c.k)
    counts: dict[tuple[int, int], int] = {}
    for (u, v), col in zip(g.edges, c.colours):
        for x in (u, v):
            counts[(x, col)] = counts.get((x, col), 0) + 1
    for (x, col), cnt in sorted(counts.items()):
        if cnt > d:
            return EdgeVerifyResult(False, x, col, cnt)
    return EdgeVerifyResult(True)


def gamma_d(g: Multigraph, d: int) -> int:
    """Density lower bound: max over vertex sets X of
    ceil(edges inside X / floor(d |X| / 2)).

    Enumerates all subsets when 2^n fits GAMMA_SUBSETS, otherwise samples
    that many random subsets (plus all pairs and the full set), so the result
    is always a valid lower bound.
    """
    if g.n < 2:
        return 0 if g.m() == 0 else 1
    masks: list[int]
    if (1 << g.n) <= GAMMA_SUBSETS:
        masks = list(range(3, 1 << g.n))
    else:
        rng = random.Random(GAMMA_SEED)
        masks = [(1 << g.n) - 1]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                masks.append((1 << u) | (1 << v))
        masks += [rng.randrange(1, 1 << g.n) for _ in range(GAMMA_SUBSETS)]
    best = 0
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    for mask in masks:
        size = mask.bit_count()
        if size < 2:
            continue
        inside = sum(1 for em in edge_masks if em & mask == em)
        cap = (d * size) // 2
        if cap == 0:
            continue
        best = max(best, -(-inside // cap))
    return best


def _first_fit(g: Multigraph, d: int) -> list[int]:
    counts: dict[tuple[int, int], int] = {}
    cols = []
    for u, v in g.edges:
        c = 1
        while counts.get((u, c), 0) >= d or counts.get((v, c), 0) >= d:
            c += 1
        counts[(u, c)] = counts.get((u, c), 0) + 1
        counts[(v, c)] = counts.get((v, c), 0) + 1
        cols.append(c)
    return cols


def exact_defective_index(
    g: Multigraph, d: int, budget: int | None = 20_000_000
) -> tuple[int, EdgeColouring]:
    """Exact d-defective chromatic index with a witness colouring.

    Depth-first search over edges in input order with per-vertex colour
    capacities and first-use symmetry breaking; the degree and density
    lower bounds prune the iteration over candidate colour counts.
    """
    if d < 1:
        raise BadParameters("defect must be positive")
    m = g.m()
    if m == 0:
        return 0, EdgeColouring((), 0)
    lb = max(1, -(-g.delta // d), gamma_d(g, d))
    greedy = _first_fit(g, d)
    ub = max(greedy)
    if lb == ub:
        return ub, EdgeColouring(tuple(greedy), ub)
    nodes = Budget(budget, "defective index search budget")
    order = sorted(range(m), key=lambda i: (-max(g.degree(g.edges[i][0]), g.degree(g.edges[i][1])), i))

    def search(k: int) -> list[int] | None:
        colour = [0] * m
        counts: dict[tuple[int, int], int] = {}

        def dfs(i: int, used: int) -> bool:
            if i == m:
                return True
            nodes.tick(lb, ub)
            ei = order[i]
            u, v = g.edges[ei]
            top = min(used + 1, k)
            for c in range(1, top + 1):
                if counts.get((u, c), 0) >= d or counts.get((v, c), 0) >= d:
                    continue
                counts[(u, c)] = counts.get((u, c), 0) + 1
                counts[(v, c)] = counts.get((v, c), 0) + 1
                colour[ei] = c
                if dfs(i + 1, max(used, c)):
                    return True
                counts[(u, c)] -= 1
                counts[(v, c)] -= 1
                colour[ei] = 0
            return False

        if dfs(0, 0):
            return colour
        return None

    for k in range(lb, ub):
        res = search(k)
        if res is not None:
            return k, EdgeColouring(tuple(res), k)
    return ub, EdgeColouring(tuple(greedy), ub)


def shannon_block_order(k: int) -> Multigraph:
    """The three-vertex extremal multigraph with edges listed so that any
    three consecutive edges form a triangle."""
    lo, hi = k // 2, (k + 1) // 2
    counts = {(1, 2): hi, (0, 2): lo, (0, 1): lo}
    seq: list[tuple[int, int]] = []
    pairs = [(1, 2), (0, 2), (0, 1)]
    i = 0
    while any(counts.values()):
        p = pairs[i % 3]
        if counts[p]:
            counts[p] -= 1
            seq.append(p)
        i += 1
    return build_multigraph(3, seq)


def colour_shannon_multigraph(k: int, d: int) -> tuple[Multigraph, EdgeColouring]:
    """Optimal d-defective colouring of the three-vertex extremal
    multigraph for odd d: contiguous blocks of (3d-1)/2 edges along the
    triangle-consecutive order."""
    if d % 2 == 0:
        raise EvenD("the block colouring needs an odd defect")
    if k < 1:
        raise BadParameters("k must be positive")
    g = shannon_block_order(k)
    block = (3 * d - 1) // 2
    cols = [1 + i // block for i in range(g.m())]
    kk = max(cols)
    return g, EdgeColouring(tuple(cols), kk)


# ---------------------------------------------------------------------------
# factors


@dataclass(frozen=True)
class FactorWitness:
    edge_indices: tuple[int, ...]
    k: int

    def verify(self, g: Multigraph) -> bool:
        deg = [0] * g.n
        for i in self.edge_indices:
            u, v = g.edges[i]
            deg[u] += 1
            deg[v] += 1
        return all(x == self.k for x in deg)


def _factor(g: Multigraph, targets: Sequence[int]) -> list[int] | None:
    """Spanning submultigraph with prescribed degrees, as edge indices, or
    None when g has none.

    Tutte's reduction to perfect matching (Tutte 1954): edge i becomes the
    two linked stubs 2i and 2i + 1, and each vertex adds (degree - target)
    inner nodes joined to all its stubs.  A perfect matching pairs exactly
    `target` stubs per vertex across edges.  The blossom search finds a
    perfect matching whenever one exists, so None proves that no factor
    exists.
    """
    if any(t < 0 or t > g.degree(v) for v, t in enumerate(targets)):
        return None
    adj: list[list[int]] = []
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        adj += [[2 * i + 1], [2 * i]]
        incident[u].append(2 * i)
        incident[v].append(2 * i + 1)
    for v, t in enumerate(targets):
        for _ in range(len(incident[v]) - t):
            adj.append(list(incident[v]))
            for s in incident[v]:
                adj[s].append(len(adj) - 1)
    match = max_matching(len(adj), adj)
    if -1 in match:
        return None
    return [i for i in range(g.m()) if match[2 * i] == 2 * i + 1]


def extract_factor(g: Multigraph, k: int) -> FactorWitness | None:
    """A spanning k-regular submultigraph for even k, or certified absence."""
    if k % 2 != 0 or k < 0:
        raise OddK("factor degree must be even and non-negative")
    res = _factor(g, [k] * g.n)
    if res is None:
        return None
    return FactorWitness(tuple(res), k)


# ---------------------------------------------------------------------------
# Euler splitting


def split_euler(g: Multigraph):
    """Split a connected 2k-regular multigraph along an Euler tour.

    Even edge count: two k-factors.  Odd: two parts of maximum degree at
    most k plus one designated spare edge.  Returns (part_a, part_b,
    spare_or_None) as edge-index lists.
    """
    if g.n == 0 or g.m() == 0:
        raise NotRegular("empty multigraph")
    degs = {g.degree(v) for v in range(g.n)}
    if len(degs) != 1 or (next(iter(degs)) % 2) != 0:
        raise NotRegular("not an even-regular multigraph")
    if len(components(g.masks, (1 << g.n) - 1)) != 1:
        raise Disconnected("multigraph not connected")
    return _euler_halves(g)


def _euler_halves(g: Multigraph):
    res = euler_tour(g)
    if not res.exists:
        raise NotRegular("no closed trail; degrees not even?")
    seq = list(res.tour_edges)
    spare = None
    if len(seq) % 2 == 1:
        spare = seq.pop()
    a = seq[0::2]
    b = seq[1::2]
    return a, b, spare


# ---------------------------------------------------------------------------
# the constructive ladder


def defective_colour(
    g: Multigraph, d: int, simple_hint: bool = False, budget: int | None = 20_000_000
) -> EdgeColouring:
    """A valid d-defective edge colouring meeting the best applicable bound.

    Even d: exactly ceil(delta/d) colours via regularization and repeated
    factor extraction.  Odd d on multigraphs: at most
    ceil((3 delta - 1)/(3 d - 1)) colours via the five-step regular ladder.
    Odd d on simple graphs (simple_hint): a proper colouring bucketed into
    groups of d, which meets ceil(delta/d) except when d divides delta;
    the delta = 2d case is decided by the component parity rule.  A route
    that finds no factor falls back to `exact_defective_index(g, d, budget)`.
    """
    if d < 1:
        raise BadParameters("defect must be positive")
    m = g.m()
    if m == 0:
        return EdgeColouring((), 0)
    delta = g.delta
    if delta <= d:
        return EdgeColouring((1,) * m, 1)
    try:
        if d % 2 == 0:
            cols = _colour_even_route(g, d)
        elif simple_hint and g.is_simple:
            cols = _colour_simple_route(g, d)
        else:
            cols = _colour_odd_route(g, d)
    except FallbackToExact:
        value, colouring = exact_defective_index(g, d, budget)
        return colouring
    return EdgeColouring(tuple(cols), max(cols))


def _pad_regular(g: Multigraph, target: int) -> tuple[Multigraph, list[int | None]]:
    """A target-regular supermultigraph (two copies plus padding edges);
    origin[j] holds the original edge index or None."""
    if all(g.degree(v) == target for v in range(g.n)):
        return g, list(range(g.m()))
    edges: list[tuple[int, int]] = list(g.edges)
    origin: list[int | None] = list(range(g.m()))
    for u, v in g.edges:
        edges.append((u + g.n, v + g.n))
        origin.append(None)
    for v in range(g.n):
        for _ in range(target - g.degree(v)):
            edges.append((v, v + g.n))
            origin.append(None)
    return build_multigraph(2 * g.n, edges), origin


def _sub_multigraph(g: Multigraph, idxs: Sequence[int]) -> tuple[Multigraph, list[int]]:
    edges = [g.edges[i] for i in idxs]
    return Multigraph(g.n, tuple(edges)), list(idxs)


def _colour_even_route(g: Multigraph, d: int) -> list[int]:
    delta = g.delta
    target = delta if delta % 2 == 0 else delta + 1
    big, origin = _pad_regular(g, target)
    colour_big = [0] * big.m()
    remaining = list(range(big.m()))
    c = 0
    deg = target
    while deg > d:
        c += 1
        cur, cmap = _sub_multigraph(big, remaining)
        fac = _factor(cur, [d] * cur.n)
        if fac is None:
            raise FallbackToExact("even-degree factor unexpectedly absent")
        fset = {cmap[i] for i in fac}
        for i in fset:
            colour_big[i] = c
        remaining = [i for i in remaining if i not in fset]
        deg -= d
    c += 1
    for i in remaining:
        colour_big[i] = c
    return _restrict_colours(g, origin, colour_big)


def _restrict_colours(g: Multigraph, origin, colour_big) -> list[int]:
    out = [0] * g.m()
    for j, src in enumerate(origin):
        if src is not None:
            out[src] = colour_big[j]
    if any(c == 0 for c in out):
        raise InvalidInput("padding bookkeeping failed")
    return out


def _special_delta(k: int, d: int) -> int:
    return k * d - (-(-(k - 1) // 3))


def _colour_odd_route(g: Multigraph, d: int) -> list[int]:
    delta = g.delta
    k = -(-(3 * delta - 1) // (3 * d - 1))
    dstar = _special_delta(k, d)
    big, origin = _pad_regular(g, dstar)
    colour_big = _colour_regular_odd(big, d, k)
    return _restrict_colours(g, origin, colour_big)


def _colour_regular_odd(g: Multigraph, d: int, k: int) -> list[int]:
    """k-colour a special-degree regular multigraph at odd defect d.

    Each k >= 2 starts from one phi-factor of g: phi = d - 1 at k = 2, 2d
    at k = 3 and 4, and 3d - 1 above, where the factor is coloured at
    k = 3 and the rest goes back through the odd route.  `_factor` is
    exact, so None means g has no phi-factor, and FallbackToExact sends
    `defective_colour` to the exact search.
    """
    m = g.m()
    if k <= 1:
        return [1] * m
    phi = {2: d - 1, 3: 2 * d, 4: 2 * d}.get(k, 3 * d - 1)
    fac = _factor(g, [phi] * g.n)
    if fac is None:
        raise FallbackToExact(f"no {phi}-factor")
    if k == 2:
        fset = set(fac)
        return [1 if i in fset else 2 for i in range(m)]
    if k == 3:
        return _three_colour_with_factor(g, fac)
    if k == 4:
        return _four_colour_with_factor(g, fac, d)
    fsub, fmap = _sub_multigraph(g, fac)
    head = _colour_regular_odd(fsub, d, 3)
    rest_idx = [i for i in range(m) if i not in set(fac)]
    rsub, rmap = _sub_multigraph(g, rest_idx)
    tail = _colour_odd_route(rsub, d)
    out = [0] * m
    for i, c in zip(fmap, head):
        out[i] = c
    for i, c in zip(rmap, tail):
        out[i] = c + 3
    return out


def _euler_split(g: Multigraph, idxs: Sequence[int]):
    """Euler-split each component of the edges `idxs` of g, on g's own
    labels; returns (a, b, spares) as edge indices of g, with one spare
    edge per component of odd size."""
    sub = Multigraph(g.n, tuple(g.edges[i] for i in idxs))
    a: list[int] = []
    b: list[int] = []
    spares: list[int] = []
    for comp in components(sub.masks, (1 << g.n) - 1):
        ids = [idxs[j] for j in range(sub.m()) if comp >> sub.edges[j][0] & 1]
        if not ids:
            continue
        pa, pb, spare = _euler_halves(Multigraph(g.n, tuple(g.edges[i] for i in ids)))
        a += [ids[j] for j in pa]
        b += [ids[j] for j in pb]
        if spare is not None:
            spares.append(ids[spare])
    return a, b, spares


def _three_colour_with_factor(g: Multigraph, fac: list[int]) -> list[int]:
    a, b, spares = _euler_split(g, fac)
    out = [3] * g.m()
    for i in a:
        out[i] = 1
    for i in b:
        out[i] = 2
    for i in spares:
        out[i] = 3
    return out


def _four_colour_with_factor(g: Multigraph, fac: list[int], d: int) -> list[int]:
    a, b, spares = _euler_split(g, fac)
    out = [0] * g.m()
    for i in a:
        out[i] = 1
    for i in b:
        out[i] = 2
    rest = [i for i in range(g.m()) if out[i] == 0]
    bm_sub, bm_map = _sub_multigraph(g, rest)
    cols_bm = _two_colour_bm(bm_sub, d)
    for i, c in zip(bm_map, cols_bm):
        out[i] = c + 2
    return out


def _two_colour_bm(g: Multigraph, d: int) -> list[int]:
    """2-colour a multigraph of max degree 2d whose degree-2d vertices are
    exactly the ends of a distinguished matching, by one Euler split per
    component.  A 2d-regular component with an even edge count is split as
    it is.  Any other is split together with a copy of itself on the
    vertices v + n and 2d - deg(v) padding edges from each v to v + n."""
    n, m = g.n, g.m()
    edges = list(g.edges)
    for comp in components(g.masks, (1 << n) - 1):
        ids = [i for i in range(m) if comp >> g.edges[i][0] & 1]
        if not ids or (len(ids) % 2 == 0 and all(g.degree(v) == 2 * d for v in bits(comp))):
            continue
        edges += [(u + n, v + n) for u, v in (g.edges[i] for i in ids)]
        edges += [(v, v + n) for v in bits(comp) for _ in range(2 * d - g.degree(v))]
    a, b, spares = _euler_split(Multigraph(2 * n, tuple(edges)), range(len(edges)))
    if spares:
        raise FallbackToExact("Euler split of a component left a spare edge")
    out = [0] * len(edges)
    for i in a:
        out[i] = 1
    for i in b:
        out[i] = 2
    return out[:m]


# ---------------------------------------------------------------------------
# simple-graph route


def _colour_simple_route(g: Multigraph, d: int) -> list[int]:
    if d > 1 and g.delta == 2 * d and not any(
        comp.bit_count() % 2 == 1 and all(g.degree(v) == 2 * d for v in bits(comp))
        for comp in components(g.masks, (1 << g.n) - 1)
    ):
        return _parity_two_colour(g, d)
    # a proper colouring bucketed into groups of d; where d divides
    # delta >= 3d, deciding optimality is hard in general, and the buckets
    # stay within one extra colour
    return [1 + (c - 1) // d for c in vizing_colour(g)]


def _parity_two_colour(g: Multigraph, d: int) -> list[int]:
    """2-colouring of a simple graph with delta = 2d whose 2d-regular
    components all have even order: double, split along Euler tours."""
    big, origin = _pad_regular(g, 2 * d)
    a, b, spares = _euler_split(big, range(big.m()))
    if spares:
        raise FallbackToExact("odd component size in the parity route")
    out_big = [0] * big.m()
    for i in a:
        out_big[i] = 1
    for i in b:
        out_big[i] = 2
    return _restrict_colours(g, origin, out_big)


# ---------------------------------------------------------------------------
# hardness gadget


@dataclass(frozen=True)
class DefectiveGadget:
    """Regular simple host embedding a graph so that (k, d)-colourability
    matches proper k-edge-colourability, with the forward extension."""

    graph: Multigraph
    k: int
    d: int
    base_edges: int
    copies_per_vertex: int
    h_edge_count: int
    h_colours: tuple[int, ...]

    def extend(self, proper: Sequence[int]) -> EdgeColouring:
        """Extend a proper k-edge-colouring of the base graph to a (k, d)
        colouring of the host: copy i at a vertex carries the colour
        c = 1 + (2 i) // (d - 1), with the template palette transposed so
        its subdivision edges take colour c."""
        if len(proper) != self.base_edges:
            raise BadParameters("colour list does not match the base graph")
        if any(c < 1 or c > self.k for c in proper):
            raise BadParameters("colours outside 1..k")
        cols = list(proper)
        per_colour = (self.d - 1) // 2
        copy_index = 0
        pos = self.base_edges
        while pos < self.graph.m():
            i_in_vertex = copy_index % self.copies_per_vertex
            c = 1 + i_in_vertex // per_colour
            sub_col = self.h_colours[-1]  # template colour of the subdivision
            for t in self.h_colours:
                mapped = t
                if t == sub_col:
                    mapped = c
                elif t == c:
                    mapped = sub_col
                cols.append(mapped)
            pos += self.h_edge_count
            copy_index += 1
        return EdgeColouring(tuple(cols), self.k)


def _tower(k: int, d: int) -> tuple[Multigraph, list[int]]:
    """The kd-regular simple graph with defective index exactly k, plus its
    canonical (k, d)-colouring: complete graph at the base, then repeated
    doubling glued by circulant d-regular bipartite layers."""
    g = build_multigraph(
        d + 1, [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    )
    cols = [1] * g.m()
    for level in range(2, k + 1):
        n = g.n
        edges = list(g.edges)
        cols2 = list(cols)
        for u, v in g.edges:
            edges.append((u + n, v + n))
        cols2 += list(cols)
        for i in range(n):
            for off in range(d):
                j = (i + off) % n
                edges.append((i, j + n))
                cols2.append(level)
        g = build_multigraph(2 * n, edges)
        cols = cols2
    return g, cols


def np_gadget_defective(g: Multigraph, k: int, d: int) -> DefectiveGadget:
    """Weld half-(d-1)k subdivided tower copies onto each vertex of a
    k-regular simple graph; the host is kd-regular and (k, d)-colourable
    iff the base is properly k-edge-colourable."""
    if d < 3 or d % 2 == 0:
        raise BadParameters("d must be odd and at least 3")
    if k < 3:
        raise BadParameters("k must be at least 3")
    if not g.is_simple or any(g.degree(v) != k for v in range(g.n)):
        raise BadParameters("base graph must be k-regular and simple")
    tower, tower_cols = _tower(k, d)
    # subdivide edge 0 (endpoints a, b) with a fresh vertex, identified with
    # the anchored base vertex on welding
    a, b = tower.edges[0]
    h_edges = list(tower.edges[1:])
    h_cols = tower_cols[1:]
    sub_colour = tower_cols[0]
    copies = k * (d - 1) // 2
    edges: list[tuple[int, int]] = list(g.edges)
    h_col_list: list[int] = []
    nxt = g.n
    for u in range(g.n):
        for _ in range(copies):
            mapping = {}
            for z in range(tower.n):
                mapping[z] = nxt + z
            for x, y in h_edges:
                edges.append((mapping[x], mapping[y]))
            edges.append((u, mapping[a]))
            edges.append((u, mapping[b]))
            nxt += tower.n
    host = build_multigraph(nxt, edges)
    h_colours = tuple(h_cols + [sub_colour, sub_colour])
    return DefectiveGadget(
        graph=host,
        k=k,
        d=d,
        base_edges=g.m(),
        copies_per_vertex=copies,
        h_edge_count=len(h_edges) + 2,
        h_colours=h_colours,
    )
