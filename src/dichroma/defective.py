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
    bridges,
    build_multigraph,
    components,
    euler_tour,
    multigraph_components,
)
from .errors import (
    BadParameters,
    DichromaError,
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
    """Valid iff every vertex has at most d incident edges per colour."""
    if len(c.colours) != g.m():
        raise PartialColouring(f"{len(c.colours)} colours for {g.m()} edges")
    counts: dict[tuple[int, int], int] = {}
    for (u, v), col in zip(g.edges, c.colours):
        for x in (u, v):
            counts[(x, col)] = counts.get((x, col), 0) + 1
    for (x, col), cnt in sorted(counts.items()):
        if cnt > d:
            return EdgeVerifyResult(False, x, col, cnt)
    return EdgeVerifyResult(True)


def gamma_d(
    g: Multigraph, d: int, subset_cap: int = 1 << 16, seed: int = 0
) -> int:
    """Density lower bound: max over vertex sets X of
    ceil(edges inside X / floor(d |X| / 2)).

    Enumerates all subsets when 2^n fits the cap, otherwise samples that
    many random subsets (plus all pairs and the full set), so the result
    is always a valid lower bound.
    """
    if g.n < 2:
        return 0 if g.m() == 0 else 1
    masks: list[int]
    if (1 << g.n) <= subset_cap:
        masks = list(range(3, 1 << g.n))
    else:
        rng = random.Random(seed)
        masks = [(1 << g.n) - 1]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                masks.append((1 << u) | (1 << v))
        masks += [rng.randrange(1, 1 << g.n) for _ in range(subset_cap)]
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


def _factor(
    g: Multigraph,
    targets: Sequence[int],
    forced: Sequence[int] = (),
) -> list[int] | None:
    """Spanning submultigraph with prescribed degrees, as edge indices.

    Reduction to perfect matching: each vertex spreads into one stub per
    incident edge plus (degree - target) inner nodes joined to all its
    stubs; edges link their two stubs.  A perfect matching pairs exactly
    `target` stubs per vertex across edges.  `forced` edge indices are
    preselected (their endpoints' targets drop by one).
    """
    t = list(targets)
    for i in forced:
        u, v = g.edges[i]
        t[u] -= 1
        t[v] -= 1
    if any(x < 0 or x > g.degree(v) - sum(1 for i in forced if v in g.edges[i]) for v, x in enumerate(t)):
        return None
    alive = [i for i in range(g.m()) if i not in set(forced)]
    stub_of: dict[tuple[int, int], int] = {}  # (edge index, endpoint) -> node
    adj: list[list[int]] = []

    def new_node() -> int:
        adj.append([])
        return len(adj) - 1

    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i in alive:
        u, v = g.edges[i]
        su = new_node()
        sv = new_node()
        stub_of[(i, u)] = su
        stub_of[(i, v)] = sv
        adj[su].append(sv)
        adj[sv].append(su)
        incident[u].append(su)
        incident[v].append(sv)
    for v in range(g.n):
        inner_count = len(incident[v]) - t[v]
        if inner_count < 0:
            return None
        for _ in range(inner_count):
            iv = new_node()
            for s in incident[v]:
                adj[iv].append(s)
                adj[s].append(iv)
    match = max_matching(len(adj), adj)
    if any(x == -1 for x in match):
        return None
    out = list(forced)
    for i in alive:
        u, v = g.edges[i]
        if match[stub_of[(i, u)]] == stub_of[(i, v)]:
            out.append(i)
    return sorted(out)


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
    comps = multigraph_components(g)
    if len(comps) != 1:
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


def defective_colour(g: Multigraph, d: int, simple_hint: bool = False) -> EdgeColouring:
    """A valid d-defective edge colouring meeting the best applicable bound.

    Even d: exactly ceil(delta/d) colours via regularization and repeated
    factor extraction.  Odd d on multigraphs: at most
    ceil((3 delta - 1)/(3 d - 1)) colours via the five-step regular ladder.
    Odd d on simple graphs (simple_hint): a proper colouring bucketed into
    groups of d, which meets ceil(delta/d) except when d divides delta;
    the delta = 2d case is decided by the component parity rule.
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
        value, colouring = exact_defective_index(g, d)
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
    colour_big = _colour_regular_odd(big, d, k, depth=0)
    return _restrict_colours(g, origin, colour_big)


def _colour_regular_odd(g: Multigraph, d: int, k: int, depth: int) -> list[int]:
    """k-colour a special-degree regular multigraph at odd defect d."""
    if depth > 50:
        raise FallbackToExact("surgery recursion too deep")
    m = g.m()
    if k <= 1:
        return [1] * m
    if k == 2:
        fac = _factor_with_surgery(g, d - 1, d, k, depth)
        if fac is None:
            raise FallbackToExact("no (d-1)-factor")
        if isinstance(fac, _SurgeryColours):
            return fac.colours
        fset = set(fac)
        return [1 if i in fset else 2 for i in range(m)]
    if k == 3:
        fac = _factor_with_surgery(g, 2 * d, d, k, depth)
        if fac is None:
            raise FallbackToExact("no 2d-factor")
        if isinstance(fac, _SurgeryColours):
            return fac.colours
        return _three_colour_with_factor(g, fac)
    if k == 4:
        fac = _factor_with_surgery(g, 2 * d, d, k, depth)
        if fac is None:
            raise FallbackToExact("no 2d-factor")
        if isinstance(fac, _SurgeryColours):
            return fac.colours
        return _four_colour_with_factor(g, fac, d)
    fac = _factor_with_surgery(g, 3 * d - 1, d, k, depth)
    if fac is None:
        raise FallbackToExact("no (3d-1)-factor")
    if isinstance(fac, _SurgeryColours):
        return fac.colours
    fsub, fmap = _sub_multigraph(g, fac)
    head = _colour_regular_odd(fsub, d, 3, depth)
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
    for comp in multigraph_components(sub):
        ids = [idxs[j] for j in range(sub.m()) if sub.edges[j][0] in comp]
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
    for comp in multigraph_components(g):
        ids = [i for i in range(m) if g.edges[i][0] in comp]
        if not ids or (len(ids) % 2 == 0 and all(g.degree(v) == 2 * d for v in comp)):
            continue
        edges += [(u + n, v + n) for u, v in (g.edges[i] for i in ids)]
        edges += [(v, v + n) for v in sorted(comp) for _ in range(2 * d - g.degree(v))]
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
# cut-edge surgery


class _SurgeryColours:
    def __init__(self, colours: list[int]):
        self.colours = colours


def _factor_with_surgery(g: Multigraph, phi: int, d: int, k: int, depth: int):
    """A phi-factor of the regular multigraph g, or a full k-colouring
    produced by splitting g at a cut edge, or None."""
    fac = _factor(g, [phi] * g.n)
    if fac is not None:
        return fac
    # per bridge u-v: the vertices on u's side, and the non-isolated ones
    # (plus v) on the other
    cuts = []
    for bi in sorted(bridges(g)):
        u, v = g.edges[bi]
        adj = list(g.masks)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        side_u = next(c for c in components(adj, (1 << g.n) - 1) if c >> u & 1)
        side_v = {x for x in range(g.n) if not side_u >> x & 1 and (g.degree(x) or x == v)}
        cuts.append((bi, set(bits(side_u)), side_v))
    # try the edge surgery: a bridge with a three-vertex side
    for cut in cuts:
        res = _edge_surgery_factor(g, cut, phi)
        if res is not None:
            return res
    # vertex surgery: replace one side of a bridge by the three-vertex
    # extremal multigraph, colour both halves, and merge along the bridge
    for cut in cuts:
        res = _vertex_surgery_colours(g, cut, d, k, depth)
        if res is not None:
            return res
    return None


def _edge_surgery_factor(g: Multigraph, cut, phi: int) -> list[int] | None:
    """Factor through the crossing trick when one bridge side is the
    three-vertex extremal multigraph."""
    bridge_idx, side_u, side_v = cut
    u, v = g.edges[bridge_idx]
    for a_side, b_side, uu, vv in ((side_u, side_v, u, v), (side_v, side_u, v, u)):
        if len(b_side) != 3 or len(a_side) < 4:
            continue
        others = sorted(b_side - {vv})
        if len(others) != 2:
            continue
        w, x = others
        # candidate removed edges: one copy of u-y (y in A, y != v), one of v-w
        y_candidates = sorted(
            {nb for nb, ei in g.adj[uu] if ei != bridge_idx and nb in a_side}
        )
        vw = next((ei for nb, ei in g.adj[vv] if nb == w), None)
        if vw is None:
            continue
        for y in y_candidates:
            uy = next((ei for nb, ei in g.adj[uu] if nb == y), None)
            if uy is None:
                continue
            edges2 = [e for i, e in enumerate(g.edges) if i not in (uy, vw)]
            edges2.append((uu, vv))  # second bridge copy
            edges2.append((y, w))
            g2 = build_multigraph(g.n, edges2)
            forced = [g2.m() - 1]  # the added y-w edge
            fac2 = _factor(g2, [phi] * g2.n, forced=forced)
            if fac2 is None:
                continue
            # map back: drop the bridge copy and y-w, put back u-y and v-w
            keep: list[int] = []
            dropped_uv = False
            old_of = [i for i in range(g.m()) if i not in (uy, vw)]
            for i in fac2:
                if i == g2.m() - 1:
                    continue  # the forced y-w edge
                if i == g2.m() - 2:
                    dropped_uv = True
                    continue  # the extra bridge copy
                keep.append(old_of[i])
            if not dropped_uv:
                if bridge_idx in keep:
                    keep.remove(bridge_idx)
                else:
                    continue
            keep += [uy, vw]
            if FactorWitness(tuple(keep), phi).verify(g):
                return sorted(keep)
    return None


def _vertex_surgery_colours(
    g: Multigraph, cut, d: int, k: int, depth: int
) -> _SurgeryColours | None:
    bridge_idx, side_u, side_v = cut
    u, v = g.edges[bridge_idx]
    if len(side_u) <= 3 or len(side_v) <= 3:
        return None
    delta = g.degree(u)
    colour_a = _replace_side_and_colour(g, bridge_idx, side_u, u, v, delta, d, k, depth)
    colour_b = _replace_side_and_colour(g, bridge_idx, side_v, v, u, delta, d, k, depth)
    if colour_a is None or colour_b is None:
        return None
    cols_for_b, bridge_col_a = colour_a
    cols_for_a, bridge_col_b = colour_b
    # align the palettes on the bridge colour
    if bridge_col_b != bridge_col_a:
        swap = {bridge_col_b: bridge_col_a, bridge_col_a: bridge_col_b}
        cols_for_a = {i: swap.get(c, c) for i, c in cols_for_a.items()}
    out = [0] * g.m()
    for i, c in cols_for_b.items():
        out[i] = c
    for i, c in cols_for_a.items():
        out[i] = c
    out[bridge_idx] = bridge_col_a
    if any(c == 0 for c in out):
        return None
    return _SurgeryColours(out)


def _replace_side_and_colour(
    g: Multigraph,
    bridge_idx: int,
    gone_side: set[int],
    gone_anchor: int,
    kept_anchor: int,
    delta: int,
    d: int,
    k: int,
    depth: int,
):
    """Colour the multigraph obtained by replacing one bridge side with the
    three-vertex extremal multigraph; returns (colours of the kept side's
    original edges, bridge colour)."""
    kept = sorted((set(range(g.n)) - gone_side) | {gone_anchor})
    pos = {z: i for i, z in enumerate(kept)}
    edges: list[tuple[int, int]] = []
    emap: list[int] = []
    for i, (a, b) in enumerate(g.edges):
        if i == bridge_idx:
            continue
        if a in pos and b in pos and a not in gone_side and b not in gone_side:
            edges.append((pos[a], pos[b]))
            emap.append(i)
    s1, s2 = len(kept), len(kept) + 1
    lo = delta // 2
    anchor = pos[gone_anchor]
    sh_edges = [(anchor, s1)] * lo + [(anchor, s2)] * lo + [(s1, s2)] * ((delta + 1) // 2)
    bridge_pos = len(edges)
    edges.append((pos[gone_anchor], pos[kept_anchor]))
    edges += sh_edges
    try:
        g2 = build_multigraph(len(kept) + 2, edges)
    except DichromaError:
        return None
    try:
        cols = _colour_regular_odd(g2, d, k, depth + 1)
    except FallbackToExact:
        return None
    result = {emap[i]: cols[i] for i in range(len(emap))}
    return result, cols[bridge_pos]


# ---------------------------------------------------------------------------
# simple-graph route


def _colour_simple_route(g: Multigraph, d: int) -> list[int]:
    delta = g.delta
    proper = vizing_colour(g)
    if d == 1:
        return proper
    if delta % d != 0 or delta == d:
        return [1 + (c - 1) // d for c in proper]
    if delta == 2 * d:
        all_even = True
        for comp in multigraph_components(g):
            if all(g.degree(v) == 2 * d for v in comp) and len(comp) % 2 == 1:
                all_even = False
        if all_even:
            return _parity_two_colour(g, d)
        return [1 + (c - 1) // d for c in proper]
    # d divides delta with delta >= 3d: deciding optimality is hard in
    # general; the bucketed proper colouring stays within one extra colour
    return [1 + (c - 1) // d for c in proper]


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
