"""Directed Brooks machinery: classify the digraphs whose dichromatic
number meets the max-degree+1 bound, colour everything else with at most
max-degree colours, and build the min-degree hardness gadget.

The tight cases per connected component are: directed cycles (bound 1),
symmetric odd cycles (bound 2) and symmetric complete digraphs on >= 4
vertices (bound >= 3); an isolated vertex is the degenerate bound-0 case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .colouring import (
    Dicolouring,
    exact_dichromatic,
    greedy_dicolour,
    two_colour_odd_free,
    verify_dicolouring,
)
from .core import (
    Digraph,
    bfs_order,
    bits,
    blocks,
    build_digraph,
    components,
)
from .errors import BadK

EXC_DIRECTED_CYCLE = "DirectedCycle"
EXC_SYMMETRIC_ODD_CYCLE = "SymmetricOddCycle"
EXC_SYMMETRIC_COMPLETE = "SymmetricComplete"


@dataclass(frozen=True)
class ComponentVerdict:
    vertices: frozenset[int]
    delta_max: int
    exception: str | None


@dataclass(frozen=True)
class BrooksVerdict:
    components: tuple[ComponentVerdict, ...]
    delta_max: int
    tight: bool  # dichromatic number equals delta_max + 1


def _component_exception(sub: Digraph) -> str | None:
    """Membership of a connected digraph in the tight family of its own
    max-degree."""
    k = sub.delta_max
    if k == 0:
        # a single vertex is the symmetric complete digraph on one vertex
        return EXC_SYMMETRIC_COMPLETE if sub.n == 1 else None
    if k == 1:
        # a directed cycle: all in/out degrees one and connected
        if all(sub.d_plus(v) == 1 and sub.d_minus(v) == 1 for v in range(sub.n)):
            return EXC_DIRECTED_CYCLE
        return None
    symmetric = all((v, u) in sub.arcs for u, v in sub.arcs)
    if k == 2:
        if (
            symmetric
            and sub.n >= 3
            and sub.n % 2 == 1
            and all(m.bit_count() == 2 for m in sub.und_masks)
        ):
            return EXC_SYMMETRIC_ODD_CYCLE
        return None
    if symmetric and sub.n == k + 1 and all(
        m.bit_count() == sub.n - 1 for m in sub.und_masks
    ):
        return EXC_SYMMETRIC_COMPLETE
    return None


def classify_brooks(d: Digraph) -> BrooksVerdict:
    """Per weakly connected component, detect the tight cases.

    The whole digraph needs delta_max+1 colours iff some component of
    maximal delta_max is one of the tight cases.
    """
    verdicts = []
    for comp in components(d.und_masks, (1 << d.n) - 1):
        vertices = bits(comp)
        sub, _ = d.induced(vertices)
        verdicts.append(
            ComponentVerdict(frozenset(vertices), sub.delta_max, _component_exception(sub))
        )
    dmax = d.delta_max
    tight = any(v.delta_max == dmax and v.exception is not None for v in verdicts)
    if d.n == 0:
        tight = False
    return BrooksVerdict(tuple(verdicts), dmax, tight)


def brooks_colour(d: Digraph) -> Dicolouring:
    """A valid dicolouring within the Brooks bound.

    Each component gets at most delta_max(component) colours unless it is
    one of the tight cases, which get exactly delta_max+1.  Components are
    coloured independently and share colours.
    """
    colour = [1] * d.n
    best = 1 if d.n else 0
    for comp in components(d.und_masks, (1 << d.n) - 1):
        sub, labels = d.induced(bits(comp))
        cols = _colour_component(sub)
        for i, v in enumerate(labels):
            colour[v] = cols[i]
        best = max(best, max(cols))
    return Dicolouring(tuple(colour), best)


def _colour_component(d: Digraph) -> list[int]:
    k = d.delta_max
    exc = _component_exception(d)
    if exc == EXC_DIRECTED_CYCLE:
        return [2] + [1] * (d.n - 1)
    if exc == EXC_SYMMETRIC_ODD_CYCLE:
        return _colour_odd_cycle(d)
    if exc == EXC_SYMMETRIC_COMPLETE:
        return list(range(1, d.n + 1))
    if not _is_regular(d):
        return _colour_nonregular(d, k)
    if not d.is_biconnected:
        return _merge_blocks(d, k)
    cols = _colour_regular_biconnected(d, k)
    if cols is not None:
        return cols
    # Splitting triples can genuinely be absent at k = 2 (symmetric even
    # cycles: every same-side pair is a cutset).  The bound still holds, by
    # bipartition when no odd dicycle exists, else by exact search.
    if k == 2:
        res = two_colour_odd_free(d)
        if res.ok:
            return list(res.colouring.colours)
        return list(exact_dichromatic(d).colouring.colours)
    # For k >= 3 a triple should always exist; never return an invalid
    # colouring even if this assumption fails.
    warnings.warn("constructive case analysis found no splitting triple")
    return list(exact_dichromatic(d).colouring.colours)


def _is_regular(d: Digraph) -> bool:
    k = d.delta_max
    return all(d.d_plus(v) == k and d.d_minus(v) == k for v in range(d.n))


def _colour_odd_cycle(d: Digraph) -> list[int]:
    order = [0]
    prev = -1
    while len(order) < d.n:
        v = order[-1]
        nxt = min(w for w in bits(d.und_masks[v]) if w != prev)
        prev = v
        order.append(nxt)
    cols = [0] * d.n
    for i, v in enumerate(order):
        cols[v] = 1 + (i % 2)
    cols[order[-1]] = 3
    return cols


def _colour_nonregular(d: Digraph, k: int) -> list[int]:
    """Reverse-BFS greedy from a vertex of small min-degree: <= k colours."""
    start = min(v for v in range(d.n) if d.d_min(v) < k)
    order = bfs_order(d, start)
    res = greedy_dicolour(d, list(reversed(order)))
    return list(res.colours)


def _merge_blocks(d: Digraph, k: int) -> list[int]:
    """Colour each block separately and align colours at cutvertices.

    In a regular component every block sees the cutvertex with reduced
    degree, so the non-regular routine applies inside each block.  Blocks
    are merged along the block tree by transposing two colours of the
    child block.
    """
    blk = blocks(d)
    vertex_blocks: dict[int, list[int]] = {}
    for i, b in enumerate(blk):
        for v in b:
            vertex_blocks.setdefault(v, []).append(i)
    colour = [0] * d.n
    # BFS over the block tree
    pending = [(0, None)]  # (block index, anchored cutvertex or None)
    seen_blocks = {0}
    while pending:
        bi, anchor = pending.pop(0)
        sub, labels = d.induced(sorted(blk[bi]))
        cols = _colour_component(sub)
        if anchor is not None:
            want = colour[anchor]
            have = cols[labels.index(anchor)]
            if have != want:
                cols = [want if c == have else have if c == want else c for c in cols]
        for i, v in enumerate(labels):
            colour[v] = cols[i]
        for v in blk[bi]:
            for bj in vertex_blocks[v]:
                if bj not in seen_blocks:
                    seen_blocks.add(bj)
                    pending.append((bj, v))
    return colour


def _colour_regular_biconnected(d: Digraph, k: int) -> list[int] | None:
    """Regular 2-connected non-tight case: find x with two same-side
    neighbours u, v not spanning a digon whose removal keeps the rest
    connected, then greedily colour (v, u, reverse BFS from x)."""
    full = (1 << d.n) - 1
    for x in range(d.n):
        for side in (d.out_masks, d.in_masks):
            nbrs = bits(side[x])
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    u, v = nbrs[i], nbrs[j]
                    if d.has_digon(u, v):
                        continue
                    rest = full & ~(1 << u | 1 << v)
                    if len(components(d.und_masks, rest)) != 1:
                        continue
                    sub, labels = d.induced(bits(rest))
                    order_sub = bfs_order(sub, labels.index(x))
                    order = [v, u] + [labels[w] for w in reversed(order_sub)]
                    res = greedy_dicolour(d, order)
                    if res.k <= k and verify_dicolouring(d, res).valid:
                        return list(res.colours)
    return None


def deltamin_gadget(d: Digraph, k: int) -> Digraph:
    """Reduce k-dicolourability to instances of bounded min-degree.

    Every vertex u becomes k+1 vertices (u-, u+, u_1..u_{k-1}): two
    symmetric complete blocks share u_1..u_{k-1}, the arc u- -> u+ links
    them, and each original arc uv becomes u+ -> v-.  The output has
    min-degree-max at most k and is k-dicolourable iff the input is.
    """
    if k < 2:
        raise BadK("k must be at least 2")
    base = lambda u: u * (k + 1)
    minus = lambda u: base(u)
    plus = lambda u: base(u) + 1
    inner = lambda u, i: base(u) + 1 + i  # i in 1..k-1
    arcs: set[tuple[int, int]] = set()
    for u in range(d.n):
        first = [minus(u)] + [inner(u, i) for i in range(1, k)]
        second = [plus(u)] + [inner(u, i) for i in range(1, k)]
        for grp in (first, second):
            for a in grp:
                for b in grp:
                    if a != b:
                        arcs.add((a, b))
        arcs.add((minus(u), plus(u)))
    for u, v in d.arcs:
        arcs.add((plus(u), minus(v)))
    return build_digraph(d.n * (k + 1), arcs)
