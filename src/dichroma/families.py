"""Small standard digraph and multigraph families used across the toolkit."""

from __future__ import annotations

from .core import Digraph, Multigraph, build_digraph, build_multigraph
from .errors import BadParameters


def dicycle(n: int) -> Digraph:
    if n < 2:
        raise BadParameters("a dicycle needs at least 2 vertices")
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def transitive_tournament(n: int) -> Digraph:
    return build_digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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


def shannon_multigraph(k: int) -> Multigraph:
    """Three vertices joined by floor(k/2), floor(k/2), ceil(k/2) edges.

    The two vertices of the heavier pair have degree k; the third has
    degree k when k is even and k-1 when k is odd.
    """
    if k < 1:
        raise BadParameters("k must be positive")
    lo, hi = k // 2, (k + 1) // 2
    edges = [(1, 2)] * hi + [(0, 1)] * lo + [(0, 2)] * lo
    return build_multigraph(3, edges)


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
