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
