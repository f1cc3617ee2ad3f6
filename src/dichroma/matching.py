"""General maximum matching (augmenting paths with blossom contraction).

Used to extract degree factors of multigraphs through the stub/inner
gadget reduction to perfect matching.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def max_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching of a simple graph; match[v] = partner or -1."""
    match = [-1] * n
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    # greedy warm start keeps the augmenting phase short
    for v in order:
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment(n, adj, match, v)
    return match


def _augment(n: int, adj, match: list[int], root: int) -> bool:
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = lca(v, to)
                blossom = [False] * n
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = p[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False
