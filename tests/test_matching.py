import random

import networkx as nx

from dichroma.matching import max_matching

from helpers import exhaustive_max_matching


def test_blossom_matches_exhaustive_oracle():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randrange(2, 15)
        edges = sorted(
            {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < rng.choice([0.15, 0.3, 0.6])
            }
        )
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        match = max_matching(n, adj)
        size = sum(1 for v in range(n) if match[v] != -1) // 2
        for v in range(n):
            if match[v] != -1:
                assert match[match[v]] == v
                assert match[v] in adj[v]
        assert size == exhaustive_max_matching(n, edges)


def test_blossom_odd_cycles():
    # blossoms proper: odd cycle plus pendant chains
    n = 9
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (2, 7), (7, 8)]
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    match = max_matching(n, adj)
    size = sum(1 for v in range(n) if match[v] != -1) // 2
    assert size == exhaustive_max_matching(n, edges) == 4


def test_blossom_matches_networkx_on_larger_graphs():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randrange(2, 41)
        p = rng.choice([0.05, 0.1, 0.2, 0.4])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        match = max_matching(n, adj)
        assert all(match[v] == -1 or match[match[v]] == v and match[v] in adj[v] for v in range(n))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        size = sum(1 for v in range(n) if match[v] != -1) // 2
        assert size == len(nx.max_weight_matching(g, maxcardinality=True))
