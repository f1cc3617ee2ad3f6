"""The traversal primitives of dichroma.core against networkx."""

from __future__ import annotations

import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from dichroma.colouring import find_cycle_in
from dichroma.core import (
    Digraph,
    Multigraph,
    bfs_order,
    bfs_path,
    bits,
    components,
    cut_labels,
    lowpoints,
    mask_of,
    reach,
    strong_components,
    strong_parts,
)
from dichroma.errors import Disconnected
from dichroma.extremal import _star_forests, _underlying as underlying_masks

import helpers
from strategies import digraphs, multigraphs


def _underlying(d: Digraph) -> Multigraph:
    """One edge per arc, so a digon becomes a doubled edge."""
    return Multigraph(d.n, tuple((min(a), max(a)) for a in sorted(d.arcs)))


@given(digraphs(max_n=12), st.data())
def test_components_after_deletions_and_drops(d, data):
    gone = data.draw(st.sets(st.integers(0, d.n - 1)))
    drop = data.draw(st.sets(st.sampled_from(sorted(d.arcs)))) if d.arcs else set()
    keep = [v for v in range(d.n) if v not in gone]
    left = [(p, q) for p, q in d.arcs - drop if p in keep and q in keep]
    adj = [0] * d.n
    for p, q in d.arcs - drop:
        adj[p] |= 1 << q
        adj[q] |= 1 << p
    g = nx.Graph()
    g.add_nodes_from(keep)
    g.add_edges_from(left)
    expected = sorted(sorted(c) for c in nx.connected_components(g))
    assert [bits(c) for c in components(adj, mask_of(keep))] == expected


def test_cut_vertices_match_networkx_articulation_points():
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randrange(1, 13)
        d = helpers.random_digraph(rng, n, rng.choice([0.08, 0.15, 0.3]))
        keep = mask_of(v for v in range(n) if rng.random() < 0.85)
        adj, doubled = underlying_masks(d, keep, ())
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((p, q) for p, q in d.arcs if keep >> p & 1 and keep >> q & 1)
        assert bits(lowpoints(adj, doubled).cuts) == sorted(nx.articulation_points(g))
        assert lowpoints(adj, [0] * n).cuts == lowpoints(adj, doubled).cuts


@given(digraphs(max_n=12), st.data())
def test_reach_follows_arcs_inside_a_vertex_subset(d, data):
    within = data.draw(st.sets(st.integers(0, d.n - 1)))
    sources = data.draw(st.sets(st.integers(0, d.n - 1)))
    sub = nx.DiGraph()
    sub.add_nodes_from(within)
    sub.add_edges_from((p, q) for p, q in d.arcs if p in within and q in within)
    expected = set(sources & within)
    for s in sources & within:
        expected |= nx.descendants(sub, s)
    assert bits(reach(d.out_masks, mask_of(within), mask_of(sources))) == sorted(expected)


@given(st.one_of(multigraphs(min_n=2, max_n=12, max_m=24), digraphs(max_n=12).map(_underlying)))
def test_bridges_leave_out_parallel_edges(g):
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    doubled = [0] * g.n
    for (u, v), copies in Counter(g.edges).items():
        if copies > 1:
            doubled[u] |= 1 << v
            doubled[v] |= 1 << u
    found = list(lowpoints(g.masks, doubled).bridges)
    assert {frozenset(e) for e in found} == {frozenset(e) for e in nx.bridges(nxg)}


def test_bridge_ends_of_a_digraph_minus_vertices_and_arcs():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 11)
        d = helpers.random_digraph(rng, n, rng.choice([0.1, 0.2, 0.35]))
        keep = mask_of(v for v in range(n) if rng.random() < 0.85)
        arcs = sorted(d.arcs)
        drop = set(rng.sample(arcs, rng.randrange(min(3, len(arcs)) + 1)))
        digons = [(p, q) for p, q in arcs if p < q and (q, p) in d.arcs]
        if digons:  # one arc of one digon and both arcs of another
            p, q = rng.choice(digons)
            drop.add(rng.choice([(p, q), (q, p)]))
            p, q = rng.choice(digons)
            drop |= {(p, q), (q, p)}
        left = [a for a in arcs if a not in drop and all(keep >> v & 1 for v in a)]
        adj, doubled = underlying_masks(d, keep, drop)
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(left)
        found = lowpoints(adj, doubled).bridges
        assert {frozenset(e) for e in found} == {frozenset(e) for e in nx.bridges(nxg)}
        for (p, q), side in found.items():  # the side one end keeps alone
            cut = nx.MultiGraph(nxg)
            cut.remove_edge(p, q)
            end = p if side >> p & 1 else q
            assert bits(side) == sorted(nx.node_connected_component(cut, end))
        g = Multigraph(n, tuple(left))
        assert adj == list(g.masks)


def _doubled_multigraphs(seed, count):
    """Seeded digraphs on at most 12 vertices, read as multigraphs whose
    digons are doubled edges; sparse ones are often disconnected."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 13)
        p, q = rng.choice([0.12, 0.25, 0.4]), rng.choice([0.0, 0.2, 0.45])
        arcs = []
        for u in range(n):
            for w in range(u + 1, n):
                r = rng.random()
                if r < p * q:
                    arcs += [(u, w), (w, u)]
                elif r < p:
                    arcs.append((u, w) if rng.random() < 0.5 else (w, u))
        yield Digraph(n, frozenset(arcs))


def _component_count(n, edges):
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.number_connected_components(g)


def _brute_bridges(n, copies):
    """The end pairs of the edge copies whose removal adds a component."""
    base = _component_count(n, copies)
    return {
        copies[i] for i in range(len(copies))
        if _component_count(n, copies[:i] + copies[i + 1:]) > base
    }


def test_cut_labels_give_bridges_and_two_edge_cuts():
    disconnected = 0
    for d in _doubled_multigraphs(11, 60):
        full = (1 << d.n) - 1
        labels = cut_labels(lowpoints(*underlying_masks(d, full, ())))
        copies = [(a, b) for a, b, _ in labels]
        assert sorted(copies) == sorted((min(a), max(a)) for a in d.arcs)
        assert all(a < b for a, b in copies)
        assert {e for e, (_, _, label) in zip(copies, labels) if label == 0} == (
            _brute_bridges(d.n, copies)
        )
        # two copies, neither a bridge, whose removal adds a component
        base = _component_count(d.n, copies)
        disconnected += base > 1
        for i, (_, _, first) in enumerate(labels):
            for j in range(i + 1, len(labels)):
                rest = copies[:i] + copies[i + 1:j] + copies[j + 1:]
                second = labels[j][2]
                cut = first != 0 and second != 0 and _component_count(d.n, rest) > base
                assert (first != 0 and first == second) == cut
    assert disconnected > 0


def test_bridges_less_one_edge_copy_from_cut_labels():
    # every arc is one edge copy: of a digon, one of two parallel copies
    probes = 0
    rng = random.Random(13)
    for d in _doubled_multigraphs(12, 120):
        full = (1 << d.n) - 1
        keep = full & ~(1 << rng.randrange(d.n)) if rng.random() < 0.5 else full
        inside = sorted(a for a in d.arcs if keep >> a[0] & 1 and keep >> a[1] & 1)
        forests = list(_star_forests(d, lowpoints(*underlying_masks(d, keep, ()))))
        assert [arc for arc, _ in forests] == inside
        for i, (arc, forest) in enumerate(forests):
            got = {(a, b) for a in range(d.n) for b in bits(forest[a]) if a < b}
            adj, doubled = underlying_masks(d, keep, [arc])
            assert got == set(lowpoints(adj, doubled).bridges)
            rest = [(min(a), max(a)) for a in inside[:i] + inside[i + 1:]]
            assert got == _brute_bridges(d.n, rest)
            probes += 1
    assert probes > 1000


@given(digraphs(max_n=12), st.data())
def test_is_acyclic_on_vertex_subsets(d, data):
    """find_cycle_in gives None exactly on an acyclic induced subdigraph,
    and otherwise a dicycle of it."""
    s = data.draw(st.sets(st.integers(0, d.n - 1)))
    sub = _induced(d, s)
    cyc = find_cycle_in(d.out_masks, mask_of(s))
    if nx.is_directed_acyclic_graph(sub):
        assert cyc is None
    else:
        assert cyc and len(set(cyc)) == len(cyc)
        assert all(sub.has_edge(p, q) for p, q in zip(cyc, cyc[1:] + cyc[:1]))


@given(digraphs(max_n=12), st.data())
def test_bfs_path_is_a_shortest_path(d, data):
    within = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1))
    a, b = data.draw(st.sampled_from(sorted(within))), data.draw(st.sampled_from(sorted(within)))
    sub = nx.DiGraph()
    sub.add_nodes_from(within)
    sub.add_edges_from((p, q) for p, q in d.arcs if p in within and q in within)
    path = bfs_path(d.out_masks, mask_of(within), a, b)
    if not nx.has_path(sub, a, b):
        assert path is None
        return
    assert path[0] == a and path[-1] == b and set(path) <= within
    assert all(sub.has_edge(p, q) for p, q in zip(path, path[1:]))
    assert len(path) - 1 == nx.shortest_path_length(sub, a, b)


def _induced(d: Digraph, within) -> nx.DiGraph:
    sub = nx.DiGraph()
    sub.add_nodes_from(within)
    sub.add_edges_from((p, q) for p, q in d.arcs if p in within and q in within)
    return sub


@given(digraphs(max_n=12), st.data())
def test_strong_parts_are_ordered_strong_components(d, data):
    within = data.draw(st.sampled_from([set(range(d.n)), None]))
    if within is None:
        within = data.draw(st.sets(st.integers(0, d.n - 1)))
    parts = strong_parts(d.out_masks, mask_of(within))
    expected = nx.strongly_connected_components(_induced(d, within))
    assert sorted(bits(p) for p in parts) == sorted(sorted(c) for c in expected)
    rank = {v: i for i, p in enumerate(parts) for v in bits(p)}
    assert all(rank[p] <= rank[q] for p, q in d.arcs if p in rank and q in rank)
    if len(within) == d.n:
        assert strong_components(d).parts == tuple(frozenset(bits(p)) for p in parts)


@given(digraphs(max_n=12), st.data())
def test_bfs_order_follows_sorted_neighbours(d, data):
    root = data.draw(st.integers(0, d.n - 1))
    und = nx.Graph()
    und.add_nodes_from(range(d.n))
    und.add_edges_from(d.arcs)
    expected = [root] + [q for _, q in nx.bfs_edges(und, root, sort_neighbors=sorted)]
    if len(expected) < d.n:
        with pytest.raises(Disconnected):
            bfs_order(d, root)
    else:
        assert bfs_order(d, root) == expected


def test_multigraph_normalises_endpoints_in_place():
    g = Multigraph(3, ((1, 0), (0, 1), (1, 2)))
    assert g.edges == ((0, 1), (0, 1), (1, 2))
    assert g.mu == 2 and g.edges.count((0, 1)) == 2
