import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dichroma.core import (
    Digraph,
    Multigraph,
    bfs_order,
    blocks,
    build_digraph,
    build_multigraph,
    components,
    contract,
    euler_tour,
    lexicographic,
    mask_of,
    partition,
    strong_components,
)
from dichroma.errors import (
    Disconnected,
    DuplicateArc,
    IndexOutOfRange,
    InvalidPartition,
    LoopArc,
)
from dichroma.extremal import directed_hajos_join, lambda_profile
from dichroma.families import dicycle, shannon_multigraph, transitive_tournament
from dichroma.heroes import gen_fk

import helpers
from helpers import sym_complete, sym_cycle
from enumeration import all_labelled_digraphs, digraph_reps, mask_to_digraph
from strategies import digraphs, multigraphs


def test_build_digraph_examples():
    c3 = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert c3.arcs == dicycle(3).arcs
    digon = build_digraph(2, [(0, 1), (1, 0)])
    assert not digon.is_oriented
    with pytest.raises(LoopArc):
        build_digraph(1, [(0, 0)])
    with pytest.raises(DuplicateArc):
        build_digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(IndexOutOfRange):
        build_digraph(2, [(0, 5)])


def test_degree_symbols():
    d = build_digraph(3, [(0, 1), (0, 2), (1, 0)])
    assert d.d_plus(0) == 2 and d.d_minus(0) == 1
    assert d.d_min(0) == 1 and d.d_max(0) == 2
    assert d.delta_max == 2 and max(d.d_min(v) for v in range(d.n)) == 1
    assert sym_complete(3).is_oriented is False
    assert transitive_tournament(4).is_oriented


def test_graphs_are_frozen_values_with_cached_adjacency():
    arcs = frozenset({(0, 1), (1, 2)})
    d = Digraph(3, arcs)
    assert d == Digraph(3, frozenset(arcs)) and hash(d) == hash((3, arcs))
    g = Multigraph(3, ((1, 0), (0, 1), (1, 2)))
    assert g.edges == ((0, 1), (0, 1), (1, 2))
    assert g == Multigraph(3, g.edges) and hash(g) == hash((3, g.edges))
    for graph, field in ((d, "n"), (d, "arcs"), (g, "n"), (g, "edges")):
        with pytest.raises(AttributeError):
            setattr(graph, field, None)
    assert d.out_masks is d.out_masks and g.adj is g.adj


def test_induced_on_every_vertex_is_the_digraph_itself():
    d = build_digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    whole, labels = d.induced([3, 1, 0, 2, 1])
    assert whole is d and labels == [0, 1, 2, 3]
    sub, labels = d.induced([2, 0, 1])
    assert labels == [0, 1, 2] and sub.arcs == {(0, 1), (1, 2), (2, 0)}


def test_strong_components_examples():
    assert [sorted(p) for p in strong_components(dicycle(3)).parts] == [[0, 1, 2]]
    tt3 = transitive_tournament(3)
    assert [sorted(p) for p in strong_components(tt3).parts] == [[0], [1], [2]]
    f2 = gen_fk(3, 2).digraph
    assert len(strong_components(f2).parts) == 1


def test_strong_components_topological_order():
    # arcs between classes must go from an earlier part to a later one
    d = build_digraph(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (5, 0)])
    parts = strong_components(d).parts
    pos = {}
    for i, p in enumerate(parts):
        for v in p:
            pos[v] = i
    for u, v in d.arcs:
        assert pos[u] <= pos[v]


def test_strong_components_oracle_exhaustive_small():
    for d in all_labelled_digraphs(3):
        assert set(strong_components(d).parts) == set(helpers.reachability_scc(d))
    for mask in digraph_reps(4):
        d = mask_to_digraph(4, mask)
        assert set(strong_components(d).parts) == set(helpers.reachability_scc(d))


@given(digraphs(min_n=1, max_n=7))
def test_strong_components_oracle_random(d):
    assert set(strong_components(d).parts) == set(helpers.reachability_scc(d))


def test_blocks_examples():
    two_c3 = build_digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    got = {frozenset(b) for b in blocks(two_c3)}
    assert got == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    assert [sorted(b) for b in blocks(sym_complete(4))] == [[0, 1, 2, 3]]
    join = directed_hajos_join(sym_complete(4), (0, 1), sym_complete(4), (0, 1))
    # removing the bridging arc u->w leaves two blocks meeting at the
    # identified vertex (label 1: the head of the first swapped arc)
    cut = Digraph(join.n, join.arcs - {(0, 4)})
    blks = blocks(cut)
    assert len(blks) == 2
    shared = set(blks[0]) & set(blks[1])
    assert shared == {1}


def test_blocks_oracle_and_invariants():
    rng = random.Random(5)
    cases = [mask_to_digraph(4, m) for m in digraph_reps(4)]
    cases += [helpers.random_digraph(rng, 6, 0.3) for _ in range(40)]
    for d in cases:
        blks = blocks(d)
        assert {frozenset(b) for b in blks} == helpers.brute_blocks(d)
        # each underlying edge lies in exactly one block
        for u, v in d.arcs:
            owners = [b for b in blks if u in b and v in b]
            assert len(owners) == 1
        for b1, b2 in itertools.combinations(blks, 2):
            assert len(set(b1) & set(b2)) <= 1


def test_contract_examples():
    c4 = dicycle(4)
    q = contract(c4, partition(4, [{0, 1}, {2}, {3}]))
    assert q.arcs == dicycle(3).arcs
    digon = build_digraph(2, [(0, 1), (1, 0)])
    q2 = contract(digon, partition(2, [{0, 1}]))
    assert q2.n == 1 and not q2.arcs
    with pytest.raises(InvalidPartition):
        contract(c4, partition(3, [{0}, {1}, {2}]))


def test_contract_dicut_side_of_extremal():
    join = directed_hajos_join(sym_complete(4), (0, 1), sym_complete(4), (0, 1))
    prof = lambda_profile(join)
    side, rest = prof.side, set(range(join.n)) - prof.side
    assert prof.value == 3 and sum(1 for u, v in join.arcs if u in side and v in rest) == 3
    part = partition(join.n, [side, *[{v} for v in sorted(rest)]])
    q = contract(join, part)
    assert q.d_plus(0) == 3


@given(digraphs(min_n=1, max_n=7))
def test_contract_singletons_identity(d):
    q = contract(d, partition(d.n, [{v} for v in range(d.n)]))
    assert q.arcs == d.arcs and q.n == d.n


def test_lexicographic_parts_are_modules_that_contract_back_to_the_quotient():
    rng = random.Random(23)
    for _ in range(200):
        q = helpers.random_digraph(rng, rng.randrange(0, 6), rng.choice([0.2, 0.5, 0.8]))
        parts = [helpers.random_digraph(rng, rng.randrange(1, 5), 0.4) for _ in range(q.n)]
        d = lexicographic(q, parts)
        ranges, start = [], 0
        for p in parts:
            ranges.append(range(start, start + p.n))
            start += p.n
        assert d.n == start
        for i, (p, r) in enumerate(zip(parts, ranges)):
            assert d.induced(r)[0] == p
            # a module: every other vertex sees all of the part or none of it
            for x in set(range(d.n)) - set(r):
                assert len({(x, y) in d.arcs for y in r}) == 1
                assert len({(y, x) in d.arcs for y in r}) == 1
        assert contract(d, partition(d.n, ranges)) == q
    with pytest.raises(InvalidPartition):
        lexicographic(dicycle(3), [dicycle(2)] * 2)


def test_euler_examples():
    tri = build_multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(euler_tour(tri)) == 3
    p3 = build_multigraph(3, [(0, 1), (1, 2)])
    assert euler_tour(p3) is None
    sh4 = shannon_multigraph(4)
    assert len(euler_tour(sh4)) == 6
    assert helpers.brute_has_closed_trail(sh4)


def _tour_is_valid(g, tour):
    """None, or every edge once, walked end to end from the least
    non-isolated vertex and back."""
    if tour is None:
        return True
    if sorted(tour) != list(range(g.m())):
        return False
    start = next((v for v in range(g.n) if g.degree(v) > 0), None)
    at = start
    for ei in tour:
        u, w = g.edges[ei]
        if at not in (u, w):
            return False
        at = w if at == u else u
    return at == start


def test_euler_exhaustive_small():
    # closed trail exists iff degrees even and non-isolated part connected;
    # all multigraphs on 5 vertices with up to 8 edges
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for m in range(0, 9):
        for combo in itertools.combinations_with_replacement(pairs, m):
            g = Multigraph(5, tuple(combo))
            res = euler_tour(g)
            even = all(g.degree(v) % 2 == 0 for v in range(5))
            active = [v for v in range(5) if g.degree(v) > 0]
            connected = True
            if active:
                comps = [c for c in components(g.masks, (1 << 5) - 1) if c & mask_of(active)]
                connected = len(comps) == 1
            assert (res is not None) == (even and connected), g
            assert _tour_is_valid(g, res)


@given(multigraphs(max_n=5, max_m=8))
def test_euler_matches_brute_trail(g):
    res = euler_tour(g)
    assert (res is not None) == helpers.brute_has_closed_trail(g)
    assert _tour_is_valid(g, res)


def test_bfs_order_examples():
    assert bfs_order(dicycle(3), 0) == [0, 1, 2]
    star = build_digraph(4, [(0, 1), (0, 2), (0, 3)])
    assert bfs_order(star, 0) == [0, 1, 2, 3]
    assert bfs_order(sym_cycle(5), 0) == [0, 1, 4, 2, 3]
    with pytest.raises(Disconnected):
        bfs_order(build_digraph(3, [(0, 1)]), 0)
