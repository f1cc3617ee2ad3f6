import math
import random

import pytest

from dichroma.core import build_multigraph
from dichroma.defective import (
    EdgeColouring,
    colour_shannon_multigraph,
    defective_colour,
    exact_defective_index,
    extract_factor,
    gamma_d,
    np_gadget_defective,
    shannon_block_order,
    split_euler,
    verify_edge_colouring,
    _factor,
    _tower,
)
from dichroma.errors import BadParameters, EvenD, InvalidInput, NotRegular, OddK
from dichroma.families import shannon_multigraph
from dichroma.vizing import vizing_colour

import helpers
from helpers import complete_graph, complete_minus_matching, petersen


def shannon_bound(k, d):
    return math.ceil((3 * k - 1) / (3 * d - 1))


def test_verify_examples():
    tri = build_multigraph(3, [(0, 1), (1, 2), (0, 2)])
    all_one = EdgeColouring((1, 1, 1), 1)
    assert verify_edge_colouring(tri, all_one, 2).valid
    res = verify_edge_colouring(tri, all_one, 1)
    assert not res.valid and res.count == 2
    g, col = colour_shannon_multigraph(4, 3)
    assert verify_edge_colouring(g, col, 3).valid and col.k == 2


def test_verify_rejects_colours_outside_the_range():
    tri = build_multigraph(3, [(0, 1), (1, 2), (0, 2)])
    for bad in [EdgeColouring((0, 0, 0), 0), EdgeColouring((-1, 1, 2), 2),
                EdgeColouring((1, 3, 2), 2)]:
        with pytest.raises(InvalidInput):
            verify_edge_colouring(tri, bad, 2)


def test_gamma_examples():
    g = build_multigraph(3, [(0, 1)] * 7 + [(0, 2)] * 7 + [(1, 2)] * 2)
    assert gamma_d(g, 3) == 4
    assert gamma_d(g, 1) == 16
    assert gamma_d(complete_graph(4), 4) == 1


def test_exact_examples():
    v, col = exact_defective_index(shannon_multigraph(5), 1)
    assert v == 7
    v2, col2 = exact_defective_index(shannon_multigraph(4), 3)
    assert v2 == 2
    v3, col3 = exact_defective_index(complete_graph(7), 3)
    assert v3 == 3 and verify_edge_colouring(complete_graph(7), col3, 3).valid
    # counting rules k=2 out: 21 edges > 2 * floor(3*7/2) = 20
    assert 21 > 2 * ((3 * 7) // 2)


def test_shannon_block_colouring_range():
    for k in range(1, 10):
        for d in (1, 3, 5):
            g, col = colour_shannon_multigraph(k, d)
            assert col.k == shannon_bound(k, d)
            assert verify_edge_colouring(g, col, d).valid
    with pytest.raises(EvenD):
        colour_shannon_multigraph(4, 2)


def test_shannon_block_order_triangles():
    for k in (3, 4, 7, 9):
        g = shannon_block_order(k)
        for i in range(g.m() - 2):
            tri = {g.edges[i], g.edges[i + 1], g.edges[i + 2]}
            assert len(tri) == 3


def test_split_euler_examples():
    a, b, spare = split_euler(complete_graph(5))
    assert spare is None and len(a) == 5 and len(b) == 5
    for part in (a, b):
        deg = [0] * 5
        for i in part:
            u, v = complete_graph(5).edges[i]
            deg[u] += 1
            deg[v] += 1
        assert all(x == 2 for x in deg)
    a2, b2, spare2 = split_euler(shannon_multigraph(2))
    assert spare2 is not None and len(a2) == 1 and len(b2) == 1
    a3, b3, spare3 = split_euler(shannon_multigraph(4))
    assert spare3 is None and len(a3) == 3
    with pytest.raises(NotRegular):
        split_euler(build_multigraph(3, [(0, 1), (1, 2)]))


def test_extract_factor_examples():
    assert extract_factor(complete_graph(5), 2).verify(complete_graph(5))
    assert extract_factor(shannon_multigraph(6), 2).verify(shannon_multigraph(6))
    assert extract_factor(complete_graph(4), 2).verify(complete_graph(4))
    with pytest.raises(OddK):
        extract_factor(complete_graph(4), 3)


def brute_factor_exists(g, k):
    import itertools

    m = g.m()
    for r in range(m + 1):
        if r * 2 != k * g.n:
            continue
        for comb in itertools.combinations(range(m), r):
            deg = [0] * g.n
            for i in comb:
                u, v = g.edges[i]
                deg[u] += 1
                deg[v] += 1
            if all(x == k for x in deg):
                return True
    return False


def bridged_multigraph(rng):
    """Two random blobs of 2-4 vertices and at most 6 edges each, joined
    by one bridge."""
    edges = []
    sizes = (rng.randrange(2, 5), rng.randrange(2, 5))
    off = 0
    for size in sizes:
        pairs = [(off + i, off + j) for i in range(size) for j in range(i + 1, size)]
        edges += [rng.choice(pairs) for _ in range(rng.randrange(size - 1, 7))]
        off += size
    edges.append((rng.randrange(sizes[0]), sizes[0] + rng.randrange(sizes[1])))
    return build_multigraph(off, edges)


def test_extract_factor_brute_cross_check():
    rng = random.Random(21)
    cases = []
    for _ in range(25):
        n = rng.randrange(3, 7)
        m = rng.randrange(2, 13)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_multigraph(n, [rng.choice(pairs) for _ in range(m)])
        cases += [(g, k) for k in (0, 2, 4)]
    for _ in range(40):
        g = bridged_multigraph(rng)
        cases += [(g, k) for k in (2, 4)]
    for g, k in cases:
        got = _factor(g, [k] * g.n)
        assert (got is not None) == brute_factor_exists(g, k), (g, k)
        if got is not None:
            deg = [0] * g.n
            for i in got:
                u, v = g.edges[i]
                deg[u] += 1
                deg[v] += 1
            assert all(x == k for x in deg)


def test_defective_colour_even_examples():
    doubled_k4 = build_multigraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)] * 2)
    assert doubled_k4.delta == 6
    col = defective_colour(doubled_k4, 2)
    assert col.k == 3 and verify_edge_colouring(doubled_k4, col, 2).valid
    pet = petersen()
    col2 = defective_colour(pet, 2)
    assert col2.k == 2 and verify_edge_colouring(pet, col2, 2).valid


def test_defective_colour_even_matches_exact():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(4, 9)
        deg = rng.choice([2, 4, 6])
        g = helpers.random_regular_multigraph(rng, n if (n * deg) % 2 == 0 else n + 1, deg)
        for d in (2, 4):
            col = defective_colour(g, d)
            assert verify_edge_colouring(g, col, d).valid
            assert col.k == max(1, math.ceil(g.delta / d))


def test_defective_colour_simple_routes():
    k7 = complete_graph(7)
    col = defective_colour(k7, 3, simple_hint=True)
    assert col.k == 3 and verify_edge_colouring(k7, col, 3).valid
    k8m = complete_minus_matching(8)
    col2 = defective_colour(k8m, 3, simple_hint=True)
    assert col2.k == 2 and verify_edge_colouring(k8m, col2, 3).valid
    # d not dividing delta: petersen at d=2 handled by the even route; at
    # d=3 the simple route buckets the proper colouring
    pet = petersen()
    col3 = defective_colour(pet, 3, simple_hint=True)
    assert col3.k == 1 and verify_edge_colouring(pet, col3, 3).valid


def test_defective_colour_odd_multigraph_ladder():
    for k in (4, 5, 7, 9):
        g = shannon_multigraph(k)
        col = defective_colour(g, 3)
        assert verify_edge_colouring(g, col, 3).valid
        assert col.k <= shannon_bound(k, 3)
    # d=1 on a multigraph: the ladder meets the classical 3*delta/2 bound
    sh3 = shannon_multigraph(3)
    col = defective_colour(sh3, 1)
    assert verify_edge_colouring(sh3, col, 1).valid
    assert col.k <= shannon_bound(3, 1) == 4


def sylvester_like():
    balloon = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    edges = []
    for b in range(3):
        off = 1 + 5 * b
        edges += [(u + off, v + off) for u, v in balloon]
        edges.append((0, off + 4))
    return build_multigraph(16, edges)


def test_defective_colour_cut_edge_surgery():
    g = sylvester_like()
    assert all(g.degree(v) == 3 for v in range(g.n))
    # cubic with three bridges and no spanning 2-regular subgraph
    assert _factor(g, [2] * g.n) is None
    col = defective_colour(g, 1, simple_hint=False)
    assert verify_edge_colouring(g, col, 1).valid
    assert col.k <= shannon_bound(3, 1)
    assert col == exact_defective_index(g, 1)[1]


def test_vizing_random_property():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(3, 21)
        p = rng.choice([0.1, 0.25, 0.5, 0.9])
        edges = sorted(
            {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        )
        if not edges:
            continue
        g = build_multigraph(n, edges)
        cols = vizing_colour(g)
        assert max(cols) <= g.delta + 1
        assert verify_edge_colouring(g, EdgeColouring(tuple(cols), max(cols)), 1).valid


def test_tower_base_is_complete():
    g, cols = _tower(1, 3)
    assert g.n == 4 and g.m() == 6
    assert all(g.degree(v) == 3 for v in range(4))
    assert verify_edge_colouring(g, EdgeColouring(tuple(cols), max(cols)), 3).valid


def test_gadget_shape_and_extension():
    k4 = complete_graph(4)
    gad = np_gadget_defective(k4, 3, 3)
    host = gad.graph
    assert host.n == 196 and host.is_simple
    assert all(host.degree(v) == 9 for v in range(host.n))
    matchings = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    proper = [matchings[e] for e in k4.edges]
    ext = gad.extend(proper)
    assert ext.k == 3 and verify_edge_colouring(host, ext, 3).valid
    with pytest.raises(BadParameters):
        np_gadget_defective(k4, 3, 2)
    with pytest.raises(BadParameters):
        np_gadget_defective(complete_graph(5), 3, 3)  # not 3-regular


def test_subdivision_edges_forced_equal():
    """All valid (2,3)-colourings of the subdivided two-level tower give
    the two subdivision edges one colour."""
    tower, _ = _tower(2, 3)
    assert tower.n == 8 and all(tower.degree(v) == 6 for v in range(8))
    a, b = tower.edges[0]
    edges = list(tower.edges[1:]) + [(a, 8), (b, 8)]
    h = build_multigraph(9, edges)
    m = h.m()
    found = [0, 0]  # colourings with equal / unequal subdivision colours

    def dfs(i, counts, cols):
        if found[0] + found[1] > 5000:
            return
        if i == m:
            same = cols[m - 2] == cols[m - 1]
            found[0 if same else 1] += 1
            return
        u, v = h.edges[i]
        top = 2 if any(cols) or i > 0 else 1
        for c in (1, 2) if i else (1,):
            if counts.get((u, c), 0) >= 3 or counts.get((v, c), 0) >= 3:
                continue
            counts[(u, c)] = counts.get((u, c), 0) + 1
            counts[(v, c)] = counts.get((v, c), 0) + 1
            cols.append(c)
            dfs(i + 1, counts, cols)
            cols.pop()
            counts[(u, c)] -= 1
            counts[(v, c)] -= 1

    dfs(0, {}, [])
    assert found[0] > 0 and found[1] == 0


def test_gadget_tower_respects_parity_argument():
    # the reduced tower used above is 6-regular with even order, so a
    # 2-colouring at defect 3 exists at all
    tower, _ = _tower(2, 3)
    v, col = exact_defective_index(tower, 3)
    assert v == 2


def test_subdivision_equality_sampled_full_tower():
    """A search-found defect-3 colouring of the full three-level subdivided
    tower also gives both subdivision edges one colour."""
    tower, _ = _tower(3, 3)
    a, b = tower.edges[0]
    edges = list(tower.edges[1:]) + [(a, tower.n), (b, tower.n)]
    h = build_multigraph(tower.n + 1, edges)
    v, col = exact_defective_index(h, 3)
    assert v == 3
    assert verify_edge_colouring(h, col, 3).valid
    assert col.colours[-2] == col.colours[-1]
