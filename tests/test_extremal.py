import hashlib
import importlib
import itertools
import json
import os
import random

import networkx as nx
import pytest

from dichroma import core, extremal
from dichroma.colouring import exact_dichromatic
from dichroma.core import Digraph, bits, build_digraph, components, lowpoints, mask_of, reach
from dichroma.errors import (
    BadEmbeddingOrder,
    InvalidInput,
    MissingDigon,
    ParityViolated,
    PreconditionViolated,
    UnsupportedK,
)
from dichroma.extremal import (
    BASE_COMPLETE,
    BASE_ODD_WHEEL,
    check_2_extremal,
    check_extremal_necessary,
    directed_hajos_join,
    generalized_wheel,
    hajos_bijoin,
    hajos_star_join,
    hajos_tree_join,
    induced_cycle_hypergraph,
    lambda_profile,
    local_lambda,
    parallel_hajos_join,
    recognize_k_extremal,
)
from dichroma.families import dicycle

import helpers
from helpers import sym_complete


def k4_arcs(vs):
    return [(p, q) for p in vs for q in vs if p != q]


def _pairs(n: int):
    """Every ordered pair of distinct vertices, in ascending order."""
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def test_lambda_examples():
    for n in (3, 5, 8):
        assert lambda_profile(dicycle(n)).value == 1
    assert lambda_profile(sym_complete(4)).value == 3


def test_lambda_menger_consistency():
    rng = random.Random(17)
    for _ in range(25):
        d = helpers.random_digraph(rng, 6, 0.35)
        for u, v in _pairs(d.n):
            val, x = local_lambda(d, u, v)
            crossing = sum(1 for a, b in d.arcs if a in x and b not in x)
            assert crossing == val
            assert val == helpers.brute_lambda(d, u, v)


def test_directed_join_examples():
    j = directed_hajos_join(sym_complete(4), (0, 1), sym_complete(4), (0, 1))
    assert j.n == 7
    assert recognize_k_extremal(j, 3).extremal
    j2 = directed_hajos_join(dicycle(3), (0, 1), dicycle(3), (0, 1))
    assert j2.n == 5 and exact_dichromatic(j2).value == 2
    assert recognize_k_extremal(j2, 1).extremal  # both parts extremal at k=1


def test_join_soundness_lambda():
    rng = random.Random(23)
    base = sym_complete(4)
    for _ in range(10):
        arcs1 = sorted(base.arcs)
        a1 = rng.choice(arcs1)
        a2 = rng.choice(arcs1)
        j = directed_hajos_join(base, a1, base, a2)
        if j.n <= 14:
            assert lambda_profile(j).value <= lambda_profile(base).value


def test_bijoin_examples():
    k4 = sym_complete(4)
    bid = hajos_bijoin(k4, (0, 1, 0), k4, (0, 1, 0))
    assert bid.bidirected and not bid.degenerate
    assert recognize_k_extremal(bid.digraph, 3).extremal
    gen = hajos_bijoin(k4, (0, 1, 2), k4, (0, 1, 2))
    assert not gen.bidirected and not gen.degenerate
    assert exact_dichromatic(gen.digraph).value == 3
    assert not recognize_k_extremal(gen.digraph, 3).extremal
    # same-component precondition: a dipath split by the middle vertex
    path = build_digraph(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionViolated):
        hajos_bijoin(path, (0, 1, 2), k4, (0, 1, 0))


def test_tree_join_path_is_bidirected_join():
    # a two-edge path tree with the leaf digon equals the bidirected join
    k4 = sym_complete(4)
    bid = hajos_bijoin(k4, (1, 0, 1), k4, (1, 0, 1)).digraph
    # tree vertices: 1 (leaf), 0 (centre), 4 (leaf); parts on global labels
    part1 = k4_arcs([1, 0, 2, 3])
    part2 = k4_arcs([0, 4, 5, 6])
    tj = hajos_tree_join(7, [(1, 0), (0, 4)], [part1, part2], [1, 4])
    assert tj.arcs == bid.arcs


def test_tree_join_validation():
    part1 = k4_arcs([1, 0, 2, 3])
    part2 = k4_arcs([0, 4, 5, 6])
    with pytest.raises(MissingDigon):
        bad1 = [a for a in part1 if a != (1, 0)]
        hajos_tree_join(7, [(1, 0), (0, 4)], [bad1, part2], [1, 4])
    with pytest.raises(BadEmbeddingOrder):
        hajos_tree_join(7, [(1, 0), (0, 4)], [part1, part2], [1, 0])


def tree_join_pair():
    """The embedding-order tree join and its crossed variant: a seven-vertex
    tree (two internal junctions) with one complete symmetric part per
    edge."""
    A, B, H, I, D, E, G = 0, 1, 2, 3, 4, 5, 6
    tree = [(E, B), (E, H), (E, G), (G, A), (G, I), (G, D)]
    parts = []
    nxt = 7
    for (u, v) in tree:
        parts.append(k4_arcs([u, v, nxt, nxt + 1]))
        nxt += 2
    good = [A, B, H, I, D]
    crossed = [A, B, I, H, D]
    g2 = hajos_tree_join(nxt, tree, parts, good)
    g3 = hajos_tree_join(nxt, tree, parts, crossed, check_embedding=False)
    return g2, g3, (tree, parts, nxt, crossed)


def test_tree_join_pair_values():
    g2, g3, (tree, parts, n, crossed) = tree_join_pair()
    assert lambda_profile(g2).value == 3
    assert exact_dichromatic(g2).value == 4
    assert recognize_k_extremal(g2, 3).extremal
    with pytest.raises(BadEmbeddingOrder):
        hajos_tree_join(n, tree, parts, crossed)
    assert lambda_profile(g3).value == 4
    assert exact_dichromatic(g3).value == 4
    assert not recognize_k_extremal(g3, 3).extremal


def test_parallel_join_roundtrip():
    # chain of three parts: the middle one is spliced in by a parallel join
    k4 = sym_complete(4)
    chain = hajos_tree_join(
        10,
        [(0, 1), (1, 2), (2, 3)],
        [k4_arcs([0, 1, 4, 5]), k4_arcs([1, 2, 6, 7]), k4_arcs([2, 3, 8, 9])],
        [0, 3],
    )
    res = recognize_k_extremal(chain, 3)
    assert res.extremal
    assert res.certificate.replay_arcs() == chain.arcs
    # rebuild through the forward operation from the found witness
    wit = res.certificate.witness
    assert res.certificate.kind == "ParallelHajosJoin"


def test_parallel_join_forward_matches_recognizer_children():
    # host: bidirected join of two complete parts carries the crossing arcs
    k4 = sym_complete(4)
    host = hajos_bijoin(k4, (1, 0, 1), k4, (1, 0, 1)).digraph
    # crossing arcs are 1->4 and 4->1; splice a digon part into vertex 0
    mid = sym_complete(4)
    out = parallel_hajos_join(
        host, 0, 1, 4, 4, 1, {0, 1, 2, 3}, mid, 0, 1
    )
    assert out.n == host.n - 1 + mid.n
    assert recognize_k_extremal(out, 3).extremal
    # violating the crossing-arc condition is rejected
    with pytest.raises(PreconditionViolated):
        parallel_hajos_join(host, 0, 1, 4, 4, 1, {0, 1, 2}, mid, 0, 1)
    # so is an A side with a label that is not a host vertex
    for stray in (99, -5):
        with pytest.raises(PreconditionViolated):
            parallel_hajos_join(host, 0, 1, 4, 4, 1, {0, 1, 2, 3, stray}, mid, 0, 1)


def test_recognizer_bases_and_refusals():
    assert recognize_k_extremal(sym_complete(4), 3).certificate.kind == BASE_COMPLETE
    assert recognize_k_extremal(sym_complete(5), 4).certificate.kind == BASE_COMPLETE
    assert not recognize_k_extremal(sym_complete(5), 3).extremal
    arcs = []
    for i in range(1, 6):
        j = 1 + (i % 5)
        arcs += [(i, j), (j, i), (0, i), (i, 0)]
    wheel5 = build_digraph(6, arcs)
    res = recognize_k_extremal(wheel5, 3)
    assert res.extremal and res.certificate.kind == BASE_ODD_WHEEL
    assert res.certificate.replay_arcs() == wheel5.arcs
    with pytest.raises(UnsupportedK):
        recognize_k_extremal(sym_complete(3), 2)
    assert recognize_k_extremal(dicycle(4), 1).extremal
    assert not recognize_k_extremal(build_digraph(2, [(0, 1)]), 1).extremal


def test_recognizer_star_join():
    k4 = sym_complete(4)
    star = hajos_star_join(
        10,
        0,
        [1, 2, 3],
        [k4_arcs([0, 1, 4, 5]), k4_arcs([0, 2, 6, 7]), k4_arcs([0, 3, 8, 9])],
    )
    res = recognize_k_extremal(star, 3)
    assert res.extremal
    assert res.certificate.replay_arcs() == star.arcs
    # one-arc perturbation breaks the degree balance and is rejected fast
    arc = next(iter(star.arcs))
    assert not recognize_k_extremal(Digraph(star.n, star.arcs - {arc}), 3).extremal


def _pinned_certificate_inputs():
    """(digraph, k, root kind, sha256 of the sorted-key JSON certificate):
    one recognized digraph per certificate kind, built by the public
    constructors.  The parallel join's host is a bidirected join and its
    A/C child is a star join."""
    k4 = sym_complete(4)
    host = hajos_bijoin(k4, (1, 0, 1), k4, (1, 0, 1)).digraph
    star_parts = [k4_arcs([0, 1, 4, 5]), k4_arcs([0, 2, 6, 7]), k4_arcs([0, 3, 8, 9])]
    wheel = [(i, j) for i in range(1, 6) for j in (0, 1 + i % 5, 1 + (i + 3) % 5)]
    wheel += [(0, i) for i in range(1, 6)]
    return [
        (directed_hajos_join(k4, (0, 1), k4, (2, 3)), 3, "DirectedHajosJoin",
         "8998af34bb6c6120dc92c66043edea6ce0be37d4ba7bb7c94220d0816b23d0b8"),
        (parallel_hajos_join(host, 0, 1, 4, 4, 1, {0, 1, 2, 3}, k4, 0, 1), 3,
         "ParallelHajosJoin",
         "67f1bddd713a543bf6383b403d69e3bb4a827f91607752b2c395b73ff3dc9b22"),
        (hajos_star_join(10, 0, [1, 2, 3], star_parts), 3, "HajosStarJoin",
         "3b9a27cacb6ae21f26bc8a9e71f73ede7e7b37328b2d2c745209132882b5b510"),
        (sym_complete(5), 4, "BaseSymmetricComplete",
         "1841d002416e3642ac6e3989d98ad16b0fcacd5110e7afda9d6f9c8a6111ef8b"),
        (build_digraph(6, wheel), 3, "BaseSymmetricOddWheel",
         "edf7920545879ef2f599ae7489a89bb372df9542a115ffd3bb3a27ca180136a1"),
        (dicycle(5), 1, "BaseDirectedCycle",
         "e1ae1d8c32233ac249c76d02d209ab5cf0f14c48dd3adbb41d94b170692c93a2"),
    ]


@pytest.mark.parametrize("d, k, kind, digest", _pinned_certificate_inputs())
def test_certificate_bytes_are_pinned(d, k, kind, digest):
    # certificates are part of the output contract: a refactor of the joins
    # or the split finders must leave every byte of them as it was
    cert = recognize_k_extremal(d, k).certificate
    assert cert.kind == kind and cert.replay_arcs() == d.arcs
    text = json.dumps(extremal.certificate_to_dict(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _lowpoint_spy(monkeypatch) -> list:
    """Record the vertex bitset of every `lowpoints` search that the
    recognizer runs (its vertices with a neighbour: all of them here)."""
    searched = []

    def spy(adj, doubled):
        searched.append(mask_of(v for v, nbrs in enumerate(adj) if nbrs))
        return lowpoints(adj, doubled)

    monkeypatch.setattr(extremal, "lowpoints", spy)
    return searched


def _one_less(searched: list, n: int) -> list:
    """The searches of d - x among `searched`, checked to be one per x."""
    minus_one = [s for s in searched if s.bit_count() == n - 1]
    assert len(set(minus_one)) == len(minus_one) <= n
    return minus_one


def _star_pin_input():
    """A star join whose centre 9 comes last, so every centre is tried.
    Only the centre and the rim 1, 2, 3 have a 2-cut partner."""
    return hajos_star_join(
        10,
        9,
        [1, 2, 3],
        [k4_arcs([9, 1, 4, 5]), k4_arcs([9, 2, 6, 7]), k4_arcs([9, 3, 8, 0])],
    )


def test_star_split_reads_one_cut_labelling_per_centre(monkeypatch):
    # one bridge search per centre and arc made 246 searches here, and one
    # labelling per centre made 10, each with a search of its own
    star = _star_pin_input()
    labelled = []
    cut_labels = extremal.cut_labels

    def label_spy(found):
        labelled.append(mask_of(v for v, nbrs in enumerate(found.adj) if nbrs))
        return cut_labels(found)

    searched = _lowpoint_spy(monkeypatch)
    monkeypatch.setattr(extremal, "cut_labels", label_spy)
    kind, witness, children = extremal._find_star_split(star)
    assert kind == extremal.JOIN_STAR and witness["centre"] == 9
    # every search is of d - y, one per y, and labels only partnered centres
    assert _one_less(searched, star.n) == searched
    full = (1 << star.n) - 1
    assert labelled == [full & ~(1 << y) for y in (1, 2, 3, 9)]


def _reference_directed_split(d):
    """The directed split by brute component counts, the oracle of the
    bridge-based finder: one `components` of d - v - uw per arc (u, w) and
    vertex v."""
    full = (1 << d.n) - 1
    for u, w in d.sorted_arcs():
        adj, _ = extremal._underlying(d, full, [(u, w)])
        for v in range(d.n):
            if v == u or v == w:
                continue
            if (u, v) in d.arcs or (v, w) in d.arcs:
                continue
            comps = components(adj, full & ~(1 << v))
            if len(comps) != 2:
                continue
            cu = next(c for c in comps if c >> u & 1)
            cw = next(c for c in comps if c >> w & 1)
            if cu == cw:
                continue
            ch1 = extremal._child_plus(d, bits(cu | 1 << v), [(u, v)])
            ch2 = extremal._child_plus(d, bits(cw | 1 << v), [(v, w)])
            witness = {"u": u, "v": v, "w": w}
            if extremal._verify_split(d, extremal.JOIN_DIRECTED, witness, [ch1, ch2]):
                return extremal.JOIN_DIRECTED, witness, [ch1, ch2]
    return None


def _directed_split_inputs(rng):
    """Seeded digraphs on at most 13 vertices: random ones of every density
    (often not biconnected), directed Hajos joins of two random strong
    parts, chains of symmetric K4 and biconnected random Eulerian ones."""
    for _ in range(400):
        n = rng.randrange(2, 14)
        yield helpers.random_digraph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
    strong = []
    while len(strong) < 60:
        d = _random_eulerian(rng, rng.randrange(2, 7))
        strong.append(d)
        strong.append(helpers.random_digraph(rng, rng.randrange(2, 7), 0.5))
    for _ in range(400):
        d1, d2 = rng.choice(strong), rng.choice(strong)
        if not d1.arcs or not d2.arcs:
            continue
        j = directed_hajos_join(
            d1, rng.choice(sorted(d1.arcs)), d2, rng.choice(sorted(d2.arcs))
        )
        yield _relabelled(rng, j.n, j.arcs)
    for count in (2, 3, 4):
        for _ in range(20):
            yield _k4_chain(rng, count)
    eulerian = 0
    while eulerian < 250:
        d = _random_eulerian(rng, rng.randrange(3, 14))
        if d.is_biconnected:
            eulerian += 1
            yield d


def test_directed_split_matches_component_count_reference():
    inputs = found = 0
    for d in _directed_split_inputs(random.Random(75)):
        want = _reference_directed_split(d)
        assert extremal._find_directed_split(d) == want
        inputs += 1
        found += want is not None
    assert inputs >= 1000 and found >= 300


def test_directed_split_runs_one_bridge_search_per_vertex(monkeypatch):
    # no directed split, so every arc and vertex is tried; one component
    # count per arc and vertex would make 132 calls here
    star = _star_pin_input()
    counted = []
    components = extremal.components

    def components_spy(adj, within):
        counted.append(within)
        return components(adj, within)

    monkeypatch.setattr(extremal, "components", components_spy)
    searched = _lowpoint_spy(monkeypatch)
    assert extremal._find_directed_split(star) is None
    assert counted == [] and 0 < len(_one_less(searched, star.n)) == len(searched)


def _reference_parallel_cut_search(d, a, b, s_comp, b_union, labels):
    """The parallel split's crossing-arc search by bridge searches, the
    oracle of the label-based one: one bridge search of s_comp - e per
    candidate arc e, and one `components` per digon.  It reads no
    labelling, so `labels` stays unused."""
    for p, q in d.sorted_arcs():
        if p < q and s_comp >> p & 1 and s_comp >> q & 1 and (q, p) in d.arcs:
            e, f = (p, q), (q, p)
            parts = components(extremal._underlying(d, s_comp, [e, f])[0], s_comp)
            if len(parts) != 2:
                continue
            found = extremal._validate_parallel(d, a, b, e, f, parts, b_union)
            if found is not None:
                return found
    inner = [
        (p, q)
        for p, q in d.sorted_arcs()
        if s_comp >> p & 1 and s_comp >> q & 1 and (q, p) not in d.arcs
    ]
    seen_pairs = set()
    for e in inner:
        for p, q in lowpoints(*extremal._underlying(d, s_comp, [e])).bridges:
            f = (p, q) if (p, q) in d.arcs else (q, p)
            if f == e or (f[1], f[0]) in d.arcs:
                continue
            key = frozenset({e, f})
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            parts = components(extremal._underlying(d, s_comp, [e, f])[0], s_comp)
            if len(parts) != 2:
                continue
            found = extremal._validate_parallel(d, a, b, e, f, parts, b_union)
            if found is not None:
                return found
    return None


def _labeller(d):
    """A fresh cut labelling of each part of d on every read."""
    return lambda part: extremal._cut_classes(lowpoints(*extremal._underlying(d, part, ())))


def _reference_parallel_split(d):
    """The parallel split by one `components` of d - a - b per non-adjacent
    pair a < b: the oracle of its cut-vertex pair scan."""
    full = (1 << d.n) - 1
    for a in range(d.n):
        for b in range(a + 1, d.n):
            if d.und_masks[a] >> b & 1:
                continue
            comps = components(d.und_masks, full & ~(1 << a | 1 << b))
            if len(comps) < 2:
                continue
            for aa, bb in ((a, b), (b, a)):
                for s_comp in comps:
                    if not (d.und_masks[a] & s_comp and d.und_masks[b] & s_comp):
                        continue
                    b_union = 0
                    for c in comps:
                        if c != s_comp:
                            b_union |= c
                    found = extremal._parallel_cut_search(
                        d, aa, bb, s_comp, b_union, _labeller(d)
                    )
                    if found is not None:
                        return found
    return None


def test_parallel_split_matches_bridge_search_reference(monkeypatch):
    rng = random.Random(77)
    inputs = []
    for i in range(300):
        if i % 3 == 0:
            inputs.append(_random_eulerian(rng, rng.randrange(4, 14)))
        elif i % 3 == 1:
            inputs.append(_k4_tree_join(rng, rng.randrange(2, 7)))
        else:
            inputs.append(_k4_chain(rng, rng.randrange(2, 5)))
    got = [extremal._find_parallel_split(d) for d in inputs]
    assert all(d.is_biconnected for d in inputs)  # as the recognizer asks
    assert got == [_reference_parallel_split(d) for d in inputs]
    monkeypatch.setattr(
        extremal, "_parallel_cut_search", _reference_parallel_cut_search
    )
    want = [extremal._find_parallel_split(d) for d in inputs]
    assert got == want
    assert sum(found is not None for found in want) >= 60


def test_parallel_split_runs_one_cut_vertex_search_per_vertex(monkeypatch):
    # no split, so every vertex a is tried: one cut-vertex search each, and
    # a component count for each of the 3 separating pairs, not the 27
    # non-adjacent ones
    d = _star_pin_input()
    counted = []
    components_ = extremal.components
    monkeypatch.setattr(
        extremal,
        "components",
        lambda adj, within: counted.append(within) or components_(adj, within),
    )
    searched = _lowpoint_spy(monkeypatch)
    assert extremal._find_parallel_split(d) is None
    minus_one = _one_less(searched, d.n)
    # of the two parts of each of the 3 pairs, the one with no neighbour of
    # both junctions is labelled once, for both orientations: not all 6
    # parts once per orientation
    middles = [s for s in searched if s not in minus_one]
    assert len(set(middles)) == len(middles) == 3
    pair_scan = [within for within in counted if within.bit_count() == d.n - 2]
    assert pair_scan == [(1 << 10) - 1 & ~(1 << a | 1 << 9) for a in (1, 2, 3)]


def test_recognizer_searches_each_vertex_once_per_node(monkeypatch):
    # the three finders of a node read one table: without it, the directed
    # and parallel splits each searched d - x and the star split labelled
    # d - y with a search of its own, for up to 3n searches a node
    nodes = []
    minus_one = extremal._minus_one

    def table_spy(d):
        nodes.append((d.n, []))
        return minus_one(d)

    def search_spy(adj, doubled):
        nodes[-1][1].append(mask_of(v for v, nbrs in enumerate(adj) if nbrs))
        return lowpoints(adj, doubled)

    monkeypatch.setattr(extremal, "_minus_one", table_spy)
    monkeypatch.setattr(extremal, "lowpoints", search_spy)
    rng = random.Random(80)
    inputs = [_star_pin_input(), tree_join_pair()[1], _dicycle_union(rng, 12, 3)]
    inputs += [_k4_tree_join(rng, 6), _k4_chain(rng, 4)]
    for d in inputs:
        recognize_k_extremal(d, 3)
    assert len(nodes) >= 10
    for n, searched in nodes:  # a node's finders run before its children
        _one_less(searched, n)
    star_root = nodes[0][1]
    assert len(_one_less(star_root, 10)) == 10 and len(star_root) == 13


def test_check_extremal_necessary():
    rep = check_extremal_necessary(sym_complete(4), 3)
    assert rep.all_pass and rep.lambda_value == 3
    pendant = build_digraph(5, list(dicycle(3).arcs) + [(2, 3), (3, 2), (3, 4), (4, 3)])
    assert not check_extremal_necessary(pendant, 2).biconnected
    unbalanced = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    assert not check_extremal_necessary(unbalanced, 1).eulerian


def test_induced_cycle_hypergraph():
    h5 = induced_cycle_hypergraph(dicycle(5))
    assert h5.hyperedges == (frozenset(range(5)),)
    hk4 = induced_cycle_hypergraph(sym_complete(4))
    assert all(len(e) == 2 for e in hk4.hyperedges)
    assert len(hk4.hyperedges) == 6 and hk4.pairwise_ok
    # two induced triangles sharing two vertices violate the property
    shared = build_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)])
    hs = induced_cycle_hypergraph(shared)
    assert not hs.pairwise_ok and hs.max_intersection == 2


def test_induced_cycle_brute_check():
    rng = random.Random(4)
    for _ in range(30):
        d = helpers.random_digraph(rng, 6, 0.3)
        got = set(induced_cycle_hypergraph(d).hyperedges)
        want = set()
        for size in range(2, d.n + 1):
            for comb in itertools.combinations(range(d.n), size):
                sub, labels = d.induced(comb)
                if len(sub.arcs) == size and sub.is_strong and all(
                    sub.d_plus(v) == 1 and sub.d_minus(v) == 1 for v in range(size)
                ):
                    want.add(frozenset(comb))
        assert got == want


def test_generalized_wheels():
    k3 = generalized_wheel([[1, 2], [], []])
    assert k3.arcs == sym_complete(3).arcs
    assert check_2_extremal(k3)
    directed_wheel = generalized_wheel([[1, 2, 3, 4], [], [], [], []])
    assert check_2_extremal(directed_wheel)
    deep = generalized_wheel([[1, 2, 3], [4], [5], [6], [], [], []])
    assert check_2_extremal(deep)
    with pytest.raises(ParityViolated):
        generalized_wheel([[1, 2], [3], [], []])


def test_extended_tree_join_with_internal_vertex():
    # the peripheral dicycle may pass through an internal junction once
    part1 = k4_arcs([1, 0, 3, 4])
    part2 = k4_arcs([0, 2, 5, 6])
    ext = hajos_tree_join(
        7, [(1, 0), (0, 2)], [part1, part2], [1, 0, 2], extended=True
    )
    assert (1, 0) in ext.arcs and (0, 2) in ext.arcs and (2, 1) in ext.arcs
    res = recognize_k_extremal(ext, 3)
    assert res.extremal
    assert res.certificate.replay_arcs() == ext.arcs
    # internal vertices are rejected without the extended flag
    with pytest.raises(BadEmbeddingOrder):
        hajos_tree_join(7, [(1, 0), (0, 2)], [part1, part2], [1, 0, 2])


def test_accepted_inputs_pass_necessary_checks():
    k4 = sym_complete(4)
    joins = [
        k4,
        directed_hajos_join(k4, (0, 1), k4, (2, 3)),
        hajos_bijoin(k4, (1, 0, 1), k4, (1, 0, 1)).digraph,
        hajos_star_join(
            10,
            0,
            [1, 2, 3],
            [k4_arcs([0, 1, 4, 5]), k4_arcs([0, 2, 6, 7]), k4_arcs([0, 3, 8, 9])],
        ),
    ]
    for d in joins:
        assert recognize_k_extremal(d, 3).extremal
        assert check_extremal_necessary(d, 3).all_pass


def test_join_soundness_other_kinds():
    # constructions never increase the arc-connectivity bound of the parts
    k4 = sym_complete(4)
    bid = hajos_bijoin(k4, (1, 0, 1), k4, (1, 0, 1)).digraph
    assert lambda_profile(bid).value <= 3
    star = hajos_star_join(
        10,
        0,
        [1, 2, 3],
        [k4_arcs([0, 1, 4, 5]), k4_arcs([0, 2, 6, 7]), k4_arcs([0, 3, 8, 9])],
    )
    assert lambda_profile(star).value <= 3


def test_recognize_k1_exhaustive_reps():
    # the one-extremal digraphs are exactly the directed cycles
    from enumeration import digraph_reps, mask_to_digraph

    for n in range(2, 6):
        for mask in digraph_reps(n):
            d = mask_to_digraph(n, mask)
            is_dicycle = d.is_strong and all(
                d.d_plus(v) == 1 and d.d_minus(v) == 1 for v in range(n)
            )
            res = recognize_k_extremal(d, 1)
            assert res.extremal == is_dicycle
            if res.extremal:
                assert res.certificate.replay_arcs() == d.arcs
                want = (
                    d.is_strong
                    and (n == 2 or d.is_biconnected)
                    and lambda_profile(d).value == 1
                    and exact_dichromatic(d).value == 2
                )
                assert want


def _unit_network(d) -> nx.DiGraph:
    net = nx.DiGraph()
    net.add_nodes_from(range(d.n))
    net.add_edges_from(d.arcs, capacity=1)
    return net


def _random_eulerian(rng, n: int):
    """A strong Eulerian digraph: a Hamiltonian dicycle plus random dicycles
    (digons among them) on fresh arcs."""
    perm = rng.sample(range(n), n)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randrange(1, 3 * n)):
        cyc = rng.sample(range(n), rng.randrange(2, n + 1))
        new = {(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
        if not new & arcs:
            arcs |= new
    return build_digraph(n, arcs)


def test_lambda_values_and_least_cuts_match_networkx_flows():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(2, 11)
        d = helpers.random_digraph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        net = _unit_network(d)
        for u, v in _pairs(n):
            val, least = local_lambda(d, u, v)
            value, flow = nx.maximum_flow(net, u, v)
            assert val == value == nx.maximum_flow_value(net, u, v)
            # the least minimum dicut: what the residual digraph reaches from u
            residual = nx.DiGraph()
            residual.add_nodes_from(range(n))
            residual.add_edges_from(
                (x, y) for x, y in d.arcs if flow[x][y] == 0
            )
            residual.add_edges_from((y, x) for x, y in d.arcs if flow[x][y] == 1)
            assert least == nx.descendants(residual, u) | {u}


def _relabelled(rng, n: int, arcs):
    perm = rng.sample(range(n), n)
    return build_digraph(n, {(perm[p], perm[q]) for p, q in arcs})


def _k4_chain(rng, count: int):
    """`count` symmetric K4 joined one by one, each by a directed Hajos join
    at a random arc of the digraph built so far (3 * count + 1 vertices)."""
    d = sym_complete(4)
    for _ in range(count - 1):
        d = directed_hajos_join(d, rng.choice(sorted(d.arcs)), sym_complete(4), (0, 1))
    return _relabelled(rng, d.n, d.arcs)


def _k4_tree_join(rng, edges: int):
    """A tree join of symmetric K4 parts along a random tree, with the
    peripheral dicycle through the leaves in a random order."""
    tree = [(rng.randrange(c), c) for c in range(1, edges + 1)]
    parts, nxt = [], edges + 1
    for u, v in tree:
        parts.append(k4_arcs([u, v, nxt, nxt + 1]))
        nxt += 2
    leaves = [v for v in range(edges + 1) if sum(v in e for e in tree) == 1]
    rng.shuffle(leaves)
    d = hajos_tree_join(nxt, tree, parts, leaves, check_embedding=False)
    return _relabelled(rng, d.n, d.arcs)


def test_eulerian_lambda_is_half_the_gomory_hu_cut():
    rng = random.Random(62)
    eulerian = [_random_eulerian(rng, rng.randrange(2, 11)) for _ in range(30)]
    eulerian += [_k4_chain(rng, count) for count in (3, 6, 9)]
    eulerian += [_k4_tree_join(rng, edges) for edges in (4, 7, 9)]
    for d in eulerian:
        assert all(d.d_plus(v) == d.d_minus(v) for v in range(d.n))
        und = nx.Graph()
        for p, q in d.arcs:
            if und.has_edge(p, q):
                und[p][q]["capacity"] += 1
            else:
                und.add_edge(p, q, capacity=1)
        tree = nx.gomory_hu_tree(und)
        for u, v in _pairs(d.n):
            path = nx.shortest_path(tree, u, v)
            cut = min(tree[a][b]["weight"] for a, b in zip(path, path[1:]))
            assert 2 * local_lambda(d, u, v)[0] == cut


def _flow_spy(monkeypatch) -> list:
    calls = []
    flow = extremal._maxflow_unit

    def spy(d, s, t):
        calls.append((s, t))
        return flow(d, s, t)

    monkeypatch.setattr(extremal, "_maxflow_unit", spy)
    return calls


def test_lambda_profile_flow_counts(monkeypatch):
    calls = _flow_spy(monkeypatch)
    chain = _k4_chain(random.Random(70), 7)
    assert chain.n == 22
    prof = lambda_profile(chain)
    # every pair has lambda 3, but the glued vertices have larger degree
    # bounds: 9 flows settle that no pair beats 3 (21 on Gusfield's tree)
    assert len(calls) == 9 and prof.value == 3
    # the argmax's cut comes from its search flow
    assert sum(1 for p, q in chain.arcs if p in prof.side and q not in prof.side) == 3
    # the necessary check adds a flow for each cyclic pair (v, v + 1)
    calls.clear()
    assert check_extremal_necessary(chain, 3).lambda_all_k
    cyclic = [(v, (v + 1) % chain.n) for v in range(chain.n)]
    assert len(calls) == 9 + chain.n and calls[9:] == cyclic

    rng = random.Random(71)
    d = helpers.random_digraph(rng, 14, 0.35)
    while min(map(d.d_min, range(d.n))) < 2 or all(
        d.d_plus(v) == d.d_minus(v) for v in range(d.n)
    ):
        d = helpers.random_digraph(rng, 14, 0.35)
    calls.clear()
    prof = lambda_profile(d)
    # the first pair meets its degree bound, which no later pair exceeds
    # (32 flows into, out of and around a pivot)
    assert len(calls) == 1 and prof.value == 8

    rng = random.Random(72)
    d = helpers.random_digraph(rng, 16, 0.2)
    while all(d.d_plus(v) == d.d_minus(v) for v in range(d.n)):
        d = helpers.random_digraph(rng, 16, 0.2)
    calls.clear()
    prof = lambda_profile(d)
    assert len(calls) == 1 and prof.value == 6  # 73 around a pivot


def test_lambda_flows_on_the_benchmark_lambda_inputs(monkeypatch, tmp_path):
    # the 78 `lambda` operations of one lambda-extremal pass (seed 1), each
    # reading lambda, the argmax and its dicut; 3,671 flows for all pairs
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    corpus = importlib.import_module("corpus")
    ops = corpus.instantiate("lambda-extremal", 1, str(tmp_path), str(tmp_path))
    inputs = [op["inst"] for op in ops if op["argv"][0] == "lambda"]
    assert len(inputs) == 78
    calls = _flow_spy(monkeypatch)
    for kind, n, arcs in inputs:
        lambda_profile(build_digraph(n, arcs))
    assert len(calls) <= 300 and len(calls) == 271


def test_lowpoint_searches_on_the_benchmark_extremal_inputs(monkeypatch, tmp_path):
    # the 62 `extremal` operations of one lambda-extremal pass (seed 1):
    # 3,388 lowpoint searches when each split finder ran its own
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    corpus = importlib.import_module("corpus")
    ops = corpus.instantiate("lambda-extremal", 1, str(tmp_path), str(tmp_path))
    inputs = [
        (op["inst"], int(op["argv"][op["argv"].index("--k") + 1]))
        for op in ops
        if op["argv"][0] == "extremal"
    ]
    assert len(inputs) == 62
    searches = []
    dfs = core._lowpoint_dfs
    monkeypatch.setattr(core, "_lowpoint_dfs", lambda *a: searches.append(1) or dfs(*a))
    for (kind, n, arcs), k in inputs:
        recognize_k_extremal(build_digraph(n, arcs), k)
    assert len(searches) <= 2100 and len(searches) == 1626


def _lex_max_lambda(d):
    """(lambda, lexicographically first argmax pair, its least dicut side,
    least lambda) from networkx flows over all ordered pairs."""
    net = _unit_network(d)
    values = {
        (u, v): nx.maximum_flow_value(net, u, v)
        for u in range(d.n) for v in range(d.n) if u != v
    }
    pair = min(values, key=lambda p: (-values[p], p))
    flow = nx.maximum_flow(net, *pair)[1]
    residual = nx.DiGraph()
    residual.add_nodes_from(range(d.n))
    residual.add_edges_from((x, y) for x, y in d.arcs if flow[x][y] == 0)
    residual.add_edges_from((y, x) for x, y in d.arcs if flow[x][y] == 1)
    side = nx.descendants(residual, pair[0]) | {pair[0]}
    return values[pair], pair, side, min(values.values())


def test_lambda_search_matches_the_networkx_lexicographic_maximum():
    rng = random.Random(78)
    inputs = [
        helpers.random_digraph(rng, rng.randrange(2, 15), rng.choice([0.1, 0.2, 0.35, 0.6]))
        for _ in range(400)
    ]
    inputs += [_k4_chain(rng, count) for count in (2, 3, 5)]
    inputs += [_k4_tree_join(rng, edges) for edges in (2, 4, 6)]
    for d in inputs:
        value, pair, side, least = _lex_max_lambda(d)
        prof = lambda_profile(d)
        assert (prof.value, prof.pair, prof.side) == (value, pair, side)
        cyclic = [local_lambda(d, v, (v + 1) % d.n)[0] for v in range(d.n)]
        assert min(cyclic) == least  # Schnorr 1979
        assert check_extremal_necessary(d, value).lambda_all_k == (least == value > 0)
        # the search's flow, as value arc-disjoint dipaths of d
        used = [arc for path in prof.paths for arc in zip(path, path[1:])]
        assert len(prof.paths) == value
        assert all((path[0], path[-1]) == pair for path in prof.paths)
        assert all(len(set(path)) == len(path) for path in prof.paths)
        assert len(set(used)) == len(used) and set(used) <= d.arcs
    for n in (0, 1):
        prof = lambda_profile(build_digraph(n, []))
        assert (prof.value, prof.pair, prof.paths, prof.side) == (0, None, (), set())


def test_non_eulerian_lambda_matches_networkx_flows():
    rng = random.Random(73)
    done = 0
    while done < 6:
        n = rng.randrange(12, 21)
        d = helpers.random_digraph(rng, n, rng.choice([0.2, 0.3, 0.45]))
        if min(map(d.d_min, range(n))) < 2 or all(
            d.d_plus(v) == d.d_minus(v) for v in range(n)
        ):
            continue
        net = _unit_network(d)
        values = {(u, v): local_lambda(d, u, v)[0] for u, v in _pairs(n)}
        for (u, v), val in values.items():
            assert val == nx.maximum_flow_value(net, u, v)
        assert lambda_profile(d).value == max(values.values())
        done += 1


def test_pivot_lambda_matches_networkx_flows_at_every_density():
    # every value, at one flow per pair, from sparse inputs to dense
    rng = random.Random(76)
    done = 0
    for density in [0.1, 0.15, 0.2, 0.3, 0.5] * 10:
        n = rng.randrange(8, 21)
        d = helpers.random_digraph(rng, n, density)
        if all(d.d_plus(v) == d.d_minus(v) for v in range(n)):
            continue
        net = _unit_network(d)
        for u, v in _pairs(n):
            assert local_lambda(d, u, v)[0] == nx.maximum_flow_value(net, u, v)
        done += 1
    assert done >= 40


def test_lambda_cuts_cover_every_ordered_pair():
    d = helpers.random_digraph(random.Random(74), 6, 0.5)
    for u, v in _pairs(6):
        val, side = local_lambda(d, u, v)
        assert u in side and v not in side and val == helpers.brute_lambda(d, u, v)
    # a loop, vertices out of range, and endpoints that are not vertices
    for bad in [(2, 2), (0, 6), (-1, 3), (0, (1, 2)), ("0", "1")]:
        with pytest.raises(InvalidInput):
            local_lambda(d, *bad)
    with pytest.raises(InvalidInput):
        local_lambda(build_digraph(1, []), 0, 0)


def _dicycle_union(rng, n: int, count: int):
    """Up to `count` arc-disjoint Hamiltonian dicycles on n vertices, each
    drawn in at most 20 tries."""
    arcs: set = set()
    for _ in range(count):
        for _ in range(20):
            perm = rng.sample(range(n), n)
            new = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
            if not new & arcs:
                arcs |= new
                break
    return build_digraph(n, arcs)


def _part(rng, a: int, b: int, fresh: int):
    """A random strong Eulerian part with the digon [a, b]; its other
    vertices are fresh, fresh + 1, ... .  Returns its arcs and next fresh."""
    d = _random_eulerian(rng, rng.randrange(2, 6))
    arcs = set(d.arcs) | {(0, 1), (1, 0)}
    labels = [a, b] + list(range(fresh, fresh + d.n - 2))
    return [(labels[p], labels[q]) for p, q in arcs], fresh + d.n - 2


def _star(rng):
    rim_size = rng.randrange(2, 5)
    parts, fresh = [], rim_size + 1
    for i in range(1, rim_size + 1):
        arcs, fresh = _part(rng, 0, i, fresh)
        parts.append(arcs)
    d = hajos_star_join(fresh, 0, list(range(1, rim_size + 1)), parts)
    return _relabelled(rng, d.n, d.arcs)


def _bijoin(rng, pool):
    d1, d2 = rng.choice(pool), rng.choice(pool)
    t, a1 = rng.choice(sorted(d1.arcs))
    w = rng.choice(bits(d1.out_masks[a1]))
    v, a2 = rng.choice(sorted(d2.arcs))
    u = rng.choice(bits(d2.out_masks[a2]))
    try:
        j = hajos_bijoin(d1, (t, a1, w), d2, (v, a2, u)).digraph
    except PreconditionViolated:
        return None
    return _relabelled(rng, j.n, j.arcs)


def _parallel(rng):
    k4 = sym_complete(4)
    host = hajos_bijoin(k4, (1, 0, 1), k4, (1, 0, 1)).digraph
    arcs, _ = _part(rng, 0, 1, 2)
    mid = build_digraph(1 + max(max(a) for a in arcs), arcs)
    j = parallel_hajos_join(host, 0, 1, 4, 4, 1, {0, 1, 2, 3}, mid, 0, 1)
    return _relabelled(rng, j.n, j.arcs)


def _finder_inputs(rng):
    """Small seeded digraphs from every join construction, random Eulerian
    digraphs and dicycle unions; the sparse ones hold vertices of
    underlying degree 2."""
    pool = [sym_complete(4)] + [_random_eulerian(rng, rng.randrange(3, 7)) for _ in range(30)]
    for i in range(1080):
        kind = i % 9
        if kind == 0:
            d = _random_eulerian(rng, rng.randrange(3, 14))
        elif kind == 1:
            d = _dicycle_union(rng, rng.randrange(4, 13), rng.randrange(1, 4))
        elif kind == 2:
            d1, d2 = rng.choice(pool), rng.choice(pool)
            j = directed_hajos_join(
                d1, rng.choice(sorted(d1.arcs)), d2, rng.choice(sorted(d2.arcs))
            )
            d = _relabelled(rng, j.n, j.arcs)
        elif kind == 3:
            d = _bijoin(rng, pool)
        elif kind == 4:
            d = _star(rng)
        elif kind == 5:
            d = _k4_tree_join(rng, rng.randrange(2, 6))
        elif kind == 6:
            d = _parallel(rng)
        elif kind == 7:
            d = _k4_chain(rng, rng.randrange(2, 5))
        else:  # a join of joins
            d1, d2 = rng.choice(pool), rng.choice(pool)
            d = _bijoin(rng, [d1, d2]) if rng.random() < 0.5 else None
        if d is not None:
            if d.n <= 9 and d.is_strong:
                pool.append(d)
            yield d


def _unpruned_directed_split(d):
    """The directed split before the shared table: one bridge search of
    d - v for every vertex v that some arc leaves free, and no 2-cut
    prune."""
    full = (1 << d.n) - 1
    sides = {}
    for u, w in d.sorted_arcs():
        if (w, u) in d.arcs:
            continue
        free = full & ~(d.out_masks[u] | d.in_masks[w] | 1 << u | 1 << w)
        for v in bits(free):
            keep = full & ~(1 << v)
            if v not in sides:
                adj, doubled = extremal._underlying(d, keep, ())
                joined = reach(adj, keep, keep & -keep) == keep
                sides[v] = lowpoints(adj, doubled).bridges if joined else {}
            side = sides[v].get((min(u, w), max(u, w)))
            if side is None:
                continue
            cu, cw = (side, keep & ~side) if side >> u & 1 else (keep & ~side, side)
            ch1 = extremal._child_plus(d, bits(cu | 1 << v), [(u, v)])
            ch2 = extremal._child_plus(d, bits(cw | 1 << v), [(v, w)])
            witness = {"u": u, "v": v, "w": w}
            if extremal._verify_split(d, extremal.JOIN_DIRECTED, witness, [ch1, ch2]):
                return extremal.JOIN_DIRECTED, witness, [ch1, ch2]
    return None


def _unpruned_parallel_split(d):
    """The parallel split before the shared table: a cut-vertex search of
    d - a of its own, and each middle part labelled once per
    orientation."""
    full = (1 << d.n) - 1
    for a in range(d.n):
        later = full >> a + 1 << a + 1 & ~d.und_masks[a]
        if not later:
            continue
        keep = full & ~(1 << a)
        cuts = lowpoints(extremal._underlying(d, keep, ())[0], [0] * d.n).cuts
        for b in bits(later & cuts):
            rest = keep & ~(1 << b)
            comps = components(d.und_masks, rest)
            for aa, bb in ((a, b), (b, a)):
                for s_comp in comps:
                    if d.und_masks[a] & s_comp and d.und_masks[b] & s_comp:
                        found = extremal._parallel_cut_search(
                            d, aa, bb, s_comp, rest & ~s_comp, _labeller(d)
                        )
                        if found is not None:
                            return found
    return None


def _unpruned_star_split(d):
    """The star split before the shared table: a labelling of d - y, with
    a search of its own, for every centre y."""
    full = (1 << d.n) - 1
    for y in range(d.n):
        keep = full & ~(1 << y)
        searched = lowpoints(*extremal._underlying(d, keep, ()))
        for (pl, p1), forest in extremal._star_forests(d, searched):
            if not forest[p1] or not forest[pl]:
                continue
            path = extremal.bfs_path(forest, full, p1, pl)
            if path is None or len(path) < 2:
                continue
            if any((path[i], path[i + 1]) not in d.arcs for i in range(len(path) - 1)):
                continue
            rim = path
            if any(d.has_arc(y, p) or d.has_arc(p, y) for p in rim):
                continue
            cyc_arcs = {(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))}
            comps = components(extremal._underlying(d, keep, cyc_arcs)[0], keep)
            if len(comps) != len(rim):
                continue
            comp_of = [next(c for c in comps if c >> p & 1) for p in rim]
            if len(set(comp_of)) != len(rim):
                continue
            children = [
                extremal._child_plus(d, bits(comp_of[i] | 1 << y), [(y, rim[i]), (rim[i], y)])
                for i in range(len(rim))
            ]
            witness = {"centre": y, "rim": tuple(rim)}
            if extremal._verify_split(d, extremal.JOIN_STAR, witness, children):
                return extremal.JOIN_STAR, witness, children
    return None


def test_split_finders_match_the_unpruned_finders(monkeypatch):
    # every recognizer node (biconnected, as the prunes need) and every
    # input's root (often not): same kind, witness and children
    unpruned = {
        "_find_directed_split": _unpruned_directed_split,
        "_find_parallel_split": _unpruned_parallel_split,
        "_find_star_split": _unpruned_star_split,
    }
    seen = {name: [] for name in unpruned}

    def checked(name):
        finder = getattr(extremal, name)

        def compared(d, minus=None):
            found = finder(d, minus)
            assert found == unpruned[name](d)
            seen[name].append((found is not None, min(m.bit_count() for m in d.und_masks)))
            return found

        return compared

    for name in unpruned:
        monkeypatch.setattr(extremal, name, checked(name))
    inputs = 0
    for d in _finder_inputs(random.Random(81)):
        inputs += 1
        minus = extremal._minus_one(d)
        for name in unpruned:  # the root, biconnected or not
            getattr(extremal, name)(d, minus)
        recognize_k_extremal(d, 3)
    assert inputs >= 1000
    for name, calls in seen.items():
        assert sum(found for found, _ in calls) >= 100, name
        assert sum(found for found, degree in calls if degree <= 2) >= 20, name

