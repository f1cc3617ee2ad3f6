import itertools
import random

import networkx as nx
import pytest

from dichroma import extremal
from dichroma.colouring import exact_dichromatic
from dichroma.core import build_digraph
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
    parallel_hajos_join,
    recognize_k_extremal,
)
from dichroma.families import dicycle, sym_complete

import helpers


def k4_arcs(vs):
    return [(p, q) for p in vs for q in vs if p != q]


def test_lambda_examples():
    for n in (3, 5, 8):
        assert lambda_profile(dicycle(n)).value == 1
    assert lambda_profile(sym_complete(4)).value == 3


def test_lambda_menger_consistency():
    rng = random.Random(17)
    for _ in range(25):
        d = helpers.random_digraph(rng, 6, 0.35)
        prof = lambda_profile(d)
        for (u, v), val in prof.values.items():
            x, rest = prof.cuts[(u, v)]
            crossing = sum(1 for a, b in d.arcs if a in x and b in rest)
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
    assert not recognize_k_extremal(star.remove_arcs([arc]), 3).extremal


def test_star_split_reads_one_cut_labelling_per_centre(monkeypatch):
    # the centre comes last, so every centre is tried; one bridge search
    # per centre and arc made 246 searches here
    star = hajos_star_join(
        10,
        9,
        [1, 2, 3],
        [k4_arcs([9, 1, 4, 5]), k4_arcs([9, 2, 6, 7]), k4_arcs([9, 3, 8, 0])],
    )
    searches = []
    labellings = []
    bridge_ends, cut_labels = extremal.bridge_ends, extremal.cut_labels

    def bridge_spy(adj, doubled):
        searches.append(adj)
        return bridge_ends(adj, doubled)

    def label_spy(adj, doubled):
        labellings.append(adj)
        return cut_labels(adj, doubled)

    monkeypatch.setattr(extremal, "bridge_ends", bridge_spy)
    monkeypatch.setattr(extremal, "cut_labels", label_spy)
    kind, witness, children = extremal._find_star_split(star)
    assert kind == extremal.JOIN_STAR and witness["centre"] == 9
    assert searches == [] and len(labellings) <= star.n


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
        prof = lambda_profile(d)
        for (u, v), val in prof.values.items():
            value, flow = nx.maximum_flow(net, u, v)
            assert val == value == nx.maximum_flow_value(net, u, v)
            # the least minimum dicut: what the residual digraph reaches from u
            residual = nx.DiGraph()
            residual.add_nodes_from(range(n))
            residual.add_edges_from(
                (x, y) for x, y in d.arcs if flow[x][y] == 0
            )
            residual.add_edges_from((y, x) for x, y in d.arcs if flow[x][y] == 1)
            side = nx.descendants(residual, u) | {u}
            assert prof.cuts[(u, v)] == (side, set(range(n)) - side)


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
        prof = lambda_profile(d)
        for (u, v), val in prof.values.items():
            path = nx.shortest_path(tree, u, v)
            cut = min(tree[a][b]["weight"] for a, b in zip(path, path[1:]))
            assert 2 * val == cut


def test_lambda_profile_flow_counts(monkeypatch):
    calls = []
    flow = extremal._maxflow_unit

    def spy(d, s, t):
        calls.append((s, t))
        return flow(d, s, t)

    monkeypatch.setattr(extremal, "_maxflow_unit", spy)
    chain = _k4_chain(random.Random(70), 7)
    assert chain.n == 22
    prof = lambda_profile(chain)
    assert len(calls) == chain.n - 1  # Eulerian: one flow per tree edge
    pair = prof.argmax()
    side, rest = prof.cuts[pair]
    assert len(calls) == chain.n  # a cut costs one flow on its first read
    assert prof.cuts[pair] == (side, rest) and len(calls) == chain.n
    assert sum(1 for p, q in chain.arcs if p in side and q in rest) == prof.values[pair]

    rng = random.Random(71)
    d = helpers.random_digraph(rng, 14, 0.35)
    while min(map(d.d_min, range(d.n))) < 2 or all(
        d.d_plus(v) == d.d_minus(v) for v in range(d.n)
    ):
        d = helpers.random_digraph(rng, 14, 0.35)
    calls.clear()
    lambda_profile(d)
    assert 2 * (d.n - 1) <= len(calls) < d.n * (d.n - 1)


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
        prof = lambda_profile(d)
        assert list(prof.values) == [(u, v) for u in range(n) for v in range(n) if u != v]
        for (u, v), val in prof.values.items():
            assert val == nx.maximum_flow_value(net, u, v)
        done += 1


def test_lambda_cuts_cover_every_ordered_pair():
    d = helpers.random_digraph(random.Random(74), 6, 0.5)
    cuts = lambda_profile(d).cuts
    pairs = [(u, v) for u in range(6) for v in range(6) if u != v]
    assert len(cuts) == 30 and list(cuts) == pairs
    assert (2, 2) not in cuts and (0, 6) not in cuts and (1, 0) in cuts
    for bad in [(2, 2), (0, 6), (-1, 3), (0, 1, 2), "01"]:
        with pytest.raises(InvalidInput):
            cuts[bad]
    assert lambda_profile(build_digraph(1, [])).cuts == {}
