import itertools
import random

import pytest

from dichroma.cli import format_digraph, run_command
from dichroma.colouring import exact_dichromatic, verify_dicolouring
from dichroma.core import Digraph, build_digraph, contract, partition
from dichroma.errors import NotStrong, PreconditionViolated
from dichroma.families import dicycle, transitive_tournament
from dichroma.localstruct import (
    check_local_class,
    find_2king,
    hub_decomposition,
    inround_order,
    maximal_hubs,
    maximal_weak_hubs,
    min_outdegree_witness,
    satisfies_in_round,
    satisfies_round,
    semicomplete_structure,
    shortest_dicycle_length,
    two_dicolour_lot,
    weighted_out_round_witness,
)

import helpers
from helpers import out_star, sym_complete


def in_round_not_round_instance():
    return build_digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (3, 1), (4, 1)])


def test_check_local_class_examples():
    f = check_local_class(dicycle(3))
    assert f.locally_out_transitive and f.in_round_condition and f.round_condition
    f2 = check_local_class(out_star(2))
    assert not f2.locally_out_transitive and f2.witnesses["locally_out_transitive"] == 0
    f3 = check_local_class(sym_complete(3))
    assert f3.locally_semicomplete and not f3.in_round_condition


def test_inround_examples():
    for n in (3, 5, 8):
        res = inround_order(dicycle(n))
        assert res.ok and res.order.order == tuple(range(n))
    d = in_round_not_round_instance()
    res = inround_order(d)
    assert res.ok and satisfies_in_round(d, res.order.order)
    assert not satisfies_round(d, res.order.order)
    flags = check_local_class(d)
    assert flags.in_round_condition and not flags.round_condition
    with pytest.raises(NotStrong):
        inround_order(transitive_tournament(3))


def test_inround_equivalence_small():
    # strong oriented graphs on up to 5 vertices: the constructed order
    # exists iff the local condition holds, matching the brute force over
    # all cyclic orders
    from enumeration import oriented_reps, mask_to_digraph

    for n in range(2, 6):
        for mask in oriented_reps(n):
            d = mask_to_digraph(n, mask)
            if not d.is_strong:
                continue
            res = inround_order(d)
            flags = check_local_class(d)
            brute = helpers.brute_inround_exists(d)
            assert res.ok == flags.in_round_condition == brute
            if res.ok:
                assert satisfies_in_round(d, res.order.order)


def blowup_instance():
    return build_digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (3, 4), (4, 0)])


def test_hub_decomposition_examples():
    # in-round graphs have only trivial hubs
    rng = random.Random(2)
    for _ in range(20):
        d = helpers.random_in_round(rng, rng.randint(3, 8))
        hp = hub_decomposition(d)
        assert all(len(p) == 1 for p in hp.parts)
    hg = blowup_instance()
    hp = hub_decomposition(hg)
    assert {frozenset(p) for p in hp.parts} == {
        frozenset({0, 1, 2}),
        frozenset({3}),
        frozenset({4}),
    }
    assert hp.quotient.arcs == dicycle(3).arcs
    assert inround_order(hp.quotient).ok
    with pytest.raises(PreconditionViolated):
        hub_decomposition(out_star(2))


def test_maximal_hubs_against_brute_force():
    rng = random.Random(6)
    cases = [blowup_instance()]
    cases += [helpers.random_lot_instance(rng, max_quotient=4) for _ in range(25)]
    for d in cases:
        if d.n > 8:
            continue
        assert set(maximal_hubs(d)) == helpers.brute_maximal_hubs(d) | {
            frozenset({v})
            for v in range(d.n)
            if not any(v in h for h in helpers.brute_maximal_hubs(d))
        }


def test_hub_partition_properties():
    rng = random.Random(8)
    for _ in range(40):
        d = helpers.random_lot_instance(rng)
        hp = hub_decomposition(d)
        seen = set()
        for p in hp.parts:
            assert not (p & seen)
            seen |= p
            sub, _ = d.induced(sorted(p))
            assert sub.is_strong
        assert seen == set(range(d.n))


def test_two_dicolour_examples():
    rng = random.Random(5)
    for _ in range(25):
        d = helpers.random_lot_instance(rng)
        res = two_dicolour_lot(d, [])
        assert res.k <= 2 and verify_dicolouring(d, res).valid
    hg = blowup_instance()
    res = two_dicolour_lot(hg, [3, 4])
    assert verify_dicolouring(hg, res).valid
    assert res.colours[3] == res.colours[4]
    assert exact_dichromatic(hg).value == 2
    # acyclic locally out-transitive input needs one colour
    tt = transitive_tournament(5)
    res2 = two_dicolour_lot(tt, [0, 1])
    assert verify_dicolouring(tt, res2).valid and len(set(res2.colours)) == 1


def test_two_dicolour_prescribed_property():
    rng = random.Random(12)
    for _ in range(150):
        d = helpers.random_lot_instance(rng)
        x = rng.randrange(d.n)
        t = [x] + sorted(helpers.out_sets(d)[x])
        res = two_dicolour_lot(d, t)
        assert res.k <= 2
        assert verify_dicolouring(d, res).valid
        assert len({res.colours[v] for v in t}) == 1


def test_semicomplete_structure_cases():
    assert semicomplete_structure(sym_complete(3)).case == "UniversalVertex"
    st = semicomplete_structure(dicycle(4))
    assert st.case == "RoundBlowup"
    assert all(len(p) == 1 for p in st.parts)
    mixed = build_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    st3 = semicomplete_structure(mixed)
    assert st3.case == "FourSetPartition"
    _assert_four_set(mixed, st3)
    with pytest.raises(PreconditionViolated):
        semicomplete_structure(out_star(2))


def test_structure_of_a_relabelled_transitive_tournament(tmp_path):
    """The acyclic branch of the round blow-up: singleton parts, and the
    tournament's one topological order as the round order."""
    rng = random.Random(7)
    for n in range(2, 9):
        perm = rng.sample(range(n), n)  # perm[i] takes the place of vertex i
        d = build_digraph(n, [(perm[a], perm[b]) for a, b in transitive_tournament(n).arcs])
        order = perm[perm.index(0):] + perm[:perm.index(0)]
        st = semicomplete_structure(d)
        assert st.case == "RoundBlowup" and st.order.order == tuple(order)
        assert set(st.parts) == {frozenset({v}) for v in range(n)}
        path = tmp_path / f"tt{n}.dg"
        path.write_text(format_digraph(d))
        rep, code = run_command(["structure", str(path)])
        assert code == 0 and rep["case"] == "RoundBlowup" and rep["order"] == order
        assert sorted(rep["parts"]) == [[v] for v in range(n)]


def _assert_four_set(d, st):
    e, f, g, h = st.e, st.f, st.g, st.h
    assert e and g and (f or h)
    for s in (e, f, g, h):
        for a, b in itertools.combinations(sorted(s), 2):
            assert (a, b) in d.arcs or (b, a) in d.arcs
    for x in e:
        for y in f:
            assert (x, y) in d.arcs and (y, x) not in d.arcs
    for x in f:
        for y in g:
            assert (x, y) in d.arcs
    for x in g:
        for y in h:
            assert (x, y) in d.arcs
    for x in h:
        for y in e:
            assert (x, y) in d.arcs and (y, x) not in d.arcs
    for x in g:
        assert helpers.out_sets(d)[x] & e and helpers.in_sets(d)[x] & e


def _random_semicomplete(rng, n):
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            pick = rng.random()
            if pick < 0.4:
                arcs.add((i, j))
            elif pick < 0.8:
                arcs.add((j, i))
            else:
                arcs.add((i, j))
                arcs.add((j, i))
    return build_digraph(n, arcs)


def test_semicomplete_structure_random_and_kings():
    rng = random.Random(31)
    for _ in range(120):
        d = _random_semicomplete(rng, rng.randint(2, 9))
        st = semicomplete_structure(d)
        if st.case == "FourSetPartition":
            _assert_four_set(d, st)
        elif st.case == "RoundBlowup":
            q = contract(d, partition(d.n, st.parts))
            assert satisfies_round(q, st.order.order)
            for p in st.parts:
                sub, _ = d.induced(sorted(p))
                assert sub.is_strong
        # every structured case except the round blow-up guarantees a 2-king
        if st.case != "RoundBlowup":
            assert find_2king(d) is not None


def test_weak_hubs_against_brute():
    rng = random.Random(41)
    for _ in range(40):
        d = _random_semicomplete(rng, rng.randint(2, 7))
        assert set(maximal_weak_hubs(d)) == helpers.brute_maximal_weak_hubs(d)


def test_find_2king_examples():
    assert find_2king(transitive_tournament(5)) == 0
    assert find_2king(dicycle(3)) == 0
    assert find_2king(dicycle(5)) is None


def test_min_outdegree_witness_examples():
    w = min_outdegree_witness(dicycle(5), 3)
    assert w.out_degree == 1 and w.verdict
    w2 = min_outdegree_witness(dicycle(7), 3)
    assert w2.out_degree == 1 and w2.bound == pytest.approx(7 / 3) and w2.verdict
    with pytest.raises(PreconditionViolated):
        min_outdegree_witness(dicycle(3), 3)  # short dicycle present


def test_min_outdegree_witness_generated():
    rng = random.Random(77)
    for _ in range(30):
        d = helpers.random_out_round_girth(rng, rng.randint(8, 12), 4)
        assert shortest_dicycle_length(d) >= 4
        w = min_outdegree_witness(d, 3)
        assert w.verdict


def test_witnesses_refuse_the_empty_digraph():
    empty = Digraph(0, frozenset())
    with pytest.raises(PreconditionViolated):
        min_outdegree_witness(empty, 3)
    with pytest.raises(PreconditionViolated):
        weighted_out_round_witness(empty, [], 3)


def test_weighted_out_round_witness():
    rng = random.Random(78)
    for _ in range(20):
        d = helpers.random_out_round_girth(rng, rng.randint(8, 12), 4)
        weights = [rng.randint(1, 5) for _ in range(d.n)]
        w = weighted_out_round_witness(d, weights, 3)
        assert w.verdict
        out = sorted(helpers.out_sets(d)[w.vertex])
        assert w.weighted_out == sum(weights[v] for v in out)


def test_two_dicolour_prescription_across_components():
    # a prescribed tournament may straddle strong components
    d = build_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    res = two_dicolour_lot(d, [0, 3])
    assert verify_dicolouring(d, res).valid
    assert res.colours[0] == res.colours[3]
