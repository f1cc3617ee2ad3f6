import random

import pytest
from hypothesis import given

from dichroma.colouring import (
    Dicolouring,
    dipolar_combine,
    exact_dichromatic,
    find_cycle_in,
    gallai_roy_colour,
    greedy_dicolour,
    two_colour_odd_free,
    verify_dicolouring,
)
from dichroma.core import build_digraph, mask_of, strong_components, strong_parts
from dichroma.errors import NotDipolar, PartialColouring
from dichroma.families import dicycle, transitive_tournament
from dichroma.heroes import gen_fk

import helpers
from helpers import sym_complete, sym_cycle
from enumeration import digraph_reps, mask_to_digraph
from strategies import digraph_with_order, digraphs


def test_verify_examples():
    c3 = dicycle(3)
    res = verify_dicolouring(c3, Dicolouring((1, 1, 1), 1))
    assert not res.valid and set(res.witness_cycle) == {0, 1, 2}
    assert verify_dicolouring(c3, Dicolouring((1, 1, 2), 2)).valid
    k3 = sym_complete(3)
    res2 = verify_dicolouring(k3, Dicolouring((1, 2, 1), 2))
    assert not res2.valid and set(res2.witness_cycle) == {0, 2}
    with pytest.raises(PartialColouring):
        verify_dicolouring(c3, Dicolouring((1, 1), 2))


def test_witness_is_a_real_monochromatic_dicycle():
    rng = random.Random(3)
    for _ in range(50):
        d = helpers.random_digraph(rng, 6, 0.4)
        cols = tuple(rng.randrange(1, 3) for _ in range(d.n))
        res = verify_dicolouring(d, Dicolouring(cols, 2))
        if not res.valid:
            cyc = res.witness_cycle
            assert len({cols[v] for v in cyc}) == 1
            for i, v in enumerate(cyc):
                assert (v, cyc[(i + 1) % len(cyc)]) in d.arcs


def _set_dfs_cycle(d, vertices):
    """Reference for find_cycle_in: a depth-first search over neighbour
    sets read from the arc set, roots and out-neighbours in ascending
    index, returning the path from the first vertex an arc re-enters."""
    out = helpers.out_sets(d)
    inside = set(vertices)
    colour = {v: 0 for v in inside}  # 0 new, 1 active, 2 done
    for root in sorted(inside):
        if colour[root] != 0:
            continue
        stack = [(root, iter(sorted(out[root] & inside)))]
        colour[root] = 1
        path = [root]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if colour[w] == 0:
                    colour[w] = 1
                    path.append(w)
                    stack.append((w, iter(sorted(out[w] & inside))))
                    advanced = True
                    break
                elif colour[w] == 1:
                    i = path.index(w)
                    return path[i:]
            if not advanced:
                stack.pop()
                path.pop()
                colour[v] = 2
    return None


def test_find_cycle_in_matches_set_based_search():
    rng = random.Random(1982)
    cyclic = 0
    for _ in range(2000):
        n = rng.randint(0, 14)
        p = rng.choice([0.05, 0.15, 0.3, 0.6])
        d = build_digraph(
            n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        )
        vertices = rng.sample(range(n), rng.randint(0, n))  # shuffled subset
        want = _set_dfs_cycle(d, vertices)
        assert find_cycle_in(d.out_masks, mask_of(vertices)) == want
        cyclic += want is not None
        # the witness verify_dicolouring reports: the first class with a cycle
        k = rng.randint(1, 3)
        colours = [rng.randint(1, k) for _ in range(n)]
        res = verify_dicolouring(d, Dicolouring(tuple(colours), k))
        for col in range(1, k + 1):
            cyc = _set_dfs_cycle(d, [v for v in range(n) if colours[v] == col])
            if cyc is not None:
                assert (res.witness_cycle, res.witness_colour) == (tuple(cyc), col)
                break
        else:
            assert res.valid and res.witness_cycle is None
    assert 500 <= cyclic <= 1500


def test_exact_examples():
    assert exact_dichromatic(transitive_tournament(5)).value == 1
    assert exact_dichromatic(sym_complete(4)).value == 4
    f3 = gen_fk(3, 3).digraph
    assert f3.n == 7 and exact_dichromatic(f3).value == 3


def test_exact_oracle_reps_upto_5():
    # every labelled digraph on up to 5 vertices is isomorphic to one of
    # these representatives, and both sides are label-invariant
    for n in (4, 5):
        for mask in digraph_reps(n):
            d = mask_to_digraph(n, mask)
            res = exact_dichromatic(d)
            assert res.value == helpers.brute_min_acyclic_partition(d)
            assert verify_dicolouring(d, res.colouring).valid
            assert len(set(res.colouring.colours)) == res.value


@given(digraphs(min_n=1, max_n=6))
def test_exact_oracle_random(d):
    res = exact_dichromatic(d)
    assert res.value == helpers.brute_min_acyclic_partition(d)
    assert verify_dicolouring(d, res.colouring).valid


def test_exact_matches_max_over_strong_components():
    rng = random.Random(11)
    for _ in range(30):
        d = helpers.random_digraph(rng, 8, 0.25)
        whole = exact_dichromatic(d).value
        best = 1 if d.n else 0
        for comp in strong_components(d).parts:
            sub, _ = d.induced(sorted(comp))
            best = max(best, exact_dichromatic(sub).value)
        assert whole == best


def test_greedy_examples():
    g = greedy_dicolour(dicycle(5), [0, 1, 2, 3, 4])
    assert g.colours == (1, 1, 1, 1, 2)
    tt = transitive_tournament(6)
    assert len(set(greedy_dicolour(tt, list(range(6))).colours)) == 1
    k4 = sym_complete(4)
    assert len(set(greedy_dicolour(k4, [2, 0, 3, 1]).colours)) == 4


@given(digraph_with_order())
def test_greedy_bound_and_validity(pair):
    d, order = pair
    res = greedy_dicolour(d, order)
    assert res.k <= max((d.d_min(v) for v in range(d.n)), default=0) + 1
    assert verify_dicolouring(d, res).valid


def test_gallai_roy_examples():
    tt = transitive_tournament(5)
    assert len(set(gallai_roy_colour(tt, list(range(5))).colours)) == 1
    res = gallai_roy_colour(dicycle(3), [0, 1, 2])
    assert res.colours == (2, 1, 1)
    best = min(
        gallai_roy_colour(sym_cycle(5), order).k
        for order in __import__("itertools").permutations(range(5))
    )
    assert best <= 3
    assert all(
        verify_dicolouring(sym_cycle(5), gallai_roy_colour(sym_cycle(5), list(o))).valid
        for o in __import__("itertools").permutations(range(5))
    )


@given(digraph_with_order())
def test_gallai_roy_always_valid(pair):
    d, order = pair
    res = gallai_roy_colour(d, order)
    assert verify_dicolouring(d, res).valid


@given(digraphs(min_n=1, max_n=7))
def test_round_trip_class_order(d):
    """From an optimal colouring, the class-then-topological order has no
    backward dipath on k+1 vertices, and recolouring along it stays <= k."""
    res = exact_dichromatic(d)
    order = []
    for col in range(1, res.value + 1):
        cls = mask_of(v for v in range(d.n) if res.colouring.colours[v] == col)
        # an acyclic class's strong parts are its vertices, in topological order
        order += [p.bit_length() - 1 for p in strong_parts(d.out_masks, cls)]
    again = gallai_roy_colour(d, order)
    assert again.k <= res.value
    assert verify_dicolouring(d, again).valid


def test_two_colour_examples():
    ok = two_colour_odd_free(dicycle(4))
    assert ok.ok and verify_dicolouring(dicycle(4), ok.colouring).valid
    bad = two_colour_odd_free(dicycle(3))
    assert not bad.ok and len(bad.odd_cycle) == 3
    shared = build_digraph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    res = two_colour_odd_free(shared)
    assert res.ok and verify_dicolouring(shared, res.colouring).valid
    assert exact_dichromatic(shared).value == 2


@given(digraphs(min_n=1, max_n=7))
def test_two_colour_dichotomy(d):
    res = two_colour_odd_free(d)
    if res.ok:
        assert res.colouring.k <= 2
        assert verify_dicolouring(d, res.colouring).valid
    else:
        cyc = res.odd_cycle
        assert len(cyc) % 2 == 1
        for i, v in enumerate(cyc):
            assert (v, cyc[(i + 1) % len(cyc)]) in d.arcs


def test_dipolar_combine_full_set():
    c3 = dicycle(3)
    inner = Dicolouring((1, 1, 2), 2)
    out = dipolar_combine(c3, {0, 1, 2}, inner, Dicolouring((), 4))
    assert verify_dicolouring(c3, out).valid
    assert out.k == 4


def test_dipolar_combine_cycle_with_pendant():
    # dicycle dominating a pendant vertex: the cycle is dipolar
    d = build_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    s = {0, 1, 2}
    inner = Dicolouring((1, 2, 1), 2)
    outer = Dicolouring((1,), 4)
    res = dipolar_combine(d, s, inner, outer)
    assert verify_dicolouring(d, res).valid and res.k == 4


def test_dipolar_combine_rejects_non_dipolar():
    # middle vertex of a dipath has both neighbours outside
    d = build_digraph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotDipolar):
        dipolar_combine(d, {1}, Dicolouring((1,), 1), Dicolouring((1, 1), 2))


def test_exact_budget_exceeded_carries_bounds():
    from dichroma.errors import BudgetExceeded

    hard = gen_fk(3, 3).digraph  # no digons, so the search must branch
    with pytest.raises(BudgetExceeded) as exc:
        exact_dichromatic(hard, budget=2)
    assert exc.value.lower >= 1 and exc.value.upper >= exc.value.lower


def _has_odd_dicycle(d):
    import itertools

    for size in range(2, d.n + 1):
        for comb in itertools.permutations(range(d.n), size):
            if comb[0] != min(comb):
                continue
            if all(
                (comb[i], comb[(i + 1) % size]) in d.arcs for i in range(size)
            ) and size % 2 == 1:
                return True
    return False


def test_two_colour_exhaustive_reps():
    # success exactly on digraphs with no odd dicycle, for every
    # representative on up to 4 vertices
    for mask in digraph_reps(4):
        d = mask_to_digraph(4, mask)
        res = two_colour_odd_free(d)
        assert res.ok == (not _has_odd_dicycle(d)), d


def test_verify_rejects_out_of_range_colours():
    from dichroma.errors import InvalidInput

    for cols, k in (((0, 0, 0), 1), ((1, 2, 3), 2)):
        with pytest.raises(InvalidInput):
            verify_dicolouring(dicycle(3), Dicolouring(cols, k))
