"""The exact dichromatic search on strong inputs of more than ten vertices,
against an oracle that shares no code with it, under relabelling, and
pinned to the search tree it explores."""

import random

import pytest

from dichroma.colouring import _feasible_k, exact_dichromatic, verify_dicolouring
from dichroma.core import Budget, build_digraph
from dichroma.errors import BudgetExceeded
from dichroma.heroes import gen_chordal_c122, gen_fk

from helpers import dsatur_feasible_k, random_digraph, sym_complete


def _strong_tournament(rng, n):
    while True:
        d = build_digraph(n, [(i, j) if rng.random() < 0.5 else (j, i)
                              for i in range(n) for j in range(i + 1, n)])
        if d.is_strong:
            return d


def _strong_digon_digraph(rng, n, p=0.55, q=0.12):
    """Each pair is a digon with probability q, else one arc with
    probability p - q, else no arc."""
    while True:
        arcs = []
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.random()
                if r < q:
                    arcs += [(i, j), (j, i)]
                elif r < p:
                    arcs.append((i, j) if rng.random() < 0.5 else (j, i))
        d = build_digraph(n, arcs)
        if d.is_strong:
            return d


def _subset_dp_chi(d):
    """Least k such that k acyclic sets cover V, by inclusion-exclusion:
    with a(X) the number of acyclic subsets of X, the count of k-tuples of
    acyclic sets covering V is sum over X of (-1)^(n-|X|) a(X)^k."""
    n = d.n
    out = [0] * n
    for u, v in d.arcs:
        out[u] |= 1 << v
    full = (1 << n) - 1
    acyclic = [False] * (1 << n)
    acyclic[0] = True
    for x in range(1, 1 << n):
        # acyclic iff it has a sink whose removal leaves an acyclic set
        m = x
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if out[v] & x == 0:
                acyclic[x] = acyclic[x & ~(1 << v)]
                break
    count = [1 if a else 0 for a in acyclic]
    for v in range(n):  # zeta transform: count[X] = #acyclic subsets of X
        bit = 1 << v
        for x in range(1 << n):
            if x & bit:
                count[x] += count[x ^ bit]
    k = 1
    while True:
        total = sum((-1) ** (n - bin(x).count("1")) * count[x] ** k for x in range(full + 1))
        if total > 0:
            return k
        k += 1


def _forward_check_inputs():
    cases = [_strong_tournament(random.Random(seed), 11 + seed) for seed in range(4)]
    cases += [_strong_digon_digraph(random.Random(seed), n)
              for seed, n in ((200, 11), (202, 13), (203, 14))]
    return cases + [gen_fk(3, 4).digraph]


def _relabel(d, rng):
    perm = list(range(d.n))
    rng.shuffle(perm)
    return build_digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


def test_forward_check_path_matches_subset_dp():
    # each input as generated and under 8 relabellings: the value must not
    # depend on the labels
    for d in _forward_check_inputs():
        assert d.n > 10 and d.is_strong
        with pytest.raises(BudgetExceeded):  # the search itself runs
            exact_dichromatic(d, budget=0)
        chi = _subset_dp_chi(d)
        for e in [d] + [_relabel(d, random.Random(seed)) for seed in range(8)]:
            res = exact_dichromatic(e)
            assert res.value == chi
            assert res.colouring.k == res.value and verify_dicolouring(e, res.colouring).valid


def test_fk_solved_within_budget_under_every_relabelling():
    # the branch order follows the open colours, not the labels, so no
    # relabelling of fk(3, 4) sends the search into a long refutation
    fk = gen_fk(3, 4).digraph
    for seed in range(8):
        e = _relabel(fk, random.Random(seed))
        res = exact_dichromatic(e, budget=2000)
        assert res.value == 4
        assert verify_dicolouring(e, res.colouring).valid


def _assert_same_search(d, k):
    new, old = Budget(None), Budget(None)
    assert _feasible_k(d, k, new) == dsatur_feasible_k(d, k, old), (sorted(d.arcs), k)
    assert new.steps == old.steps, (sorted(d.arcs), k)


def test_search_matches_per_vertex_oracle():
    # the same colouring or None after the same number of steps as the
    # search that re-scored and forward-checked one vertex at a time
    rng = random.Random(20)
    for _ in range(2000):
        d = random_digraph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.7))
        for k in range(1, 5):
            _assert_same_search(d, k)
    named = [gen_fk(3, 3), gen_fk(3, 4), gen_chordal_c122(2), gen_chordal_c122(3)]
    for gen in named:
        for seed in range(4):
            e = _relabel(gen.digraph, random.Random(seed))
            for k in range(1, exact_dichromatic(e).value + 1):
                _assert_same_search(e, k)


# Colourings and exact node counts of the DSATUR search, which branches on
# the uncoloured vertex with the fewest open colours; the search tree must
# not change.
PINNED = [
    (lambda: _strong_tournament(random.Random(301), 17), 30,
     [1, 1, 2, 3, 1, 1, 3, 3, 2, 3, 2, 1, 2, 3, 3, 2, 1]),
    (lambda: _strong_tournament(random.Random(302), 18), 113,
     [1, 2, 2, 2, 1, 3, 3, 1, 2, 2, 1, 2, 1, 3, 1, 2, 3, 3]),
    (lambda: _strong_digon_digraph(random.Random(202), 13), 19,
     [2, 3, 2, 3, 2, 2, 2, 1, 1, 2, 3, 1, 1]),
]


@pytest.mark.parametrize("make,nodes,colours", PINNED)
def test_search_tree_is_pinned(make, nodes, colours):
    d = make()
    with pytest.raises(BudgetExceeded):
        exact_dichromatic(d, budget=nodes - 1)
    res = exact_dichromatic(d, budget=nodes)
    assert list(res.colouring.colours) == colours


def test_budget_bounds_cover_every_component():
    # a symmetric K5 (solved by its bounds alone) beside a 14-vertex
    # tournament whose search runs out of budget at once; the whole-input
    # bounds meet at 5, so that is the value, with the tournament keeping
    # its greedy colouring
    rng = random.Random(0)
    tour = _strong_tournament(rng, 14)
    k5 = sym_complete(5)
    arcs = list(k5.arcs) + [(u + 5, v + 5) for u, v in tour.arcs]
    d = build_digraph(19, arcs)
    assert exact_dichromatic(d).value == 5
    res = exact_dichromatic(d, budget=0)
    assert res.value == res.colouring.k == 5
    assert verify_dicolouring(d, res.colouring).valid
    # the tournament alone: every k below the one under test was refuted
    with pytest.raises(BudgetExceeded) as exc2:
        exact_dichromatic(tour, budget=0)
    assert 2 <= exc2.value.lower <= exact_dichromatic(tour).value <= exc2.value.upper
