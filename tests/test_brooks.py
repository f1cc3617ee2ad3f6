import random

import pytest

from dichroma import brooks
from dichroma.brooks import (
    EXC_DIRECTED_CYCLE,
    EXC_SYMMETRIC_COMPLETE,
    EXC_SYMMETRIC_ODD_CYCLE,
    brooks_colour,
    classify_brooks,
    deltamin_gadget,
)
from dichroma.colouring import exact_dichromatic, verify_dicolouring
from dichroma.core import bits, build_digraph, components
from dichroma.errors import BadK
from dichroma.families import dicycle, transitive_tournament

import helpers
from helpers import sym_complete, sym_cycle


def test_classify_examples():
    v = classify_brooks(dicycle(5))
    assert v.tight and v.components[0].exception == EXC_DIRECTED_CYCLE
    assert v.components[0].delta_max == 1
    v2 = classify_brooks(sym_cycle(5))
    assert v2.tight and v2.components[0].exception == EXC_SYMMETRIC_ODD_CYCLE
    v3 = classify_brooks(sym_cycle(4))
    assert not v3.tight and v3.components[0].exception is None
    assert exact_dichromatic(sym_cycle(4)).value == 2 == v3.delta_max
    # a digon is a directed cycle of length two
    digon = build_digraph(2, [(0, 1), (1, 0)])
    assert classify_brooks(digon).components[0].exception == EXC_DIRECTED_CYCLE
    # the symmetric triangle is the odd-cycle case at bound two
    assert classify_brooks(sym_complete(3)).components[0].exception == EXC_SYMMETRIC_ODD_CYCLE
    assert classify_brooks(sym_complete(5)).components[0].exception == EXC_SYMMETRIC_COMPLETE


def test_classify_mixed_components():
    # tight iff some component of maximal degree is an exception
    d_parts = [dicycle(3), sym_complete(4)]
    arcs = list(dicycle(3).arcs) + [(u + 3, v + 3) for u, v in sym_complete(4).arcs]
    d = build_digraph(7, arcs)
    v = classify_brooks(d)
    assert v.delta_max == 3 and v.tight
    # adding a higher-degree non-exception component flips the verdict
    extra = transitive_tournament(6)
    arcs2 = arcs + [(u + 7, v + 7) for u, v in extra.arcs]
    v2 = classify_brooks(build_digraph(13, arcs2))
    assert v2.delta_max == 5 and not v2.tight


def test_brooks_colour_examples():
    nonreg = build_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    res = brooks_colour(nonreg)
    assert verify_dicolouring(nonreg, res).valid
    assert res.k <= nonreg.delta_max
    res2 = brooks_colour(sym_complete(4))
    assert verify_dicolouring(sym_complete(4), res2).valid and len(set(res2.colours)) == 4
    res3 = brooks_colour(sym_cycle(4))
    assert verify_dicolouring(sym_cycle(4), res3).valid and len(set(res3.colours)) == 2


def _check_contract(d):
    res = brooks_colour(d)
    assert verify_dicolouring(d, res).valid
    verdict = classify_brooks(d)
    for c in components(d.und_masks, (1 << d.n) - 1):
        comp = frozenset(bits(c))
        sub, labels = d.induced(sorted(comp))
        used = len({res.colours[v] for v in comp})
        cv = next(c for c in verdict.components if c.vertices == comp)
        bound = cv.delta_max + (1 if cv.exception else 0)
        assert used <= max(bound, 1)


def test_brooks_colour_random_contract():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randrange(1, 41)
        d = helpers.random_digraph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
        _check_contract(d)


def test_brooks_colour_regular_cases():
    # 2-regular with a cutvertex: two triangles sharing a vertex
    two_tri = build_digraph(
        5,
        [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2),
         (2, 3), (3, 2), (3, 4), (4, 3), (4, 2), (2, 4)],
    )
    _check_contract(two_tri)
    # symmetric bipartite 3-regular: biconnected, regular, no exception
    k33 = build_digraph(
        6,
        [(i, j) for i in range(3) for j in range(3, 6)]
        + [(j, i) for i in range(3) for j in range(3, 6)],
    )
    res = brooks_colour(k33)
    assert verify_dicolouring(k33, res).valid and res.k <= 3
    # symmetric even cycles have no splitting triple but stay within bound
    res2 = brooks_colour(sym_cycle(6))
    assert verify_dicolouring(sym_cycle(6), res2).valid and res2.k <= 2


def _k5_minus_edge_pair():
    """Two copies of the symmetric K5 minus an edge ab, each with its a and
    b joined by digons to one shared vertex: 11 vertices, 4-regular, and
    the shared vertex cuts it."""
    edges = []
    for base in (0, 5):
        a, b = base, base + 1
        five = range(base, base + 5)
        edges += [(u, v) for u in five for v in five if u < v and (u, v) != (a, b)]
        edges += [(a, 10), (b, 10)]
    return build_digraph(11, edges + [(v, u) for u, v in edges])


def _k5_and_octahedron_minus_edges():
    """The symmetric K5 minus an edge ab and the symmetric octahedron
    K(2,2,2) minus an edge cd, with one more vertex joined by digons to a,
    b, c and d: 12 vertices, 4-regular, and that vertex cuts it.  The two
    blocks colour the cut vertex differently, so merging them transposes
    two colours of one block."""
    a, b, c, d = 0, 1, 5, 7
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (a, b)]
    edges += [
        (u, v)
        for u in range(5, 11)
        for v in range(u + 1, 11)
        if (u - 5) // 2 != (v - 5) // 2 and (u, v) != (c, d)
    ]
    edges += [(x, 11) for x in (a, b, c, d)]
    return build_digraph(12, edges + [(v, u) for u, v in edges])


def test_brooks_colour_merges_blocks(monkeypatch):
    merges = []
    merge = brooks._merge_blocks

    def spy(sub, k):
        merges.append(sub.n)
        return merge(sub, k)

    monkeypatch.setattr(brooks, "_merge_blocks", spy)
    for d in (_k5_minus_edge_pair(), _k5_and_octahedron_minus_edges()):
        assert d.delta_max == 4 and not d.is_biconnected
        assert all(d.d_plus(v) == d.d_minus(v) == 4 for v in range(d.n))
        for seed in range(50):
            rng = random.Random(seed)
            perm = list(range(d.n))
            rng.shuffle(perm)
            e = build_digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
            res = brooks_colour(e)
            assert verify_dicolouring(e, res).valid and res.k <= 4
    assert merges == [11] * 50 + [12] * 50


def test_deltamin_gadget_shape():
    c3 = dicycle(3)
    g = deltamin_gadget(c3, 2)
    assert g.n == 9
    assert all(g.d_plus(u * 3 + 2) == 2 for u in range(3))  # every inner vertex
    assert max(min(g.d_plus(v), g.d_minus(v)) for v in range(g.n)) <= 2
    assert exact_dichromatic(g).value == 2 == exact_dichromatic(c3).value
    with pytest.raises(BadK):
        deltamin_gadget(c3, 1)


def test_deltamin_gadget_triangle_not_two_colourable():
    k3 = sym_complete(3)
    g = deltamin_gadget(k3, 2)
    assert exact_dichromatic(g).value == 3
