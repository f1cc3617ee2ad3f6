import itertools
import math
import random

import pytest

from dichroma.colouring import exact_dichromatic
from dichroma.core import Digraph, build_digraph
from dichroma.errors import BadVertex, SizeCapExceeded, TooFewParts
from dichroma.families import dicycle, transitive_tournament
from dichroma.heroes import (
    PATTERNS,
    GeneratedDigraph,
    circ3,
    compose_circular,
    compose_domination,
    contains_induced,
    gen_chordal_c122,
    gen_chordal_hero_free,
    gen_ds,
    gen_fk,
    pattern,
    transitive_subsets,
    verify_generated,
)

import helpers
from helpers import substitute


def test_compose_circular_examples():
    singles = [transitive_tournament(1)] * 3
    assert compose_circular(singles).arcs == dicycle(3).arcs
    five = circ3(1, 2, 2)
    assert five.n == 5
    assert all(
        (u, v) in five.arcs or (v, u) in five.arcs
        for u in range(5)
        for v in range(u + 1, 5)
    )
    four = circ3(1, 1, 2)
    assert four.n == 4
    with pytest.raises(TooFewParts):
        compose_circular([transitive_tournament(1)] * 2)


def test_compose_domination_examples():
    hero4 = compose_domination(transitive_tournament(1), dicycle(3))
    assert hero4.n == 4 and exact_dichromatic(hero4).value == 2
    tt2 = compose_domination(transitive_tournament(1), transitive_tournament(1))
    assert tt2.arcs == transitive_tournament(2).arcs
    acyc = compose_domination(transitive_tournament(2), transitive_tournament(3))
    assert exact_dichromatic(acyc).value == 1


def test_substitute_examples():
    s = substitute(dicycle(3), 2, transitive_tournament(2))
    assert s.n == 4 and exact_dichromatic(s).value == 2
    ident = substitute(dicycle(3), 1, transitive_tournament(1))
    assert ident.arcs == dicycle(3).arcs
    host = build_digraph(2, [])  # isolated pair: substitution stays disjoint
    out = substitute(host, 0, dicycle(3))
    assert out.n == 4 and out.arcs == dicycle(3).arcs
    with pytest.raises(BadVertex):
        substitute(dicycle(3), 7, transitive_tournament(1))


def test_gen_fk_shape_and_chi():
    assert gen_fk(3, 2).digraph.arcs == dicycle(3).arcs
    f3 = gen_fk(3, 3)
    assert f3.digraph.n == 7 and exact_dichromatic(f3.digraph).value == 3
    h2 = gen_fk(4, 2).digraph
    assert h2.n == 4  # the four-cycle of parts used against short-path patterns
    assert exact_dichromatic(h2).value == 2
    with pytest.raises(SizeCapExceeded):
        gen_fk(3, 30)


def test_fk_and_ds_arc_counts_and_cap():
    # the closed forms the generators check against ARC_CAP before building
    for s in (5, 6, 12):
        n = math.comb(s, 3)
        assert len(gen_ds(s).digraph.arcs) == (n * n - sum((j * (s - 1 - j)) ** 2 for j in range(s))) // 2
    for ell, k in ((3, 5), (4, 4), (5, 3)):
        size, arcs = 1, 0
        for _ in range(k - 1):
            arcs = (ell - 1) * arcs + 2 * size + (ell - 2) * size * size
            size = 1 + (ell - 1) * size
        assert len(gen_fk(ell, k).digraph.arcs) == arcs
    # fk(3, 10) has 522,753 arcs and fk(3, 11) 2,094,081; ds(25) has 2,300
    # vertices, far below the vertex cap, and 2,512,290 arcs
    for build in (lambda: gen_fk(3, 11), lambda: gen_ds(25)):
        with pytest.raises(SizeCapExceeded, match="arc count exceeds cap 2000000"):
            build()


def test_gen_fk_solver_agreement_all_small():
    for ell in range(3, 8):
        for k in range(1, 6):
            size = 1
            for _ in range(k - 1):
                size = 1 + (ell - 1) * size
            if size > 22:
                continue
            g = gen_fk(ell, k)
            assert exact_dichromatic(g.digraph).value == k, (ell, k)


def test_gen_ds_structure():
    ds = gen_ds(5).digraph
    assert ds.n == 10
    mids = {}
    for t in itertools.combinations(range(5), 3):
        mids.setdefault(t[1], []).append(t)
    assert [len(mids[m]) for m in sorted(mids)] == [3, 4, 3]
    assert ds.is_oriented
    # parts are stable: triples sharing a middle are non-adjacent
    triples = list(itertools.combinations(range(5), 3))
    for i, t1 in enumerate(triples):
        for j, t2 in enumerate(triples):
            if i != j and t1[1] == t2[1]:
                assert (i, j) not in ds.arcs


def test_gen_ds_freeness_and_fas():
    ds = gen_ds(5)
    for name in ds.forbidden:
        assert contains_induced(ds.digraph, pattern(name)) is None
    # every subtournament has a feedback arc set of disjoint dipaths
    d = ds.digraph
    triples = list(itertools.combinations(range(5), 3))
    verts = range(d.n)
    for comb in itertools.combinations(verts, 3):
        if not all(
            (a, b) in d.arcs or (b, a) in d.arcs
            for a, b in itertools.combinations(comb, 2)
        ):
            continue
        sub, _ = d.induced(comb)
        assert _has_dipath_fas(sub)


def _has_dipath_fas(d):
    arcs = sorted(d.arcs)
    for r in range(len(arcs) + 1):
        for fas in itertools.combinations(arcs, r):
            rest = Digraph(d.n, d.arcs - set(fas))
            if not helpers.is_acyclic_subset(rest, range(d.n)):
                continue
            indeg = {}
            outdeg = {}
            for u, v in fas:
                outdeg[u] = outdeg.get(u, 0) + 1
                indeg[v] = indeg.get(v, 0) + 1
            if all(x <= 1 for x in indeg.values()) and all(
                x <= 1 for x in outdeg.values()
            ):
                fd = build_digraph(d.n, fas)
                if helpers.is_acyclic_subset(fd, range(d.n)):
                    return True
    return False


def test_gen_chordal_c122():
    assert gen_chordal_c122(2).digraph.arcs == dicycle(3).arcs
    g3 = gen_chordal_c122(3)
    assert g3.digraph.n == 12
    assert exact_dichromatic(g3.digraph).value == 3
    assert contains_induced(g3.digraph, pattern("c3_1_2_2")) is None


def test_gen_chordal_hero_free():
    assert gen_chordal_hero_free(1).digraph.n == 1
    g2 = gen_chordal_hero_free(2)
    assert g2.digraph.arcs == dicycle(3).arcs
    assert contains_induced(g2.digraph, pattern("c3_to_k1")) is None


def test_transitive_subsets():
    c3 = dicycle(3)
    subs = transitive_subsets(c3)
    assert sorted(subs) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    tt3 = transitive_tournament(3)
    assert (0, 1, 2) in transitive_subsets(tt3)


def test_contains_induced_examples():
    tt5 = transitive_tournament(5)
    emb = contains_induced(tt5, transitive_tournament(3))
    assert emb is not None and emb.verify(tt5, transitive_tournament(3))
    assert contains_induced(tt5, dicycle(3)) is None


def test_contains_induced_lex_first():
    tt5 = transitive_tournament(5)
    emb = contains_induced(tt5, transitive_tournament(3))
    assert emb.mapping == (0, 1, 2)


def test_contains_induced_brute_cross_check():
    rng = random.Random(19)
    for _ in range(60):
        host = helpers.random_digraph(rng, rng.randrange(3, 8), 0.4)
        patt = helpers.random_digraph(rng, rng.randrange(2, 5), 0.5)
        got = contains_induced(host, patt)
        brute = False
        for comb in itertools.permutations(range(host.n), patt.n):
            ok = True
            for a in range(patt.n):
                for b in range(patt.n):
                    if a == b:
                        continue
                    if ((a, b) in patt.arcs) != ((comb[a], comb[b]) in host.arcs):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                brute = True
                break
        assert (got is not None) == brute
        if got is not None:
            assert got.verify(host, patt)


def test_line_graph_chromatic_bound():
    # chromatic number of the consecutive-arc graph of a transitive
    # tournament grows at least logarithmically with its order
    for s in range(3, 9):
        tt = transitive_tournament(s)
        arcs = tt.sorted_arcs()
        idx = {a: i for i, a in enumerate(arcs)}
        edges = [
            (idx[(a, b)], idx[(c, dd)])
            for (a, b) in arcs
            for (c, dd) in arcs
            if b == c
        ]
        chi = helpers.undirected_chromatic(len(arcs), edges)
        assert chi >= math.log2(s)


def test_verify_generated_report():
    rep = verify_generated(gen_fk(3, 3))
    assert rep["chi_ok"]
    rep2 = verify_generated(gen_ds(5))
    assert rep2["free_ok"]


def test_verify_generated_keeps_chi_when_a_pattern_search_runs_out():
    # on c122(3) the chi check needs 9 steps and the c3_1_2_2 search 19
    c122 = gen_chordal_c122(3)
    rep = verify_generated(c122, budget=10)
    assert rep["chi"] == 3 and rep["chi_ok"] is True
    assert rep["free"] == {"c3_1_2_2": None} and rep["free_ok"] is None
    assert rep["budget_exceeded"] == "pattern search budget"
    assert verify_generated(c122, budget=19)["free_ok"] is True
    # a pattern that is found outweighs one left unknown
    mixed = GeneratedDigraph(c122.digraph, "c122", {}, forbidden=("c3_1_2_2", "c3"))
    rep2 = verify_generated(mixed, budget=10)
    assert rep2["free"] == {"c3_1_2_2": None, "c3": False} and rep2["free_ok"] is False


def test_verify_generated_keeps_chi_bounds_when_the_chi_search_runs_out():
    # on c122(3) the chi check needs 9 steps; at 5 it has proved 2 <= chi <= 3
    c122 = gen_chordal_c122(3)
    rep = verify_generated(c122, budget=5)
    assert rep["chi"] is None and rep["chi_bounds"] == [2, 3] and rep["chi_ok"] is None
    assert rep["free"] == {"c3_1_2_2": None} and rep["budget_exceeded"] == "pattern search budget"
    # a claim outside the proved bounds is refuted without the exact value
    wrong = GeneratedDigraph(c122.digraph, "c122", {}, claimed_chi=4)
    rep2 = verify_generated(wrong, budget=5)
    assert rep2["chi"] is None and rep2["chi_ok"] is False
    assert rep2["budget_exceeded"] == "budget exceeded (bounds: 2..3)"


def test_herofree_level_three_builds_and_caps():
    g3 = gen_chordal_hero_free(3)
    assert g3.claimed_chi == 3 and g3.digraph.n > 1000
    assert contains_induced(g3.digraph, pattern("c3_to_k1")) is None
    with pytest.raises(SizeCapExceeded):
        gen_chordal_hero_free(4)


def _same_as_backtracking(host, names):
    for name in names:
        emb = contains_induced(host, pattern(name))
        assert (emb and emb.mapping) == helpers.backtrack_contains_induced(host, pattern(name)), name


def test_searches_match_backtracking_on_random_hosts():
    rng = random.Random(18)
    for _ in range(400):
        host = helpers.random_digraph(rng, rng.randrange(1, 15), rng.uniform(0.1, 0.9))
        _same_as_backtracking(host, PATTERNS)
        assert transitive_subsets(host) == helpers.backtrack_transitive_subsets(host)


def test_searches_match_backtracking_on_generated_hosts():
    hosts = [gen_ds(5), gen_ds(6), gen_chordal_c122(3), gen_fk(3, 3)]
    hosts += [gen_chordal_hero_free(k) for k in (1, 2, 3)]
    for gen in hosts:
        d = gen.digraph
        assert transitive_subsets(d) == helpers.backtrack_transitive_subsets(d), gen.name
    for gen in hosts[:-1]:
        _same_as_backtracking(gen.digraph, PATTERNS)
    # on herofree(3) backtracking exhausts its default budget for the other
    # five patterns; their answers are checked by embedding or, for
    # c3_to_k1, in test_herofree_level_three_builds_and_caps
    hero3 = hosts[-1].digraph
    _same_as_backtracking(hero3, ["c3", "tt3", "k1_to_c3"])
    for name in PATTERNS:
        emb = contains_induced(hero3, pattern(name))
        assert emb is None or emb.verify(hero3, pattern(name))
