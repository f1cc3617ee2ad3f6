"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them)."""

import math
import random

from dichroma.brooks import brooks_colour, classify_brooks, deltamin_gadget
from dichroma.colouring import exact_dichromatic, verify_dicolouring
from dichroma.core import Digraph, build_digraph
from dichroma.defective import (
    colour_shannon_multigraph,
    defective_colour,
    exact_defective_index,
    np_gadget_defective,
    verify_edge_colouring,
)
from dichroma.extremal import (
    directed_hajos_join,
    hajos_star_join,
    hajos_tree_join,
    lambda_profile,
    recognize_k_extremal,
)
from dichroma.families import shannon_multigraph
from dichroma.heroes import contains_induced, gen_chordal_c122, gen_ds, gen_fk, pattern
from dichroma.localstruct import check_local_class, inround_order, satisfies_in_round, two_dicolour_lot

import helpers
from helpers import complete_graph, complete_minus_matching, sym_complete
from enumeration import (
    all_labelled_digraphs,
    connected_digraphs_upto,
    strong_oriented_upto,
)


def report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_exact_solver_oracle():
    ok = True
    for d in all_labelled_digraphs(4):
        res = exact_dichromatic(d)
        if res.value != helpers.brute_min_acyclic_partition(d):
            ok = False
            break
        if not verify_dicolouring(d, res.colouring).valid:
            ok = False
            break
    rng = random.Random(1001)
    for _ in range(500):
        n = rng.randrange(6, 9)
        d = helpers.random_digraph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.75]))
        res = exact_dichromatic(d)
        if res.value != helpers.brute_min_acyclic_partition(d):
            ok = False
            break
        if not verify_dicolouring(d, res.colouring).valid:
            ok = False
            break
    report(1, ok, "exact solver equals brute-force minimum acyclic partition")


def test_criterion_02_directed_brooks_exhaustive():
    ok = True
    count = 0
    for d in connected_digraphs_upto(5):
        count += 1
        verdict = classify_brooks(d)
        chi = exact_dichromatic(d).value
        if verdict.tight != (chi == d.delta_max + 1):
            ok = False
            break
        col = brooks_colour(d)
        if not verify_dicolouring(d, col).valid:
            ok = False
            break
        for cv in verdict.components:
            used = len({col.colours[v] for v in cv.vertices})
            bound = cv.delta_max + (1 if cv.exception else 0)
            if used > max(bound, 1):
                ok = False
                break
        if not ok:
            break
    report(
        2,
        ok and count > 9000,
        f"tight-case classification matches the exact solver on all {count} "
        "connected digraphs with up to 5 vertices (one representative per "
        "isomorphism class), and the constructive colouring meets its bound",
    )


def test_criterion_03_hero_generators():
    ok = True
    for k in (1, 2, 3):
        if exact_dichromatic(gen_fk(3, k).digraph).value != k:
            ok = False
    for k in (1, 2, 3):
        g = gen_chordal_c122(k)
        if exact_dichromatic(g.digraph).value != k:
            ok = False
        if contains_induced(g.digraph, pattern("c3_1_2_2")) is not None:
            ok = False
    report(3, ok, "layered and chordal generators hit their dichromatic numbers "
                  "and avoid their forbidden pattern")


def _k4_arcs(vs):
    return [(p, q) for p in vs for q in vs if p != q]


def _random_extremal(rng, depth, cap=20):
    base = sym_complete(4)
    if depth == 0:
        return base
    kind = rng.random()
    if kind < 0.5:
        d1 = _random_extremal(rng, depth - 1, cap)
        d2 = _random_extremal(rng, rng.randrange(depth), cap)
        if d1.n + d2.n - 1 > cap:
            return d1 if d1.n <= cap else base
        a1 = rng.choice(d1.sorted_arcs())
        a2 = rng.choice(d2.sorted_arcs())
        return directed_hajos_join(d1, a1, d2, a2)
    # star join over 2 or 3 digon-carrying parts
    ell = rng.choice([2, 2, 3])
    parts = []
    for _ in range(ell):
        p = _random_extremal(rng, depth - 1 if rng.random() < 0.3 else 0, cap=12)
        digons = sorted(
            {(a, b) for a, b in p.arcs if a < b and (b, a) in p.arcs}
        )
        if not digons:
            return base
        parts.append((p, rng.choice(digons)))
    total = sum(p.n for p, _ in parts) - (ell - 1) + 0
    if total - 1 + 1 > cap:
        return base
    centre = 0
    rim = []
    arcsets = []
    nxt = 1 + ell
    for i, (p, (a, b)) in enumerate(parts):
        mapping = {a: 0, b: 1 + i}
        for v in range(p.n):
            if v not in mapping:
                mapping[v] = nxt
                nxt += 1
        rim.append(1 + i)
        arcsets.append([(mapping[x], mapping[y]) for x, y in p.arcs])
    return hajos_star_join(nxt, centre, rim, arcsets)


def _brute_extremal3(d):
    if not d.is_strong or not d.is_biconnected:
        return False
    if lambda_profile(d).value != 3:
        return False
    return exact_dichromatic(d).value == 4


def test_criterion_04_recognizer_corpus():
    rng = random.Random(4242)
    ok = True
    done = 0
    while done < 200:
        d = _random_extremal(rng, rng.choice([1, 1, 2, 2, 3]))
        if d.n > 20:
            continue
        done += 1
        want = _brute_extremal3(d)
        got = recognize_k_extremal(d, 3)
        if got.extremal != want:
            ok = False
            break
        if got.extremal and got.certificate.replay_arcs() != d.arcs:
            ok = False
            break
        # one-arc perturbation
        all_pairs = [
            (i, j) for i in range(d.n) for j in range(d.n) if i != j
        ]
        pick = rng.choice(all_pairs)
        pert = Digraph(d.n, d.arcs - {pick}) if pick in d.arcs else build_digraph(d.n, d.arcs | {pick})
        want_p = _brute_extremal3(pert)
        got_p = recognize_k_extremal(pert, 3)
        if got_p.extremal != want_p:
            ok = False
            break
    report(4, ok, f"join-tree corpus of {done} digraphs plus perturbations: "
                  "recognition agrees with the brute-force definition")


def _tree_join_pair():
    A, B, H, I, D, E, G = 0, 1, 2, 3, 4, 5, 6
    tree = [(E, B), (E, H), (E, G), (G, A), (G, I), (G, D)]
    parts = []
    nxt = 7
    for (u, v) in tree:
        parts.append(_k4_arcs([u, v, nxt, nxt + 1]))
        nxt += 2
    g2 = hajos_tree_join(nxt, tree, parts, [A, B, H, I, D])
    g3 = hajos_tree_join(nxt, tree, parts, [A, B, I, H, D], check_embedding=False)
    return g2, g3


def test_criterion_05_tree_join_pair():
    g2, g3 = _tree_join_pair()
    ok = (
        exact_dichromatic(g2).value == 4
        and lambda_profile(g2).value == 3
        and recognize_k_extremal(g2, 3).extremal
        and exact_dichromatic(g3).value == 4
        and lambda_profile(g3).value == 4
        and not recognize_k_extremal(g3, 3).extremal
    )
    report(5, ok, "embedding-order tree join is tight (chi 4 = lambda+1); the "
                  "crossed order keeps chi 4 while lambda grows to 4")


def test_criterion_06_in_round_equivalence():
    ok = True
    count = 0
    for d in strong_oriented_upto(6):
        count += 1
        res = inround_order(d)
        flags = check_local_class(d)
        brute = helpers.brute_inround_exists(d)
        if not (res.ok == flags.in_round_condition == brute):
            ok = False
            break
        if res.ok and not satisfies_in_round(d, res.order.order):
            ok = False
            break
    report(6, ok and count > 4000,
           f"cyclic-order construction succeeds exactly on the local condition "
           f"for all {count} strong oriented graphs with up to 6 vertices "
           "(brute force over all cyclic orders)")


def test_criterion_07_lot_two_colouring():
    rng = random.Random(777)
    ok = True
    for _ in range(1000):
        d = helpers.random_lot_instance(rng)
        x = rng.randrange(d.n)
        t = [x] + sorted(helpers.out_sets(d)[x])
        col = two_dicolour_lot(d, t)
        if col.k > 2 or not verify_dicolouring(d, col).valid:
            ok = False
            break
        if len({col.colours[v] for v in t}) != 1:
            ok = False
            break
    report(7, ok, "1000 locally out-transitive instances: valid 2-colouring "
                  "with the prescribed tournament monochromatic")


def test_criterion_08_shannon_tightness():
    ok = True
    for k in range(1, 10):
        for d in (1, 3, 5):
            want = math.ceil((3 * k - 1) / (3 * d - 1))
            value, _ = exact_defective_index(shannon_multigraph(k), d)
            if value != want:
                ok = False
            g, col = colour_shannon_multigraph(k, d)
            if col.k != want or not verify_edge_colouring(g, col, d).valid:
                ok = False
    report(8, ok, "three-vertex extremal multigraphs: exact index equals the "
                  "block-colouring bound for k=1..9, d in {1,3,5}")


def test_criterion_09_even_defect_optimal():
    rng = random.Random(99)
    ok = True
    done = 0
    while done < 50:
        deg = rng.choice([2, 4, 6, 8])
        n = rng.randrange(4, 9)
        if (n * deg) % 2:
            n += 1
        g = helpers.random_regular_multigraph(rng, n, deg)
        done += 1
        for d in (2, 4):
            want = max(1, math.ceil(deg / d))
            col = defective_colour(g, d)
            if col.k != want or not verify_edge_colouring(g, col, d).valid:
                ok = False
                break
            value, _ = exact_defective_index(g, d)
            if value != want:
                ok = False
                break
        if not ok:
            break
    report(9, ok, f"{done} random regular multigraphs: even-defect colouring "
                  "returns exactly ceil(degree/defect), matching the exact index")


def test_criterion_10_parity_rule():
    v7, col7 = exact_defective_index(complete_graph(7), 3)
    even_g = complete_minus_matching(8)
    v8, col8 = exact_defective_index(even_g, 3)
    ok = (
        v7 == 3
        and verify_edge_colouring(complete_graph(7), col7, 3).valid
        and v8 == 2
        and verify_edge_colouring(even_g, col8, 3).valid
        and 21 > 2 * ((3 * 7) // 2)
    )
    report(10, ok, "defect-3 index: 3 on the odd-order 6-regular complete "
                   "graph, 2 on an even-order 6-regular graph")


def test_criterion_11_gadget_equivalences():
    ok = True
    checked = 0
    for n in range(1, 5):
        for d in all_labelled_digraphs(n):
            if not d.is_connected:
                continue
            chi = exact_dichromatic(d).value
            for k in (2, 3):
                gp = deltamin_gadget(d, k)
                if max(min(gp.d_plus(v), gp.d_minus(v)) for v in range(gp.n)) > k:
                    ok = False
                    break
                chi_g = exact_dichromatic(gp).value
                if (chi <= k) != (chi_g <= k):
                    ok = False
                    break
                checked += 1
            if not ok:
                break
        if not ok:
            break
    k4 = complete_graph(4)
    gad = np_gadget_defective(k4, 3, 3)
    matchings = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    ext = gad.extend([matchings[e] for e in k4.edges])
    if gad.graph.n != 196 or not verify_edge_colouring(gad.graph, ext, 3).valid:
        ok = False
    report(11, ok, f"min-degree gadget preserves k-colourability on {checked} "
                   "connected inputs; the 196-vertex hardness host accepts the "
                   "extended colouring at defect 3")


def _random_tt3_free_chordal(rng, n):
    """Chordal orientation whose triangles are all cyclically oriented:
    vertices attach to an edge (forced orientation) or a single vertex."""
    arcs = {(0, 1)}
    edges = [(0, 1)]
    for v in range(2, n):
        if rng.random() < 0.7 and edges:
            a, b = rng.choice(edges)
            if (a, b) not in arcs:
                a, b = b, a
            arcs.add((b, v))
            arcs.add((v, a))
            edges += [(a, v), (b, v)]
        else:
            a = rng.randrange(v)
            if rng.random() < 0.5:
                arcs.add((a, v))
            else:
                arcs.add((v, a))
            edges.append((a, v))
    return build_digraph(n, arcs)


def test_criterion_12_sampled_hero_bounds():
    rng = random.Random(1212)
    ok = True
    for _ in range(200):
        d = _random_tt3_free_chordal(rng, rng.randrange(4, 15))
        if contains_induced(d, pattern("tt3")) is not None:
            ok = False
            break
        if exact_dichromatic(d).value > 3:
            ok = False
            break
    ds = gen_ds(5)
    for name in ("c3_1_2_c3", "c3_1_2_3"):
        if contains_induced(ds.digraph, pattern(name)) is not None:
            ok = False
    report(12, ok, "200 transitive-triangle-free chordal orientations stay "
                   "3-colourable; the ten-vertex multipartite family avoids "
                   "both five-plus-one-vertex patterns")
