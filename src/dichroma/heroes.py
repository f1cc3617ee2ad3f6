"""Generators for digraph families with a known dichromatic number or
known absent induced patterns, plus the induced-pattern search used to
verify the freeness claims.

Each generator returns the digraph together with its claims (expected
dichromatic number, patterns it avoids), so callers can re-verify with the
exact solver and the pattern search.  Verification is opt-in: it calls
exponential routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .colouring import exact_dichromatic, find_cycle_in
from .core import Budget, Digraph, bits, build_digraph, lexicographic, mask_of
from .errors import BadVertex, BudgetExceeded, SizeCapExceeded, TooFewParts
from .families import dicycle, transitive_tournament

DEFAULT_CAP = 100_000
ARC_CAP = 2_000_000  # fk and ds are dense: their arc count is checked before building
HERO_FREE_CAP = 200_000


def compose_circular(parts: Sequence[Digraph]) -> Digraph:
    """Disjoint union of at least three parts plus complete domination arcs
    from each part to the next around the cycle."""
    if len(parts) < 3:
        raise TooFewParts("circular composition needs at least 3 parts")
    return lexicographic(dicycle(len(parts)), parts)


def compose_domination(d1: Digraph, d2: Digraph) -> Digraph:
    """Disjoint union plus all arcs from the first digraph to the second."""
    return lexicographic(transitive_tournament(2), [d1, d2])


def circ3(a: int | Digraph, b: int | Digraph, c: int | Digraph) -> Digraph:
    """Triangle composition where integers stand for transitive tournaments."""
    conv = lambda x: transitive_tournament(x) if isinstance(x, int) else x
    return compose_circular([conv(a), conv(b), conv(c)])


@dataclass(frozen=True)
class GeneratedDigraph:
    """A generator output with its self-check claims."""

    digraph: Digraph
    name: str
    params: dict
    claimed_chi: int | None = None
    forbidden: tuple[str, ...] = ()


def gen_fk(ell: int, k: int) -> GeneratedDigraph:
    """Layered circular composition: one vertex plus ell-1 copies of the
    previous layer around a dicycle of parts; layer k needs exactly k
    colours."""
    if ell < 3:
        raise TooFewParts("ell must be at least 3")
    if k < 1:
        raise SizeCapExceeded("k must be positive")
    size, arcs = 1, 0
    for _ in range(k - 1):
        # a layer holds ell - 1 copies of the last, plus the arcs between
        # consecutive parts: the single vertex to and from a copy, copy to copy
        arcs = (ell - 1) * arcs + 2 * size + (ell - 2) * size * size
        size = 1 + (ell - 1) * size
        if size > DEFAULT_CAP:
            raise SizeCapExceeded(f"layer size exceeds cap {DEFAULT_CAP}")
        if arcs > ARC_CAP:
            raise SizeCapExceeded(f"arc count exceeds cap {ARC_CAP}")
    d = transitive_tournament(1)
    for _ in range(k - 1):
        d = compose_circular([transitive_tournament(1)] + [d] * (ell - 1))
    return GeneratedDigraph(d, "fk", {"ell": ell, "k": k}, claimed_chi=k)


def gen_ds(s: int) -> GeneratedDigraph:
    """Oriented complete multipartite digraph on the ordered triples of
    0..s-1, grouped by middle element.

    Consecutive triples (i,j,k) -> (j,k,l) get forward arcs; every other
    pair from distinct parts is oriented backward (from the larger middle
    to the smaller).  Parts (equal middles) stay non-adjacent.
    """
    if s < 5:
        raise SizeCapExceeded("s must be at least 5")
    n = comb(s, 3)
    if n > DEFAULT_CAP:
        raise SizeCapExceeded(f"vertex count exceeds cap {DEFAULT_CAP}")
    # one arc per pair of triples with distinct middles; j(s-1-j) have middle j
    if (n * n - sum((j * (s - 1 - j)) ** 2 for j in range(s))) // 2 > ARC_CAP:
        raise SizeCapExceeded(f"arc count exceeds cap {ARC_CAP}")
    triples = list(combinations(range(s), 3))
    index = {t: i for i, t in enumerate(triples)}
    arcs: set[tuple[int, int]] = set()
    for t1 in triples:
        for t2 in triples:
            if t1 == t2 or t1[1] == t2[1]:
                continue
            if t1[1] < t2[1]:
                if (t1[1], t1[2]) == (t2[0], t2[1]):
                    arcs.add((index[t1], index[t2]))  # forward
                else:
                    arcs.add((index[t2], index[t1]))  # backward
    return GeneratedDigraph(
        build_digraph(len(triples), arcs),
        "ds",
        {"s": s},
        forbidden=("c3_1_2_c3", "c3_1_2_3"),
    )


def gen_chordal_c122(k: int) -> GeneratedDigraph:
    """Chordal orientation needing exactly k colours while avoiding the
    5-vertex triangle composition with two doubled parts.

    Level k+1 takes a transitive tournament on k+1 vertices and welds a
    copy of level k behind every arc u->v, dominated by v and dominating u.
    """
    if k < 1:
        raise SizeCapExceeded("k must be positive")
    sizes = [1]
    while len(sizes) < k:
        p = len(sizes) + 1
        sizes.append(p + (p * (p - 1) // 2) * sizes[-1])
        if sizes[-1] > DEFAULT_CAP:
            raise SizeCapExceeded(f"level size exceeds cap {DEFAULT_CAP}")
    arcs: set[tuple[int, int]] = set()
    n = _build_c122(k, 0, arcs)
    return GeneratedDigraph(
        build_digraph(n, arcs),
        "c122",
        {"k": k},
        claimed_chi=k,
        forbidden=("c3_1_2_2",),
    )


def _build_c122(k: int, base: int, arcs: set[tuple[int, int]]) -> int:
    if k == 1:
        return 1
    t = k  # transitive tournament on k vertices at base..base+k-1
    for i in range(t):
        for j in range(i + 1, t):
            arcs.add((base + i, base + j))
    nxt = base + t
    for i in range(t):
        for j in range(i + 1, t):
            size = _build_c122(k - 1, nxt, arcs)
            for y in range(nxt, nxt + size):
                arcs.add((base + j, y))
                arcs.add((y, base + i))
            nxt += size
    return nxt - base


def transitive_subsets(d: Digraph) -> list[tuple[int, ...]]:
    """All non-empty vertex subsets inducing a transitive tournament.

    DFS over increasing vertex indices: a subset grows only by a later
    vertex in the common neighbourhood of its members that keeps it
    acyclic.
    """
    out: list[tuple[int, ...]] = []

    # common: the members' common neighbours above the last member;
    # -(2 << v) is the bitset of the vertices above v
    def extend(s: tuple[int, ...], mask: int, common: int):
        out.append(s)
        for v in bits(common):
            if find_cycle_in(d.out_masks, mask | 1 << v) is None:
                extend(s + (v,), mask | 1 << v, common & d.und_masks[v] & -(2 << v))

    for v in range(d.n):
        extend((v,), 1 << v, d.und_masks[v] & -(2 << v))
    return out


def gen_chordal_hero_free(k: int) -> GeneratedDigraph:
    """Chordal orientation needing exactly k colours while avoiding the
    triangle-dominating-a-vertex pattern.

    Builds the rainbow amplifier F(G) of the previous level (one copy of G
    dominated by each transitive subtournament at every stage), then welds
    copies and apex vertices over all pairs of transitive subtournaments.
    Doubly exponential; refuses past the cap rather than sampling.
    """
    if k < 1:
        raise SizeCapExceeded("k must be positive")
    g = build_digraph(1, [])
    for level in range(2, k + 1):
        f = _rainbow_amplifier(g, level - 1)
        g = _weld_hero_free(f)
    return GeneratedDigraph(
        g, "herofree", {"k": k}, claimed_chi=k, forbidden=("c3_to_k1",)
    )


def _rainbow_amplifier(g: Digraph, chi: int) -> Digraph:
    """After chi-1 amplification stages, every optimal colouring of the
    result contains a rainbow transitive tournament of order chi: stage i
    welds one dominated copy of g behind every transitive tournament of
    exactly i vertices."""
    f = g
    for i in range(1, chi):
        subs = [s for s in transitive_subsets(f) if len(s) == i]
        if f.n + len(subs) * g.n > HERO_FREE_CAP:
            raise SizeCapExceeded("amplifier exceeds cap")
        arcs = set(f.arcs)
        nxt = f.n
        for s in subs:
            for a, b in g.arcs:
                arcs.add((nxt + a, nxt + b))
            for x in s:
                for y in range(nxt, nxt + g.n):
                    arcs.add((x, y))
            nxt += g.n
        f = build_digraph(nxt, arcs)
    return f


def _weld_hero_free(f: Digraph) -> Digraph:
    subs_f = transitive_subsets(f)
    if f.n + len(subs_f) * (f.n + len(subs_f)) > HERO_FREE_CAP:
        raise SizeCapExceeded("weld exceeds cap")
    arcs = set(f.arcs)
    nxt = f.n
    for t in subs_f:
        copy_base = nxt
        for a, b in f.arcs:
            arcs.add((copy_base + a, copy_base + b))
        for x in t:
            for y in range(copy_base, copy_base + f.n):
                arcs.add((x, y))
        nxt += f.n
        for t2 in subs_f:
            apex = nxt
            nxt += 1
            for y in t2:
                arcs.add((copy_base + y, apex))
            for x in t:
                arcs.add((apex, x))
    return build_digraph(nxt, arcs)


@dataclass(frozen=True)
class PatternEmbedding:
    """Injective pattern -> host assignment preserving exact adjacency."""

    mapping: tuple[int, ...]

    def verify(self, host: Digraph, pattern: Digraph) -> bool:
        m = self.mapping
        if len(set(m)) != len(m) or len(m) != pattern.n:
            return False
        for a in range(pattern.n):
            for b in range(pattern.n):
                if a == b:
                    continue
                if ((a, b) in pattern.arcs) != ((m[a], m[b]) in host.arcs):
                    return False
        return True


def contains_induced(
    host: Digraph, pattern: Digraph, budget: int | None = 5_000_000
) -> PatternEmbedding | None:
    """Induced-subdigraph search on candidate bitsets (Ullmann 1976).

    Pattern vertices are mapped in natural order.  The candidates of each
    are the unused host vertices with large enough degrees that lie inside
    (or, where the pattern has no such arc, outside) the in- and out-masks
    of every mapped vertex, tried in ascending order: a found embedding is
    the lexicographically first one, and None certifies absence.  One
    budget step is one candidate tried.
    """
    if pattern.n > host.n:
        return None
    steps = Budget(budget, "pattern search budget")
    hout, hin = host.out_masks, host.in_masks
    roots = [mask_of(hv for hv in range(host.n) if host.d_plus(hv) >= pattern.d_plus(pv)
                     and host.d_minus(hv) >= pattern.d_minus(pv)) for pv in range(pattern.n)]
    mapping: list[int] = []

    def search(pv: int, unused: int) -> bool:
        if pv == pattern.n:
            return True
        cand = roots[pv] & unused
        for pu, hu in enumerate(mapping):
            cand &= hout[hu] if pattern.out_masks[pu] >> pv & 1 else ~hout[hu]
            cand &= hin[hu] if pattern.in_masks[pu] >> pv & 1 else ~hin[hu]
        for hv in bits(cand):
            steps.tick()
            mapping.append(hv)
            if search(pv + 1, unused & ~(1 << hv)):
                return True
            mapping.pop()
        return False

    return PatternEmbedding(tuple(mapping)) if search(0, (1 << host.n) - 1) else None


def _c3_to_k1() -> Digraph:
    return compose_domination(dicycle(3), transitive_tournament(1))


def _k1_to_c3() -> Digraph:
    return compose_domination(transitive_tournament(1), dicycle(3))


PATTERNS = {
    "c3": lambda: dicycle(3),
    "tt3": lambda: transitive_tournament(3),
    "c3_1_2_2": lambda: circ3(1, 2, 2),
    "c3_1_2_3": lambda: circ3(1, 2, 3),
    "c3_1_2_c3": lambda: circ3(1, 2, dicycle(3)),
    "c3_1_1_2": lambda: circ3(1, 1, 2),
    "c3_to_k1": _c3_to_k1,
    "k1_to_c3": _k1_to_c3,
}


def pattern(name: str) -> Digraph:
    try:
        return PATTERNS[name]()
    except KeyError:
        raise BadVertex(f"unknown pattern {name!r}") from None


def verify_generated(gen: GeneratedDigraph, budget: int | None = None) -> dict:
    """Opt-in self-check of a generator's claims (exponential routines).

    `budget` caps each search; None leaves each search its own default.
    A search that runs out puts its message under `budget_exceeded` and
    the other checks still run.  A chi search that runs out reports
    `chi` null, the bounds it proved as `chi_bounds`, and `chi_ok` false
    when the claim lies outside them, else null.  A pattern search that
    runs out is reported as unknown: null under `free`, `free_ok` null
    unless another pattern was found.
    """
    report: dict = {"name": gen.name, "params": gen.params}
    limit = {} if budget is None else {"budget": budget}
    if gen.claimed_chi is not None:
        try:
            value = exact_dichromatic(gen.digraph, **limit).value
        except BudgetExceeded as exc:
            report["chi"] = None
            report["chi_bounds"] = [exc.lower, exc.upper]
            report["chi_ok"] = None if exc.lower <= gen.claimed_chi <= exc.upper else False
            report["budget_exceeded"] = str(exc)
        else:
            report["chi"] = value
            report["chi_ok"] = value == gen.claimed_chi
    freeness: dict[str, bool | None] = {}
    for pname in gen.forbidden:
        try:
            freeness[pname] = contains_induced(gen.digraph, pattern(pname), **limit) is None
        except BudgetExceeded as exc:
            freeness[pname] = None
            report["budget_exceeded"] = str(exc)
    if freeness:
        found = freeness.values()
        report["free"] = freeness
        report["free_ok"] = False if False in found else None if None in found else True
    return report
