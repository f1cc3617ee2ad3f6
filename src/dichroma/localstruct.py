"""Locally semicomplete machinery: cyclic orders, hub decomposition,
2-dicolouring of locally out-transitive oriented graphs, the three-case
structure of locally semicomplete digraphs, 2-kings, and the low-outdegree
witness for short-cycle-free locally in-tournament oriented graphs.

A cyclic order is a vertex permutation up to rotation, canonicalized to
start at vertex 0.  "In-round" means every in-neighbourhood is the
interval just before its vertex; "round" additionally puts every
out-neighbourhood just after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .colouring import Dicolouring, find_cycle_in
from .core import (
    Digraph,
    bfs,
    bits,
    contract,
    mask_of,
    partition,
    strong_components,
    strong_parts,
)
from .errors import (
    InvalidInput,
    NotOriented,
    NotStrong,
    PreconditionViolated,
)


def _is_tournament(d: Digraph, s: int) -> bool:
    """Does the vertex bitset s induce a tournament?"""
    return _is_semicomplete(d, s) and _digon_free(d, s)


def _digon_free(d: Digraph, s: int) -> bool:
    return not any(d.out_masks[v] & d.in_masks[v] & s for v in bits(s))


def _is_semicomplete(d: Digraph, s: int) -> bool:
    return all(s & ~(d.und_masks[v] | 1 << v) == 0 for v in bits(s))


def _is_transitive_tournament(d: Digraph, s: int) -> bool:
    return _is_tournament(d, s) and find_cycle_in(d.out_masks, s) is None


@dataclass(frozen=True)
class LocalClassFlags:
    locally_out_semicomplete: bool
    locally_out_transitive: bool
    locally_in_tournament: bool
    locally_semicomplete: bool
    in_round_condition: bool
    round_condition: bool
    witnesses: dict


def check_local_class(d: Digraph) -> LocalClassFlags:
    """Per-vertex neighbourhood checks with the first failing vertex as
    witness per flag."""
    flags = {
        "locally_out_semicomplete": True,
        "locally_out_transitive": True,
        "locally_in_tournament": True,
        "locally_semicomplete": True,
        "in_round_condition": True,
        "round_condition": True,
    }
    wit: dict = {}

    def fail(key: str, v: int):
        if flags[key]:
            flags[key] = False
            wit[key] = v

    for v in range(d.n):
        outs = d.out_masks[v]
        ins = d.in_masks[v]
        # each predicate once per neighbourhood, as `_is_tournament` and
        # `_is_transitive_tournament` would build them
        semi_out = _is_semicomplete(d, outs)
        semi_in = _is_semicomplete(d, ins)
        tour_out = semi_out and _digon_free(d, outs)
        tour_in = semi_in and _digon_free(d, ins)
        trans_out = tour_out and find_cycle_in(d.out_masks, outs) is None
        in_round = tour_out and find_cycle_in(d.out_masks, ins) is None
        if not semi_out:
            fail("locally_out_semicomplete", v)
            fail("locally_semicomplete", v)
        if not semi_in:
            fail("locally_semicomplete", v)
        if not trans_out:
            fail("locally_out_transitive", v)
        if not tour_in:
            fail("locally_in_tournament", v)
        if not in_round:
            fail("in_round_condition", v)
        if not (trans_out and tour_in and in_round):
            fail("round_condition", v)
    return LocalClassFlags(**flags, witnesses=wit)


@dataclass(frozen=True)
class CyclicOrder:
    """Vertex permutation up to rotation, canonicalized to start at 0."""

    order: tuple[int, ...]

    @staticmethod
    def from_sequence(seq: Sequence[int]) -> "CyclicOrder":
        seq = list(seq)
        if 0 in seq:
            i = seq.index(0)
            seq = seq[i:] + seq[:i]
        return CyclicOrder(tuple(seq))

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def satisfies_in_round(d: Digraph, order: Sequence[int]) -> bool:
    """For every arc x->y, every z strictly between x and y also sees y."""
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    for x, y in d.arcs:
        i = (pos[x] + 1) % n
        while i != pos[y]:
            if (order[i], y) not in d.arcs:
                return False
            i = (i + 1) % n
    return True


def satisfies_round(d: Digraph, order: Sequence[int]) -> bool:
    """For every arc x->y, every z strictly between is seen by x and sees y:
    in-round, and in-round again with every arc and the order reversed."""
    return satisfies_in_round(d, order) and satisfies_in_round(d.reverse(), order[::-1])


@dataclass(frozen=True)
class InRoundResult:
    order: CyclicOrder | None = None
    failing_vertex: int | None = None
    failing_condition: str | None = None

    @property
    def ok(self) -> bool:
        return self.order is not None


def inround_order(d: Digraph) -> InRoundResult:
    """Cyclic order witnessing the in-round property of a strong oriented
    graph, or a refutation of the local condition.

    Checks that every out-neighbourhood is a tournament and every
    in-neighbourhood acyclic; then follows, from each vertex x, the chosen
    in-neighbour f(x) whose out-neighbours avoid x's in-neighbourhood
    (least index among the sinks of the in-neighbourhood).  The arcs
    f(x)->x close into a Hamiltonian cycle, which is the order.
    """
    if not d.is_oriented:
        raise NotOriented("digons present")
    if not d.is_strong:
        raise NotStrong("not strongly connected")
    if d.n <= 1:
        return InRoundResult(order=CyclicOrder(tuple(range(d.n))))
    for v in range(d.n):
        if not _is_tournament(d, d.out_masks[v]):
            return InRoundResult(failing_vertex=v, failing_condition="out-not-tournament")
        if find_cycle_in(d.out_masks, d.in_masks[v]) is not None:
            return InRoundResult(failing_vertex=v, failing_condition="in-not-acyclic")
    f = [0] * d.n
    for x in range(d.n):
        sinks = [y for y in bits(d.in_masks[x]) if not d.out_masks[y] & d.in_masks[x]]
        f[x] = sinks[0]
    # follow x -> f(x); every vertex has in-degree 1 in the f-arc digraph
    start = 0
    cycle = [start]
    seen = {start}
    cur = start
    while True:
        nxt = f[cur]
        if nxt == start:
            break
        if nxt in seen:
            return InRoundResult(failing_vertex=nxt, failing_condition="not-hamiltonian")
        cycle.append(nxt)
        seen.add(nxt)
        cur = nxt
    if len(cycle) != d.n:
        return InRoundResult(failing_vertex=None, failing_condition="not-hamiltonian")
    order = list(reversed(cycle))  # f(x) precedes x along the cyclic order
    if not satisfies_in_round(d, order):
        return InRoundResult(failing_vertex=None, failing_condition="order-check-failed")
    return InRoundResult(order=CyclicOrder.from_sequence(order))


# ---------------------------------------------------------------------------
# hubs


def _maximal_parts(d: Digraph, sets: Iterable[int]) -> list[frozenset[int]]:
    """The inclusion-maximal ones among the strong components of the
    subdigraphs induced by some vertex bitsets."""
    parts = {p for s in sets for p in strong_parts(d.out_masks, s)}
    return [frozenset(bits(p)) for p in parts if not any(p & q == p != q for q in parts)]


def maximal_hubs(d: Digraph) -> list[frozenset[int]]:
    """Inclusion-maximal hubs (strong sets in-dominated by an outside
    vertex), plus leftover singletons; they partition the vertex set of a
    strong locally out-transitive oriented graph (the caller's partition
    constructor rejects overlaps loudly)."""
    # every hub lies in a strong component of an in-neighbourhood, and each
    # such component is itself a hub
    chosen = _maximal_parts(d, d.in_masks)
    covered = {v for c in chosen for v in c}
    for v in range(d.n):
        if v not in covered:
            chosen.append(frozenset({v}))
    return sorted(chosen, key=lambda s: sorted(s))


@dataclass(frozen=True)
class HubPartition:
    parts: tuple[frozenset[int], ...]
    quotient: Digraph
    order: CyclicOrder  # cyclic order of the quotient, by part index


def hub_decomposition(d: Digraph) -> HubPartition:
    """Partition a strong locally out-transitive oriented graph into its
    maximal hubs; the quotient is a strong in-round oriented graph."""
    flags = check_local_class(d)
    if not d.is_oriented:
        raise PreconditionViolated("digons present")
    if not d.is_strong:
        raise PreconditionViolated("not strong")
    if not flags.locally_out_transitive:
        raise PreconditionViolated("not locally out-transitive")
    hubs = maximal_hubs(d)
    part = partition(d.n, hubs)
    q = contract(d, part)
    res = inround_order(q)
    if not res.ok:
        raise InvalidInput(
            f"quotient not in-round ({res.failing_condition}); hub extraction broken"
        )
    return HubPartition(tuple(hubs), q, res.order)


# ---------------------------------------------------------------------------
# 2-dicolouring of locally out-transitive oriented graphs


def monochromatic_out_ball_colouring(d: Digraph, x: int) -> Dicolouring:
    """2-dicolouring of a strong in-round oriented graph keeping {x} and
    x's out-neighbourhood on one colour.

    Takes the longest arc x->y (most vertices strictly between, ties by
    least head); the closed interval [x, y] sits inside y's
    in-neighbourhood plus y, the rest carries only forward arcs, so both
    classes are acyclic.
    """
    res = inround_order(d)
    if not res.ok:
        raise PreconditionViolated("not a strong in-round oriented graph")
    order = res.order.order
    pos = res.order.position()
    n = d.n
    if not d.out_masks[x]:
        raise PreconditionViolated("in-round strong graph needs out-arcs")
    best_y = None
    best_len = -1
    for y in bits(d.out_masks[x]):
        length = (pos[y] - pos[x]) % n
        if length > best_len:
            best_len = length
            best_y = y
    colour = [0] * n
    i = pos[x]
    while True:
        colour[order[i]] = 1
        if order[i] == best_y:
            break
        i = (i + 1) % n
    for v in range(n):
        if colour[v] == 0:
            colour[v] = 2
    return Dicolouring(tuple(colour), 2)


def two_dicolour_lot(d: Digraph, t: Sequence[int]) -> Dicolouring:
    """2-dicolouring of a locally out-transitive oriented graph with the
    prescribed transitive tournament t monochromatic.

    Strong components are handled independently; within one, the maximal
    hubs are contracted, the in-round quotient is 2-coloured keeping the
    first hub and its out-neighbourhood monochromatic, and the hubs are
    recursively coloured with their entry tournaments pinned to the colour
    of their quotient vertex.
    """
    tset = list(dict.fromkeys(t))
    if any(not 0 <= v < d.n for v in tset):
        raise PreconditionViolated("t outside the vertex range")
    flags = check_local_class(d)
    if not d.is_oriented or not flags.locally_out_transitive:
        raise PreconditionViolated("not a locally out-transitive oriented graph")
    if not _is_transitive_tournament(d, mask_of(tset)):
        raise PreconditionViolated("t does not induce a transitive tournament")
    colour = [0] * d.n
    for comp in strong_components(d).parts:
        sub, labels = d.induced(sorted(comp))
        pos = {v: i for i, v in enumerate(labels)}
        t_local = [pos[v] for v in tset if v in pos]
        cols = _two_colour_strong(sub, t_local, 1)
        for i, v in enumerate(labels):
            colour[v] = cols[i]
    return Dicolouring(tuple(colour), 2 if d.n else 0)


def _two_colour_strong(d: Digraph, t_local: list[int], want: int) -> list[int]:
    """2-colouring of one strong locally out-transitive oriented graph with
    t_local monochromatic in colour `want`."""
    if d.n == 1:
        return [want]
    hubs = maximal_hubs(d)
    part = partition(d.n, hubs)
    q = contract(d, part)
    owner = part.part_of()
    qn = q.n
    if qn == 1:
        raise InvalidInput("single maximal hub covering a strong graph")
    # anchor hub: the one holding the source of t, else the hub of vertex 0
    if t_local:
        src = next(
            v for v in t_local if all((v, w) in d.arcs for w in t_local if w != v)
        )
        h1 = owner[src]
    else:
        h1 = owner[0]
    qcols = monochromatic_out_ball_colouring(q, h1)
    # entry tournaments: vertices of a hub with an in-neighbour outside
    entry = [[v for v in bits(m) if d.in_masks[v] & ~m] for m in map(mask_of, hubs)]
    cols = [0] * d.n
    for i, hub in enumerate(hubs):
        sub, labels = d.induced(sorted(hub))
        pos = {v: j for j, v in enumerate(labels)}
        want_i = qcols.colours[i]
        if i == h1:
            pinned = [pos[v] for v in t_local if owner[v] == i]
        else:
            pinned = [pos[v] for v in entry[i]]
            for v in t_local:
                if owner[v] == i and pos[v] not in pinned:
                    pinned.append(pos[v])
        sub_cols = _two_colour_strong(sub, pinned, want_i)
        for j, v in enumerate(labels):
            cols[v] = sub_cols[j]
    # pinned vertices got the quotient colour; flip the whole component if
    # the prescribed tournament missed `want` (flips preserve validity)
    if t_local and cols[t_local[0]] != want:
        cols = [3 - c for c in cols]
    return cols


# ---------------------------------------------------------------------------
# locally semicomplete structure


def maximal_weak_hubs(d: Digraph) -> list[frozenset[int]]:
    """Inclusion-maximal weak hubs: strong sets strictly in- or
    out-dominated by an outside vertex.  May overlap when some hub is
    mixed; pairwise disjoint otherwise."""
    strict = [o & ~i for o, i in zip(d.out_masks, d.in_masks)]
    strict += [i & ~o for o, i in zip(d.out_masks, d.in_masks)]
    return sorted(_maximal_parts(d, strict), key=lambda s: (sorted(s), len(s)))


def _hub_sides(d: Digraph, hub: int) -> tuple[int, int, int]:
    """The vertices outside the bitset `hub` with arcs both into and out of
    it, only into it, and only out of it, as bitsets."""
    into = out_of = 0
    for v in bits(hub):
        into |= d.in_masks[v]
        out_of |= d.out_masks[v]
    into &= ~hub
    out_of &= ~hub
    return into & out_of, into & ~out_of, out_of & ~into


@dataclass(frozen=True)
class SemicompleteStructure:
    case: str  # "UniversalVertex" | "RoundBlowup" | "FourSetPartition"
    universal_vertex: int | None = None
    parts: tuple[frozenset[int], ...] | None = None
    order: CyclicOrder | None = None
    e: frozenset[int] | None = None
    f: frozenset[int] | None = None
    g: frozenset[int] | None = None
    h: frozenset[int] | None = None
    notes: tuple[str, ...] = ()


def semicomplete_structure(d: Digraph) -> SemicompleteStructure:
    """Three-case structure of a connected locally semicomplete digraph:
    a universal vertex, a round blow-up (strong semicomplete parts whose
    contraction is round), or the four-set domination partition extracted
    from a mixed maximal weak hub."""
    if not d.is_connected:
        raise PreconditionViolated("not connected")
    flags = check_local_class(d)
    if not flags.locally_semicomplete:
        raise PreconditionViolated("not locally semicomplete")
    full = (1 << d.n) - 1
    for v in range(d.n):
        if d.out_masks[v] == d.in_masks[v] == full ^ 1 << v:
            return SemicompleteStructure("UniversalVertex", universal_vertex=v)
    hubs = maximal_weak_hubs(d)
    for hub in hubs:
        g, h, f = _hub_sides(d, mask_of(hub))
        if g:  # a mixed hub
            break
    else:
        # maximal weak hubs are pairwise disjoint when none is mixed;
        # vertices with identical non-universal in/out neighbourhoods are
        # in no hub and stay singletons
        covered = {v for x in hubs for v in x}
        parts = hubs + [frozenset({v}) for v in range(d.n) if v not in covered]
        part = partition(d.n, parts)
        q = contract(d, part)
        order = _round_order(q)
        return SemicompleteStructure(
            "RoundBlowup", parts=tuple(parts), order=order
        )
    if (1 << d.n) - 1 & ~(mask_of(hub) | g | h | f):
        raise InvalidInput("vertices unrelated to the mixed hub; not connected?")
    notes = [
        "four-set nonemptiness follows the constructive split: the first "
        "and third sets are non-empty and at least one of the other two is"
    ]
    return SemicompleteStructure(
        "FourSetPartition",
        e=hub,
        f=frozenset(bits(f)),
        g=frozenset(bits(g)),
        h=frozenset(bits(h)),
        notes=tuple(notes),
    )


def _round_order(q: Digraph) -> CyclicOrder:
    """Round order of an oriented quotient: the in-round construction for
    strong quotients, the order of the singleton strong parts for acyclic
    ones (a connected non-strong round oriented graph is an acyclic one
    whose order is a Hamiltonian dipath, its only topological order)."""
    if q.is_strong:
        res = inround_order(q)
        if res.ok and satisfies_round(q, res.order.order):
            return res.order
        raise InvalidInput("quotient of weak hubs is not round")
    full = (1 << q.n) - 1
    if find_cycle_in(q.out_masks, full) is not None:
        raise InvalidInput("quotient neither strong nor acyclic")
    order = [p.bit_length() - 1 for p in strong_parts(q.out_masks, full)]
    if not satisfies_round(q, order):
        raise InvalidInput("quotient of weak hubs is not round")
    return CyclicOrder.from_sequence(order)


def find_2king(d: Digraph) -> int | None:
    """Least vertex reaching every other by a dipath of length at most 2."""
    full = (1 << d.n) - 1
    for v in range(d.n):
        reach = 1 << v | d.out_masks[v]
        for w in bits(d.out_masks[v]):
            reach |= d.out_masks[w]
        if reach == full:
            return v
    return None


# ---------------------------------------------------------------------------
# low out-degree in short-cycle-free locally in-tournament graphs


def shortest_dicycle_length(d: Digraph) -> int | None:
    """Length of a shortest directed cycle, or None when acyclic: the least
    1 + dist(s, u) over the arcs u->s."""
    lengths = []
    for s in range(d.n):
        queue, parent = bfs(d.out_masks, (1 << d.n) - 1, s)
        dist = {s: 0}
        for v in queue[1:]:
            dist[v] = dist[parent[v]] + 1
        lengths += [dist[u] + 1 for u in bits(d.in_masks[s]) if u in dist]
    return min(lengths, default=None)


@dataclass(frozen=True)
class OutDegreeWitness:
    vertex: int
    out_degree: int
    bound: float

    @property
    def verdict(self) -> bool:
        return self.out_degree < self.bound


def min_outdegree_witness(d: Digraph, k: int) -> OutDegreeWitness:
    """The minimum-out-degree vertex of a locally in-tournament oriented
    graph with no directed cycle of length at most k; its out-degree is
    always below n/k."""
    if k < 2:
        raise PreconditionViolated("k must be at least 2")
    if d.n == 0:
        raise PreconditionViolated("empty digraph")
    if not d.is_oriented:
        raise PreconditionViolated("digons present")
    flags = check_local_class(d)
    if not flags.locally_in_tournament:
        raise PreconditionViolated("not locally in-tournament")
    g = shortest_dicycle_length(d)
    if g is not None and g <= k:
        raise PreconditionViolated(f"directed cycle of length {g} <= {k}")
    v = min(range(d.n), key=lambda x: (d.d_plus(x), x))
    return OutDegreeWitness(v, d.d_plus(v), d.n / k)


@dataclass(frozen=True)
class WeightedWitness:
    vertex: int
    weighted_out: float
    bound: float

    @property
    def verdict(self) -> bool:
        return self.weighted_out < self.bound


def weighted_out_round_witness(
    d: Digraph, weights: Sequence[float], k: int
) -> WeightedWitness:
    """For a strong out-round oriented graph with no directed cycle of
    length at most k and positive vertex weights: some vertex u has
    weighted out-neighbourhood below (W - w(u)) / k."""
    if d.n == 0:
        raise PreconditionViolated("empty digraph")
    if len(weights) != d.n or any(w <= 0 for w in weights):
        raise PreconditionViolated("weights must be positive, one per vertex")
    rev = d.reverse()
    res = inround_order(rev)
    if not res.ok:
        raise PreconditionViolated("not a strong out-round oriented graph")
    g = shortest_dicycle_length(d)
    if g is not None and g <= k:
        raise PreconditionViolated(f"directed cycle of length {g} <= {k}")
    total = sum(weights)
    best: WeightedWitness | None = None
    for u in range(d.n):
        lhs = sum(weights[v] for v in bits(d.out_masks[u]))
        bound = (total - weights[u]) / k
        cand = WeightedWitness(u, lhs, bound)
        if cand.verdict:
            return cand
        if best is None or lhs - bound < best.weighted_out - best.bound:
            best = cand
    return best  # no witness: the caller sees verdict False
