"""Local arc-connectivity, the Hajos-join algebra, and recognition of
digraphs whose dichromatic number meets the arc-connectivity bound
(chi = lambda + 1 = k + 1, called k-extremal below).

The recognizer is a structural recursion: find one join split (directed
join, then parallel join, then star join), verify it by replaying the join
and comparing arc sets, and recurse into the parts; leaves must be the
base digraphs (symmetric complete, plus symmetric odd wheels for k = 3).
Each split kind preserves the property in both directions, so the
verdict is the conjunction over the children of the first split found.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache
from typing import Collection, Iterable, Sequence

from .colouring import exact_dichromatic
from .core import (
    Arc,
    Budget,
    Digraph,
    Lowpoints,
    bfs,
    bfs_path,
    bits,
    build_digraph,
    components,
    contract,
    cut_labels,
    lowpoints,
    mask_of,
    partition,
    reach,
)
from .errors import (
    BadEmbeddingOrder,
    InvalidInput,
    MissingArc,
    MissingDigon,
    ParityViolated,
    PreconditionViolated,
    UnsupportedK,
)

# ---------------------------------------------------------------------------
# max-flow / lambda profile


def _maxflow_unit(d: Digraph, s: int, t: int) -> tuple[int, int, list[int]]:
    """Max arc-disjoint s->t dipaths (unit capacities), augmenting along
    `core.bfs` in the residual digraph.  Returns the flow value; the vertex
    bitset the final residual digraph reaches from s, the source side of
    the least minimum s-t dicut, the same for every maximum flow; and the
    flow itself as fwd[x], the heads of the flow arcs out of x.  Callers
    pass s != t."""
    out = d.out_masks
    fwd, back = [0] * d.n, [0] * d.n  # back[x]: the tails of flow arcs into x
    res = list(out)  # residual out-neighbours: out & ~fwd | back
    full = (1 << d.n) - 1
    flow = 0
    while True:
        queue, parent = bfs(res, full, s, t)
        if t not in parent:
            return flow, mask_of(queue), fwd
        y = t
        while y != s:
            x = parent[y]
            if back[x] >> y & 1:  # cancel the flow on y->x
                back[x] ^= 1 << y
                fwd[y] ^= 1 << x
            else:
                fwd[x] |= 1 << y
                back[y] |= 1 << x
            res[x] = out[x] & ~fwd[x] | back[x]
            res[y] = out[y] & ~fwd[y] | back[y]
            y = x
        flow += 1


def _dipaths(s: int, t: int, fwd: list[int]) -> tuple[tuple[int, ...], ...]:
    """The flow fwd of `_maxflow_unit(d, s, t)` split into as many
    arc-disjoint s->t dipaths as its value.  No flow arc enters s or leaves
    t, so a walk along unused flow arcs from s ends at t; a cycle it closes
    on the way is cut out."""
    fwd, paths = fwd[:], []
    while fwd[s]:
        path = [s]
        while path[-1] != t:
            x = path[-1]
            y = (fwd[x] & -fwd[x]).bit_length() - 1
            fwd[x] ^= 1 << y
            path = path[: path.index(y) + 1] if y in path else path + [y]
        paths.append(tuple(path))
    return tuple(paths)


def local_lambda(d: Digraph, u: int, v: int) -> tuple[int, frozenset[int]]:
    """lambda(u, v), the most arc-disjoint u->v dipaths, with the source
    side X of the least minimum u-v dicut (X, V - X): the set the residual
    digraph of a maximum flow reaches from u."""
    if not (u != v and all(isinstance(x, int) and 0 <= x < d.n for x in (u, v))):
        raise InvalidInput(f"not an ordered pair of distinct vertices: {(u, v)!r}")
    f, side, _ = _maxflow_unit(d, u, v)
    return f, frozenset(bits(side))


@dataclass(frozen=True)
class LambdaProfile:
    """lambda(D) = max lambda(u, v), with the lexicographically first pair
    that attains it, that pair's arc-disjoint dipaths and the source side
    of its least minimum dicut (empty when there is no pair)."""

    value: int
    pair: Arc | None
    paths: tuple[tuple[int, ...], ...]  # `value` arc-disjoint pair[0]->pair[1] dipaths
    side: frozenset[int]


def lambda_profile(d: Digraph) -> LambdaProfile:
    """lambda(D) and its lexicographically first argmax pair, by a maximum
    search over unit max-flows.  The pairs come in order of their degree
    bound min(d+(u), d-(v)) >= lambda(u, v); the search stops at the first
    bound that can no longer beat the best pair so far (a larger value, or
    an equal one at an earlier pair).  A pair is skipped when the least cut
    (X, V - X) of an earlier flow, of value f, has u in X and v outside,
    and f cannot beat the best either (the cut reuse of Gomory & Hu 1961).
    The argmax's dipaths and dicut side come from its search flow."""
    n = d.n
    dout = [d.d_plus(v) for v in range(n)]
    din = [d.d_minus(v) for v in range(n)]
    # (bound, pair) by descending bound, then ascending pair, made lazily:
    # the search mostly stops within the first bound
    by_bound = (
        (b, (u, v)) for b in sorted(set(dout) | set(din), reverse=True)
        for u in range(n) if dout[u] >= b
        for v in range(n) if u != v and min(dout[u], din[v]) == b
    )
    cuts: list[tuple[int, int]] = []  # (lambda, least cut side) per flow run
    best, arg, arg_side, arg_flow = -1, None, 0, []

    def beats(f: int, pair: Arc) -> bool:
        """Whether a pair of value, or upper bound, f can still be the argmax."""
        return f > best or f == best and pair < arg

    for bound, pair in by_bound:
        if not beats(bound, pair):
            break
        u, v = pair
        if any(side >> u & 1 and not side >> v & 1 and not beats(f, pair) for f, side in cuts):
            continue
        f, side, flow = _maxflow_unit(d, u, v)
        cuts.append((f, side))
        if beats(f, pair):
            best, arg, arg_side, arg_flow = f, pair, side, flow

    paths = _dipaths(*arg, arg_flow) if arg else ()
    return LambdaProfile(max(best, 0), arg, paths, frozenset(bits(arg_side)))


# ---------------------------------------------------------------------------
# joins


def _append_mapping(n1: int, n2: int, glued: dict[int, int]) -> list[int]:
    """The labels of a second digraph's vertices 0..n2-1 appended to a first
    one's 0..n1-1: glued[x] for a glued x, the next free label for the rest."""
    free = iter(range(n1, n1 + n2))
    return [glued[x] if x in glued else next(free) for x in range(n2)]


def _embed(arcs: Iterable[Arc], emb: Sequence[int]) -> set[Arc]:
    return {(emb[p], emb[q]) for p, q in arcs}


def _ring(order: Sequence[int]) -> set[Arc]:
    """The dicycle order[0] -> order[1] -> ... -> order[0]."""
    return {(z, order[(i + 1) % len(order)]) for i, z in enumerate(order)}


ChildArcs = Sequence[tuple[Iterable[Arc], Sequence[int]]]  # (arcs, embedding) per child


def _directed_join(children: ChildArcs, u: int, v: int, w: int) -> set[Arc]:
    """The directed Hajos join in parent labels: the first child without
    u->v and the second without v->w, sharing v, plus the arc u->w."""
    (arcs1, emb1), (arcs2, emb2) = children
    return _embed(arcs1, emb1) - {(u, v)} | _embed(arcs2, emb2) - {(v, w)} | {(u, w)}


def _tree_join(children: ChildArcs, edges: Sequence[Arc], order: Sequence[int]) -> set[Arc]:
    """The tree (or star) Hajos join in parent labels: child i without the
    digon on tree edge i, plus the peripheral dicycle through order."""
    arcs = _ring(order)
    for (child, emb), (p, q) in zip(children, edges):
        arcs |= _embed(child, emb) - {(p, q), (q, p)}
    return arcs


def _parallel_join(children: ChildArcs, a: int, b: int, a_side: Iterable[int]) -> set[Arc]:
    """The parallel Hajos join in parent labels: the B child without its
    digon [a, b], and the A/C child with its vertex x (embedded as -1)
    split in two: a takes x's arcs to and from a_side (A/C child labels),
    b the rest."""
    (ac_arcs, ac_emb), (b_arcs, b_emb) = children
    a_side = set(a_side)

    def at(z: int, other: int) -> int:
        return ac_emb[z] if ac_emb[z] != -1 else a if other in a_side else b

    return _embed(b_arcs, b_emb) - {(a, b), (b, a)} | {(at(p, q), at(q, p)) for p, q in ac_arcs}


def directed_hajos_join(d1: Digraph, arc1: Arc, d2: Digraph, arc2: Arc) -> Digraph:
    """Swap out one arc of each digraph, identify the head of the first arc
    with the tail of the second, and add the bridging arc.

    Labels: the first digraph keeps its labels, the identified vertex keeps
    the label of arc1's head, the rest of the second digraph follows in
    ascending order.
    """
    u, v1 = arc1
    v2, w = arc2
    if arc1 not in d1.arcs:
        raise MissingArc(f"{arc1} not in first digraph")
    if arc2 not in d2.arcs:
        raise MissingArc(f"{arc2} not in second digraph")
    emb2 = _append_mapping(d1.n, d2.n, {v2: v1})
    children = [(d1.arcs, range(d1.n)), (d2.arcs, emb2)]
    return build_digraph(d1.n + d2.n - 1, _directed_join(children, u, v1, emb2[w]))


@dataclass(frozen=True)
class BijoinResult:
    digraph: Digraph
    degenerate: bool
    bidirected: bool


def hajos_bijoin(
    d1: Digraph,
    taw: tuple[int, int, int],
    d2: Digraph,
    vau: tuple[int, int, int],
) -> BijoinResult:
    """Two-arc join over one shared vertex.

    Removes t->a1->w from the first digraph and v->a2->u from the second,
    identifies a1 with a2, and adds the crossing arcs t->u and v->w.
    Requires t,w (resp. u,v) to stay connected once a1 (resp. a2) is
    deleted.  t=w and u=v are allowed; both at once is the bidirected join.
    """
    t, a1, w = taw
    v, a2, u = vau
    for arc, dd, name in (
        ((t, a1), d1, "t->a1"),
        ((a1, w), d1, "a1->w"),
        ((v, a2), d2, "v->a2"),
        ((a2, u), d2, "a2->u"),
    ):
        if arc not in dd.arcs:
            raise PreconditionViolated(f"missing arc {name} = {arc}")
    if not reach(d1.und_masks, (1 << d1.n) - 1 & ~(1 << a1), 1 << t) >> w & 1:
        raise PreconditionViolated("t and w separate when a1 is removed")
    if not reach(d2.und_masks, (1 << d2.n) - 1 & ~(1 << a2), 1 << u) >> v & 1:
        raise PreconditionViolated("u and v separate when a2 is removed")
    emb2 = _append_mapping(d1.n, d2.n, {a2: a1})
    arcs = d1.arcs - {(t, a1), (a1, w)} | _embed(d2.arcs - {(v, a2), (a2, u)}, emb2)
    dig = build_digraph(d1.n + d2.n - 1, arcs | {(t, emb2[u]), (emb2[v], w)})
    return BijoinResult(
        dig, degenerate=(t == w) != (u == v), bidirected=(t == w and u == v)
    )


def _tree_structure(n: int, tree_edges: Sequence[tuple[int, int]]):
    """Leaves, neighbourhood bitsets and vertex bitset of a tree on 0..n-1."""
    adj = [0] * n
    for a, b in tree_edges:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidInput(f"tree edge ({a}, {b}) outside 0..{n - 1}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    vs = mask_of(v for v in range(n) if adj[v])
    if vs.bit_count() != len(tree_edges) + 1 or len(components(adj, vs)) != 1:
        raise InvalidInput("edge list is not a tree")
    leaves = {v for v in bits(vs) if adj[v].bit_count() == 1}
    return leaves, adj, vs


def hajos_tree_join(
    n: int,
    tree_edges: Sequence[tuple[int, int]],
    parts: Sequence[Iterable[Arc]],
    order: Sequence[int],
    extended: bool = False,
    check_embedding: bool = True,
) -> Digraph:
    """Glue digon-carrying parts along a tree and add a peripheral dicycle.

    Part i lives on tree edge (u_i, v_i) over the global label space,
    shares only its two tree vertices with the tree, and must contain the
    digon [u_i, v_i]; those digons are removed and the dicycle
    order[0] -> order[1] -> ... -> order[0] is added.  `order` lists the
    leaves (each exactly once) following a plane embedding of the tree;
    with `extended` it may also visit internal vertices, each at most once.

    The embedding test checks that the junction-to-junction tree paths
    between consecutive entries are pairwise arc-disjoint in the doubled
    tree; `check_embedding=False` skips it, to build crossed variants on
    purpose.
    """
    if len(tree_edges) < 2:
        raise InvalidInput("need at least two tree edges")
    if len(parts) != len(tree_edges):
        raise InvalidInput("one part per tree edge required")
    leaves, adj, vs = _tree_structure(n, tree_edges)
    tree_vs = set(bits(vs))
    order = list(order)
    if len(set(order)) != len(order):
        raise BadEmbeddingOrder("repeated vertex in the peripheral order")
    if not extended:
        if set(order) != leaves:
            raise BadEmbeddingOrder("order must list exactly the leaves")
    else:
        if not leaves <= set(order):
            raise BadEmbeddingOrder("order must contain every leaf")
        if not set(order) <= tree_vs:
            raise BadEmbeddingOrder("order contains a non-tree vertex")
    if check_embedding:
        used: set[tuple[int, int]] = set()
        for i, xv in enumerate(order):
            y = order[(i + 1) % len(order)]
            path = bfs_path(adj, vs, xv, y)
            for a, b in zip(path, path[1:]):
                if (a, b) in used:
                    raise BadEmbeddingOrder(
                        f"tree arc {a}->{b} used by two junction paths"
                    )
                used.add((a, b))
    part_arcs = [frozenset(p) for p in parts]
    owner: dict[int, int] = {}
    for i, ((ui, vi), pa) in enumerate(zip(tree_edges, part_arcs)):
        if (ui, vi) not in pa or (vi, ui) not in pa:
            raise MissingDigon(f"part {i} lacks the digon on tree edge ({ui}, {vi})")
        support = {x for a in pa for x in a}
        if not support & tree_vs <= {ui, vi}:
            raise InvalidInput(f"part {i} touches tree vertices beyond its edge")
        for x in support - {ui, vi}:
            if x in owner:
                raise InvalidInput(f"vertex {x} shared by parts {owner[x]} and {i}")
            owner[x] = i
    if set(owner) | tree_vs != set(range(n)):
        raise InvalidInput("parts and tree do not cover exactly 0..n-1")
    # the peripheral arcs join tree vertices, so no part, which holds no arc
    # between tree vertices but its digon, already has one
    return build_digraph(n, _tree_join([(p, range(n)) for p in part_arcs], tree_edges, order))


def hajos_star_join(
    n: int,
    centre: int,
    rim: Sequence[int],
    parts: Sequence[Iterable[Arc]],
    check_embedding: bool = True,
) -> Digraph:
    """Tree join over a star: part i carries the digon [centre, rim[i]]."""
    edges = [(centre, r) for r in rim]
    return hajos_tree_join(n, edges, parts, list(rim), check_embedding=check_embedding)


def parallel_hajos_join(
    d_ac: Digraph,
    x: int,
    t: int,
    u: int,
    v: int,
    w: int,
    a_side: Iterable[int],
    d_b: Digraph,
    a: int,
    b: int,
) -> Digraph:
    """Splice a digon-carrying digraph into the shared vertex of a
    two-sided host.

    The host d_ac is split by x into an A side (containing t, w) and a C
    side (containing u, v) whose only crossing arcs are t->u and v->w.
    The spliced digraph d_b loses its digon [a, b]; a takes over x's
    A-side arcs, b its C-side arcs, and the crossing arcs survive.

    Labels: d_b keeps its labels, then the A side minus x in ascending
    order, then the C side minus x.
    """
    aset = set(a_side)
    if not aset <= set(range(d_ac.n)):
        raise PreconditionViolated("the A side must hold vertices of d_ac only")
    if x not in aset:
        raise PreconditionViolated("x must be a vertex of the A side")
    cset = (set(range(d_ac.n)) - aset) | {x}
    if not (t in aset and w in aset and t != x and w != x):
        raise PreconditionViolated("t and w must lie in the A side, apart from x")
    if not (u in cset and v in cset and u != x and v != x):
        raise PreconditionViolated("u and v must lie in the C side, apart from x")
    if (t, u) not in d_ac.arcs or (v, w) not in d_ac.arcs:
        raise PreconditionViolated("crossing arcs t->u and v->w must exist")
    for p, q in d_ac.arcs:
        crosses = (p in aset - {x} and q in cset - {x}) or (
            p in cset - {x} and q in aset - {x}
        )
        if crosses and (p, q) not in {(t, u), (v, w)}:
            raise PreconditionViolated(f"extra crossing arc {p}->{q}")
    if not d_b.has_digon(a, b):
        raise PreconditionViolated("d_b lacks the digon [a, b]")
    if not reach(d_ac.und_masks, (1 << d_ac.n) - 1 & ~(1 << x), 1 << t) >> w & 1:
        raise PreconditionViolated("t and w separate when x is removed")
    if not reach(d_ac.und_masks, mask_of(cset - {x}), 1 << u) >> v & 1:
        raise PreconditionViolated("u and v separate in the C side without x")
    emb_ac = [-1] * d_ac.n
    for i, z in enumerate(sorted(aset - {x}) + sorted(cset - {x})):
        emb_ac[z] = d_b.n + i
    children = [(d_ac.arcs, emb_ac), (d_b.arcs, range(d_b.n))]
    return build_digraph(d_b.n + d_ac.n - 1, _parallel_join(children, a, b, aset))


# ---------------------------------------------------------------------------
# necessary conditions


@dataclass(frozen=True)
class NecessaryReport:
    eulerian: bool
    strong: bool
    biconnected: bool
    lambda_all_k: bool
    lambda_value: int

    @property
    def all_pass(self) -> bool:
        return self.eulerian and self.strong and self.biconnected and self.lambda_all_k


def check_extremal_necessary(d: Digraph, k: int) -> NecessaryReport:
    """Cheap necessary filters: balanced degrees, strong, biconnected, and
    every ordered pair having local arc-connectivity exactly k."""
    eul = all(d.d_plus(v) == d.d_minus(v) for v in range(d.n))
    strong = d.is_strong
    bic = d.is_biconnected
    lam_ok = False
    lam_max = 0
    if strong and d.n >= 2:
        lam_max = lambda_profile(d).value
        # max = min = k: every pair is k.  The min is the least of the n
        # values lambda(v, v + 1 mod n), since every X with 0 < |X| < n
        # holds some v with v + 1 mod n outside it (Schnorr 1979)
        cyclic = (local_lambda(d, v, (v + 1) % d.n)[0] for v in range(d.n))
        lam_ok = lam_max == k == min(cyclic)
    return NecessaryReport(eul, strong, bic, lam_ok, lam_max)


# ---------------------------------------------------------------------------
# certificates

BASE_COMPLETE = "BaseSymmetricComplete"
BASE_ODD_WHEEL = "BaseSymmetricOddWheel"
BASE_DICYCLE = "BaseDirectedCycle"
JOIN_DIRECTED = "DirectedHajosJoin"
JOIN_PARALLEL = "ParallelHajosJoin"
JOIN_STAR = "HajosStarJoin"

# each join kind's arc rule, from its children's (arcs, embedding) and witness
_JOINS = {
    JOIN_DIRECTED: lambda kids, w: _directed_join(kids, w["u"], w["v"], w["w"]),
    JOIN_STAR: lambda kids, w: _tree_join(
        kids, [(w["centre"], p) for p in w["rim"]], w["rim"]
    ),
    JOIN_PARALLEL: lambda kids, w: _parallel_join(kids, w["a"], w["b"], w["a_side_child"]),
}


@dataclass(frozen=True)
class CertNode:
    """One node of a decomposition witness tree.

    Witness labels live in this node's own 0..n-1 space; each child comes
    with an embedding tuple mapping child labels to this node's labels
    (-1 marks the fresh shared vertex of a parallel split).
    """

    kind: str
    n: int
    witness: dict
    children: tuple[tuple["CertNode", tuple[int, ...]], ...] = ()

    def replay_arcs(self) -> frozenset[Arc]:
        """Rebuild the certified digraph's arc set by replaying the joins."""
        if self.kind in _JOINS:
            kids = [(child.replay_arcs(), emb) for child, emb in self.children]
            return frozenset(_JOINS[self.kind](kids, self.witness))
        if self.kind == BASE_COMPLETE:
            return frozenset(
                (i, j) for i in range(self.n) for j in range(self.n) if i != j
            )
        if self.kind == BASE_DICYCLE:
            return frozenset(_ring(self.witness["cycle"]))
        if self.kind == BASE_ODD_WHEEL:
            hub, rim = self.witness["hub"], self.witness["rim"]
            arcs = _ring(rim) | _ring(rim[::-1])
            return frozenset(arcs | {(hub, r) for r in rim} | {(r, hub) for r in rim})
        raise InvalidInput(f"unknown certificate kind {self.kind}")


def certificate_to_dict(node: CertNode) -> dict:
    return {
        "kind": node.kind,
        "n": node.n,
        "witness": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in node.witness.items()
        },
        "children": [
            {"embed": list(emb), "node": certificate_to_dict(ch)}
            for ch, emb in node.children
        ],
    }


# ---------------------------------------------------------------------------
# recognition


@dataclass(frozen=True)
class RecognizeResult:
    extremal: bool
    certificate: CertNode | None = None
    reason: str | None = None


def recognize_k_extremal(
    d: Digraph, k: int, budget: int | None = None
) -> RecognizeResult:
    """Decide whether chi = lambda + 1 = k + 1 holds on this strong,
    underlying-2-connected digraph, with a replayable decomposition
    witness.

    k = 1 is the directed-cycle characterization; k = 2 is refused (open
    problem, see check_2_extremal); k >= 3 runs the join recursion.
    """
    if k == 2:
        raise UnsupportedK("k = 2 recognition is open; use check_2_extremal")
    if k < 1:
        raise UnsupportedK("k must be positive")
    if k == 1:
        if (
            d.n >= 2
            and d.is_strong
            and all(d.d_plus(v) == 1 and d.d_minus(v) == 1 for v in range(d.n))
        ):
            cyc = [0]
            while len(cyc) < d.n:
                cyc.append(bits(d.out_masks[cyc[-1]])[0])
            cert = CertNode(BASE_DICYCLE, d.n, {"cycle": tuple(cyc)})
            return RecognizeResult(True, cert)
        return RecognizeResult(False, reason="not a directed cycle")
    return _recognize(d, k, Budget(budget, "recognition budget exceeded"))


def _recognize(d: Digraph, k: int, calls: Budget) -> RecognizeResult:
    calls.tick()
    if not d.is_strong:
        return RecognizeResult(False, reason="not strong")
    if d.n >= 3 and not d.is_biconnected:
        return RecognizeResult(False, reason="not biconnected")
    if any(d.d_plus(v) != d.d_minus(v) for v in range(d.n)):
        return RecognizeResult(False, reason="not eulerian")
    base = _base_case(d, k)
    if base is not None:
        return RecognizeResult(True, base)
    minus = _minus_one(d)
    for finder in (_find_directed_split, _find_parallel_split, _find_star_split):
        found = finder(d, minus)
        if found is None:
            continue
        kind, witness, children = found
        certified = []
        for child, emb in children:
            sub = _recognize(child, k, calls)
            if not sub.extremal:
                return RecognizeResult(
                    False, reason=f"{kind} part not extremal: {sub.reason}"
                )
            certified.append((sub.certificate, emb))
        node = CertNode(kind, d.n, witness, tuple(certified))
        return RecognizeResult(True, node)
    return RecognizeResult(False, reason="NoDecomposition")


def _base_case(d: Digraph, k: int) -> CertNode | None:
    symmetric = all((v, u) in d.arcs for u, v in d.arcs)
    if not symmetric:
        return None
    if d.n == k + 1 and len(d.arcs) == d.n * (d.n - 1):
        return CertNode(BASE_COMPLETE, d.n, {})
    if k == 3 and d.n >= 6 and d.n % 2 == 0:
        hubs = [v for v in range(d.n) if d.und_masks[v].bit_count() == d.n - 1]
        for hub in hubs:
            others = [v for v in range(d.n) if v != hub]
            if all(d.und_masks[v].bit_count() == 3 for v in others):
                rim = _trace_cycle(d, others, hub)
                if rim is not None:
                    return CertNode(
                        BASE_ODD_WHEEL, d.n, {"hub": hub, "rim": tuple(rim)}
                    )
    return None


def _trace_cycle(d: Digraph, others: list[int], hub: int) -> list[int] | None:
    """The rim as one symmetric odd cycle avoiding the hub, or None."""
    if len(others) < 3 or len(others) % 2 == 0:
        return None
    start = min(others)
    first = bits(d.und_masks[start] & ~(1 << hub))
    if len(first) != 2:
        return None
    rim = [start, first[0]]
    while True:
        prev, cur = rim[-2], rim[-1]
        nxt = bits(d.und_masks[cur] & ~(1 << hub | 1 << prev))
        if len(nxt) != 1:
            return None
        if nxt[0] == start:
            break
        if nxt[0] in rim:
            return None
        rim.append(nxt[0])
    if len(rim) != len(others):
        return None
    return rim


Child = tuple[Digraph, tuple[int, ...]]
Found = tuple[str, dict, list[Child]]


def _underlying(
    d: Digraph, keep: int, drop: Collection[Arc]
) -> tuple[list[int], list[int]]:
    """Underlying multigraph of d on the vertex bitset keep, without the
    arcs in drop, as (adj, doubled) bitsets for `lowpoints`: adj[v] holds
    v's neighbours, doubled[v] those still joined to v by both arcs of a
    digon."""
    adj = [m & keep if keep >> v & 1 else 0 for v, m in enumerate(d.und_masks)]
    doubled = [o & i & a for o, i, a in zip(d.out_masks, d.in_masks, adj)]
    for p, q in drop:
        doubled[p] &= ~(1 << q)
        doubled[q] &= ~(1 << p)
        if (q, p) not in d.arcs or (q, p) in drop:
            adj[p] &= ~(1 << q)
            adj[q] &= ~(1 << p)
    return adj, doubled


def _minus_one(d: Digraph) -> Callable[[int], Lowpoints]:
    """x -> the `lowpoints` of the underlying multigraph of d - x, searched
    on first read: a recognizer node's table, shared by its split finders.
    On a biconnected d, its `cuts` are x's 2-cut partners v: {x, v} cuts d."""
    full = (1 << d.n) - 1
    return cache(lambda x: lowpoints(*_underlying(d, full & ~(1 << x), ())))


def _child_plus(d: Digraph, vertices: list[int], extra: list[Arc]) -> Child:
    sub, labels = d.induced(vertices)
    pos = {v: i for i, v in enumerate(labels)}
    arcs = set(sub.arcs)
    for a, b in extra:
        arcs.add((pos[a], pos[b]))
    return Digraph(sub.n, frozenset(arcs)), tuple(labels)


def _verify_split(d: Digraph, kind: str, witness: dict, children: list[Child]) -> bool:
    """Does the join of this kind, replayed on the children, give d?"""
    return _JOINS[kind]([(ch.arcs, emb) for ch, emb in children], witness) == d.arcs


def _find_directed_split(d: Digraph, minus: Callable | None = None) -> Found | None:
    """First (lex by (u, w, v)) directed-join split, replay-verified.

    (u, w, v) splits d exactly when v is not u or w, neither (u, v),
    (v, w) nor (w, u) is an arc, d - v is connected and u-w is a bridge of
    its underlying multigraph: then d - v - uw has two components, one
    holding u and one holding w, so one search of d - v serves every arc.
    On a biconnected d, as the recognizer asks, v is then a 2-cut partner
    of each end with a third neighbour, whose side holds another vertex."""
    minus = minus or _minus_one(d)
    full = (1 << d.n) - 1
    for u, w in d.sorted_arcs():
        if (w, u) in d.arcs:
            continue
        free = full & ~(d.out_masks[u] | d.in_masks[w] | 1 << u | 1 << w)
        for end in (u, w) if d.is_biconnected else ():
            free &= minus(end).cuts if d.und_masks[end].bit_count() > 2 else full
        for v in bits(free):
            keep = full & ~(1 << v)
            side = minus(v).bridges.get((min(u, w), max(u, w)))
            if side is None or len(minus(v).tree) < d.n - 2:  # or d - v is split
                continue
            cu, cw = (side, keep & ~side) if side >> u & 1 else (keep & ~side, side)
            ch1 = _child_plus(d, bits(cu | 1 << v), [(u, v)])
            ch2 = _child_plus(d, bits(cw | 1 << v), [(v, w)])
            witness = {"u": u, "v": v, "w": w}
            if _verify_split(d, JOIN_DIRECTED, witness, [ch1, ch2]):
                return JOIN_DIRECTED, witness, [ch1, ch2]
    return None


def _cut_classes(
    found: Lowpoints,
) -> tuple[dict[tuple[int, int], int], dict[int, list[tuple[int, int]]]]:
    """The `cut_labels` of a searched multigraph: the label of each edge
    (lesser end first; of a digon, that of its copy outside the tree, which
    comes last) and the edge copies of each label, in the order
    `cut_labels` gives them."""
    label_of: dict[tuple[int, int], int] = {}
    classes: dict[int, list[tuple[int, int]]] = {}
    for a, b, label in cut_labels(found):
        label_of[a, b] = label
        classes.setdefault(label, []).append((a, b))
    return label_of, classes


def _star_forests(d: Digraph, found: Lowpoints) -> Iterator[tuple[Arc, list[int]]]:
    """For each arc of the underlying multigraph that `found` searched, in
    sorted order, the bridges of that multigraph minus the arc, as
    neighbourhood bitsets.  One `cut_labels` serves every arc: dropping an
    edge copy with label 0 drops a bridge, and dropping one with a non-zero
    label makes bridges of the other copies in its label class.  Of a digon
    one arc goes, so the label read is that of the copy outside the tree."""
    label_of, classes = _cut_classes(found)
    base = [0] * d.n
    for a, b in classes.get(0, ()):
        base[a] |= 1 << b
        base[b] |= 1 << a
    for pl, p1 in d.sorted_arcs():
        if not found.adj[pl] >> p1 & 1:
            continue
        edge = (min(pl, p1), max(pl, p1))
        label = label_of[edge]
        forest = base[:]
        if label == 0:
            forest[pl] &= ~(1 << p1)
            forest[p1] &= ~(1 << pl)
        else:
            cut_mates = classes[label][:]
            cut_mates.remove(edge)  # one copy: the other may stay a bridge
            for a, b in cut_mates:
                forest[a] |= 1 << b
                forest[b] |= 1 << a
        yield (pl, p1), forest


def _find_star_split(d: Digraph, minus: Callable | None = None) -> Found | None:
    """Star split: centre y plus a rim dicycle traced through the bridges
    of d minus y minus the closing arc.  On a biconnected d only a centre
    y with a 2-cut partner is tried: some part around a rim vertex p holds
    another vertex (else y is isolated), so {y, p} separates d."""
    minus = minus or _minus_one(d)
    full = (1 << d.n) - 1
    for y in range(d.n):
        if d.is_biconnected and not minus(y).cuts:
            continue
        keep = full & ~(1 << y)
        for (pl, p1), forest in _star_forests(d, minus(y)):
            if not forest[p1] or not forest[pl]:
                continue
            path = bfs_path(forest, full, p1, pl)
            if path is None or len(path) < 2:
                continue
            if any(
                (path[i], path[i + 1]) not in d.arcs for i in range(len(path) - 1)
            ):
                continue
            rim = path
            if any(d.has_arc(y, p) or d.has_arc(p, y) for p in rim):
                continue
            comps = components(_underlying(d, keep, _ring(rim))[0], keep)
            if len(comps) != len(rim):
                continue
            comp_of = [next(c for c in comps if c >> p & 1) for p in rim]
            if len(set(comp_of)) != len(rim):
                continue
            children = [
                _child_plus(d, bits(comp_of[i] | 1 << y), [(y, rim[i]), (rim[i], y)])
                for i in range(len(rim))
            ]
            witness = {"centre": y, "rim": tuple(rim)}
            if _verify_split(d, JOIN_STAR, witness, children):
                return JOIN_STAR, witness, children
    return None


def _find_parallel_split(d: Digraph, minus: Callable | None = None) -> Found | None:
    """Parallel split: a non-adjacent junction pair (a, b) whose removal
    already detaches the middle digraph, plus two opposite crossing arcs
    whose removal splits the remaining component in two.  The recognizer
    asks only of a biconnected d, where d - a is connected, so b detaches
    something from it exactly when b is a cut vertex of d - a: a's 2-cut
    partners in the `_minus_one` table."""
    minus = minus or _minus_one(d)
    full = (1 << d.n) - 1
    labels = cache(lambda part: _cut_classes(lowpoints(*_underlying(d, part, ()))))
    for a in range(d.n):
        later = full >> a + 1 << a + 1 & ~d.und_masks[a]  # b > a, not adjacent
        if not later:
            continue
        for b in bits(later & minus(a).cuts):
            rest = full & ~(1 << a | 1 << b)
            comps = components(d.und_masks, rest)
            for aa, bb in ((a, b), (b, a)):
                for s_comp in comps:  # a middle part touches both junctions
                    na, nb = d.und_masks[a] & s_comp, d.und_masks[b] & s_comp
                    if na and nb and not na & nb:  # shared neighbours never validate
                        found = _parallel_cut_search(
                            d, aa, bb, s_comp, rest & ~s_comp, labels
                        )
                        if found is not None:
                            return found
    return None


def _parallel_cut_search(
    d: Digraph, a: int, b: int, s_comp: int, b_union: int, labels: Callable
) -> Found | None:
    """The first pair of crossing arcs e, f inside s_comp that validates.
    Every candidate is a 2-edge cut of s_comp, read from its `_cut_classes`
    (`labels(s_comp)`): two edge copies with one non-zero label.  First
    the digons whose two copies form such a cut (a fully degenerate
    crossing), then each arc e without a reverse arc, in sorted order, with
    the mates of its label (a bridge f of s_comp leaves both ends of e on
    one side)."""
    arcs = [(p, q) for p, q in d.sorted_arcs() if s_comp >> p & 1 and s_comp >> q & 1]
    if not arcs:
        return None
    label_of, mates = labels(s_comp)

    def candidates() -> Iterator[tuple[Arc, Arc]]:
        for p, q in arcs:
            if p < q and (q, p) in d.arcs and mates[label_of[p, q]].count((p, q)) == 2:
                yield (p, q), (q, p)
        seen_pairs: set[frozenset[Arc]] = set()
        for e in arcs:
            label = label_of[min(e), max(e)]
            if (e[1], e[0]) in d.arcs or not label:
                continue
            for p, q in mates[label]:
                f = (p, q) if (p, q) in d.arcs else (q, p)
                if f == e or (f[1], f[0]) in d.arcs:
                    continue
                key = frozenset({e, f})
                if key not in seen_pairs:
                    seen_pairs.add(key)
                    yield e, f

    for e, f in candidates():
        parts = components(_underlying(d, s_comp, [e, f])[0], s_comp)
        if len(parts) != 2:
            continue
        found = _validate_parallel(d, a, b, e, f, parts, b_union)
        if found is not None:
            return found
    return None


def _validate_parallel(
    d: Digraph, a: int, b: int, e: Arc, f: Arc, s_parts: list[int], b_union: int
) -> Found | None:
    a_nbrs = d.und_masks[a] & ~(1 << b)
    b_nbrs = d.und_masks[b] & ~(1 << a)
    for comp_a, comp_c in (tuple(s_parts), tuple(reversed(s_parts))):
        if not (comp_a >> e[0] & 1 and comp_c >> e[1] & 1):
            continue
        if not (comp_c >> f[0] & 1 and comp_a >> f[1] & 1):
            continue
        t, u = e
        v, w = f
        if not a_nbrs & comp_a or not b_nbrs & comp_c:
            continue
        if a_nbrs & comp_c or b_nbrs & comp_a:
            continue
        child_b = _child_plus(d, bits(b_union | 1 << a | 1 << b), [(a, b), (b, a)])
        # the A/C child: A and C with a and b merged into x, its last vertex
        # (a has no neighbour in C, nor b in A)
        labels_ac = bits(comp_a | comp_c)
        sub, labels = d.induced(labels_ac + [a, b])
        pos = {z: i for i, z in enumerate(labels)}
        x_parts = [{pos[z]} for z in labels_ac] + [{pos[a], pos[b]}]
        child_ac = contract(sub, partition(sub.n, x_parts)), tuple(labels_ac) + (-1,)
        witness = {
            "t": t,
            "u": u,
            "v": v,
            "w": w,
            "a": a,
            "b": b,
            "a_side_child": tuple(i for i, z in enumerate(labels_ac) if comp_a >> z & 1),
        }
        children = [child_ac, child_b]
        if _verify_split(d, JOIN_PARALLEL, witness, children):
            return JOIN_PARALLEL, witness, children
    return None


# ---------------------------------------------------------------------------
# induced-dicycle hypergraph


@dataclass(frozen=True)
class CycleHypergraph:
    n: int
    hyperedges: tuple[frozenset[int], ...]
    max_intersection: int
    violating_pairs: tuple[tuple[int, int], ...]

    @property
    def pairwise_ok(self) -> bool:
        return self.max_intersection <= 1


def induced_cycle_hypergraph(
    d: Digraph, node_budget: int = 2_000_000
) -> CycleHypergraph:
    """Vertex sets of all induced dicycles, with a pairwise-intersection
    report.  DFS over chordless dipaths rooted at each cycle's smallest
    vertex; exponential in general, guarded by a node budget."""
    edges: set[frozenset[int]] = set()
    nodes = Budget(node_budget, "induced-cycle budget")

    def extend(path: list[int], inside: set[int]):
        nodes.tick(len(edges))
        v0 = path[0]
        last = path[-1]
        for nxt in bits(d.out_masks[last]):
            if nxt in inside or nxt < v0:
                continue
            if len(path) >= 2 and (nxt, last) in d.arcs:
                continue  # reverse arc to the predecessor would be a chord
            if any((nxt, p) in d.arcs or (p, nxt) in d.arcs for p in path[1:-1]):
                continue  # adjacency with the interior breaks chordlessness
            closes = (nxt, v0) in d.arcs
            chord0 = (v0, nxt) in d.arcs
            if len(path) == 1:
                if closes and chord0:
                    edges.add(frozenset({v0, nxt}))  # digon
                    continue
                if closes:
                    edges.add(frozenset({v0, nxt} | set(path)))
                    continue
                path.append(nxt)
                inside.add(nxt)
                extend(path, inside)
                inside.remove(nxt)
                path.pop()
            else:
                if closes:
                    if not chord0:
                        edges.add(frozenset(path + [nxt]))
                    continue
                if chord0:
                    continue
                path.append(nxt)
                inside.add(nxt)
                extend(path, inside)
                inside.remove(nxt)
                path.pop()

    for v in range(d.n):
        extend([v], {v})
    uniq = sorted(edges, key=lambda e: (len(e), sorted(e)))
    worst = 0
    bad: list[tuple[int, int]] = []
    for i in range(len(uniq)):
        for j in range(i + 1, len(uniq)):
            inter = len(uniq[i] & uniq[j])
            worst = max(worst, inter)
            if inter >= 2:
                bad.append((i, j))
    return CycleHypergraph(d.n, tuple(uniq), worst, tuple(bad))


# ---------------------------------------------------------------------------
# generalized directed wheels (k = 2 exploration)


def generalized_wheel(children: Sequence[Sequence[int]]) -> Digraph:
    """Symmetric rooted tree (same parity on all root-to-leaf paths) plus a
    peripheral dicycle over the leaves in depth-first order.

    children[v] lists the children of vertex v; vertex 0 is the root.
    Raises InvalidInput unless the lists form a tree on 0..n-1 rooted at 0.
    """
    not_tree = "children lists must form a tree on 0..n-1 rooted at 0"
    if not isinstance(children, Sequence) or not all(
        isinstance(c, Sequence) and all(isinstance(x, int) for x in c)
        for c in children
    ):
        raise InvalidInput(not_tree)
    n = len(children)
    if n < 3:
        raise InvalidInput("need at least 3 vertices")
    depth = [0] * n
    arcs: set[Arc] = set()
    order: list[int] = []
    seen = {0}
    stack = [0]
    while stack:  # depth first, so leaves are met in depth-first order
        v = stack.pop()
        if not children[v]:
            order.append(v)
        for c in children[v]:
            if not 0 <= c < n or c in seen:
                raise InvalidInput(not_tree)
            seen.add(c)
            depth[c] = depth[v] + 1
            arcs |= {(v, c), (c, v)}
        stack.extend(reversed(children[v]))
    if len(seen) != n:
        raise InvalidInput(not_tree)
    if len(order) < 2:
        raise InvalidInput("need at least two leaves for the peripheral dicycle")
    if len({depth[v] % 2 for v in order}) > 1:
        raise ParityViolated("root-to-leaf paths have mixed parity")
    return build_digraph(n, arcs | _ring(order))


def check_2_extremal(d: Digraph) -> bool:
    """Brute-force check: strong, biconnected, lambda = 2 and chi = 3."""
    if not d.is_strong or (d.n >= 3 and not d.is_biconnected):
        return False
    if lambda_profile(d).value != 2:
        return False
    return exact_dichromatic(d).value == 3
