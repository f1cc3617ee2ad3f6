"""Foundational graph values and shared algorithms.

Digraphs and multigraphs are immutable values over dense integer vertex
indices 0..n-1.  Adjacency is kept once, as integer bitsets (bit w of
`out_masks[v]` for the arc vw); every traversal breaks ties by ascending
vertex index so downstream certificates are deterministic.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BudgetExceeded,
    Disconnected,
    DuplicateArc,
    IndexOutOfRange,
    InvalidInput,
    InvalidPartition,
    LoopArc,
)

Arc = tuple[int, int]


class _DigraphFields(NamedTuple):
    n: int
    arcs: frozenset[Arc]


class Digraph(_DigraphFields):
    """A loop-free digraph with a duplicate-free set of ordered arcs.

    Digons (both uv and vu) are allowed; `is_oriented` reports their
    absence.  Equal and hashed as the tuple (n, arcs); the instance dict
    holds only the cached properties.
    """

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        out = [0] * self.n
        for u, v in self.arcs:
            out[u] |= 1 << v
        return tuple(out)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        inn = [0] * self.n
        for u, v in self.arcs:
            inn[v] |= 1 << u
        return tuple(inn)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def has_digon(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs and (v, u) in self.arcs

    def d_plus(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def d_minus(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def d_min(self, v: int) -> int:
        return min(self.d_plus(v), self.d_minus(v))

    def d_max(self, v: int) -> int:
        return max(self.d_plus(v), self.d_minus(v))

    @cached_property
    def delta_max(self) -> int:
        return max((self.d_max(v) for v in range(self.n)), default=0)

    @cached_property
    def is_oriented(self) -> bool:
        return all((v, u) not in self.arcs for u, v in self.arcs)

    def reverse(self) -> "Digraph":
        return Digraph(self.n, frozenset((v, u) for u, v in self.arcs))

    def induced(self, vertices: Sequence[int]) -> tuple["Digraph", list[int]]:
        """Induced subdigraph plus the list mapping new index -> old label
        (the digraph itself when that is every vertex)."""
        labels = sorted(set(vertices))
        if labels == list(range(self.n)):
            return self, labels
        pos = {v: i for i, v in enumerate(labels)}
        arcs = frozenset(
            (pos[u], pos[v]) for u, v in self.arcs if u in pos and v in pos
        )
        return Digraph(len(labels), arcs), labels

    @cached_property
    def und_masks(self) -> tuple[int, ...]:
        """Neighbourhood bitsets of the underlying graph."""
        return tuple(o | i for o, i in zip(self.out_masks, self.in_masks))

    @cached_property
    def is_connected(self) -> bool:
        """Weak connectivity of the underlying graph (true for n <= 1)."""
        return len(components(self.und_masks, (1 << self.n) - 1)) <= 1

    @cached_property
    def is_strong(self) -> bool:
        full = (1 << self.n) - 1
        return reach(self.out_masks, full, 1) == reach(self.in_masks, full, 1) == full

    @cached_property
    def is_biconnected(self) -> bool:
        """2-connectedness of the underlying graph (one block, n >= 3)."""
        return self.n >= 3 and blocks(self) == [frozenset(range(self.n))]

    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)


class _MultigraphFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]


class Multigraph(_MultigraphFields):
    """An undirected loop-free multigraph; `edges` is an instance list.

    Edge instances keep their input order, so per-edge colourings can be
    serialized positionally.  Endpoints are normalized to u < v.
    """

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]):
        return super().__new__(cls, n, tuple((u, v) if u < v else (v, u) for u, v in edges))

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (neighbour, edge index) pairs in edge order."""
        a: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            a[u].append((v, i))
            a[v].append((u, i))
        return tuple(tuple(x) for x in a)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbourhood bitsets (multiplicity ignored)."""
        out = [0] * self.n
        for u, v in self.edges:
            out[u] |= 1 << v
            out[v] |= 1 << u
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def delta(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    @cached_property
    def mu(self) -> int:
        c = Counter(self.edges)
        return max(c.values(), default=0)

    @cached_property
    def is_simple(self) -> bool:
        return self.mu <= 1

    def m(self) -> int:
        return len(self.edges)


class VertexSetPartition(NamedTuple):
    """Disjoint vertex sets covering 0..n-1, in a fixed order."""

    n: int
    parts: tuple[frozenset[int], ...]

    def part_of(self) -> list[int]:
        owner = [-1] * self.n
        for i, p in enumerate(self.parts):
            for v in p:
                owner[v] = i
        return owner


def build_digraph(n: int, arcs: Iterable[Arc]) -> Digraph:
    """Validate and build a digraph; rejects loops, duplicates, bad indices."""
    if n < 0:
        raise IndexOutOfRange(f"negative vertex count {n}")
    seen: set[Arc] = set()
    for a in arcs:
        u, v = a
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"arc {a} outside 0..{n - 1}")
        if u == v:
            raise LoopArc(f"loop at vertex {u}")
        if (u, v) in seen:
            raise DuplicateArc(f"duplicate arc {a}")
        seen.add((u, v))
    return Digraph(n, frozenset(seen))


def build_multigraph(n: int, edges: Iterable[tuple[int, int]]) -> Multigraph:
    edges = tuple(edges)
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge {e} outside 0..{n - 1}")
        if u == v:
            raise LoopArc(f"loop at vertex {u}")
    return Multigraph(n, edges)


def partition(n: int, parts: Iterable[Iterable[int]]) -> VertexSetPartition:
    ps = tuple(frozenset(p) for p in parts)
    seen: set[int] = set()
    for p in ps:
        for v in p:
            if not (0 <= v < n):
                raise InvalidPartition(f"vertex {v} outside 0..{n - 1}")
            if v in seen:
                raise InvalidPartition(f"vertex {v} in two parts")
            seen.add(v)
    if len(seen) != n:
        raise InvalidPartition("parts do not cover the vertex set")
    return VertexSetPartition(n, ps)


class Budget:
    """The step counter of an exponential search.

    `limit` caps the steps (None: unbounded).  Each `tick` counts one step;
    the first step past the limit raises BudgetExceeded with `message` and
    the bounds known at that step.
    """

    def __init__(self, limit: int | None, message: str = ""):
        self.limit = limit
        self.message = message
        self.steps = 0

    def tick(self, lower: int = 0, upper: int | None = None) -> None:
        self.steps += 1
        if self.limit is not None and self.steps > self.limit:
            raise BudgetExceeded(lower, upper, self.message)


# ---------------------------------------------------------------------------
# traversal primitives over vertex bitsets (bit v stands for vertex v)


def bits(mask: int) -> list[int]:
    """The vertices of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    """The bitset of some vertices."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def reach(adj: Sequence[int], within: int, sources: int) -> int:
    """The vertices of the bitset `within` reachable from the bitset
    `sources` inside it, along the neighbourhood bitsets `adj`."""
    seen = frontier = sources & within
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def components(adj: Sequence[int], within: int) -> list[int]:
    """Components of the undirected graph with neighbourhood bitsets `adj`
    restricted to the vertex bitset `within`, as bitsets ordered by least
    vertex."""
    out = []
    while within:
        comp = reach(adj, within, within & -within)
        out.append(comp)
        within &= ~comp
    return out


def _lowpoint_dfs(
    adj: Sequence[int], doubled: Sequence[int]
) -> list[tuple[int, int, int, int]]:
    """Lowpoint depth-first search (Hopcroft & Tarjan 1973) over the
    neighbourhood bitsets `adj`: roots in ascending index, and each vertex
    descends to its least unvisited neighbour.  `doubled[v]` holds the
    neighbours joined to v by more than one edge; such an edge back to the
    parent counts as a back edge.

    Returns (p, v, low[v] - disc[p], bitset of v's subtree) for each tree
    edge p-v, in the order the search leaves v.  The edge is a bridge iff
    the gap is positive; p cuts v's subtree off iff it is not negative.
    """
    n = len(adj)
    disc = [0] * n
    low = [0] * n
    sub = [0] * n
    seen = 0
    t = 0
    out = []
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        disc[root] = low[root] = t
        t += 1
        sub[root] = 1 << root
        stack = [root]
        while stack:
            v = stack[-1]
            free = adj[v] & ~seen
            if free:
                w_bit = free & -free
                w = w_bit.bit_length() - 1
                seen |= w_bit
                disc[w] = low[w] = t
                t += 1
                sub[w] = w_bit
                # the visited neighbours of a new vertex are its ancestors
                back = adj[w] & seen & ~(1 << v & ~doubled[w])
                while back:
                    x_bit = back & -back
                    back ^= x_bit
                    x = disc[x_bit.bit_length() - 1]
                    if x < low[w]:
                        low[w] = x
                stack.append(w)
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    low[p] = min(low[p], low[v])
                    sub[p] |= sub[v]
                    out.append((p, v, low[v] - disc[p], sub[v]))
    return out


class Lowpoints(NamedTuple):
    """What one lowpoint search of a multigraph proves; see `lowpoints`."""

    adj: Sequence[int]
    doubled: Sequence[int]
    tree: list[tuple[int, int, int, int]]
    cuts: int
    bridges: dict[tuple[int, int], int]


def lowpoints(adj: Sequence[int], doubled: Sequence[int]) -> Lowpoints:
    """One lowpoint search of the multigraph with neighbourhood bitsets
    `adj`, where `doubled[v]` holds the neighbours joined to v by more than
    one edge.  `cuts` is the bitset of its cut vertices, which `doubled`
    does not move: each p that cuts off a child's subtree (gap not
    negative), unless p is a root, which does so for every child and so
    cuts only with two.  `bridges` maps each bridge, a (lesser, greater)
    end pair in the order the search finds them (Tarjan 1974), to the
    vertex bitset its deeper end keeps; a doubled edge is never a bridge.
    `cut_labels` reads the `tree`."""
    tree = _lowpoint_dfs(adj, doubled)
    below = once = twice = 0  # below: the vertices that are not roots
    for p, v, gap, _ in tree:
        below |= 1 << v
        if gap >= 0:
            twice |= once & 1 << p
            once |= 1 << p
    bridges = {(min(p, v), max(p, v)): sub for p, v, gap, sub in tree if gap > 0}
    return Lowpoints(adj, doubled, tree, once & below | twice, bridges)


def cut_labels(found: Lowpoints) -> list[tuple[int, int, int]]:
    """The cycle-space label of every edge copy of the multigraph that
    `found` searched, as (lesser end, greater end, label): first the tree
    edges of the search in the order it leaves them, then the other copies
    in ascending end order, so the two copies of a doubled edge come in
    that order.

    Each copy outside the tree gets a bit of its own.  The tree edge above
    v gets the XOR of the bits at the vertices of v's subtree: the copies
    whose fundamental cycle runs through it.  So an edge is a bridge iff
    its label is 0, and two edges form a 2-edge cut iff they carry the same
    non-zero label (Pritchard & Thurimella 2011, with exact labels in place
    of random ones).
    """
    adj, doubled, tree = found.adj, found.doubled, found.tree
    in_tree = {(min(p, v), max(p, v)) for p, v, _, _ in tree}
    at = [0] * len(adj)  # per vertex: XOR of the bits of its non-tree copies
    others = []
    bit = 1
    for v, nbrs in enumerate(adj):
        for w in bits(nbrs >> v + 1 << v + 1):
            copies = 1 + (doubled[v] >> w & 1) - ((v, w) in in_tree)
            for _ in range(copies):
                at[v] ^= bit
                at[w] ^= bit
                others.append((v, w, bit))
                bit <<= 1
    out = []
    for p, v, _, _ in tree:  # post-order: v's subtree is summed into at[v]
        at[p] ^= at[v]
        out.append((min(p, v), max(p, v), at[v]))
    return out + others


def bfs(
    adj: Sequence[int], within: int, root: int, stop: int = -1
) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search from `root` along the neighbourhood bitsets
    `adj` inside the vertex bitset `within`, each vertex queueing its new
    neighbours in ascending index.  Returns the queue, which stops growing
    once `stop` is read from it, and the parent of each queued vertex (the
    root is its own parent)."""
    parent = {root: root}
    seen = 1 << root
    queue = [root]
    for v in queue:  # grows while it is read
        if v == stop:
            break
        new = adj[v] & within & ~seen
        seen |= new
        for w in bits(new):
            parent[w] = v
            queue.append(w)
    return queue, parent


def bfs_path(adj: Sequence[int], within: int, a: int, b: int) -> list[int] | None:
    """A shortest a-b path along the neighbourhood bitsets `adj` inside the
    vertex bitset `within`, or None.  Breadth-first from a, so a tie goes
    to the earliest-queued parent."""
    _, parent = bfs(adj, within, a, b)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def strong_parts(out_masks: Sequence[int], within: int) -> list[int]:
    """Strong components of the subdigraph induced by the vertex bitset
    `within`, as bitsets in topological order: an arc between two parts
    runs from the earlier to the later.  Tarjan's search (1972), with roots
    in ascending index and each vertex descending to its least unvisited
    out-neighbour inside `within`."""
    disc = [0] * len(out_masks)
    low = disc[:]
    seen = active = t = 0  # active: visited vertices in no closed part
    stack: list[int] = []  # the active vertices, in visiting order
    path: list[int] = []  # the search path, ending at the current vertex
    parts = []
    while True:
        free = (out_masks[path[-1]] if path else within) & within & ~seen
        if free:
            w_bit = free & -free
            w = w_bit.bit_length() - 1
            seen |= w_bit
            active |= w_bit
            stack.append(w)
            path.append(w)
            # an arc into an active vertex visited earlier lowers the link
            disc[w] = t
            low[w] = min([t] + [disc[x] for x in bits(out_masks[w] & active)])
            t += 1
        elif path:
            v = path.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] == disc[v]:
                part = 0
                while not part >> v & 1:
                    part |= 1 << stack.pop()
                active ^= part
                parts.append(part)
        else:
            break
    parts.reverse()  # Tarjan closes the parts in reverse topological order
    return parts


def strong_components(d: Digraph) -> VertexSetPartition:
    """Strongly connected components in the topological order of
    `strong_parts`."""
    parts = strong_parts(d.out_masks, (1 << d.n) - 1)
    return VertexSetPartition(d.n, tuple(frozenset(bits(p)) for p in parts))


def blocks(d: Digraph) -> list[frozenset[int]]:
    """2-connected components of the underlying multigraph, as vertex sets.

    A bridge forms a block of its own; isolated vertices form none.
    Deterministic order (the order the lowpoint search closes them).
    """
    out: list[frozenset[int]] = []
    taken = 0
    for p, v, gap, sub in _lowpoint_dfs(d.und_masks, [0] * d.n):
        if gap >= 0:
            # p separates v's subtree; its vertices not yet in a block,
            # plus p, form the block
            out.append(frozenset(bits(sub & ~taken | 1 << p)))
            taken |= sub
    return out


def contract(d: Digraph, part: VertexSetPartition) -> Digraph:
    """Quotient digraph of a vertex partition.

    Part i becomes vertex i.  Loops produced by intra-part arcs are
    dropped; digons may appear even if the input is oriented.
    """
    if part.n != d.n:
        raise InvalidPartition("partition over a different vertex count")
    owner = part.part_of()
    arcs = set()
    for u, v in d.arcs:
        a, b = owner[u], owner[v]
        if a != b:
            arcs.add((a, b))
    return Digraph(len(part.parts), frozenset(arcs))


def lexicographic(q: Digraph, parts: Sequence[Digraph]) -> Digraph:
    """Substitution of a digraph into every vertex of q, the inverse of
    `contract`: vertex i of q becomes parts[i], labels run part by part,
    and each arc i->j of q becomes every arc from part i to part j."""
    if len(parts) != q.n:
        raise InvalidPartition(f"{len(parts)} parts for {q.n} vertices")
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.n)
    arcs = {(u + off, v + off) for p, off in zip(parts, offsets) for u, v in p.arcs}
    for i, j in q.arcs:
        heads = range(offsets[j], offsets[j + 1])
        arcs.update((u, v) for u in range(offsets[i], offsets[i + 1]) for v in heads)
    return Digraph(offsets[-1], frozenset(arcs))


def check_colour_range(colours: Iterable[int], k: int) -> None:
    """Raise InvalidInput when a colour lies outside 1..k."""
    bad = next((c for c in colours if c < 1 or c > k), None)
    if bad is not None:
        raise InvalidInput(f"colour {bad} outside 1..{k}")


def euler_tour(g: Multigraph) -> tuple[int, ...] | None:
    """The edge indices of a closed trail using every edge exactly once
    (Hierholzer), or None when there is none.

    One exists iff all degrees are even and the non-isolated vertices are
    connected.  The tour starts at the least non-isolated vertex.
    """
    if any(g.degree(v) % 2 for v in range(g.n)):
        return None
    active = [v for v in range(g.n) if g.degree(v) > 0]
    if not active:
        return ()
    if len(components(g.masks, mask_of(active))) > 1:
        return None
    used = [False] * g.m()
    ptr = [0] * g.n
    tour: list[int] = []
    stack: list[tuple[int, int]] = [(active[0], -1)]  # (vertex, edge used to get there)
    while stack:
        v, via = stack[-1]
        moved = False
        while ptr[v] < len(g.adj[v]):
            w, ei = g.adj[v][ptr[v]]
            ptr[v] += 1
            if not used[ei]:
                used[ei] = True
                stack.append((w, ei))
                moved = True
                break
        if not moved:
            stack.pop()
            if via >= 0:
                tour.append(via)
    tour.reverse()
    return tuple(tour)


def bfs_order(d: Digraph, root: int) -> list[int]:
    """BFS order of the underlying multigraph from `root`.

    Neighbours are explored in ascending index; raises Disconnected when
    some vertex is unreachable in the underlying graph.
    """
    if not (0 <= root < d.n):
        raise IndexOutOfRange(f"root {root}")
    full = (1 << d.n) - 1
    order, _ = bfs(d.und_masks, full, root)
    missing = full & ~mask_of(order)
    if missing:
        raise Disconnected(f"vertex {bits(missing)[0]} unreachable from {root}")
    return order
