"""Dicolouring semantics: verification, exact dichromatic number, and the
generic colouring constructions (greedy, longest-backward-path,
odd-cycle-free, dipolar combination).

A dicolouring is valid when every colour class induces an acyclic
subdigraph; the witness for invalidity is always a concrete monochromatic
directed cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Budget,
    Digraph,
    bfs,
    bfs_path,
    bits,
    check_colour_range,
    mask_of,
    strong_components,
    strong_parts,
)
from .errors import (
    BudgetExceeded,
    InvalidInput,
    NotDipolar,
    PartialColouring,
)


@dataclass(frozen=True)
class Dicolouring:
    """Total assignment vertex -> colour in 1..k."""

    colours: tuple[int, ...]
    k: int


def dicolouring(colours: Sequence[int], k: int | None = None) -> Dicolouring:
    cols = tuple(colours)
    kk = max(cols, default=0) if k is None else k
    check_colour_range(cols, kk)
    return Dicolouring(cols, kk)


def find_cycle_in(out_masks: Sequence[int], within: int) -> list[int] | None:
    """A directed cycle inside the vertex bitset `within`, along the
    out-neighbourhood bitsets `out_masks`, as a vertex list; None when
    `within` induces an acyclic subdigraph.

    Depth-first search with roots in ascending index, each vertex trying
    its out-neighbours inside the set in ascending index; the first arc
    back onto the search path closes the cycle."""
    inside = new = within  # new: the vertices not yet visited
    while new:
        root_bit = new & -new
        new ^= root_bit
        on_path = root_bit
        path = [root_bit.bit_length() - 1]
        todo = [out_masks[path[0]] & inside]  # per path vertex: untried arcs
        while path:
            live = todo[-1] & (new | on_path)
            if not live:
                todo.pop()
                on_path ^= 1 << path.pop()
                continue
            w_bit = live & -live
            todo[-1] = live ^ w_bit
            w = w_bit.bit_length() - 1
            if on_path & w_bit:
                return path[path.index(w):]
            new ^= w_bit
            on_path |= w_bit
            path.append(w)
            todo.append(out_masks[w] & inside)
    return None


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    witness_cycle: tuple[int, ...] | None = None
    witness_colour: int | None = None


def verify_dicolouring(d: Digraph, c: Dicolouring) -> VerifyResult:
    """Valid iff each colour class is acyclic; else a monochromatic dicycle.

    Raises InvalidInput when a colour lies outside 1..k.
    """
    if len(c.colours) != d.n:
        raise PartialColouring(f"{len(c.colours)} colours for {d.n} vertices")
    check_colour_range(c.colours, c.k)
    for col in range(1, c.k + 1):
        cyc = find_cycle_in(d.out_masks, mask_of(v for v in range(d.n) if c.colours[v] == col))
        if cyc is not None:
            return VerifyResult(False, tuple(cyc), col)
    return VerifyResult(True)


def greedy_dicolour(d: Digraph, order: Sequence[int]) -> Dicolouring:
    """Greedy dicolouring along `order`.

    Each vertex receives the smaller of: the least colour absent among its
    already-coloured out-neighbours, and the least colour absent among its
    already-coloured in-neighbours.  Always valid, and never more than
    min-degree-max + 1 colours.
    """
    if sorted(order) != list(range(d.n)):
        raise InvalidInput("order must be a permutation of the vertices")
    colour = [0] * d.n
    classes = [0]  # classes[c]: the vertices coloured c so far
    for v in order:
        c_out = c_in = 1
        while c_out < len(classes) and classes[c_out] & d.out_masks[v]:
            c_out += 1
        while c_in < len(classes) and classes[c_in] & d.in_masks[v]:
            c_in += 1
        c = colour[v] = min(c_out, c_in)
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
    return Dicolouring(tuple(colour), max(colour, default=0))


def gallai_roy_colour(d: Digraph, order: Sequence[int]) -> Dicolouring:
    """Colour vertices by the longest backward-arcs-only dipath ending there.

    Arcs u->v with u later than v in `order` are backward; f(v) counts the
    vertices of the longest all-backward dipath ending at v.  The classes
    f^-1(i) contain no backward arc, hence no dicycle.
    """
    if sorted(order) != list(range(d.n)):
        raise InvalidInput("order must be a permutation of the vertices")
    pos = [0] * d.n
    for i, v in enumerate(order):
        pos[v] = i
    f = [1] * d.n
    # A backward dipath strictly decreases position, so process vertices in
    # decreasing position: predecessors along backward arcs come earlier.
    for v in sorted(range(d.n), key=lambda x: -pos[x]):
        best = 1
        for u in bits(d.in_masks[v]):
            if pos[u] > pos[v]:
                if f[u] + 1 > best:
                    best = f[u] + 1
        f[v] = best
    return Dicolouring(tuple(f), max(f, default=0))


@dataclass(frozen=True)
class TwoColourResult:
    colouring: Dicolouring | None = None
    odd_cycle: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.colouring is not None


def two_colour_odd_free(d: Digraph) -> TwoColourResult:
    """2-dicolouring of a digraph with no odd dicycle, or an odd dicycle.

    Per strong component the underlying graph is bipartite when no odd
    dicycle exists; an odd underlying cycle is rerouted through shortest
    dipaths into an odd closed trail, which always contains an odd dicycle.
    """
    colour = [1] * d.n
    for comp in strong_parts(d.out_masks, (1 << d.n) - 1):
        # a strong component is connected: one breadth-first search sides it
        queue, parent = bfs(d.und_masks, comp, (comp & -comp).bit_length() - 1)
        odd = 0
        for v in queue[1:]:
            if not odd >> parent[v] & 1:
                odd |= 1 << v
        for v in queue:
            side = odd if odd >> v & 1 else ~odd
            same = d.und_masks[v] & comp & side
            if same:
                # the first conflict the search meets; v and w sit at the
                # same depth, so they climb to their common ancestor in step
                pv, pw = [v], [(same & -same).bit_length() - 1]
                while pv[-1] != pw[-1]:
                    pv.append(parent[pv[-1]])
                    pw.append(parent[pw[-1]])
                cycle = _odd_dicycle_from_conflict(d, comp, pv + pw[-2::-1])
                return TwoColourResult(odd_cycle=tuple(cycle))
            colour[v] = 2 if odd >> v & 1 else 1
    return TwoColourResult(colouring=Dicolouring(tuple(colour), 2 if d.n else 0))


def _odd_dicycle_from_conflict(d: Digraph, inside: int, und_cycle: list[int]) -> list[int]:
    """An odd dicycle inside a strong vertex bitset, from an odd cycle of
    its underlying graph.

    Walks an odd closed trail built from shortest dipaths between the
    vertices of the underlying cycle, then pops the first odd dicycle
    out of the trail.
    """
    trail: list[int] = []
    for i, a in enumerate(und_cycle):
        b = und_cycle[(i + 1) % len(und_cycle)]
        if (a, b) in d.arcs:
            seg = [a, b]
        else:
            seg = bfs_path(d.out_masks, inside, a, b)
            # an even-length dipath plus the reverse arc closes an odd
            # dicycle directly
            if len(seg) % 2 == 1:
                return seg
        trail.extend(seg[:-1])
    return _odd_cycle_from_trail(trail)


def _odd_cycle_from_trail(trail: list[int]) -> list[int]:
    """Extract an odd dicycle from a closed trail of odd length.

    Scanning the trail, every vertex repeat pops a dicycle; the lengths of
    popped dicycles sum to the trail length, so one of them is odd.
    """
    stack: list[int] = []
    where: dict[int, int] = {}
    cycles: list[list[int]] = []
    for v in trail + [trail[0]]:
        if v in where:
            i = where[v]
            cyc = stack[i:]
            if len(cyc) % 2 == 1:
                return cyc
            cycles.append(cyc)
            for x in cyc:
                if x != v:
                    where.pop(x, None)
            del stack[i:]
        where[v] = len(stack)
        stack.append(v)
    for cyc in cycles:
        if len(cyc) % 2 == 1:
            return cyc
    raise InvalidInput("trail contained no odd dicycle")


def is_dipolar(d: Digraph, s: set[int]) -> bool:
    outside = ~mask_of(s)
    return all(not d.out_masks[x] & outside or not d.in_masks[x] & outside for x in s)


def dipolar_combine(
    d: Digraph,
    s: set[int],
    inner: Dicolouring,
    outer: Dicolouring,
) -> Dicolouring:
    """Combine a c-dicolouring of d[s] with a 2c-dicolouring of d minus s.

    Vertices of s whose in-neighbourhood stays inside s keep their inner
    colour; the rest get inner colour + c.  Every dicycle crossing the
    boundary then meets both colour ranges.
    """
    s = set(s)
    if not s <= set(range(d.n)):
        raise InvalidInput("s is not a vertex subset")
    if not is_dipolar(d, s):
        raise NotDipolar("some member has out- and in-neighbours outside s")
    sub, labels = d.induced(sorted(s))
    if len(inner.colours) != sub.n:
        raise InvalidInput("inner colouring size mismatch")
    rest = sorted(set(range(d.n)) - s)
    if len(outer.colours) != len(rest):
        raise InvalidInput("outer colouring size mismatch")
    c = inner.k
    if outer.k > 2 * c:
        raise InvalidInput("outer colouring uses more than 2c colours")
    if not verify_dicolouring(sub, inner).valid:
        raise InvalidInput("inner colouring invalid")
    if rest:
        outside, _ = d.induced(rest)
        if not verify_dicolouring(outside, outer).valid:
            raise InvalidInput("outer colouring invalid")
    colour = [0] * d.n
    for i, v in enumerate(rest):
        colour[v] = outer.colours[i]
    outside = ~mask_of(s)
    for i, v in enumerate(labels):
        if not d.in_masks[v] & outside:
            colour[v] = inner.colours[i]
        else:
            colour[v] = inner.colours[i] + c
    return Dicolouring(tuple(colour), 2 * c)


@dataclass(frozen=True)
class ExactResult:
    value: int
    colouring: Dicolouring


def exact_dichromatic(d: Digraph, budget: int | None = None) -> ExactResult:
    """Exact dichromatic number with an optimal witness colouring.

    Solves each strong component separately (the dichromatic number is the
    maximum over strong components, and classes can be shared across
    them).  Per component: iterative deepening on k with a deterministic
    DSATUR branch-and-bound, which colours next the uncoloured vertex with
    the fewest open colours (ties: most neighbours, then least index), and
    symmetry breaking on first use of each colour.  Each class keeps its
    internal reachability bitsets, each colour c the bitset open_[c] of the
    vertices it is still open to, and buckets shut[j] the uncoloured
    vertices with j colours shut, so a search node costs a few word
    operations per colour.  A branch is cut as soon as an uncoloured
    vertex has no open colour left.

    `budget` caps total search nodes.  Exhausting it raises BudgetExceeded
    with bounds that hold for the whole input: the lower bound is the
    largest of every solved component's value, every component's cheap
    lower bound and the k under test (every smaller k was refuted); the
    upper bound is the largest greedy bound over the components.  When the
    two meet, that is the value instead, witnessed by the solved
    components' colourings and the greedy colourings of the rest.
    """
    if d.n == 0:
        return ExactResult(0, Dicolouring((), 0))
    comps = [d.induced(sorted(comp)) for comp in strong_components(d).parts]
    bounds = [_cheap_bounds(sub) for sub, _ in comps]
    colour = [0] * d.n
    for (_, labels), (_, greedy) in zip(comps, bounds):
        for i, v in enumerate(labels):
            colour[v] = greedy.colours[i]
    best = 1
    steps = Budget(budget)
    for (sub, labels), (lb, greedy) in zip(comps, bounds):
        try:
            val, cols = _exact_component(sub, lb, greedy, steps)
        except BudgetExceeded as exc:
            lower = max([best, exc.lower] + [b[0] for b in bounds])
            upper = max(b[1].k for b in bounds)
            if lower < upper:
                raise BudgetExceeded(lower, upper) from None
            return ExactResult(upper, Dicolouring(tuple(colour), upper))
        best = max(best, val)
        for i, v in enumerate(labels):
            colour[v] = cols[i]
    return ExactResult(best, Dicolouring(tuple(colour), best))


def _digon_clique_bound(d: Digraph) -> list[int]:
    """Greedy clique in the digon graph: its vertices need distinct colours."""
    digon_nbrs = [o & i for o, i in zip(d.out_masks, d.in_masks)]
    best: list[int] = []
    for start in sorted(range(d.n), key=lambda v: (-digon_nbrs[v].bit_count(), v)):
        clique = [start]
        cand = digon_nbrs[start]
        while cand:
            v = min(bits(cand), key=lambda x: (-(digon_nbrs[x] & cand).bit_count(), x))
            clique.append(v)
            cand &= digon_nbrs[v]
        if len(clique) > len(best):
            best = clique
    return best


def _cheap_bounds(d: Digraph) -> tuple[int, Dicolouring]:
    """Lower bound (digon clique; 2 from two vertices on, since a strong
    component of two or more vertices holds a dicycle) and greedy
    colouring of a strong component."""
    greedy = greedy_dicolour(d, list(range(d.n)))
    return max(min(d.n, 2), len(_digon_clique_bound(d))), greedy


def _exact_component(
    d: Digraph, lb: int, greedy: Dicolouring, steps: Budget
) -> tuple[int, list[int]]:
    ub = greedy.k
    if lb >= ub:
        return ub, list(greedy.colours)
    for k in range(lb, ub):
        cols = _feasible_k(d, k, steps)
        if cols is not None:
            return k, cols
    return ub, list(greedy.colours)


def _feasible_k(d: Digraph, k: int, steps: Budget) -> list[int] | None:
    """Depth-first search for a k-dicolouring that branches on the most
    constrained vertex (DSATUR, Brelaz 1979): the uncoloured vertex with
    the fewest open colours among those a branch may try, then the one
    with the most neighbours, then the least index.  One step per search
    node; k is the value under test, so every smaller one was refuted and
    k bounds the component from below."""
    n, out_masks, in_masks = d.n, d.out_masks, d.in_masks
    degree = [nbrs.bit_count() for nbrs in d.und_masks]
    degree_classes = [mask_of(v for v in range(n) if degree[v] == g)
                      for g in sorted(set(degree), reverse=True)]
    colour = [0] * n
    # Invariants at every node of the search, for each colour c:
    # - members[c] lists the vertices of class c, and reach[c][x] is the
    #   bitset of class-c vertices reachable from x inside class c (x
    #   included; 0 for x outside the class).  An insertion replaces the
    #   row reach[c] by an updated copy, so backtracking puts the old back;
    # - bit w of open_[c] is set iff class c plus an uncoloured w is
    #   acyclic.  Inserting v into c can shrink open_[c] and nothing else;
    # - shut[j] is the bitset of the uncoloured vertices with j colours
    #   shut.  Only a used colour can be shut, so of the colours a node may
    #   try, 1..min(used + 1, k), the fewest open means the most shut.
    # A node owns its open_ and shut; each child gets updated copies.
    members: list[list[int]] = [[] for _ in range(k + 1)]
    reach = [[0] * n for _ in range(k + 1)]

    def dfs(rest: int, used: int, open_: list[int], shut: list[int]) -> bool:
        if not rest:
            return True
        steps.tick(k)
        j = used  # the most colours a vertex can have shut
        while not shut[j]:
            j -= 1
        for cls in degree_classes:  # then the most neighbours
            pick = shut[j] & cls
            if pick:
                break
        v_bit = pick & -pick  # then the least index
        v = v_bit.bit_length() - 1
        later = rest ^ v_bit
        inv, outv = in_masks[v], out_masks[v]
        for c in range(1, min(used + 1, k) + 1):
            if not open_[c] & v_bit:
                continue
            # Class c plus v is acyclic.  reach_v: what v reaches in the new
            # class; heads: its out-neighbours; tails: the in-neighbours of
            # the members that reach v (v included); gainers: those but v.
            row = reach[c]
            reach_v = v_bit
            tails = inv
            gainers = []
            for x in members[c]:
                rx = row[x]
                if outv >> x & 1:
                    reach_v |= rx
                if rx & inv:
                    tails |= in_masks[x]
                    gainers.append(x)
            heads = outv
            m = reach_v ^ v_bit
            while m:
                low = m & -m
                heads |= out_masks[low.bit_length() - 1]
                m ^= low
            # An uncoloured w loses colour c iff it closes a dicycle through
            # v: an arc into w from reach_v and one out of w into a member
            # that reaches v.  Only such a w can run out of colours, and it
            # does iff c was its one open colour: it sat in shut[k - 1].
            cleared = open_[c] & later & heads & tails
            if cleared & shut[k - 1]:
                continue
            new_used = max(used, c)
            child_open = open_[:]
            child_open[c] ^= cleared
            child_shut = shut[:]
            child_shut[j] ^= v_bit
            # each cleared w moves up one bucket; c was open to it, so it
            # had at most new_used - 1 colours shut
            for i in range(new_used - 1, -1, -1):
                moved = child_shut[i] & cleared
                child_shut[i] ^= moved
                child_shut[i + 1] |= moved
            new_row = row[:]
            new_row[v] = reach_v
            for x in gainers:
                new_row[x] |= reach_v
            reach[c] = new_row
            members[c].append(v)
            colour[v] = c
            if dfs(later, new_used, child_open, child_shut):
                return True
            members[c].pop()
            reach[c] = row
        return False

    full = (1 << n) - 1
    return colour if dfs(full, 0, [full] * (k + 1), [full] + [0] * k) else None
