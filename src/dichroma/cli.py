"""Batch front door: parse graph files, dispatch commands, emit JSON
reports with certificates.

Graph files are whitespace-delimited and 0-indexed; comment lines start
with '#'.  A digraph file is a ``digraph n`` header followed by ``u v``
arc lines; a multigraph file is a ``multigraph n`` header followed by
``u v`` edge lines whose repetitions accumulate multiplicity.

Every numeric claim in a report ships a certificate that the matching
verify operation accepts (the CLI re-verifies before emitting).  Exit
codes: 0 ok, 1 verdict-false (extremal/free), 2 error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time

from . import brooks as brooks_mod
from . import colouring as col_mod
from . import defective as def_mod
from . import extremal as ext_mod
from . import heroes as hero_mod
from . import localstruct as loc_mod
from .core import Digraph, Multigraph, build_digraph, build_multigraph, contract, partition
from .errors import (
    DichromaError,
    FileSemanticError,
    FileSyntaxError,
    SelfCheckFailed,
    UsageError,
)
from .families import shannon_multigraph


def parse_graph(text: str) -> Digraph | Multigraph:
    """The digraph or multigraph of a graph file's text, by its header.  An
    invalid graph is reported at its header line for a negative vertex
    count, else at the first offending row."""
    (kind, n, head), rows = _parse_rows(text)
    build = build_digraph if kind == "digraph" else build_multigraph
    try:
        return build(n, [e for _, e in rows])
    except DichromaError as exc:
        line = head if n < 0 else _find_offender(rows, n, kind == "digraph")
        raise FileSemanticError(str(exc), line) from exc


def _parse_rows(text: str):
    header = None
    rows: list[tuple[int, tuple[int, int]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if header is None:
            if toks[0] not in ("digraph", "multigraph"):
                raise FileSyntaxError(f"unknown header {toks[0]!r}", 1)
            if len(toks) != 2:
                raise FileSyntaxError("header must be '<kind> <n>'", line_no)
            try:
                n = int(toks[1])
            except ValueError:
                raise FileSyntaxError("vertex count is not an integer", line_no)
            header = (toks[0], n, line_no)
            continue
        if len(toks) != 2:
            raise FileSyntaxError("expected two endpoints", line_no)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise FileSyntaxError("endpoints are not integers", line_no)
        rows.append((line_no, (u, v)))
    if header is None:
        raise FileSyntaxError("empty file", 1)
    return header, rows


def _find_offender(rows, n: int, digraph: bool) -> int:
    """The line of the first row that is out of range, a loop, or, in a
    digraph, a repeat: the row the builder rejects."""
    seen = set()
    for line_no, (u, v) in rows:
        if not (0 <= u < n and 0 <= v < n) or u == v or digraph and (u, v) in seen:
            return line_no
        seen.add((u, v))
    return rows[0][0] if rows else 1


def format_digraph(d: Digraph) -> str:
    lines = [f"digraph {d.n}"]
    lines += [f"{u} {v}" for u, v in d.sorted_arcs()]
    return "\n".join(lines) + "\n"


def format_multigraph(g: Multigraph) -> str:
    lines = [f"multigraph {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _load_graph(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_graph(text), text


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated command-line value."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"{flag} must be a comma list of integers, got {text!r}") from None


def _budget(ns) -> dict:
    """--budget as a keyword argument, only when one was given, so that
    without it every search keeps its library default."""
    return {} if ns.budget is None else {"budget": ns.budget}


def _self_check(ok: bool, claim: str) -> None:
    """Re-check a result before it is emitted; unlike assert, survives -O."""
    if not ok:
        raise SelfCheckFailed(f"re-check failed: {claim}")


def _need(g, kind, path: str):
    """g, if it is an instance of kind (a graph class or a tuple of them)."""
    if not isinstance(g, kind):
        raise UsageError(f"{path} is not a {kind.__name__.lower()} file")
    return g


def _chi(ns, d) -> tuple[dict, int]:
    try:
        res = col_mod.exact_dichromatic(d, **_budget(ns))
    except col_mod.BudgetExceeded as exc:
        return {"bounds": [exc.lower, exc.upper]}, 0
    _self_check(col_mod.verify_dicolouring(d, res.colouring).valid, "dicolouring")
    return (
        {
            "chi": res.value,
            "colouring": list(res.colouring.colours),
        },
        0,
    )


def _verify(ns, g) -> tuple[dict, int]:
    cols = _int_list(ns.colours, "--colours")
    if isinstance(g, Multigraph):
        if ns.d is None:
            raise UsageError("--d is required for multigraph files")
        res = def_mod.verify_edge_colouring(
            g, def_mod.EdgeColouring(tuple(cols), max(cols, default=0)), ns.d
        )
        rep = {"valid": res.valid}
        if not res.valid:
            count = sum(c == res.colour and res.vertex in e for e, c in zip(g.edges, cols))
            _self_check(count == res.count > ns.d, "a vertex with more than d edges of a colour")
            rep["witness"] = {
                "vertex": res.vertex,
                "colour": res.colour,
                "count": res.count,
            }
        return rep, 0
    res = col_mod.verify_dicolouring(g, col_mod.dicolouring(cols))
    rep = {"valid": res.valid}
    if not res.valid:
        cyc = res.witness_cycle
        _self_check(len(set(cyc)) == len(cyc) >= 2
                    and g.arcs.issuperset(zip(cyc, cyc[1:] + cyc[:1]))
                    and all(cols[v] == res.witness_colour for v in cyc),
                    "a monochromatic dicycle")
        rep["witness"] = {
            "cycle": list(cyc),
            "colour": res.witness_colour,
        }
    return rep, 0


def _brooks(ns, d) -> tuple[dict, int]:
    verdict = brooks_mod.classify_brooks(d)
    colouring = brooks_mod.brooks_colour(d)
    _self_check(col_mod.verify_dicolouring(d, colouring).valid, "dicolouring")
    return (
        {
            "delta_max": verdict.delta_max,
            "tight": verdict.tight,
            "components": [
                {
                    "vertices": sorted(c.vertices),
                    "delta_max": c.delta_max,
                    "exception": c.exception,
                }
                for c in verdict.components
            ],
            "colouring": list(colouring.colours),
            "colours_used": colouring.k,
        },
        0,
    )


def _lambda(ns, d) -> tuple[dict, int]:
    prof = ext_mod.lambda_profile(d)
    pair = prof.pair
    rep = {"lambda": prof.value}
    if pair is not None:
        x = prof.side
        crossing = sum(1 for a, b in d.arcs if a in x and b not in x)
        _self_check(crossing == prof.value, "dicut size equals lambda")
        # lambda arc-disjoint dipaths of d: with the dicut, they prove the value
        used = [arc for path in prof.paths for arc in zip(path, path[1:])]
        ends = {(path[0], path[-1]) for path in prof.paths}
        disjoint = len(set(used)) == len(used) and d.arcs.issuperset(used)
        ok = len(prof.paths) == prof.value and ends <= {pair} and disjoint
        _self_check(ok, "lambda arc-disjoint dipaths")
        rep["argmax"] = list(pair)
        rep["dicut_side"] = sorted(x)
    return rep, 0


def _extremal(ns, d) -> tuple[dict, int]:
    res = ext_mod.recognize_k_extremal(d, ns.k, **_budget(ns))
    rep: dict = {"extremal": res.extremal, "k": ns.k}
    if res.certificate is not None:
        _self_check(res.certificate.replay_arcs() == d.arcs, "certificate replays the input")
        rep["certificate"] = ext_mod.certificate_to_dict(res.certificate)
    if res.reason:
        rep["reason"] = res.reason
    return rep, 0 if res.extremal else 1


def _free(ns, d) -> tuple[dict, int]:
    if ns.pattern_name:
        pat = hero_mod.pattern(ns.pattern_name)
    elif ns.pattern:
        pg, _ = _load_graph(ns.pattern)
        pat = _need(pg, Digraph, ns.pattern)
    else:
        raise UsageError("need --pattern FILE or --pattern-name NAME")
    emb = hero_mod.contains_induced(d, pat, **_budget(ns))
    rep = {"free": emb is None}
    if emb is not None:
        _self_check(emb.verify(d, pat), "induced embedding")
        rep["embedding"] = list(emb.mapping)
    return rep, 0 if emb is None else 1


def _round(ns, d) -> tuple[dict, int]:
    flags = loc_mod.check_local_class(d)
    res = loc_mod.inround_order(d)
    rep = {
        "in_round": res.ok,
        "flags": {
            "locally_out_transitive": flags.locally_out_transitive,
            "locally_semicomplete": flags.locally_semicomplete,
            "in_round_condition": flags.in_round_condition,
            "round_condition": flags.round_condition,
        },
    }
    if res.ok:
        _self_check(loc_mod.satisfies_in_round(d, res.order.order), "in-round order")
        rep["order"] = list(res.order.order)
    else:
        rep["refutation"] = {
            "vertex": res.failing_vertex,
            "condition": res.failing_condition,
        }
    return rep, 0


def _strong_partition(d: Digraph, parts: list[list[int]]) -> bool:
    """Do the vertex lists partition d's vertices into strong parts?"""
    return (sorted(v for p in parts for v in p) == list(range(d.n))
            and all(p and d.induced(p)[0].is_strong for p in parts))


def _hubs(ns, d) -> tuple[dict, int]:
    hp = loc_mod.hub_decomposition(d)
    parts = [sorted(p) for p in hp.parts]
    _self_check(_strong_partition(d, parts), "the hubs are strong parts of a partition")
    quotient = contract(d, partition(d.n, parts))
    _self_check(hp.quotient == quotient, "the quotient is the contraction")
    order = hp.order.order
    _self_check(loc_mod.satisfies_in_round(quotient, order), "in-round order")
    return (
        {
            "hubs": parts,
            "quotient_arcs": [list(a) for a in quotient.sorted_arcs()],
            "order": list(order),
        },
        0,
    )


def _dicolour2(ns, d) -> tuple[dict, int]:
    tt = _int_list(ns.tt, "--tt")
    colouring = loc_mod.two_dicolour_lot(d, tt)
    _self_check(col_mod.verify_dicolouring(d, colouring).valid, "dicolouring")
    _self_check(len({colouring.colours[v] for v in tt}) <= 1, "--tt is monochromatic")
    return (
        {
            "colouring": list(colouring.colours),
            "monochromatic": sorted(tt),
        },
        0,
    )


def _structure(ns, d) -> tuple[dict, int]:
    st = loc_mod.semicomplete_structure(d)
    rep = {"case": st.case}
    a = d.arcs
    if st.case == "UniversalVertex":
        u = st.universal_vertex
        _self_check(u in range(d.n)
                    and all((u, v) in a and (v, u) in a for v in range(d.n) if v != u),
                    "a vertex joined both ways to every other")
        rep["vertex"] = u
    elif st.case == "RoundBlowup":
        parts = [sorted(p) for p in st.parts]
        _self_check(_strong_partition(d, parts), "the parts are strong parts of a partition")
        order = list(st.order.order)
        _self_check(loc_mod.satisfies_round(contract(d, partition(d.n, parts)), order),
                    "round order of the contraction")
        rep["parts"] = parts
        rep["order"] = order
    else:
        e, f, g, h = sets = [sorted(s) for s in (st.e, st.f, st.g, st.h)]
        _self_check(sorted(e + f + g + h) == list(range(d.n)) and e and g and (f or h)
                    and all((x, y) in a or (y, x) in a for s in sets for x in s for y in s if x < y)
                    and all((x, y) in a and (y, x) not in a for x in e for y in f)
                    and all((x, y) in a for x in f for y in g)
                    and all((x, y) in a for x in g for y in h)
                    and all((x, y) in a and (y, x) not in a for x in h for y in e)
                    and all(any((x, y) in a for y in e) and any((y, x) in a for y in e) for x in g),
                    "four semicomplete sets that dominate in turn")
        rep["sets"] = dict(zip("efgh", sets))
        rep["notes"] = list(st.notes)
    return rep, 0


def _two_step_reach(out: list[set], v: int) -> set:
    """v and every vertex one or two arcs from it, by the out-neighbour sets."""
    return {v}.union(out[v], *(out[w] for w in out[v]))


def _king(ns, d) -> tuple[dict, int]:
    king = loc_mod.find_2king(d)
    # re-checked from the arc set, not from the masks find_2king reads
    out = [set() for _ in range(d.n)]
    for v, w in d.arcs:
        out[v].add(w)
    if king is not None:
        _self_check(len(_two_step_reach(out, king)) == d.n,
                    "two steps from the king reach every vertex")
    else:
        _self_check(all(len(_two_step_reach(out, v)) < d.n for v in range(d.n)),
                    "no vertex reaches every vertex in two steps")
    return {"king": king}, 0


def _defective(ns, mg) -> tuple[dict, int]:
    if ns.exact:
        value, colouring = def_mod.exact_defective_index(mg, ns.d, **_budget(ns))
    else:
        colouring = def_mod.defective_colour(mg, ns.d, ns.simple, **_budget(ns))
        value = colouring.k
    _self_check(def_mod.verify_edge_colouring(mg, colouring, ns.d).valid, "edge colouring")
    return (
        {
            "colours": value,
            "exact": bool(ns.exact),
            "colouring": list(colouring.colours),
        },
        0,
    )


def _gadget(ns, g) -> tuple[dict, int]:
    if ns.kind == "deltamin":
        out = brooks_mod.deltamin_gadget(g, ns.k)
        return (
            {
                "n": out.n,
                "graph": format_digraph(out),
            },
            0,
        )
    gad = def_mod.np_gadget_defective(g, ns.k, ns.d)
    return (
        {
            "n": gad.graph.n,
            "edges": gad.graph.m(),
            "graph": format_multigraph(gad.graph),
        },
        0,
    )


def _gen(ns, _) -> tuple[dict, int]:
    name = ns.name
    if name == "shannon":
        g = shannon_multigraph(ns.k)
        return {"graph": format_multigraph(g), "n": g.n, "edges": g.m()}, 0
    if name == "wheel":
        if not ns.children:
            raise UsageError("wheel needs --children JSON")
        try:
            children = json.loads(ns.children)
        except ValueError:
            raise UsageError(f"--children is not JSON: {ns.children!r}") from None
        d = ext_mod.generalized_wheel(children)
        return {"graph": format_digraph(d), "n": d.n}, 0
    if name == "fk":
        gen = hero_mod.gen_fk(ns.l, ns.k)
    elif name == "ds":
        gen = hero_mod.gen_ds(ns.s)
    elif name == "c122":
        gen = hero_mod.gen_chordal_c122(ns.k)
    else:
        gen = hero_mod.gen_chordal_hero_free(ns.k)
    rep = {
        "graph": format_digraph(gen.digraph),
        "n": gen.digraph.n,
        "params": gen.params,
        "claimed_chi": gen.claimed_chi,
        "forbidden": list(gen.forbidden),
    }
    if ns.verify:
        rep["verification"] = hero_mod.verify_generated(gen, **_budget(ns))
    return rep, 0


# argparse reads an argument that starts with '-' and is not a plain number
# as an option, so `--colours -1,1,2` would lack its value.  verify and
# dicolour2 have no option that starts with a digit: there, any `-<digit>…`
# is a value, after --colours, --tt or any abbreviation argparse accepts.
_LIST_VALUE = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    """The command table: each subcommand with its handler, called as
    handler(ns, graph) -> (report, exit code), and the graph class its
    file must parse to (None for no file; for gadget, a dict keyed by the
    kind positional)."""
    p = argparse.ArgumentParser(prog="dichroma", description=__doc__)
    p.add_argument(
        "--budget", type=int, default=None,
        help="cap on search work: DFS nodes for chi, defective (--exact, or the exact "
        "fallback of the bounded colouring) and the chi check "
        "of gen --verify; recognizer calls for extremal; candidates that survive the "
        "masks for free and the pattern checks of gen --verify (unset: each search "
        "keeps its library default)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, reads, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler, reads=reads)
        if reads is not None and not isinstance(reads, dict):
            sp.add_argument("file")
        return sp

    command("chi", _chi, Digraph, "exact dichromatic number")

    sp = command("verify", _verify, (Digraph, Multigraph), "verify a dicolouring or edge colouring")
    sp.add_argument("--colours", required=True, help="comma list, one per vertex/edge")
    sp.add_argument("--d", type=int, default=None, help="defect (multigraph files)")
    sp._negative_number_matcher = _LIST_VALUE

    command("brooks", _brooks, Digraph, "tight-case classification and colouring")
    command("lambda", _lambda, Digraph, "local arc-connectivity profile")

    sp = command("extremal", _extremal, Digraph, "recognize chi = lambda + 1 = k + 1")
    sp.add_argument("--k", type=int, required=True)

    sp = command("gen", _gen, None, "emit a generated graph")
    sp.add_argument("name", choices=["fk", "ds", "c122", "herofree", "wheel", "shannon"])
    sp.add_argument("--l", type=int, default=3)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--s", type=int, default=5)
    sp.add_argument("--children", default=None, help="JSON children lists for wheel")
    sp.add_argument("--verify", action="store_true", help="re-check the claims")

    sp = command("free", _free, Digraph, "is the host free of an induced pattern?")
    sp.add_argument("--pattern", default=None, help="pattern digraph file")
    # written out, so that building the parser does not run heroes; a test
    # pins it to sorted(heroes.PATTERNS)
    sp.add_argument("--pattern-name", default=None,
                    help="one of ['c3', 'c3_1_1_2', 'c3_1_2_2', 'c3_1_2_3', "
                    "'c3_1_2_c3', 'c3_to_k1', 'k1_to_c3', 'tt3']")

    command("round", _round, Digraph, "in-round cyclic order or refutation")
    command("hubs", _hubs, Digraph, "maximal-hub decomposition")

    sp = command("dicolour2", _dicolour2, Digraph, "2-dicolouring with a monochromatic tournament")
    sp.add_argument("--tt", default="", help="comma list of prescribed vertices")
    sp._negative_number_matcher = _LIST_VALUE

    command("structure", _structure, Digraph, "locally semicomplete three-case structure")
    command("king", _king, Digraph, "least 2-king")

    sp = command("defective", _defective, Multigraph, "defective edge colouring")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--simple", action="store_true", help="use the simple-graph route")

    sp = command("gadget", _gadget, {"deltamin": Digraph, "defective": Multigraph},
                 "hardness gadgets")
    sp.add_argument("kind", choices=["deltamin", "defective"])
    sp.add_argument("file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, default=3)
    return p


def run_command(argv: list[str]) -> tuple[dict | None, int]:
    """Execute a command line; returns (report, exit code), with no report
    after --help, whose printed help is the whole answer."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # argparse exits with 0 once it printed the help
            return None, 0
        raise UsageError("bad usage") from exc
    t0 = time.monotonic()
    reads = ns.reads[ns.kind] if isinstance(ns.reads, dict) else ns.reads
    if reads is None:
        report, code = ns.handler(ns, None)
    else:
        g, text = _load_graph(ns.file)
        report, code = ns.handler(ns, _need(g, reads, ns.file))
        report["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    report["command"] = ns.command
    report["wall_ms"] = round((time.monotonic() - t0) * 1000, 3)
    return report, code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        report, code = run_command(argv)
    except DichromaError as exc:
        report, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 2
    if report is not None:
        print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
