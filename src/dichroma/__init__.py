"""Digraph dicolouring toolkit.

Exact and bound-certified dichromatic numbers, the directed max-degree
classification with constructive colourings, arc-connectivity-extremal
recognition through join decompositions, generators for families with
known dichromatic number, locally semicomplete structure theory, and
defective edge colouring of multigraphs.

The command modules (brooks, colouring, defective, extremal, heroes,
localstruct) are bound here but run on their first attribute access, so a
process compiles only the modules it uses.  The names re-exported below
are read from their modules when asked for.
"""

import importlib.util
import sys
import types

from . import core
from .errors import UnknownName


def _lazy(name: str) -> types.ModuleType:
    """The submodule `name`, bound now and run on its first attribute
    access (the importlib.util.LazyLoader recipe).  A module already in
    sys.modules is returned as it is, so running this file a second time
    replaces no live module."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


brooks = _lazy("brooks")
colouring = _lazy("colouring")
defective = _lazy("defective")
extremal = _lazy("extremal")
heroes = _lazy("heroes")
localstruct = _lazy("localstruct")

_HOMES = {
    brooks: ("BrooksVerdict", "brooks_colour", "classify_brooks", "deltamin_gadget"),
    colouring: (
        "Dicolouring",
        "ExactResult",
        "exact_dichromatic",
        "greedy_dicolour",
        "two_colour_odd_free",
        "verify_dicolouring",
    ),
    core: (
        "Digraph",
        "Multigraph",
        "VertexSetPartition",
        "bfs_order",
        "blocks",
        "build_digraph",
        "build_multigraph",
        "contract",
        "euler_tour",
        "lexicographic",
        "partition",
        "strong_components",
    ),
    defective: (
        "EdgeColouring",
        "colour_shannon_multigraph",
        "defective_colour",
        "exact_defective_index",
        "gamma_d",
        "np_gadget_defective",
        "verify_edge_colouring",
    ),
    extremal: (
        "CertNode",
        "LambdaProfile",
        "check_2_extremal",
        "directed_hajos_join",
        "generalized_wheel",
        "hajos_star_join",
        "hajos_tree_join",
        "lambda_profile",
        "recognize_k_extremal",
    ),
    heroes: (
        "GeneratedDigraph",
        "PatternEmbedding",
        "compose_circular",
        "compose_domination",
        "contains_induced",
        "gen_chordal_c122",
        "gen_chordal_hero_free",
        "gen_ds",
        "gen_fk",
        "pattern",
    ),
    localstruct: (
        "CyclicOrder",
        "HubPartition",
        "SemicompleteStructure",
        "check_local_class",
        "find_2king",
        "hub_decomposition",
        "inround_order",
        "semicomplete_structure",
        "two_dicolour_lot",
    ),
}
# each re-exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A re-exported name, read from its module (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise UnknownName(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)
