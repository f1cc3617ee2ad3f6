"""Digraph dicolouring toolkit.

Exact and bound-certified dichromatic numbers, the directed max-degree
classification with constructive colourings, arc-connectivity-extremal
recognition through join decompositions, generators for families with
known dichromatic number, locally semicomplete structure theory, and
defective edge colouring of multigraphs.

The command modules (brooks, colouring, defective, extremal, heroes,
localstruct) are bound here but run on their first attribute access, so a
process compiles only the modules it uses.  Each name is imported from
the module that defines it.
"""

import importlib.util
import sys
import types


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

__version__ = "0.1.0"
