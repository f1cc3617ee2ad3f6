"""Per-layer tracing from outside dichroma.

Every public function of the ten layer modules is wrapped at every place it
is bound (its own module and every module that imported it by name), plus
the methods Digraph.induced and CertNode.replay_arcs and the JSON encoder
the CLI calls.  `cli.build_parser` stays unwrapped so that building the
argparse tree counts as cli.run_command's own time.  Spans (name, start,
end, parent) are kept in memory; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
import types

LAYERS = ("cli", "core", "colouring", "brooks", "extremal", "heroes", "localstruct",
          "defective", "matching", "vizing")
RENAMED = {("cli", "parse_digraph_file"): "cli.parse", ("cli", "parse_multigraph_file"): "cli.parse"}
UNWRAPPED = {("cli", "build_parser")}
METHODS = (("core", "Digraph", "induced"), ("extremal", "CertNode", "replay_arcs"))

# the per-layer metrics the benchmark reports, besides <layer>.self_ms
NAMED = [
    "colouring.exact_dichromatic.self_ms", "colouring.exact_dichromatic.calls",
    "colouring.greedy_dicolour.self_ms",
    "colouring.verify_dicolouring.self_ms", "colouring.verify_dicolouring.calls",
    "colouring.find_cycle_in.self_ms",
    "extremal.lambda_profile.self_ms",
    "extremal.recognize_k_extremal.self_ms", "extremal.CertNode.replay_arcs.self_ms",
    "extremal.CertNode.replay_arcs.calls", "extremal.certificate_to_dict.self_ms",
    "core.strong_components.self_ms", "core.Digraph.induced.self_ms", "core.Digraph.induced.calls",
    "core.build_digraph.self_ms", "core.build_multigraph.self_ms",
    "cli.parse.self_ms", "cli.run_command.self_ms", "cli.emit.self_ms",
    "heroes.contains_induced.self_ms", "heroes.contains_induced.calls",
    "heroes.transitive_subsets.self_ms", "heroes.transitive_subsets.calls",
    "heroes.verify_generated.self_ms",
    "defective.exact_defective_index.self_ms", "defective.defective_colour.self_ms",
    "defective.verify_edge_colouring.self_ms", "matching.max_matching.calls",
    "matching.max_matching.self_ms", "vizing.vizing_colour.self_ms",
]
METRICS = NAMED + [f"{layer}.self_ms" for layer in LAYERS]


class Tracer:
    def __init__(self):
        # flat arrays rather than one object per span, so that holding many
        # spans does not slow the garbage collector in later passes
        self.names = []
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"dichroma.{layer}")
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and (layer, attr) not in UNWRAPPED):
                    name = RENAMED.get((layer, attr), f"{layer}.{attr}")
                    wrappers[id(val)] = self.wrap(name, val)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dichroma" or mod_name.startswith("dichroma."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers and inspect.isfunction(val):
                        self._set(mod, attr, wrappers[id(val)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"dichroma.{layer}"), cls_name)
            self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        cli = importlib.import_module("dichroma.cli")
        self._set(cli, "json", types.SimpleNamespace(
            dumps=self.wrap("cli.emit", json.dumps), loads=json.loads))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def __len__(self):
        return len(self.names)

    def summary(self, first=0):
        """Per-layer metrics over the spans from index `first` on, in
        milliseconds and counts."""
        count = len(self.names) - first
        child = [0.0] * count
        for i in range(first, len(self.names)):
            if self.parents[i] >= first:
                child[self.parents[i] - first] += self.ends[i] - self.starts[i]
        self_ms, calls = {}, {}
        for i in range(first, len(self.names)):
            name = self.names[i]
            own = self.ends[i] - self.starts[i] - child[i - first]
            self_ms[name] = self_ms.get(name, 0.0) + own * 1000
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for metric in NAMED:
            name, kind = metric.rsplit(".", 1)
            out[metric] = self_ms.get(name, 0.0) if kind == "self_ms" else calls.get(name, 0)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(v for k, v in self_ms.items() if k.split(".")[0] == layer)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")
