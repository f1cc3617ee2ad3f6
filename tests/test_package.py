"""The package init: command modules bound lazily, re-exports by name."""

import json
import os
import runpy
import subprocess
import sys

import pytest

import dichroma
from dichroma.errors import DichromaError, UnknownName

SRC = os.path.dirname(os.path.dirname(dichroma.__file__))
COLD_START = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "cold_start.py")

# a fresh interpreter: which dichroma modules have run after importing the
# CLI, and after one chi call
PROBE = """
import contextlib, io, json, sys, types
import dichroma.cli

def ran():
    return sorted(name.split(".", 1)[1] for name, mod in sys.modules.items()
                  if name.startswith("dichroma.") and type(mod) is types.ModuleType)

before = ran()
with contextlib.redirect_stdout(io.StringIO()):
    code = dichroma.cli.main(["chi", sys.argv[1]])
print(json.dumps([before, code, ran()]))
"""


def test_cli_runs_only_the_modules_a_command_uses(tmp_path):
    c3 = tmp_path / "c3.dg"
    c3.write_text("digraph 3\n0 1\n1 2\n2 0\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("DICHROMA_BUDGET", None)
    out = subprocess.run([sys.executable, "-c", PROBE, str(c3)], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    before, code, after = json.loads(out)
    assert before == ["cli", "core", "errors", "families"]
    assert code == 0 and after == sorted(before + ["colouring"])


# a fresh interpreter: the exit codes of a run of command lines, and which
# of the modules behind dataclasses had been imported by the end
COLD = """
import contextlib, io, json, sys
import dichroma.cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [dichroma.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    cold = runpy.run_path(COLD_START)
    files = {"d": tmp_path / "t5.dg", "m": tmp_path / "m3.mg"}
    files["d"].write_text(cold["DIGRAPH"])
    files["m"].write_text(cold["MULTIGRAPH"])
    argvs = [[arg.format(**files) for arg in template] for template in cold["COMMANDS"].values()]
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("DICHROMA_BUDGET", None)
    out = subprocess.run([sys.executable, "-c", COLD, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    codes, imported = json.loads(out)
    assert len(codes) == 14 and 2 not in codes
    assert imported == []


def test_every_export_is_its_modules_object():
    homes = dichroma._HOMES
    assert sum(len(names) for names in homes.values()) == len(dichroma.__all__) == 57
    for module, names in homes.items():
        for name in names:
            obj = getattr(dichroma, name)
            assert obj is getattr(module, name) and obj.__module__ == module.__name__
    from dichroma import exact_dichromatic, gen_fk  # noqa: F401  the import form too


def test_unknown_name_is_a_toolkit_attribute_error():
    assert not hasattr(dichroma, "nope")
    with pytest.raises(UnknownName) as exc:
        dichroma.nope  # noqa: B018
    assert isinstance(exc.value, DichromaError) and isinstance(exc.value, AttributeError)
    with pytest.raises(ImportError):
        from dichroma import nope  # noqa: F401
