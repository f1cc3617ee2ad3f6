"""The package init: command modules bound lazily, nothing run at import."""

import json
import os
import runpy
import subprocess
import sys

import dichroma

SRC = os.path.dirname(os.path.dirname(dichroma.__file__))
COLD_START = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "cold_start.py")

# a fresh interpreter: which dichroma modules have run after a bare import of
# the package, which command modules it binds, and which modules have run
# after one attribute read from colouring
BARE = """
import json, sys, types
import dichroma

def ran():
    return sorted(name.split(".", 1)[1] for name, mod in sys.modules.items()
                  if name.startswith("dichroma.") and type(mod) is types.ModuleType)

before = ran()
bound = [name for name in ("brooks", "colouring", "defective", "extremal", "heroes", "localstruct")
         if sys.modules["dichroma." + name] is getattr(dichroma, name)]
dichroma.colouring.exact_dichromatic
print(json.dumps([before, bound, ran()]))
"""


def test_bare_import_runs_no_submodule():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", BARE], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    before, bound, after = json.loads(out)
    assert before == []
    assert bound == ["brooks", "colouring", "defective", "extremal", "heroes", "localstruct"]
    assert "colouring" in after and "extremal" not in after


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
    out = subprocess.run([sys.executable, "-c", COLD, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    codes, imported = json.loads(out)
    assert len(codes) == 14 and 2 not in codes
    assert imported == []
