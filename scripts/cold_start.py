#!/usr/bin/env python3
"""Cold-start cost of each CLI command: fresh interpreters, one call each.

    python3 scripts/cold_start.py [--runs 21] [--out BENCH_cold_start.json] [LABEL=SRC ...]

Writes a small digraph and a small multigraph to a temporary directory,
then, for every command, starts --runs fresh interpreters that import
`dichroma.cli` from SRC and call `dichroma.cli.main` once.  Each LABEL=SRC
names a checkout's src directory (default: this checkout's, as `this`);
with several, the checkouts alternate run by run, in turn order reversed
every run, so drift in the machine's speed falls on all of them alike.

Per command and checkout it records the medians of the whole process's
wall time, the time to import `dichroma.cli` and the time of the `main`
call, the exit code, which `dichroma` modules had run when the process
ended (a module bound but never used is not counted), and how many modules
of any package `sys.modules` held then: a count that, unlike the times,
does not depend on the machine.  Whether bytecode
caching was on (the interpreter writes .pyc files, or finds some already
in SRC) is recorded too, since without it every run compiles every module
it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGRAPH = "digraph 5\n0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n3 4\n3 0\n4 0\n4 1\n"  # rotational tournament
MULTIGRAPH = "multigraph 3\n0 1\n0 1\n1 2\n2 0\n"
COMMANDS = {
    "chi": ["chi", "{d}"],
    "verify": ["verify", "--colours", "1,1,2,2,2", "{d}"],
    "brooks": ["brooks", "{d}"],
    "lambda": ["lambda", "{d}"],
    "extremal": ["extremal", "--k", "3", "{d}"],
    "free": ["free", "--pattern-name", "c3", "{d}"],
    "round": ["round", "{d}"],
    "hubs": ["hubs", "{d}"],
    "dicolour2": ["dicolour2", "--tt", "0", "{d}"],
    "structure": ["structure", "{d}"],
    "king": ["king", "{d}"],
    "defective": ["defective", "--d", "1", "{m}"],
    "gadget": ["gadget", "deltamin", "{d}", "--k", "3"],
    "gen": ["gen", "fk", "--verify"],
}

# run in each fresh interpreter: argv is SRC followed by the command line
CHILD = """
import contextlib, io, json, sys, time, types
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dichroma.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = dichroma.cli.main(sys.argv[2:])
t2 = time.perf_counter()
ran = sorted(name for name, mod in sys.modules.items()
             if name.startswith("dichroma.") and type(mod) is types.ModuleType)
print(json.dumps({"code": code, "import_ms": (t1 - t0) * 1e3, "main_ms": (t2 - t1) * 1e3,
                  "ran": ran, "modules": len(sys.modules)}))
"""


def one_run(src: str, argv: list[str]) -> dict:
    """One fresh interpreter: its wall time and what the child reported."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv],
                          capture_output=True, text=True, check=True)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return {"wall_ms": wall_ms, **json.loads(proc.stdout)}


def pyc_files(src: str) -> int:
    cache = os.path.join(src, "dichroma", "__pycache__")
    return sum(name.endswith(".pyc") for name in os.listdir(cache)) if os.path.isdir(cache) else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="*", metavar="LABEL=SRC")
    ap.add_argument("--runs", type=int, default=21)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_cold_start.json"))
    args = ap.parse_args(argv)
    pairs = [c.split("=", 1) for c in args.checkouts] or [["this", os.path.join(ROOT, "src")]]
    sources = {label: os.path.abspath(src) for label, src in pairs}
    writes = not sys.flags.dont_write_bytecode
    cached = {label: pyc_files(src) for label, src in sources.items()}

    samples = {label: {cmd: [] for cmd in COMMANDS} for label in sources}
    with tempfile.TemporaryDirectory() as tmp:
        files = {"d": os.path.join(tmp, "t5.dg"), "m": os.path.join(tmp, "m3.mg")}
        for key, text in (("d", DIGRAPH), ("m", MULTIGRAPH)):
            with open(files[key], "w") as fh:
                fh.write(text)
        for run in range(args.runs):
            order = list(sources) if run % 2 == 0 else list(sources)[::-1]
            for cmd, template in COMMANDS.items():
                line = [arg.format(**files) for arg in template]
                for label in order:
                    samples[label][cmd].append(one_run(sources[label], line))

    def summary(runs):
        return {
            "exit": runs[0]["code"],
            "wall_ms": round(statistics.median(r["wall_ms"] for r in runs), 1),
            "import_ms": round(statistics.median(r["import_ms"] for r in runs), 1),
            "main_ms": round(statistics.median(r["main_ms"] for r in runs), 1),
            "modules_run": runs[0]["ran"],
            "modules_loaded": runs[0]["modules"],
        }

    report = {
        "what": "median over fresh interpreters of one `dichroma.cli.main` call per command "
                "(scripts/cold_start.py)",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "runs": args.runs,
        "digraph": DIGRAPH,
        "multigraph": MULTIGRAPH,
        "checkouts": {
            label: {
                "bytecode_caching": writes or cached[label] > 0,
                "commands": {cmd: {"argv": COMMANDS[cmd], **summary(samples[label][cmd])}
                             for cmd in COMMANDS},
            }
            for label in sources
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for label in sources:
        cmds = report["checkouts"][label]["commands"]
        print(f"{label}: " + ", ".join(f"{c} {s['wall_ms']:.0f} ms/{s['modules_loaded']}"
                                       for c, s in cmds.items()) + " (wall/modules)")


if __name__ == "__main__":
    main()
