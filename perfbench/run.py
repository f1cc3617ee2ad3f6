"""dichroma benchmark: three workloads through the real CLI path, in process.

    python3 perfbench/run.py --workload chi-exact --seed 1 --seconds 36 --trace 0

Each timed call is `dichroma.cli.main(argv)` on a graph file on disk, with
stdout captured, so parsing, dispatch, search, re-verification and JSON
emission are all inside it.  A run repeats whole passes over the workload's
corpus until --seconds have gone by, then checks every report against the
oracles (checks.py) and prints one JSON line:

- --trace 0: the end-to-end metrics (instances_per_s, lat_p50_ms, lat_p90_ms,
  peak_rss_mb, setup_s);
- --trace 1: the per-layer metrics from traced passes (layertrace.py), which
  alternate with untraced passes to give trace.overhead_pct.

Run from the repository root; it imports dichroma from ./src and writes only
under perfbench/.work.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up is sampled after each pass, up to SETUP_MAX times and at least
# SETUP_MIN times, so its median spans the machine's states over the run
SETUP_MIN, SETUP_MAX = 5, 9
sys.path.insert(0, HERE)

import answers  # noqa: E402
import corpus  # noqa: E402


def import_dichroma():
    """Import dichroma.cli from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dichroma", "cli.py")):
        sys.exit(f"no dichroma sources under {SRC}")
    sys.path.insert(0, SRC)
    from dichroma import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"dichroma imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_sample(work_dir):
    """Wall time of a fresh interpreter that imports dichroma and reads the
    whole corpus: the set-up a user pays before the first call."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, work_dir],
                   check=True)
    return time.perf_counter() - t0


def run_pass(cli, ops):
    """One pass over the corpus: per-op seconds and (exit code, stdout)."""
    times, outputs = [], []
    t_pass = time.perf_counter()
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = cli.main(op["argv"])
            except Exception as exc:  # a traceback out of cli.main is a failed operation
                code = None
                buf = io.StringIO(type(exc).__name__)
            t1 = time.perf_counter()
        times.append(t1 - t0)
        outputs.append((code, buf.getvalue()))
    return time.perf_counter() - t_pass, times, outputs


def parse(output):
    code, text = output
    if code is None:
        return None, text
    try:
        report = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return code, f"unparseable output {text[:80]!r}"
    if isinstance(report, dict):
        report.pop("wall_ms", None)
    return code, report


def check_outputs(ops, passes, stored):
    """Check the first pass with the oracles and every later pass for the
    same outcome; returns (failed count over all passes, problems)."""
    import checks

    failed, problems = 0, []
    first = [parse(o) for o in passes[0]]
    bad = set()
    for i, (op, outcome) in enumerate(zip(ops, first)):
        reason = checks.check(op, outcome, stored.get(op["id"]))
        if reason is not None:
            bad.add(i)
            problems.append((op, reason))
    for outputs in passes:
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if i in bad:
                failed += 1
            elif parse(out) != first[i]:
                failed += 1
                problems.append((op, "outcome differs between passes"))
    return failed, problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("DICHROMA_BUDGET", None)
    os.chdir(ROOT)  # the operations name their files relative to the root

    cli = import_dichroma()
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}")
    ops = corpus.instantiate(args.workload, args.seed, ROOT, work_dir)
    stored = answers.load(args.workload)
    setup = []

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
    # with tracing, pass 0 is an untraced warm-up and later passes alternate
    # traced and untraced, so trace.overhead_pct compares like with like
    walls, traced_walls, per_op, outputs, layer_runs = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(outputs) % 2 == 1
        gc.collect()
        if traced:
            first_span = len(tracer)
            tracer.install()
        try:
            wall, times, outs = run_pass(cli, ops)
        finally:
            if traced:
                tracer.uninstall()
        outputs.append(outs)
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tracer.summary(first_span))
        else:
            walls.append(wall)
            per_op.append(times)
        if tracer is None and len(setup) < SETUP_MAX:
            setup.append(setup_sample(work_dir))
        # stop before a pass that would end past --seconds, after at least
        # three passes
        elapsed = time.perf_counter() - t_start
        if len(outputs) >= 3 and elapsed + wall > args.seconds:
            break
    while tracer is None and len(setup) < SETUP_MIN:
        setup.append(setup_sample(work_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = check_outputs(ops, outputs, stored)
    expected_faults = all(op["fault"] for op, _ in problems)
    for op, reason in problems:
        tag = "known fault" if op["fault"] else "WRONG"
        print(f"{tag}: {op['id']}: {reason} ({op['fault'] or ' '.join(op['argv'])})",
              file=sys.stderr)

    if tracer is None:
        # pooled over every timed call of the run: the host's CPU speed
        # swings by up to half over seconds, and a figure drawn from all
        # calls averages those swings where one call's own samples cannot
        lat = [t * 1000 for times in per_op for t in times]
        metrics = {
            "instances_per_s": (len(lat) / (sum(lat) / 1000), "1/s"),
            "lat_p50_ms": (statistics.median(lat), "ms"),
            "lat_p90_ms": (percentile(lat, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        from layertrace import METRICS
        metrics = {m: (statistics.median(r[m] for r in layer_runs),
                       "ms" if m.endswith("_ms") else "count") for m in METRICS}
        base = statistics.median(walls[1:])
        metrics["trace.overhead_pct"] = ((statistics.median(traced_walls) - base) / base * 100, "%")
        tracer.write(os.path.join(work_dir, "spans.tsv"))
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {len(outputs)} passes "
          f"of {', '.join(f'{w:.2f}' for w in walls + traced_walls)} s", file=sys.stderr)
    print(json.dumps({
        "correct": expected_faults,
        "attempted": len(ops) * len(outputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
