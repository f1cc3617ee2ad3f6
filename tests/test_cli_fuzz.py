"""Every file-taking command of `cli.main` on generated graph files, sound
or broken: the exit code is 0, 1 or 2, stdout is exactly one JSON object,
and exit 2 reports an error."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile

from hypothesis import given, settings, strategies as st

from dichroma.cli import main

JUNK = [b"", b"# comment", b"x 1", b"0", b"0 1 2", b"1 1", b"\xff\xfe 0", b"0 1 # tail"]


@st.composite
def graph_files(draw) -> bytes:
    kind = draw(st.sampled_from([b"digraph", b"multigraph"]))
    n = draw(st.integers(0, 7))
    pairs = [b"%d %d" % (u, v) for u in range(n) for v in range(n) if u != v]
    if draw(st.booleans()):  # a well-formed file
        sound = st.sampled_from(pairs or [b""])
        lines = draw(st.lists(sound, max_size=12, unique=kind == b"digraph"))
    else:
        anywhere = st.tuples(st.integers(-1, n), st.integers(-1, n))
        line = st.one_of(
            st.sampled_from(pairs + JUNK),
            anywhere.map(lambda e: b"%d %d" % e),
        )
        lines = draw(st.lists(line, max_size=8))
    return b"\n".join([b"%s %d" % (kind, n)] + lines) + b"\n"


def _argvs(path: str, k: int, d: int, colours: str, budget: int | None) -> list[list[str]]:
    head = [] if budget is None else ["--budget", str(budget)]
    tail = [
        ["chi", path],
        ["verify", path, "--colours", colours],
        ["verify", path, "--colours", colours, "--d", str(d)],
        ["brooks", path],
        ["lambda", path],
        ["extremal", path, "--k", str(k)],
        ["free", path, "--pattern-name", "c3"],
        ["free", path, "--pattern", path],
        ["round", path],
        ["hubs", path],
        ["dicolour2", path, "--tt", colours],
        ["structure", path],
        ["king", path],
        ["defective", path, "--d", str(d)],
        ["defective", path, "--d", str(d), "--exact"],
        ["defective", path, "--d", str(d), "--simple"],
        ["gadget", "deltamin", path, "--k", str(k)],
        ["gadget", "defective", path, "--k", str(k), "--d", str(d)],
    ]
    return [head + argv for argv in tail]


@settings(max_examples=150, deadline=None)
@given(
    graph_files(),
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.integers(0, 3), max_size=8).map(lambda c: ",".join(map(str, c))),
    st.one_of(st.none(), st.integers(0, 30)),
)
def test_every_command_answers_in_json(content, k, d, colours, budget):
    with tempfile.NamedTemporaryFile(suffix=".txt") as fh:
        fh.write(content)
        fh.flush()
        for argv in _argvs(fh.name, k, d, colours, budget):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            text = out.getvalue()
            assert code in (0, 1, 2), argv
            assert text.endswith("\n") and text.count("\n") == 1, argv
            report = json.loads(text)
            assert isinstance(report, dict), argv
            assert (code == 2) == ("error" in report), argv
