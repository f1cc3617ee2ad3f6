import json
import pathlib
import random

import pytest

from dichroma.cli import (
    build_parser,
    format_digraph,
    format_multigraph,
    main,
    parse_graph,
    run_command,
)
from dichroma.errors import FileSemanticError, FileSyntaxError
from dichroma.families import dicycle, shannon_multigraph
from dichroma.heroes import PATTERNS

import helpers
from helpers import sym_complete


def test_parse_digraph_examples():
    d = parse_graph("digraph 3\n0 1\n1 2\n2 0\n")
    assert d.arcs == dicycle(3).arcs
    digon = parse_graph("digraph 2\n0 1\n1 0\n")
    assert not digon.is_oriented
    with pytest.raises(FileSemanticError) as exc:
        parse_graph("digraph 2\n0 0\n")
    assert exc.value.line == 2
    with pytest.raises(FileSemanticError):
        parse_graph("digraph 2\n0 1\n0 1\n")
    with pytest.raises(FileSyntaxError) as exc2:
        parse_graph("digraph x\n")
    assert exc2.value.line == 1
    with pytest.raises(FileSyntaxError):
        parse_graph("digraph 2\n0 1 2\n")


def test_parse_multigraph_examples():
    g = parse_graph("multigraph 3\n0 1\n0 1\n1 2\n")
    assert g.edges.count((0, 1)) == 2
    empty = parse_graph("multigraph 3\n")
    assert empty.m() == 0
    with pytest.raises(FileSyntaxError):
        parse_graph("graph 3\n0 1\n")


def test_round_trip_corpus():
    rng = random.Random(2)
    for _ in range(25):
        d = helpers.random_digraph(rng, rng.randrange(1, 9), 0.4)
        assert parse_graph(format_digraph(d)).arcs == d.arcs
        g = helpers.random_regular_multigraph(rng, 6, 4)
        back = parse_graph(format_multigraph(g))
        assert sorted(back.edges) == sorted(g.edges)
    # comments and blank lines are ignored
    d2 = parse_graph("# header comment\n\ndigraph 2\n0 1  # trailing\n")
    assert d2.arcs == frozenset({(0, 1)})


@pytest.fixture
def files(tmp_path):
    c3 = tmp_path / "c3.dg"
    c3.write_text("digraph 3\n0 1\n1 2\n2 0\n")
    k4 = tmp_path / "k4.dg"
    k4.write_text(format_digraph(sym_complete(4)))
    sh4 = tmp_path / "sh4.mg"
    sh4.write_text(format_multigraph(shannon_multigraph(4)))
    return {"c3": str(c3), "k4": str(k4), "sh4": str(sh4)}


def test_chi_command(files):
    rep, code = run_command(["chi", files["c3"]])
    assert code == 0 and rep["chi"] == 2 and rep["colouring"] == [1, 1, 2]
    assert rep["command"] == "chi" and "wall_ms" in rep and "digest" in rep


def test_verify_command(files):
    rep, code = run_command(["verify", files["c3"], "--colours", "1,1,2"])
    assert code == 0 and rep["valid"]
    rep2, _ = run_command(["verify", files["c3"], "--colours", "1,1,1"])
    assert not rep2["valid"] and set(rep2["witness"]["cycle"]) == {0, 1, 2}
    rep3, _ = run_command(["verify", files["sh4"], "--colours", "1,1,1,1,1,1", "--d", "3"])
    assert not rep3["valid"]


def test_brooks_lambda_king_round(files):
    rep, _ = run_command(["brooks", files["k4"]])
    assert rep["tight"] and rep["components"][0]["exception"] == "SymmetricComplete"
    rep2, _ = run_command(["lambda", files["k4"]])
    assert rep2["lambda"] == 3
    rep3, _ = run_command(["king", files["c3"]])
    assert rep3["king"] == 0
    rep4, _ = run_command(["round", files["c3"]])
    assert rep4["in_round"] and rep4["order"] == [0, 1, 2]


def test_extremal_exit_codes(files):
    rep, code = run_command(["extremal", "--k", "3", files["k4"]])
    assert code == 0 and rep["extremal"]
    assert rep["certificate"]["kind"] == "BaseSymmetricComplete"
    rep2, code2 = run_command(["extremal", "--k", "3", files["c3"]])
    assert code2 == 1 and not rep2["extremal"]


def test_free_exit_codes(files):
    rep, code = run_command(["free", "--pattern-name", "tt3", files["c3"]])
    assert code == 0 and rep["free"]
    rep2, code2 = run_command(["free", "--pattern-name", "c3", files["c3"]])
    assert code2 == 1 and not rep2["free"] and rep2["embedding"] == [0, 1, 2]


def test_defective_command(files):
    rep, code = run_command(["defective", "--d", "3", files["sh4"]])
    assert code == 0 and rep["colours"] == 2
    rep2, _ = run_command(["defective", "--d", "3", "--exact", files["sh4"]])
    assert rep2["colours"] == 2 and rep2["exact"]


def test_gen_and_gadget_commands(files, tmp_path):
    rep, _ = run_command(["gen", "fk", "--l", "3", "--k", "3"])
    assert rep["n"] == 7 and rep["claimed_chi"] == 3
    d = parse_graph(rep["graph"])
    assert d.n == 7
    rep2, _ = run_command(["gen", "shannon", "--k", "5"])
    g = parse_graph(rep2["graph"])
    assert g.delta == 5
    rep3, _ = run_command(["gadget", "deltamin", "--k", "2", files["c3"]])
    assert rep3["n"] == 9
    rep4, _ = run_command(["dicolour2", files["c3"], "--tt", "0,1"])
    assert len(rep4["colouring"]) == 3
    rep5, _ = run_command(["hubs", files["c3"]])
    assert rep5["hubs"] == [[0], [1], [2]]
    rep6, _ = run_command(["structure", files["k4"]])
    assert rep6["case"] == "UniversalVertex"


def test_main_json_and_exit(files, capsys):
    code = main(["chi", files["c3"]])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 0 and rep["chi"] == 2
    assert list(rep) == sorted(rep)  # alphabetical key order
    code2 = main(["chi", "/nonexistent/file"])
    err = json.loads(capsys.readouterr().out)
    assert code2 == 2 and err["error"]["type"] == "UsageError"
    bad = files["c3"] + ".bad"
    with open(bad, "w") as fh:
        fh.write("digraph 2\n0 0\n")
    code3 = main(["chi", bad])
    err3 = json.loads(capsys.readouterr().out)
    assert code3 == 2 and err3["error"]["type"] == "FileSemanticError"


def test_budget_env(files, monkeypatch):
    monkeypatch.setenv("DICHROMA_BUDGET", "1000000")
    rep, code = run_command(["chi", files["k4"]])
    assert code == 0 and rep["chi"] == 4


@pytest.mark.parametrize("argv", [["gen", "ds", "--s", "60"], ["gen", "fk", "--l", "3", "--k", "16"]])
def test_gen_refuses_too_many_arcs_before_building(argv, capsys):
    # 34,220 vertices and 573,588,796 arcs; 65,535 vertices and 2,147,385,345 arcs
    code = main(argv)
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err == {"type": "SizeCapExceeded", "message": "arc count exceeds cap 2000000"}


def test_gen_wheel_command():
    rep, code = run_command(["gen", "wheel", "--children", "[[1,2,3],[],[],[]]"])
    assert code == 0
    d = parse_graph(rep["graph"])
    assert d.n == 4 and len(d.arcs) == 9


def test_chi_budget_bounds(files, tmp_path):
    from dichroma.heroes import gen_fk

    hard = tmp_path / "f3.dg"
    hard.write_text(format_digraph(gen_fk(3, 3).digraph))
    rep, code = run_command(["--budget", "2", "chi", str(hard)])
    assert code == 0 and "bounds" in rep
    rep2, code2 = run_command(["chi", str(hard)])
    assert code2 == 0 and rep2["chi"] == 3


def test_gen_verify_keeps_chi_when_a_pattern_check_runs_out(capsys):
    # on c122(3) the chi check needs 9 steps and the c3_1_2_2 search 19
    code = main(["--budget", "10", "gen", "c122", "--k", "3", "--verify"])
    rep = json.loads(capsys.readouterr().out)["verification"]
    assert code == 0 and rep["chi"] == 3 and rep["chi_ok"] is True
    assert rep["free"] == {"c3_1_2_2": None} and rep["free_ok"] is None
    assert rep["budget_exceeded"] == "pattern search budget"


def test_gen_verify_keeps_chi_bounds_when_the_chi_check_runs_out(capsys):
    # at 5 steps neither the chi check (9) nor the c3_1_2_2 search (19) finishes
    code = main(["--budget", "5", "gen", "c122", "--k", "3", "--verify"])
    rep = json.loads(capsys.readouterr().out)["verification"]
    assert code == 0 and rep["chi"] is None and rep["chi_bounds"] == [2, 3]
    assert rep["chi_ok"] is None and rep["free"] == {"c3_1_2_2": None}


def test_verify_rejects_out_of_range_colours(files, tmp_path, capsys):
    triangle = tmp_path / "triangle.mg"
    triangle.write_text("multigraph 3\n0 1\n1 2\n0 2\n")
    for argv, bad in [
        (["verify", files["c3"], "--colours", "0,0,0"], "colour 0 outside 1..0"),
        (["verify", str(triangle), "--colours", "0,0,0", "--d", "2"], "colour 0 outside 1..0"),
        (["verify", str(triangle), "--colours=-1,1,2", "--d", "2"], "colour -1 outside 1..2"),
        # argparse would read a list that starts with '-' as an option
        (["verify", str(triangle), "--colours", "-1,1,2", "--d", "2"], "colour -1 outside 1..2"),
        (["verify", files["c3"], "--colours", "-1,1,2"], "colour -1 outside 1..2"),
    ]:
        code = main(argv)
        err = json.loads(capsys.readouterr().out)
        assert code == 2 and err["error"] == {"type": "InvalidInput", "message": bad}


def test_dicolour2_tt_may_start_with_a_minus(files, capsys):
    for argv in (["dicolour2", files["c3"], "--tt", "-1,2"], ["dicolour2", files["c3"], "--tt=-1,2"]):
        code = main(argv)
        err = json.loads(capsys.readouterr().out)
        assert code == 2 and err["error"] == {
            "type": "PreconditionViolated", "message": "t outside the vertex range"}


def test_verify_malformed_colours_is_usage_error(files, capsys):
    code = main(["verify", files["c3"], "--colours", "1,x,1"])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and err["error"]["type"] == "UsageError"


def test_failed_self_check_is_json_error(files, capsys, monkeypatch):
    from dichroma import colouring

    monkeypatch.setattr(colouring, "verify_dicolouring",
                        lambda d, c: colouring.VerifyResult(False))
    code = main(["chi", files["c3"]])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and err["error"]["type"] == "SelfCheckFailed"


def test_king_rechecks_its_claim(tmp_path, capsys, monkeypatch):
    from dichroma import localstruct

    c4 = tmp_path / "c4.dg"  # two steps from any vertex miss the third
    c4.write_text("digraph 4\n0 1\n1 2\n2 3\n3 0\n")
    rep, code = run_command(["king", str(c4)])
    assert code == 0 and rep["king"] is None
    monkeypatch.setattr(localstruct, "find_2king", lambda d: 0)
    code = main(["king", str(c4)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err == {
        "type": "SelfCheckFailed",
        "message": "re-check failed: two steps from the king reach every vertex",
    }
    c3 = tmp_path / "c3.dg"  # every vertex is a 2-king
    c3.write_text("digraph 3\n0 1\n1 2\n2 0\n")
    monkeypatch.setattr(localstruct, "find_2king", lambda d: None)
    code = main(["king", str(c3)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err == {
        "type": "SelfCheckFailed",
        "message": "re-check failed: no vertex reaches every vertex in two steps",
    }


@pytest.mark.parametrize(
    "graph, corrupt",
    [
        ("c3", lambda paths: ((0, 2, 1),)),  # (0, 2) and (2, 1) are not arcs
        ("k4", lambda paths: paths[:1] + paths[1:2] * 2),  # an arc used twice
        ("k4", lambda paths: paths[:-1]),  # one dipath short of lambda
        ("k4", lambda paths: paths[:-1] + (paths[-1][:-1],)),  # ends short of v
    ],
    ids=["not-an-arc", "arc-reused", "path-missing", "wrong-end"],
)
def test_lambda_rechecks_its_dipaths(files, capsys, monkeypatch, graph, corrupt):
    import dataclasses

    from dichroma import extremal

    profile = extremal.lambda_profile

    def corrupted(d):
        prof = profile(d)
        return dataclasses.replace(prof, paths=corrupt(prof.paths))

    assert main(["lambda", files[graph]]) == 0
    capsys.readouterr()
    monkeypatch.setattr(extremal, "lambda_profile", corrupted)
    code = main(["lambda", files[graph]])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err == {
        "type": "SelfCheckFailed",
        "message": "re-check failed: lambda arc-disjoint dipaths",
    }


def test_defective_budget_reaches_the_exact_fallback(tmp_path, capsys):
    # cubic with three bridges: no 2-factor, so d = 1 falls back to the
    # exact search, which needs more than 10 nodes here
    balloon = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    lines = ["multigraph 16"]
    for off in (1, 6, 11):
        lines += [f"{p + off} {q + off}" for p, q in balloon] + [f"0 {off + 4}"]
    path = tmp_path / "bridged.mg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["defective", "--d", "1", str(path)]) == 0
    capsys.readouterr()
    code = main(["--budget", "10", "defective", "--d", "1", str(path)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["type"] == "BudgetExceeded"


@pytest.mark.parametrize(
    "children, error",
    [
        ("[[1,", "UsageError"),
        ("5", "InvalidInput"),
        ("[[5],[],[]]", "InvalidInput"),
        ("[[1],[0],[]]", "InvalidInput"),
        ("[[1,2],[2],[]]", "InvalidInput"),
    ],
)
def test_gen_wheel_malformed_children_is_json_error(children, error, capsys):
    code = main(["gen", "wheel", "--children", children])
    err = json.loads(capsys.readouterr().out)
    assert code == 2 and err["error"]["type"] == error


@pytest.mark.parametrize(
    "module, callee, argv",
    [
        ("heroes", "contains_induced", ["free", "k4", "--pattern-name", "c3_to_k1"]),
        ("heroes", "contains_induced", ["gen", "herofree", "--k", "2", "--verify"]),
        ("defective", "exact_defective_index", ["defective", "sh4", "--d", "1", "--exact"]),
    ],
)
def test_unset_budget_keeps_library_default(files, monkeypatch, module, callee, argv):
    import importlib
    import inspect

    mod = importlib.import_module(f"dichroma.{module}")
    original = getattr(mod, callee)
    default = inspect.signature(original).parameters["budget"].default
    received = []

    def spy(*args, budget=default):
        received.append(budget)
        return original(*args, budget=budget)

    monkeypatch.setattr(mod, callee, spy)
    monkeypatch.delenv("DICHROMA_BUDGET", raising=False)
    run_command([files.get(a, a) for a in argv])
    assert default is not None and received and set(received) == {default}


@pytest.mark.parametrize(
    "argv, wrong",
    [([cmd, "sh4"], "sh4") for cmd in
     ["chi", "brooks", "lambda", "round", "hubs", "dicolour2", "structure", "king"]]
    + [
        (["extremal", "--k", "3", "sh4"], "sh4"),
        (["free", "--pattern-name", "c3", "sh4"], "sh4"),
        (["gadget", "deltamin", "--k", "2", "sh4"], "sh4"),
        (["defective", "--d", "3", "c3"], "c3"),
        (["gadget", "defective", "--k", "3", "c3"], "c3"),
        (["free", "--pattern", "sh4", "c3"], "sh4"),
    ],
)
def test_wrong_graph_kind_is_usage_error(files, capsys, argv, wrong):
    code = main([files.get(a, a) for a in argv])
    err = json.loads(capsys.readouterr().out)["error"]
    kind = "multigraph" if wrong == "c3" else "digraph"
    assert code == 2 and err == {"type": "UsageError",
                                 "message": f"{files[wrong]} is not a {kind} file"}


@pytest.mark.parametrize(
    "env, content, argv, error",
    [
        ("abc", None, ["king", "c3"], "UsageError"),
        (None, b"\xff\xfedigraph 3\n0 1\n", ["king", "raw"], "UsageError"),
        (None, None, ["gen", "shannon", "--k", "0"], "BadParameters"),
    ],
    ids=["budget-env-not-integer", "file-not-utf8", "gen-shannon-k0"],
)
def test_bad_environment_file_or_parameter_is_json_error(
    files, tmp_path, capsys, monkeypatch, env, content, argv, error
):
    if env is None:
        monkeypatch.delenv("DICHROMA_BUDGET", raising=False)
    else:
        monkeypatch.setenv("DICHROMA_BUDGET", env)
    if content is not None:
        files["raw"] = str(tmp_path / "raw.dg")
        (tmp_path / "raw.dg").write_bytes(content)
    code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and json.loads(out)["error"]["type"] == error and err == ""


@pytest.mark.parametrize(
    "content, error, message",
    [
        ("", "FileSyntaxError", "line 1: empty file"),
        ("\n# only a comment\n", "FileSyntaxError", "line 1: empty file"),
        ("foo\n", "FileSyntaxError", "line 1: unknown header 'foo'"),
        ("foo 3 4\n", "FileSyntaxError", "line 1: unknown header 'foo'"),
        ("# c\n\nfoo x\n0 1\n", "FileSyntaxError", "line 1: unknown header 'foo'"),
        ("graph 3\na b\n", "FileSyntaxError", "line 1: unknown header 'graph'"),
        ("digraph\n", "FileSyntaxError", "line 1: header must be '<kind> <n>'"),
        ("multigraph x 1\n", "FileSyntaxError", "line 1: header must be '<kind> <n>'"),
        ("\n# c\ndigraph x\n", "FileSyntaxError", "line 3: vertex count is not an integer"),
        ("digraph 3\n0 1 2\n", "FileSyntaxError", "line 2: expected two endpoints"),
        ("digraph 3\n1 2\n#\n2 x\n", "FileSyntaxError", "line 4: endpoints are not integers"),
        ("digraph 3\n0 0\n", "FileSemanticError", "line 2: loop at vertex 0"),
        ("digraph 3\n0 1\n0 1\n", "FileSemanticError", "line 3: duplicate arc (0, 1)"),
        ("digraph 3\n0 5\n", "FileSemanticError", "line 2: arc (0, 5) outside 0..2"),
        ("digraph -1\n", "FileSemanticError", "line 1: negative vertex count -1"),
        ("multigraph 3\n0 0\n", "FileSemanticError", "line 2: loop at vertex 0"),
        ("multigraph 3\n0 9\n", "FileSemanticError", "line 2: edge (0, 9) outside 0..2"),
        # the first offending row, wherever it lies, or the header's own line
        ("digraph 3\n0 1\n1 2\n0 5\n", "FileSemanticError", "line 4: arc (0, 5) outside 0..2"),
        ("multigraph 3\n0 1\n0 1\n0 9\n", "FileSemanticError", "line 4: edge (0, 9) outside 0..2"),
        ("multigraph 3\n0 1\n0 1\n2 2\n", "FileSemanticError", "line 4: loop at vertex 2"),
        ("digraph -1\n0 1\n", "FileSemanticError", "line 1: negative vertex count -1"),
        ("# c\ndigraph -1\n", "FileSemanticError", "line 2: negative vertex count -1"),
    ],
)
def test_malformed_file_error_type_message_and_line(tmp_path, capsys, content, error, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    code = main(["chi", str(path)])
    assert code == 2 and json.loads(capsys.readouterr().out)["error"] == {
        "type": error, "message": message}


@pytest.mark.parametrize(
    "command, expected",
    [
        ("round", {"in_round": True, "order": []}),
        ("hubs", {"hubs": [], "quotient_arcs": [], "order": []}),
        ("structure", {"case": "RoundBlowup", "parts": [], "order": []}),
    ],
)
def test_empty_digraph_gives_a_report(tmp_path, capsys, command, expected):
    path = tmp_path / "empty.dg"
    path.write_text("digraph 0\n")
    code = main([command, str(path)])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 0 and out.count("\n") == 1
    assert {key: rep.get(key) for key in expected} == expected


def test_pattern_name_help_lists_the_patterns():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    free = commands.choices["free"]
    (action,) = [a for a in free._actions if "--pattern-name" in a.option_strings]
    assert action.help == f"one of {sorted(PATTERNS)}"


# usage and help output recorded under CPython 3.11 with COLUMNS=80 while
# build_parser still read heroes.PATTERNS: writing the help out changed no
# byte.  The --help entries were recorded again when asking for help stopped
# printing a usage error after it: the help alone, exit code 0.
HELP_CASES = json.loads((pathlib.Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("case", HELP_CASES,
                         ids=[" ".join(c["argv"]) or "bare" for c in HELP_CASES])
def test_help_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
