"""Command-line behaviour: golden outputs, exit codes, pipelines."""

import io
import json
import pathlib
import sys

import pytest

from leibnizalg import cli
from leibnizalg.algebra import InternalCheckError
from leibnizalg.fileio import serialize_algebra
from leibnizalg.sl2 import sl2_algebra

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv, stdin_text=None, monkeypatch=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.run_command(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in
    return code, out.getvalue(), err.getvalue()


def golden(name):
    return (GOLDEN / name).read_text()


def test_gen_simple_ext_matches_golden():
    code, out, err = run(["gen", "simple-ext", "--n", "5"])
    assert (code, err) == (0, "")
    assert out == golden("simple_ext5.alg.json")


def test_gen_sl2_irrep_matches_golden():
    code, out, _ = run(
        ["gen", "sl2-irrep", "--m", "1", "--variant", "anti_symmetric"])
    assert code == 0
    assert out == golden("ladder1_anti.rep.json")


def test_check_json_matches_golden(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(golden("simple_ext5.alg.json"))
    code, out, _ = run(["check", str(path), "--json"])
    assert code == 0
    assert out == golden("check_ext5.json")


def test_series_and_radical_compute_each_fact_once(monkeypatch):
    # series reads solvable and nilpotent off the terms it reports; radical
    # reads equals_kernel off the Levi chain that gave the radical
    from leibnizalg.algebra import LeibnizAlgebra
    calls = []
    for name in ("_series", "leibniz_kernel"):
        def counted(self, *args, _name=name, _method=getattr(LeibnizAlgebra, name)):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(LeibnizAlgebra, name, counted)
    text = golden("simple_ext5.alg.json")
    code, out, _ = run(["series", "--json", "-"], stdin_text=text)
    assert code == 0 and calls == ["_series", "_series"]
    report = json.loads(out)
    assert (report["solvable"], report["nilpotent"]) == (False, False)
    calls.clear()
    code, out, _ = run(["radical", "--json", "-"], stdin_text=text)
    assert code == 0 and calls.count("leibniz_kernel") == 1
    assert json.loads(out)["equals_kernel"] is True


def test_semisimple_human_matches_golden():
    code, out, _ = run(["semisimple", "-"],
                       stdin_text=golden("simple_ext5.alg.json"))
    assert code == 0
    assert out == golden("semisimple_ext5.txt")


def test_classify_matches_golden():
    code, ext6, _ = run(["gen", "simple-ext", "--n", "6"])
    assert code == 0
    code, out, _ = run(["rep", "classify", "-", "--m", "1", "--json"],
                       stdin_text=ext6)
    assert code == 0
    assert out == golden("classify_ext6_m1.json")


def test_classify_sl2_matches_golden():
    code, out, err = run(["rep", "classify", "-", "--m", "2", "--json"],
                         stdin_text=serialize_algebra(sl2_algebra()))
    assert (code, err) == (0, "")
    assert out == golden("classify_sl2_m2.json")


@pytest.mark.parametrize("argv, name", [
    (["gen", "example-5-3"], "example_5_3.alg.json"),
    (["gen", "example-5-3", "--adjoint"], "example_5_3_adjoint.rep.json"),
])
def test_gen_example_5_3_matches_golden(argv, name):
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out == golden(name)


def test_decompose_matches_golden():
    code, e55, _ = run(["gen", "example-5-5"])
    assert code == 0
    code, out, _ = run(["rep", "decompose", "-", "--json"], stdin_text=e55)
    assert code == 0
    assert out == golden("decompose_e55.json")


def test_restrict_matches_golden():
    code, e55, _ = run(["gen", "example-5-5"])
    code, out, _ = run(["rep", "restrict", "-", "--span", "e,f,h"],
                       stdin_text=e55)
    assert code == 0
    assert out == golden("restrict_e55_sl2.rep.json")


def test_output_is_deterministic():
    first = run(["gen", "example-5-3", "--adjoint"])
    second = run(["gen", "example-5-3", "--adjoint"])
    assert first == second
    code, ext7, _ = run(["gen", "simple-ext", "--n", "7"])
    a = run(["rep", "classify", "-", "--m", "2", "--json"], stdin_text=ext7)
    b = run(["rep", "classify", "-", "--m", "2", "--json"], stdin_text=ext7)
    assert a == b and a[0] == 0


def test_pipe_gen_into_classify():
    code, alg_text, _ = run(["gen", "simple-ext", "--n", "5"])
    code, out, _ = run(["rep", "classify", "-", "--m", "2", "--json"],
                       stdin_text=alg_text)
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "simple_ext"
    assert report["module_dim"] == 3
    assert [r["variant"] for r in report["reps"]] == [
        "zero_lambda", "anti_symmetric"]


def test_pipe_gen_into_rep_check():
    code, rep_text, _ = run(["gen", "sl2-irrep", "--m", "3"])
    code, out, _ = run(["rep", "check", "-", "--json"], stdin_text=rep_text)
    assert code == 0
    assert json.loads(out) == {"valid": True, "module_dim": 4}


def test_rep_check_reports_violations_without_failing():
    obj = json.loads(golden("ladder1_anti.rep.json"))
    obj["rho"]["e"][0][1] = "5/1"  # break the ladder
    code, out, err = run(["rep", "check", "-", "--json"],
                         stdin_text=json.dumps(obj))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violation_count"] > 0
    first = report["violations"][0]
    assert set(first) == {"axiom", "left", "right"}


def test_rep_equivalent_verdicts(tmp_path):
    _, zero, _ = run(["gen", "sl2-irrep", "--m", "1"])
    _, anti, _ = run(["gen", "sl2-irrep", "--m", "1",
                      "--variant", "anti_symmetric"])
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(zero)
    pb.write_text(anti)
    code, out, _ = run(["rep", "equivalent", str(pa), str(pb), "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "not_equivalent"
    code, out, _ = run(["rep", "equivalent", str(pa), str(pa), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "equivalent"
    assert report["certificate"] is not None


def test_verdict_no_still_exits_zero():
    text = json.dumps({"basis": ["a", "b"], "brackets": [
        {"left": "a", "right": "b", "result": {"b": "1/1"}},
        {"left": "b", "right": "a", "result": {"b": "-1/1"}}]})
    code, out, _ = run(["semisimple", "-", "--json"], stdin_text=text)
    assert code == 0
    assert json.loads(out)["semisimple"] is False
    code, out, _ = run(["simple", "-", "--json"], stdin_text=text)
    assert code == 0
    assert json.loads(out)["verdict"] == "no"


def test_undetermined_decompose_exits_zero():
    alg = {"basis": ["a"], "brackets": []}
    rep = {"algebra": alg, "module_dim": 2,
           "rho": {"a": [["0", "2"], ["1", "0"]]},
           "lambda": {"a": [["0", "0"], ["0", "0"]]}}
    code, out, _ = run(["rep", "decompose", "-", "--json"],
                       stdin_text=json.dumps(rep))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "undetermined"
    assert "obstruction" in report


def test_input_errors_exit_one():
    cases = [
        (["check", "/no/such/file.json"], None),
        (["check", "-"], "{broken"),
        (["check", "-"], json.dumps({"basis": ["a"], "brackets": [
            {"left": "a", "right": "a", "result": {"a": "1/0"}}]})),
        (["gen", "simple-ext", "--n", "4"], None),
        (["gen", "sl2-irrep", "--m", "-1"], None),
        (["rep", "classify", "-", "--m", "1"],
         json.dumps({"basis": ["a", "b", "c"], "brackets": []})),
        (["levi", "-"], json.dumps({"basis": ["a"], "brackets": []})),
        (["nonsense-command"], None),
        (["rep", "classify", "-"], None),  # --m is required
        (["check", "-"], json.dumps({"basis": ["a"], "brackets": [
            {"left": "a", "right": "a", "result": {"a": "1e999999"}}]})),
        (["check", "-"], json.dumps({"basis": ["a"], "dim": True, "brackets": []})),
    ]
    for argv, text in cases:
        code, out, err = run(argv, stdin_text=text)
        assert code == 1, (argv, err)
        assert err.strip(), argv


def test_oversized_inputs_exit_one():
    # one past the bound on the basis, the algebra size and the module size
    labels = json.dumps({"basis": [f"b{i}" for i in range(129)], "brackets": []})
    _, sl2_text, _ = run(["gen", "sl2-irrep", "--m", "1"])
    sl2_alg = json.dumps(json.loads(sl2_text)["algebra"])
    cases = [
        (["check", "-"], labels, "basis: more than 128 labels"),
        (["gen", "simple-ext", "--n", "129"], None, "--n: dimension 129"),
        (["gen", "sl2-irrep", "--m", "128"], None, "--m: dimension 129"),
        (["rep", "classify", "-", "--m", "128"], sl2_alg, "--m: dimension 129"),
    ]
    for argv, text, message in cases:
        code, out, err = run(argv, stdin_text=text)
        assert code == 1 and not out, argv
        assert message in err, (argv, err)


def test_restrict_rejects_unknown_labels():
    _, e55, _ = run(["gen", "example-5-5"])
    code, _, err = run(["rep", "restrict", "-", "--span", "e,zz"],
                       stdin_text=e55)
    assert code == 1
    assert "unknown label 'zz'" in err


def test_equivalent_rejects_mismatched_algebras(tmp_path):
    _, sl2_rep, _ = run(["gen", "sl2-irrep", "--m", "1"])
    _, ext6, _ = run(["gen", "simple-ext", "--n", "6"])
    code, ext_reps, _ = run(["rep", "classify", "-", "--m", "1", "--json"],
                            stdin_text=ext6)
    ext_rep = json.loads(ext_reps)["reps"][0]
    ext_rep["algebra"] = json.loads(ext6)
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(sl2_rep)
    pb.write_text(json.dumps(ext_rep))
    code, _, err = run(["rep", "equivalent", str(pa), str(pb)])
    assert code == 1
    assert "common algebra" in err


def test_internal_check_failure_exits_two(monkeypatch):
    def boom(rep):
        raise InternalCheckError("synthetic failure")
    # the layer, not the package: `leibnizalg.decompose` is the function
    monkeypatch.setattr(sys.modules["leibnizalg.decompose"], "decompose", boom)
    _, e55, _ = run(["gen", "example-5-5"])
    code, out, err = run(["rep", "decompose", "-"], stdin_text=e55)
    assert code == 2
    assert err.startswith("internal check failed:")


def test_human_output_has_no_json_braces():
    _, ext5, _ = run(["gen", "simple-ext", "--n", "5"])
    code, out, _ = run(["kernel", "-"], stdin_text=ext5)
    assert code == 0
    assert out.splitlines()[0] == "basis:"
    assert "{" not in out


# -- the parser built for one argv against the eager parser of the same table --

def eager_parser() -> cli._Parser:
    """Reference: every subcommand of the command table, added in table order."""
    parser = cli._Parser(prog="leibnizalg", description=cli._DESCRIPTION)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (handler, kind, help_text, arguments) in cli._COMMANDS.items():
        parent, _, name = path.rpartition(" ")
        p = groups[parent].add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        if handler is None:
            groups[path] = p.add_subparsers(
                dest=path.replace(" ", "_") + "_command", required=True)
        else:
            p.set_defaults(handler=handler, kind=kind)
    return parser


def run_or_exit(argv):
    """run, with argparse's exit after --help turned into its exit code."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.run_command(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


LEAVES = [path.split() for path, (handler, *_) in cli._COMMANDS.items() if handler]
USAGE_ARGVS = (
    [[], ["--help"], ["-h"], ["bogus"], ["--json", "check", "x"], ["-h", "check"],
     ["rep"], ["gen"], ["rep", "--help"], ["gen", "--help"], ["rep", "bogus"],
     ["gen", "bogus"], ["rep", "-h", "check"],
     ["gen", "sl2-irrep", "--m", "x"], ["gen", "sl2-irrep", "--m", "1", "--variant", "bad"]]
    + [leaf + ["--help"] for leaf in LEAVES] + LEAVES)


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_usage_and_help_text_match_the_eager_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ours = run_or_exit(argv)
    monkeypatch.setattr(cli, "_build_parser", lambda argv=None: eager_parser())
    assert ours == run_or_exit(argv)
    assert ours[0] in (0, 1)


def test_parser_holds_only_the_invoked_path():
    def choices(parser):
        return parser._subparsers._group_actions[0].choices

    parser = cli._build_parser(["rep", "irreducible", "x.json", "--json"])
    assert list(choices(parser)) == ["rep"]
    assert list(choices(choices(parser)["rep"])) == ["irreducible"]
    # where argv names no subcommand, all of them: 8 reports, rep and gen
    assert len(choices(cli._build_parser(["--help"]))) == len(choices(eager_parser())) == 10
    rep = choices(cli._build_parser(["rep", "bogus"]))["rep"]
    assert list(choices(rep)) == [leaf[1] for leaf in LEAVES if leaf[0] == "rep"]
