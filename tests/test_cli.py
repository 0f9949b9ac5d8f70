import argparse
import json
import subprocess
import sys

import pytest

from divgraph import groups
from divgraph.cli import build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_divisions_q8_json(capsys):
    code, out, _ = invoke(capsys, "divisions", "--catalog", "quaternion8")
    assert code == 0
    data = json.loads(out)
    assert data["division_count"] == 5
    reps = [d["representative"] for d in data["divisions"]]
    assert reps == ["1", "-1", "i", "j", "k"]


def test_division_graph_cyclic4_dot(capsys):
    code, out, _ = invoke(capsys, "division-graph", "--catalog", "cyclic:4",
                          "--format", "dot")
    assert code == 0
    assert out.count("subgraph cluster_") == 3
    assert 'label="2"' in out


def test_division_graph_single_division(capsys):
    code, out, _ = invoke(capsys, "division-graph", "--catalog", "quaternion8",
                          "--division", "-1")
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 1
    assert data["components"][0]["division"]["representative_name"] == "-1"


def test_validate_bad_table_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad_table.json"
    # Latin square with identity but not associative
    bad.write_text(json.dumps({
        "name": "bad",
        "order": 5,
        "table": [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ],
    }))
    code, out, err = invoke(capsys, "validate", str(bad))
    assert code == 1
    assert "*" in err  # witnessing triple is named


def test_validate_good_input_file(tmp_path, capsys):
    good = tmp_path / "c3.json"
    good.write_text(json.dumps({
        "name": "c3",
        "order": 3,
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }))
    code, out, _ = invoke(capsys, "validate", str(good))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_generators_input(tmp_path, capsys):
    path = tmp_path / "z3z3.json"
    path.write_text(json.dumps({
        "name": "z3xz3",
        "degree": 6,
        "generators": [[2, 3, 1, 4, 5, 6], [1, 2, 3, 5, 6, 4]],
    }))
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["order"] == 9


def test_input_option_reads_the_group_file(tmp_path, capsys):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({
        "name": "c3",
        "order": 3,
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }))
    code, out, err = invoke(capsys, "divisions", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["group"] == "c3"
    assert invoke(capsys, "divisions", str(path)) == (0, out, "")


def test_subgroups_json_by_default(capsys):
    from divgraph.lattice import all_subgroups, lattice_to_json

    code, out, _ = invoke(capsys, "subgroups", "--catalog", "quaternion8")
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(
        lattice_to_json(all_subgroups(groups.quaternion8()))))


def test_division_graph_unknown_division_exits_1(capsys):
    code, out, err = invoke(capsys, "division-graph", "--catalog", "quaternion8",
                            "--division", "z")
    assert (code, out) == (1, "")
    assert err == "error: no division has representative named 'z'\n"


def test_subgroups_dot(capsys):
    code, out, _ = invoke(capsys, "subgroups", "--catalog", "quaternion8",
                          "--format", "dot")
    assert code == 0
    assert out.count("->") == 7


def test_order_cap_exits_2(capsys):
    code, _, err = invoke(capsys, "validate", "--catalog", "symmetric:4",
                          "--order-cap", "10")
    assert code == 2
    assert "cap" in err


def test_lattice_cap_exits_2(capsys):
    code, _, err = invoke(capsys, "subgroups", "--catalog", "cyclic:48",
                          "--lattice-cap", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("analyze", "--catalog", "cyclic:30"),
    ("compare", "cyclic:30", "cyclic:5"),
    ("verify-lagarias", "--catalog", "cyclic:30"),
    ("conjecture-scan", "--max-order", "12"),
], ids=lambda argv: argv[0])
def test_lattice_cap_honoured_by_every_command(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--lattice-cap", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("cap exceeded:") and err.count("\n") == 1


def one_line(err):
    return err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, code, message", [
    (("--n", "30"), 2, "cap exceeded: degree 30 exceeds cap 20\n"),
    (("--n", "7", "--cap", "6"), 2, "cap exceeded: degree 7 exceeds cap 6\n"),
    (("--n", "1"), 1, "error: need n >= 2, got 1\n"),
    (("--n", "-4"), 1, "error: need n >= 2, got -4\n"),
])
def test_an_divisions_bad_degree(capsys, argv, code, message):
    assert invoke(capsys, "an-divisions", *argv) == (code, "", message)


@pytest.mark.parametrize("descriptor, constructor", [
    ("cyclic:100000", "cyclic"),
    ("elementary_abelian:2:13", "elementary_abelian"),
    ("symmetric:2000", "symmetric"),
    ("product:cyclic:100:cyclic:100", "direct_product"),
])
def test_order_cap_exits_2_before_building(capsys, refuse_to_build, descriptor, constructor):
    refuse_to_build(constructor)
    code, out, err = invoke(capsys, "validate", "--catalog", descriptor)
    assert (code, out) == (2, "")
    assert err == f"cap exceeded: {descriptor} has order above the cap 5040\n"


def test_product_above_table_cap_exits_2_before_building(capsys, monkeypatch, refuse_to_build):
    """Products are built as validated Cayley tables, which would take
    minutes at order 5040; the product cap refuses them first."""
    refuse_to_build("direct_product")
    code, out, err = invoke(capsys, "validate", "--catalog", "product:symmetric:7:cyclic:1")
    assert (code, out) == (2, "")
    assert err == ("cap exceeded: product:symmetric:7:cyclic:1 has order above "
                   f"the cap {groups.TABLE_ORDER_CAP}\n")
    monkeypatch.undo()
    code, out, _ = invoke(capsys, "validate", "--catalog", "product:symmetric:5:cyclic:2")
    assert code == 0 and json.loads(out)["order"] == 240


def test_table_family_above_table_cap_exits_2_before_building(capsys, monkeypatch,
                                                              refuse_to_build):
    """cyclic, dihedral and elementary_abelian build validated Cayley tables
    too, so they share the product cap below --order-cap."""
    refuse_to_build("elementary_abelian")
    code, out, err = invoke(capsys, "validate", "--catalog", "elementary_abelian:2:11")
    assert (code, out) == (2, "")
    assert err == ("cap exceeded: elementary_abelian:2:11 has order above "
                   f"the cap {groups.TABLE_ORDER_CAP}\n")
    monkeypatch.undo()
    code, out, _ = invoke(capsys, "validate", "--catalog", "cyclic:1024")
    assert code == 0 and json.loads(out)["order"] == 1024


def test_conjecture_scan_max_order_above_order_cap_exits_2(capsys, monkeypatch):
    def refuse(max_order):
        raise AssertionError("the scan built its groups")

    monkeypatch.setattr(groups, "standard_groups", refuse)
    for argv in (("--max-order", "6000"), ("--max-order", "12", "--order-cap", "11")):
        code, out, err = invoke(capsys, "conjecture-scan", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("cap exceeded: max order") and one_line(err)


def test_conjecture_scan_above_the_table_cap_exits_2_before_building(capsys, built_orders):
    code, out, err = invoke(capsys, "conjecture-scan", "--max-order", "1030",
                            "--order-cap", "2000")
    assert (code, out, built_orders) == (2, "", [])
    assert err == ("cap exceeded: cyclic:1025 has order above "
                   f"the cap {groups.TABLE_ORDER_CAP}\n")


@pytest.mark.parametrize("descriptor", [
    "cyclic:0", "dihedral:0", "symmetric:0", "alternating:0",
    "elementary_abelian:2:0", "cyclic:-3", "product:cyclic:-3:cyclic:-400",
])
def test_non_positive_catalog_argument_exits_1(capsys, descriptor):
    code, out, err = invoke(capsys, "validate", "--catalog", descriptor)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be positive" in err and one_line(err)


#: Every subcommand's options; each is read by the command that takes it.
OPTIONS = {
    "validate": {"--catalog", "--input", "--order-cap", "--out"},
    "subgroups": {"--catalog", "--input", "--order-cap", "--lattice-cap",
                  "--out", "--format"},
    "divisions": {"--catalog", "--input", "--order-cap", "--out", "--format"},
    "division-graph": {"--catalog", "--input", "--order-cap", "--lattice-cap",
                       "--out", "--format", "--division"},
    "analyze": {"--catalog", "--input", "--order-cap", "--lattice-cap", "--out"},
    "compare": {"--order-cap", "--lattice-cap", "--budget", "--out"},
    "verify-lagarias": {"--catalog", "--input", "--order-cap", "--lattice-cap",
                        "--out"},
    "an-divisions": {"--n", "--cap", "--out"},
    "conjecture-scan": {"--max-order", "--order-cap", "--lattice-cap", "--out"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize("command", sorted(
    c for c, opts in OPTIONS.items() if "--order-cap" in opts))
def test_order_cap_acts_in_every_command(capsys, command):
    argv = {"compare": ("cyclic:3", "cyclic:2"),
            "conjecture-scan": ("--max-order", "3")}.get(command, ("cyclic:3",))
    code, out, err = invoke(capsys, command, *argv, "--order-cap", "2")
    assert (code, out) == (2, "")
    assert err.startswith("cap exceeded:") and one_line(err)


#: Every (command, flag) pair taking a cap or budget, with arguments the cap acts on.
CAPPED = [
    (command, flag) for command, opts in sorted(OPTIONS.items())
    for flag in ("--order-cap", "--lattice-cap", "--budget", "--cap") if flag in opts
]
CAPPED_ARGV = {"compare": ("cyclic:3", "cyclic:2"), "conjecture-scan": ("--max-order", "3"),
               "an-divisions": ("--n", "5")}


#: ... and the scan's order bound, which takes no negative value either.
NEGATIVE = CAPPED + [("conjecture-scan", "--max-order")]


@pytest.mark.parametrize("command, flag", NEGATIVE, ids=[" ".join(c) for c in NEGATIVE])
def test_negative_cap_is_invalid_input(capsys, command, flag):
    argv = CAPPED_ARGV.get(command, ("cyclic:3",))
    assert invoke(capsys, command, *argv, flag, "-1") == (
        1, "", f"error: argument {flag}: expected a non-negative integer, got '-1'\n")


@pytest.mark.parametrize("command, flag", CAPPED, ids=[" ".join(c) for c in CAPPED])
def test_zero_cap_is_exceeded(capsys, command, flag):
    argv = CAPPED_ARGV.get(command, ("cyclic:3",))
    code, out, err = invoke(capsys, command, *argv, flag, "0")
    assert (code, out) == (2, "")
    assert err.startswith("cap exceeded:") and one_line(err)


@pytest.mark.parametrize("argv", [
    ("validate", "cyclic:3", "--budget", "5"),
    ("divisions", "cyclic:3", "--lattice-cap", "5"),
    ("subgroups", "cyclic:3", "--budget", "5"),
    ("conjecture-scan", "--budget", "5"),
    ("an-divisions", "--n", "x"),
    ("an-divisions",),
    ("frobnicate",),
    (),
], ids=lambda argv: " ".join(argv) or "empty")
def test_usage_error_exits_1_with_one_line(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and one_line(err)


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_usage_error_leaves_the_next_command_working(capsys):
    """The one parser keeps no state from a parse that failed part way."""
    assert invoke(capsys, "compare", "cyclic:3")[0] == 1
    code, out, _ = invoke(capsys, "compare", "cyclic:3", "cyclic:3")
    assert code == 0 and json.loads(out)["result"] == "same"
    assert invoke(capsys, "an-divisions", "--n", "x")[0] == 1
    code, out, _ = invoke(capsys, "an-divisions", "--n", "5")
    assert code == 0 and json.loads(out)["n"] == 5


def test_unknown_descriptor_exits_1(capsys):
    code, _, err = invoke(capsys, "divisions", "--catalog", "nonsense:9")
    assert code == 1


def test_truncated_descriptor_exits_1(capsys):
    code, out, err = invoke(capsys, "validate", "product:cyclic:2")
    assert (code, out) == (1, "")
    assert err == "error: empty descriptor\n"


def test_missing_group_exits_1(capsys):
    code, _, err = invoke(capsys, "divisions")
    assert code == 1
    assert "no group" in err


def test_compare_same_vs_different(capsys):
    code, out, _ = invoke(capsys, "compare", "cyclic:4", "klein4")
    assert code == 0
    assert json.loads(out)["result"] == "different"
    code, out, _ = invoke(capsys, "compare", "symmetric:3", "dihedral:3")
    assert code == 0
    assert json.loads(out)["result"] == "same"


def test_verify_lagarias_cli(capsys):
    code, out, _ = invoke(capsys, "verify-lagarias", "--catalog", "symmetric:4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_an_divisions_cli(capsys):
    code, out, _ = invoke(capsys, "an-divisions", "--n", "10")
    assert code == 0
    data = json.loads(out)
    assert data["types"]["9+1"] == 2
    assert data["types"]["5+5"] == 1


def test_analyze_cli(capsys):
    code, out, _ = invoke(capsys, "analyze", "--catalog", "symmetric:3")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6


def test_conjecture_scan_cli_tiny(capsys):
    code, out, _ = invoke(capsys, "conjecture-scan", "--max-order", "6")
    assert code == 0
    data = json.loads(out)
    assert data["clean"] is True


def test_output_deterministic_across_runs(capsys, tmp_path):
    outputs = []
    for path in ("a.json", "b.json"):
        target = tmp_path / path
        code = run(["division-graph", "--catalog", "symmetric:3",
                    "--format", "dot", "--out", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
        capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_entry_point_subprocess():
    import os
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "divgraph.cli", "divisions", "--catalog", "cyclic:4"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["division_count"] == 3


def test_lagarias_violation_exits_3(capsys, monkeypatch):
    from divgraph import cli
    from divgraph.ust import LagariasReport

    fake = LagariasReport("fake", 4, 3, (("a", "b", "made-up violation"),))
    monkeypatch.setattr(cli.ust, "verify_lagarias", lambda G, L: fake)
    code = cli.run(["verify-lagarias", "--catalog", "cyclic:4"])
    captured = capsys.readouterr()
    assert code == 3
    assert "INVARIANT VIOLATION" in captured.err


def test_analyze_oracle_disagreement_exits_3(capsys, monkeypatch):
    from dataclasses import replace

    from divgraph import cli
    from divgraph.analysis import OracleCheck

    analyze = cli.analysis.analyze

    def disagreeing(G, L):
        report = analyze(G, L)
        return replace(report, oracle_checks={"order": OracleCheck(G.order + 1, G.order, False)})

    monkeypatch.setattr(cli.analysis, "analyze", disagreeing)
    code, out, err = invoke(capsys, "analyze", "--catalog", "cyclic:4")
    assert code == 3 and json.loads(out)["oracle_checks"]["order"]["agree"] is False
    assert err.startswith("INVARIANT VIOLATION: graph-derived values disagree") and one_line(err)


@pytest.mark.parametrize("data", [
    {"table": 5},
    {"table": [5, 6]},
    {"table": [[0, 1], [1, 0]], "names": 5},
    {"table": [[0, 1], [1, 0]], "names": [0, 1]},
    {"name": ["x"], "table": [[0, 1], [1, 0]]},
], ids=["table-int", "rows-int", "names-int", "names-not-strings", "name-list"])
def test_malformed_table_json_exits_1(tmp_path, capsys, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("raw, message", [
    (b"\xff\xfe", "can't decode byte 0xff"),
    (b'{"table": [[true, false], [false, true]]}', "holds True, not an index"),
    (b'{"degree": 2, "generators": [[2.9, 1]]}', "image lists of integers"),
    (b'{"degree": 2, "generators": [["2", "1"]]}', "image lists of integers"),
    (b'{"degree": true, "generators": []}', "bad degree True"),
    (b'{"table": [[0, 1], [1, 0]], "order": "2"}', "declared order '2'"),
    (b'{"table": [[0]], "order": true}', "declared order True"),
    (b'{"name": "g", "degree": 2, "generators": [[2, 1]], "order": 3}', "declared order 3"),
    (b'{"degree": 2, "generators": [[2, 1]], "order": "x"}', "declared order 'x'"),
    (b'{"degree": 2, "generators": [[2, 1]], "order": 2.9}', "declared order 2.9"),
    (b'{"degree": 2, "generators": [[2, 1]], "order": true}', "declared order True"),
    (b'[1, 2]', "group JSON must be an object"),
    (b'{"table": [[0, 1], [1]]}', "row 1 has length 1, expected 2"),
    (b'{"table": [[0, 1], [0, 1]]}', "column 0 repeats 0"),
    (b'{"table": [[0]], "names": ["a", "b"]}', "2 names for 1 elements"),
    (b'{"table": []}', "empty table"),
    (b"[" * 100000 + b"]" * 100000, "JSON input nested too deeply"),
], ids=["not-utf8", "bool-entries", "float-image", "string-images", "bool-degree",
        "string-order", "bool-order", "generators-wrong-order", "generators-string-order",
        "generators-float-order", "generators-bool-order", "not-an-object", "ragged-row", "column-repeat",
        "names-length", "empty-table", "deep-nesting"])
def test_json_input_takes_integers_only(tmp_path, capsys, raw, message):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_bad_generator_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad_gens.json"
    bad.write_text('{"name": "x", "degree": 3, "generators": [[1, 1, 2]]}')
    code, _, err = invoke(capsys, "validate", str(bad))
    assert code == 1


def test_huge_degree_without_generators_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"name": "x", "degree": 100000000, "generators": []}')
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the order cap" in err
    path.write_text('{"name": "x", "degree": 3, "generators": []}')
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["order"] == 1


def test_compare_budget_exhaustion_exits_2(capsys):
    code, _, err = invoke(capsys, "compare", "symmetric:4", "symmetric:4",
                          "--budget", "2")
    assert code == 2
    assert "cap" in err or "budget" in err or "exceeded" in err


def test_verify_lagarias_on_generator_file(tmp_path, capsys):
    path = tmp_path / "z3z3.json"
    path.write_text(json.dumps({
        "name": "z3xz3",
        "degree": 6,
        "generators": [[2, 3, 1, 4, 5, 6], [1, 2, 3, 5, 6, 4]],
    }))
    code, out, _ = invoke(capsys, "verify-lagarias", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["elements"] == 9
