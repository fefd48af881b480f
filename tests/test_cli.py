import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meqlab import LinkTable, TableProtocol, cli, load_protocol, save_protocol, table36, table_to_general
from meqlab.cli import run

from conftest import checkout_env, fresh_python, link


def test_verify_golden_line(tmp_path, capsys):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    code = run(["verify", "--ad", str(path)])
    assert code == 0
    assert capsys.readouterr().out == "ok, 216 vectors, C=log2 27 = 4.754888 bits\n"


def test_verify_counterexample_exit_code(tmp_path, capsys):
    t = table36()
    bc = list(link(t, 2, 3).symbols)
    bc[3] = 2
    broken = TableProtocol(3, 6, (link(t, 1, 2), link(t, 1, 3), LinkTable(2, 3, tuple(bc))))
    path = tmp_path / "broken.json"
    save_protocol(broken, path)
    code = run(["verify", "--ad", str(path)])
    assert code == 2
    out = capsys.readouterr().out
    assert out == "counterexample: input=(3, 4, 2) decisions=(0, 0, 0)\n"


def test_verify_budget_exit_code(tmp_path):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    assert run(["verify", "--ad", str(path), "--budget", "10"]) == 3


@pytest.mark.parametrize("mode", [[], ["--ad"]])
def test_detector_needs_cd(tmp_path, capsys, mode):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    assert run(["verify", *mode, str(path), "--detector", "7"]) == 1
    assert capsys.readouterr().err == "usage error: --detector applies only with --cd\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, budget):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    out = tmp_path / "wrapped.json"
    for argv in (["verify", str(path)], ["build", "cdwrap", str(path), "--out", str(out)]):
        assert run([*argv, "--budget", budget]) == 1
        assert capsys.readouterr().err == "usage error: --budget must be at least 1\n"
    assert not out.exists()
    assert run(["verify", str(path), "--budget", "216"]) == 0


@pytest.mark.parametrize("what", [["table36"], ["star", "--n", "4", "--M", "3"], ["bin2k", "--k", "2"]])
def test_budget_applies_only_to_cdwrap(tmp_path, capsys, what):
    # every other builder enumerates nothing, so a budget there would be ignored
    out = tmp_path / "b.json"
    assert run(["build", *what, "--budget", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: --budget applies only to build cdwrap\n"
    assert not out.exists()
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    assert run(["build", "cdwrap", str(path), "--budget", "215", "--out", str(out)]) == 3
    assert run(["build", "cdwrap", str(path), "--budget", "216", "--out", str(out)]) == 0


def test_verify_cd_flag(tmp_path, capsys):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    assert run(["verify", "--cd", str(path), "--detector", "3"]) == 2
    wrapped = tmp_path / "wrapped.json"
    assert run(["build", "cdwrap", str(path), "--out", str(wrapped)]) == 0
    capsys.readouterr()
    assert run(["verify", "--cd", str(wrapped), "--detector", "3"]) == 0
    assert "C=log2 54" in capsys.readouterr().out


def test_search_golden_line(capsys):
    assert run(["search", "--M", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "optimal product 27 via (3,3,3)"
    assert out[1] == "bits 4.754888"


def test_search_beyond_eight_values(capsys):
    assert run(["search", "--M", "9"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "optimal product 64 via (4,4,4)"


def test_search_writes_witness(tmp_path):
    path = tmp_path / "witness.json"
    assert run(["search", "--M", "4", "--out", str(path)]) == 0
    p = load_protocol(path)
    assert p.M == 4
    from meqlab import verify_ad

    assert verify_ad(p).ok


def test_figure_rows(capsys):
    assert run(["figure", "--kmax", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,C,upper"
    assert len(lines) == 61
    assert lines[40] == "40,78,80"
    assert lines[39] == "39,78,78"
    # sporadic early wins, exactly these below the crossover at k=40
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert {k for k, cost, upper in rows[:39] if cost < upper} == {20, 23, 25, 28, 31, 32, 33, 35, 36, 37, 38}


def test_figure_deterministic(capsys):
    run(["figure", "--kmax", "50"])
    first = capsys.readouterr().out
    run(["figure", "--kmax", "50"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_figure_rejects_kmax_below_one(capsys, kmax):
    assert run(["figure", "--kmax", kmax]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: kmax must be at least 1\n"


def test_build_cdwrap_needs_a_table_file(tmp_path, capsys):
    out = str(tmp_path / "cd.json")
    assert run(["build", "cdwrap", "--out", out]) == 1
    assert capsys.readouterr().err == "usage error: build cdwrap needs a base protocol file\n"
    general = tmp_path / "g.json"
    save_protocol(table_to_general(table36()), general)
    assert run(["build", "cdwrap", str(general), "--out", out]) == 1
    assert capsys.readouterr().err == "usage error: cdwrap expects a table-kind protocol file\n"
    assert not (tmp_path / "cd.json").exists()


def test_build_and_simulate(tmp_path, capsys):
    path = tmp_path / "star.json"
    assert run(["build", "star", "--n", "3", "--M", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(["simulate", str(path), "--x", "4,4,4"]) == 0
    out = capsys.readouterr().out
    assert "symbols: (4, 4)" in out
    assert "decisions: (0, 0, 0)" in out


def test_build_variants(tmp_path):
    for args, M in (
        (["build", "table36"], 6),
        (["build", "star"], 6),
        (["build", "ext6h"], 6),
        (["build", "bin2k"], 2),
        (["build", "ext6h", "--h", "2"], 36),
        (["build", "par6h", "--h", "2"], 36),
        (["build", "bin2k", "--k", "3"], 8),
    ):
        path = tmp_path / f"{args[1]}.json"
        assert run(args + ["--out", str(path)]) == 0
        assert load_protocol(path).M == M


def test_transform_flip_and_iid(tmp_path, capsys):
    src = tmp_path / "t36.json"
    save_protocol(table36(), src)
    flipped = tmp_path / "flipped.json"
    assert run(["transform", str(src), "--flip", "3", "--out", str(flipped)]) == 0
    capsys.readouterr()
    assert run(["verify", "--ad", str(flipped)]) == 0
    back = tmp_path / "back.json"
    assert run(["transform", str(flipped), "--iid", "--out", str(back)]) == 0
    assert load_protocol(back) == table36()


def test_usage_errors(tmp_path, capsys):
    assert run(["unknown"]) == 1
    assert run(["simulate", str(tmp_path / "missing.json"), "--x", "1,1,1"]) == 1
    src = tmp_path / "t36.json"
    save_protocol(table36(), src)
    assert run(["simulate", str(src), "--x", "nope"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "mystery"}), encoding="utf-8")
    assert run(["verify", "--ad", str(bad)]) == 1


def assert_clean_error(capsys, code):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_malformed_general_file(tmp_path, capsys):
    # right on inputs (1, 1) and (1, 2), but step 1 has no entry for input 2
    doc = {
        "kind": "general", "n": 2, "M": 2,
        "steps": [{"from": 1, "to": 2, "range": 1,
                   "table": [{"input": 1, "history": [], "out": 1}]}],
        "decisions": [{"node": 2, "table": [{"input": 1, "history": [1], "out": 0},
                                            {"input": 2, "history": [1], "out": 1}]}],
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_clean_error(capsys, run(["verify", "--ad", str(path)]))
    assert_clean_error(capsys, run(["transform", str(path), "--iid", "--out", str(tmp_path / "o.json")]))


def test_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 100_000
    steps = "[" * depth + "]" * depth
    path.write_text('{"kind": "general", "n": 2, "M": 2, "steps": ' + steps + "}", encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: protocol file nests deeper than the JSON decoder allows\n"
    assert "Traceback" not in err


def test_document_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"kind": "table"}]), encoding="utf-8")
    assert_clean_error(capsys, run(["verify", "--ad", str(path)]))


def test_fractional_symbol(tmp_path, capsys):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["links"][0]["symbols"][-1] = 3.5  # the largest symbol, so no density check rejects it
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_clean_error(capsys, run(["verify", "--ad", str(path)]))


def test_missing_field(tmp_path, capsys):
    path = tmp_path / "t36.json"
    save_protocol(table36(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["links"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    assert capsys.readouterr().err == "error: table document lacks field 'links'\n"


def test_missing_general_decision(tmp_path, capsys):
    # node 2 decides on input 1 but has no decision for input 2
    doc = {
        "kind": "general", "n": 2, "M": 2,
        "steps": [{"from": 1, "to": 2, "range": 2,
                   "table": [{"input": 1, "history": [], "out": 1},
                             {"input": 2, "history": [], "out": 2}]}],
        "decisions": [{"node": 2, "table": [{"input": 1, "history": [1], "out": 0},
                                            {"input": 1, "history": [2], "out": 1},
                                            {"input": 2, "history": [1], "out": 1}]}],
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for mode in ("--ad", "--cd"):
        assert run(["verify", mode, str(path)]) == 1
        assert capsys.readouterr().err == "error: node 2: no decision for (2, (2,))\n"


def test_par6h_rejects_h_below_one(tmp_path, capsys):
    for h in ("0", "-1"):
        assert run(["build", "par6h", "--h", h, "--out", str(tmp_path / "p.json")]) == 1
        assert capsys.readouterr().err == "error: h must be at least 1\n"
    assert not (tmp_path / "p.json").exists()


def test_repeated_decision_node(tmp_path, capsys):
    path = tmp_path / "g36.json"
    save_protocol(table_to_general(table36()), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["decisions"].append({"node": 3, "table": [dict(e, out=0) for e in doc["decisions"][2]["table"]]})
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    assert capsys.readouterr().err == "error: decision node 3 appears more than once\n"


def test_range_error_names_the_step(tmp_path, capsys):
    # step 3 of table36 realizes three symbols
    path = tmp_path / "g36.json"
    save_protocol(table_to_general(table36()), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["steps"][2]["range"] = 2
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    assert capsys.readouterr().err == "error: step 3: symbol 3 outside 1..2\n"


def _skip_symbol(doc):
    doc["links"][1]["symbols"][1] = 5


def _short_link(doc):
    doc["links"][2]["symbols"].pop()


def _link_endpoint(doc):
    doc["links"][2]["to"] = 4


def _step_endpoint(doc):
    doc["steps"][2]["to"] = 4


@pytest.mark.parametrize(
    "general, edit, message",
    [
        (False, _skip_symbol, "link 2: symbols [1, 2, 3, 5] are not a dense 1..5 range"),
        (False, _short_link, "table document: link 3 has 5 entries, expected 6"),
        (False, _link_endpoint, "table document: link 3 endpoint outside 1..3"),
        (True, _step_endpoint, "general document: step 3: node 4 outside 1..3"),
    ],
    ids=["skip_symbol", "short_link", "link_endpoint", "step_endpoint"],
)
def test_document_errors_name_the_link_or_step(tmp_path, capsys, general, edit, message):
    path = tmp_path / "p.json"
    save_protocol(table_to_general(table36()) if general else table36(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_budget_refusal_never_builds_the_space(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "table", "n": 20000, "M": 2, "links": []}), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 3
    assert capsys.readouterr().err == "budget exceeded: 2**20000 input vectors exceed budget 100000000\n"


def test_budget_bounds_n_at_one_value(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"kind": "table", "n": 10**7, "M": 1, "links": []}), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: 2**10000000 (n=10000000 nodes at M=1) exceed budget 100000000\n"
    )


_DIFFERENTIAL_ARGV = [
    ["build", "star", "--n", "4", "--M", "3", "--out", "s.json"],
    ["build", "table36"],
    ["build", "star", "--M", "six", "--out", "s.json"],
    ["build", "table36", "--bogus", "--out", "t.json"],
    ["build", "cdwrap", "t.json", "--ou", "c.json", "--bud", "7"],
    ["build", "-h"],
    ["simulate", "t.json", "--x", "1,2,1"],
    ["simulate", "t.json"],
    ["simulate", "t.json", "--x", "1", "--y"],
    ["simulate", "t.json", "u.json", "--x", "1"],
    ["simulate", "-h"],
    ["verify", "--cd", "t.json", "--detector", "2"],
    ["verify", "--ad"],
    ["verify", "--ad", "--cd", "t.json"],
    ["verify", "t.json", "--budget", "many"],
    ["verify", "t.json", "--budget", "0"],
    ["verify", "t.json", "--zz"],
    ["verify", "t.json", "--de", "2", "--c"],
    ["verify", "t.json", "build"],
    ["verify", "-h"],
    ["transform", "t.json", "--flip", "3", "--out", "f.json"],
    ["transform", "t.json", "--out", "f.json"],
    ["transform", "t.json", "--flip", "1", "--iid", "--out", "f.json"],
    ["transform", "t.json", "--flip", "x", "--out", "f.json"],
    ["transform", "t.json", "--ii", "--q", "--out", "f.json"],
    ["transform", "t.json", "--ii", "--o", "f.json"],
    ["transform", "-h"],
    ["search", "--M", "6"],
    ["search"],
    ["search", "--M", "six"],
    ["search", "--M", "6", "--zz"],
    ["search", "--M", "6", "--o", "w.json"],
    ["search", "-h"],
    ["figure", "--kmax", "3"],
    ["figure"],
    ["figure", "--kmax", "1.5"],
    ["figure", "--kmax", "3", "--zz"],
    ["figure", "--km", "3"],
    ["figure", "-h"],
]


def typed(args):
    """A namespace's values with their types, so that True and 1 differ."""
    return {name: (type(value), value) for name, value in vars(args).items()}


def outcome(argv, exact=True):
    """(exit code, typed namespace, stdout, stderr) of `run(argv)` with
    handlers that only record the namespace they are given. `exact=False`
    turns off the parse without argparse."""
    seen = []
    rows = {name: (*row[:3], lambda args: seen.append(typed(args)) or 0)
            for name, row in cli._SUBCOMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "_SUBCOMMANDS", rows))
        if not exact:
            stack.enter_context(mock.patch.object(cli, "_parse", lambda argv: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = run(list(argv))
        except SystemExit as exit:  # -h prints the help and exits
            code = ("exit", exit.code)
    return code, seen[0] if seen else None, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _DIFFERENTIAL_ARGV, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(argv):
    # the parse without argparse may not change a byte of what argparse gives
    assert outcome(argv) == outcome(argv, exact=False)


_OPTIONS_OF = {
    "build": ["--n", "--M", "--k", "--h", "--budget", "--out"],
    "simulate": ["--x"],
    "verify": ["--ad", "--cd", "--detector", "--budget"],
    "transform": ["--flip", "--iid", "--out"],
    "search": ["--M", "--out"],
    "figure": ["--kmax"],
}
_FLAGS = ["--ad", "--cd", "--iid"]
_OTHER_OPTION_WORDS = [
    "--o", "--ou", "--bud", "--de", "--c", "--a", "--km", "--ii", "--fl", "--b",  # abbreviated
    "--out=f.json", "--kmax=3", "--M=6", "--budget=216", "--x=1,2,1", "--flip=3",
    "--", "-h", "--help", "-", "--zz",
]
_INT_WORDS = ["1", "3", "6", "0", "216", " 5", "1_0"]
_VALUE_WORDS = [*_INT_WORDS, "-1", "-5", "six", "1.5", "1,2,1", "", "f.json"]
_BUILDERS = ["star", "table36", "ext6h", "par6h", "bin2k", "cdwrap"]
_POSITIONAL_WORDS = ["t.json", "u.json", *_BUILDERS, "build", "-3"]


def _joined(draw, command, pieces, positionals):
    """argv of `command`: the option pieces in the drawn order, with the
    positionals dropped in as one run or one by one."""
    pieces = list(pieces)
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), positionals)
    else:
        for word in positionals:
            pieces.insert(draw(st.integers(0, len(pieces))), [word])
    return [command, *(word for words in pieces for word in words)]


@st.composite
def plain_lines(draw):
    """A subcommand and only its own options, spelled in full, each at most
    once, and mostly the positionals it takes: many of these are well formed."""
    command = draw(st.sampled_from(list(_OPTIONS_OF)))
    value = st.one_of(st.sampled_from(_INT_WORDS), st.sampled_from(_VALUE_WORDS))
    pieces = [[option] if option in _FLAGS else [option, draw(value)]
              for option in draw(st.permutations(_OPTIONS_OF[command])) if draw(st.integers(0, 3))]
    if command == "build":
        positionals = [draw(st.sampled_from([*_BUILDERS, "t.json"]))] + (["t.json"] if draw(st.booleans()) else [])
    elif command in ("simulate", "verify", "transform"):
        positionals = ["t.json"] + ([] if draw(st.integers(0, 3)) else ["u.json"])
    else:
        positionals = [] if draw(st.integers(0, 3)) else ["t.json"]
    return _joined(draw, command, pieces, positionals)


@st.composite
def any_lines(draw):
    """A subcommand or not, then any options, with or without a value."""
    command = draw(st.sampled_from([*_OPTIONS_OF, "figuer", "-h", "--"]))
    words = st.sampled_from([option for options in _OPTIONS_OF.values() for option in options] + _OTHER_OPTION_WORDS)
    pieces = [[word, draw(st.sampled_from(_VALUE_WORDS))] if draw(st.booleans()) else [word]
              for word in draw(st.lists(words, max_size=5))]
    return _joined(draw, command, pieces, draw(st.lists(st.sampled_from(_POSITIONAL_WORDS), max_size=3)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(plain_lines(), any_lines()))
@example(["build", "cdwrap", "--out", "c.json", "t.json"])  # argparse: unrecognized arguments: t.json
@example(["build", "--out", "c.json", "cdwrap", "t.json"])
@example(["build", "t.json", "--out", "c.json"])  # argparse: invalid choice: 't.json'
@example(["build", "cdwrap", "t.json", "--out", "c.json", "--budget", "7"])
@example(["build", "table36", "--out", "t.json", "--budget", "-5"])
@example(["verify", "--ad", "t.json", "--ad"])
@example(["verify", "t.json", "--cd", "--detector", "2", "--budget", "216"])
@example(["transform", "t.json", "--out=f.json", "--iid"])
@example(["transform", "t.json", "--iid", "--out", "--flip"])
@example(["simulate", "--", "t.json", "--x", "1,2,1"])
@example(["search", "--M", "6", "--M", "7"])
@example(["figure", "--kmax", " 3"])
@example(["figure", "--kmax"])
def test_exact_parse_agrees_with_argparse(argv):
    exact = cli._parse(argv)
    if exact is not None:
        assert typed(exact) == typed(cli._build_parser().parse_args(argv))
    assert outcome(argv) == outcome(argv, exact=False)


@pytest.mark.parametrize("argv", [
    ["build", "cdwrap", "t.json", "--out", "c.json", "--budget", "7"],
    ["build", "--out", "c.json", "cdwrap", "t.json"],
    ["simulate", "t.json", "--x", "1,2,1"],
    ["verify", "--ad", "b.json"],
    ["verify", "t.json", "--cd", "--detector", "2"],
    ["transform", "t.json", "--flip", "3", "--out", "f.json"],
    ["search", "--M", "6", "--out", "w.json"],
    ["figure", "--kmax", "3"],
], ids=" ".join)
def test_exact_parse_takes_plain_command_lines(argv):
    assert cli._parse(argv) is not None


def parent_parser():
    """The parser as written before its arguments moved into one table,
    kept as the reference for the help texts."""
    parser = argparse.ArgumentParser(prog="meqlab", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build", help="write a stock protocol to a file", argument_default=argparse.SUPPRESS)
    build.add_argument("what", choices=["star", "table36", "ext6h", "par6h", "bin2k", "cdwrap"])
    build.add_argument("base", nargs="?", help="base protocol file (cdwrap only)")
    build.add_argument("--n", type=int)
    build.add_argument("--M", type=int)
    build.add_argument("--k", type=int)
    build.add_argument("--h", type=int)
    build.add_argument("--budget", type=int, help="enumeration budget (cdwrap only)")
    build.add_argument("--out", required=True)
    sim = sub.add_parser("simulate", help="replay a protocol on one input vector")
    sim.add_argument("file")
    sim.add_argument("--x", required=True, help="comma-separated inputs, e.g. 1,2,1")
    ver = sub.add_parser("verify", help="exhaustively check a protocol file")
    ver.add_argument("file")
    mode = ver.add_mutually_exclusive_group()
    mode.add_argument("--ad", action="store_true", help="anyone-detects contract (default)")
    mode.add_argument("--cd", action="store_true", help="centralized-detect contract")
    ver.add_argument("--detector", type=int, default=None)
    ver.add_argument("--budget", type=int, default=cli.DEFAULT_BUDGET)
    tra = sub.add_parser("transform", help="rewrite a protocol file")
    tra.add_argument("file")
    op = tra.add_mutually_exclusive_group(required=True)
    op.add_argument("--flip", type=int, metavar="L", help="reverse step L")
    op.add_argument("--iid", action="store_true", help="normalize to per-link tables")
    tra.add_argument("--out", required=True)
    sea = sub.add_parser("search", help="exact three-node optimum for alphabet size M")
    sea.add_argument("--M", type=int, required=True)
    sea.add_argument("--out", default=None, help="write the witness protocol here")
    fig = sub.add_parser("figure", help="CSV of binary-construction cost vs the 2k baseline")
    fig.add_argument("--kmax", type=int, required=True)
    return parser


@pytest.mark.parametrize("argv", [["-h"], *([name, "-h"] for name in cli._SUBCOMMANDS)], ids=" ".join)
def test_help_texts_are_unchanged(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit:
        run(argv)
    assert exit.value.code == 0
    text = capsys.readouterr().out
    with pytest.raises(SystemExit):
        parent_parser().parse_args(argv)
    assert text == capsys.readouterr().out
    assert text.startswith(f"usage: meqlab {argv[0] + ' ' if len(argv) > 1 else ''}[-h]")


def test_a_plain_line_builds_no_parser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert run(["figure", "--kmax", "1"]) == 0  # spelled in full: no parser at all
    assert built == []
    assert run(["figuer", "--kmax", "1"]) == 1
    assert built == ["build", "simulate", "verify", "transform", "search", "figure"]
    assert "invalid choice: 'figuer'" in capsys.readouterr().err
    # nor is argparse imported, nor gettext and locale, which its first parser build imports
    out = fresh_python(
        "import contextlib, io, sys\n"
        "started = set(sys.modules)\n"
        "import meqlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = meqlab.cli.run(['figure', '--kmax', '1'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - started)))\n"
    )
    assert out == "0 []\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("kmax, lines_read", [(200_000, 1), (1, 0)], ids=["while-printing", "at-exit"])
def test_closed_stdout_exits_141_in_silence(buffered, kmax, lines_read):
    # 200000 lines are far more than a pipe buffer holds, so printing them
    # after the reader has gone is certain to fail; the one line of kmax 1
    # reaches a pipe that had no reader from the start, and when buffered,
    # it fails only as main flushes stdout
    env = {name: value for name, value in checkout_env().items() if name != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    with open(read, "rb") as reader, open(write, "wb") as writer:
        if not lines_read:
            reader.close()
        with subprocess.Popen([sys.executable, "-m", "meqlab.cli", "figure", "--kmax", str(kmax)],
                              stdout=writer, stderr=subprocess.PIPE, env=env) as proc:
            writer.close()
            head = [reader.readline() for _ in range(lines_read)]
            reader.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
    assert head == [b"k,C,upper\n"][:lines_read]
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 128 + 13  # as a shell reports a process that SIGPIPE ended


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table36", "--n", "9"], "--n applies only to build star"),
        (["table36", "--M", "100"], "--M applies only to build star"),
        (["bin2k", "--M", "7"], "--M applies only to build star"),
        (["star", "--k", "2"], "--k applies only to build bin2k"),
        (["bin2k", "--h", "2"], "--h applies only to build ext6h or par6h"),
        (["table36", "nothere.json"], "base applies only to build cdwrap"),
        (["ext6h", "--n", "3"], "--n applies only to build star"),
    ],
)
def test_build_refuses_options_its_builder_never_reads(tmp_path, capsys, argv, message):
    out = tmp_path / "x.json"
    assert run(["build", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bin2k", "--k", "40"], "3 link tables of 2**40 entries"),
        (["star", "--M", "1000000000"], "2 link tables of 1000000000 entries"),
        (["ext6h", "--h", "12"], "3 link tables of 6**12 entries"),
        (["par6h", "--h", "12"], "3 link tables of 6**12 entries"),
        (["par6h", "--h", "1000000000000"], "3 link tables of 6**1000000000000 entries"),
    ],
    ids=["bin2k", "star", "ext6h", "par6h", "par6h_huge_h"],
)
def test_oversized_build_is_a_budget_refusal(tmp_path, capsys, argv, message):
    out = tmp_path / "x.json"
    assert run(["build", *argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"budget exceeded: {message} exceed budget 100000000\n"
    assert not out.exists()
