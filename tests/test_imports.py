"""What importing meqlab costs: a bare `import meqlab` loads no submodule, no
command loads dataclasses, inspect, typing or the search module `coloring`
it does not run, none loads argparse at import, and the package still
offers every public name, read from its home module on each access. Every
function the benchmark traces, and what it reads from the results, exists."""

import importlib.util
import json
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import meqlab
from meqlab import EnumerationBudgetError, SearchBudgetError, coloring, table36, verify
from meqlab.cli import run
from meqlab.verify import BudgetError

from conftest import fresh_python


def test_cli_import_leaves_out_dataclasses_typing_and_coloring():
    # the interpreter's own start-up modules differ between hosts (site), so
    # only the modules that the import adds to them are judged
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "started = set(sys.modules)\n"
        "import meqlab.cli\n"
        "added = sorted(set(sys.modules) - started)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = meqlab.cli.run(['search', '--M', '4'])\n"
        "print(json.dumps([added, code, 'meqlab.coloring' in sys.modules]))\n"
    )
    added, code, searched = json.loads(out)
    assert "meqlab.cli" in added and "meqlab.core" in added
    assert not {"dataclasses", "inspect", "typing", "meqlab.coloring", "argparse", "gettext", "locale"} & set(added)
    assert code == 0 and searched


def test_bare_import_loads_no_submodule_until_a_name_is_used():
    out = fresh_python(
        "import json, sys\n"
        "started = set(sys.modules)\n"
        "import meqlab\n"
        "added = sorted(set(sys.modules) - started)\n"
        "listed = sorted(dir(meqlab))\n"
        "modules = {name: getattr(meqlab, name).__name__ for name in meqlab._EXPORTS}\n"
        "print(json.dumps([added, listed, modules, meqlab.__all__]))\n"
    )
    added, listed, modules, public = json.loads(out)
    assert added == ["meqlab"]
    assert set(public) <= set(listed)
    assert modules == {name: f"meqlab.{name}" for name in meqlab._EXPORTS}


def test_every_public_name_is_declared_once_and_read_from_its_home_module():
    declared = Counter(name for names in meqlab._EXPORTS.values() for name in names)
    assert set(declared.values()) == {1}
    assert sorted(declared) == meqlab.__all__
    for module, names in meqlab._EXPORTS.items():
        home = import_module(f"meqlab.{module}")
        assert getattr(meqlab, module) is home
        for name in names:
            assert getattr(meqlab, name) is getattr(home, name), name


def test_a_name_rebound_in_its_home_module_is_what_the_package_serves(monkeypatch):
    original = meqlab.verify_ad

    def stand_in(p, budget=None):
        return None

    monkeypatch.setattr(verify, "verify_ad", stand_in)
    assert meqlab.verify_ad is stand_in
    monkeypatch.undo()
    assert meqlab.verify_ad is original


def test_every_budget_refusal_shares_one_base_outside_the_public_names():
    assert issubclass(EnumerationBudgetError, BudgetError)
    assert issubclass(SearchBudgetError, BudgetError)
    assert "BudgetError" not in meqlab.__all__


def test_every_public_name_resolves():
    for name in meqlab.__all__:
        assert getattr(meqlab, name) is not None, name
    assert meqlab.optimal_search is coloring.optimal_search
    assert set(meqlab.__all__) <= set(dir(meqlab))
    for gone in ("eq_oracle", "to_bipartite", "tighten", "not_a_name"):
        with pytest.raises(AttributeError, match=f"module 'meqlab' has no attribute '{gone}'"):
            getattr(meqlab, gone)
    out = fresh_python(
        "from meqlab import *\n"
        "from meqlab import SearchBudgetError as E\n"
        "print(optimal_search.__module__, E.__module__, len([n for n in dir() if not n.startswith('_')]))\n"
    )
    assert out.split() == ["meqlab.coloring", "meqlab.coloring", str(len(meqlab.__all__) + 1)]


def test_search_budget_error_exits_3_with_one_line(monkeypatch, capsys):
    def exhausted(M):
        raise SearchBudgetError(5, [(1, 2, 2), (1, 2, 3)])

    monkeypatch.setattr(coloring, "optimal_search", exhausted)
    assert run(["search", "--M", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: graph budget 5 exhausted in size triple (1, 2, 2); 2 size triples undecided\n"


def test_every_name_the_benchmark_calls_resolves(monkeypatch):
    # the benchmark records a missing function as a null metric and still
    # exits 0, so a rename would otherwise pass unnoticed
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.TRACED:
        assert callable(getattr(import_module(f"meqlab.{module}"), name, None)), f"meqlab.{module}.{name}"
    # what the benchmark's jobs and checks read from the results
    witness = meqlab.optimal_search(6, max_alphabet=9).witness
    assert witness.graph.edges and witness.colors
    assert meqlab.verify_ad(table36()).vectors_checked == 6**3
