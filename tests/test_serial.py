import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab import (
    cd_wrapper,
    flip_step,
    load_protocol,
    meq3_2k,
    protocol_from_doc,
    protocol_to_doc,
    save_protocol,
    star_protocol,
    table36,
    table_to_general,
    tighten,
)
from meqlab.cli import run
from meqlab.serial import dumps

from conftest import random_correct_protocol


@pytest.mark.parametrize(
    "protocol",
    [
        table36(),
        star_protocol(4, 3),
        meq3_2k(3),
        table_to_general(table36()),
        cd_wrapper(table36()),
    ],
    ids=["table36", "star", "binary-framed", "general", "wrapped"],
)
def test_round_trip_identity(protocol):
    doc = json.loads(json.dumps(protocol_to_doc(protocol)))
    assert protocol_from_doc(doc) == protocol


def test_round_trip_random_protocols():
    rng = random.Random(7)
    for _ in range(10):
        p = random_correct_protocol(rng, 4)
        assert protocol_from_doc(protocol_to_doc(p)) == p


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.booleans(),
    st.lists(st.integers(1, 4), max_size=2),
)
def test_round_trip_and_tighten_on_random_protocols(seed, M, wrap, flips):
    t = random_correct_protocol(random.Random(seed), M)
    g = cd_wrapper(t) if wrap else table_to_general(t)
    for index in flips:
        g = flip_step(g, (index - 1) % len(g.steps) + 1)
    for p in (t, g):
        text = dumps(protocol_to_doc(p))
        back = protocol_from_doc(json.loads(text))
        assert back == p
        assert dumps(protocol_to_doc(back)) == text
    assert tighten(tighten(g)) == tighten(g)


def test_declared_range_survives():
    p = meq3_2k(1)
    doc = protocol_to_doc(p)
    assert doc["links"][0]["range"] == 4
    assert protocol_from_doc(doc).links[0].range_size == 4


def test_dump_is_deterministic():
    a = dumps(protocol_to_doc(cd_wrapper(table36())))
    b = dumps(protocol_to_doc(cd_wrapper(table36())))
    assert a == b


def test_file_round_trip(tmp_path):
    path = tmp_path / "p.json"
    save_protocol(table36(), path)
    assert load_protocol(path) == table36()
    text = path.read_text(encoding="utf-8")
    assert json.loads(text)["kind"] == "table"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        protocol_from_doc({"kind": "mystery"})


@pytest.mark.parametrize(
    "path, value",
    [
        (("n",), 3.0),
        (("M",), "6"),
        (("links", 0, "from"), True),
        (("links", 1, "to"), None),
        (("links", 0, "symbols", 5), 3.5),
        (("links",), {"from": 1}),
        (("links", 0), [1, 2]),
    ],
)
def test_non_integer_fields_rejected(path, value):
    doc = protocol_to_doc(table36())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        protocol_from_doc(doc)


def test_non_integer_general_entries_rejected():
    doc = protocol_to_doc(table_to_general(table36()))
    doc["steps"][0]["table"][0]["history"] = ["1"]
    with pytest.raises(ValueError):
        protocol_from_doc(doc)
    with pytest.raises(ValueError):
        protocol_from_doc([doc])


@pytest.mark.parametrize(
    "protocol, path, message",
    [
        (table36(), ("links",), "table document lacks field 'links'"),
        (table36(), ("M",), "table document lacks field 'M'"),
        (table36(), ("links", 1, "symbols"), "link lacks field 'symbols'"),
        (table_to_general(table36()), ("steps", 0, "range"), "step lacks field 'range'"),
        (table_to_general(table36()), ("decisions", 0, "node"), "decision lacks field 'node'"),
        (table_to_general(table36()), ("steps", 2, "table", 0, "out"), "step 3 table entry lacks field 'out'"),
    ],
)
def test_missing_field_named(protocol, path, message):
    doc = protocol_to_doc(protocol)
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(ValueError, match=message):
        protocol_from_doc(doc)


def test_repeated_decision_node_rejected():
    # a second node-3 decision that never flags would otherwise win silently
    doc = protocol_to_doc(table_to_general(table36()))
    silent = {"node": 3, "table": [dict(e, out=0) for e in doc["decisions"][2]["table"]]}
    doc["decisions"].append(silent)
    with pytest.raises(ValueError, match="decision node 3 appears more than once"):
        protocol_from_doc(doc)


@pytest.mark.parametrize(
    "part, index, out, message",
    [
        ("steps", 0, 3, r"step 1 table has more than one entry for \(input, history\) \(1, \(\)\)"),
        ("steps", 2, 2, r"step 3 table has more than one entry for \(input, history\) \(1, \(1,\)\)"),
        ("decisions", 2, 1, r"node 3 decision table has more than one entry for \(input, history\) \(1, \(1, 1\)\)"),
    ],
)
def test_repeated_table_entry_rejected(part, index, out, message):
    doc = protocol_to_doc(table_to_general(table36()))
    table = doc[part][index]["table"]
    # the copy sits last, so it is the one a plain load would keep
    table.append(dict(table[0], out=out))
    with pytest.raises(ValueError, match=message):
        protocol_from_doc(doc)


def set_entry(part, index, entry, value):
    def edit(doc):
        doc[part][index]["table"][entry] = value
    return edit


def set_field(part, index, entry, name, value):
    def edit(doc):
        doc[part][index]["table"][entry][name] = value
    return edit


def delete_field(part, index, entry, name):
    def edit(doc):
        del doc[part][index]["table"][entry][name]
    return edit


def repeat_entry(part, index, entry):
    def edit(doc):
        table = doc[part][index]["table"]
        table.append(dict(table[entry]))
    return edit


def set_table(part, index, value):
    def edit(doc):
        doc[part][index]["table"] = value
    return edit


def two_faults(doc):
    # the earlier of two bad entries is the one named
    table = doc["decisions"][2]["table"]
    del table[4]["out"]
    table[7]["input"] = True


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_entry("steps", 1, 3, [4, [], 3]),
         "step 2 table entry [4, [], 3] is not integer input, history and output"),
        (set_field("steps", 2, 5, "history", "2"),
         "step 3 table entry {'input': 2, 'history': '2', 'out': 2} "
         "is not integer input, history and output"),
        (set_field("steps", 0, 0, "input", True),
         "step 1 table entry {'input': True, 'history': [], 'out': 1} "
         "is not integer input, history and output"),
        (set_field("decisions", 2, 1, "history", [1, 2.0]),
         "node 3 decision table entry {'input': 1, 'history': [1, 2.0], 'out': 1} "
         "is not integer input, history and output"),
        (delete_field("steps", 2, 4, "out"), "step 3 table entry lacks field 'out'"),
        (repeat_entry("decisions", 1, 5),
         "node 2 decision table has more than one entry for (input, history) (2, (3,))"),
        (set_table("steps", 0, {"input": 1, "history": [], "out": 1}),
         "step 1 table must be a JSON list, got dict"),
        (two_faults, "node 3 decision table entry lacks field 'out'"),
    ],
    ids=["not-an-object", "string-history", "bool-input", "float-in-history",
         "missing-out", "repeated-key", "not-a-list", "first-of-two"],
)
def test_loader_errors_exit_one(tmp_path, capsys, edit, message):
    doc = protocol_to_doc(table_to_general(table36()))
    edit(doc)
    path = tmp_path / "g36.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
