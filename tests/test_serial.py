import copy
import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meqlab import (
    GeneralProtocol,
    LinkTable,
    Step,
    TableProtocol,
    cd_wrapper,
    extended_table,
    flip_step,
    load_protocol,
    meq3_2k,
    protocol_from_doc,
    save_protocol,
    serial,
    star_protocol,
    table36,
    table_to_general,
    verify_ad,
)
from meqlab.cli import run
from meqlab.core import materialize
from meqlab.serial import dumps

from conftest import dumps_oracle, protocol_to_doc, random_correct_protocol, rows, tighten
from test_rebuild_differential import random_rules
from test_verify_differential import dense


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
    doc = json.loads(dumps(protocol))
    assert protocol_from_doc(doc) == protocol


def test_round_trip_random_protocols():
    rng = random.Random(7)
    for _ in range(10):
        p = random_correct_protocol(rng, 4)
        assert protocol_from_doc(json.loads(dumps(p))) == p


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
        text = dumps(p)
        back = protocol_from_doc(json.loads(text))
        assert back == p
        assert dumps(back) == text
    assert tighten(tighten(g)) == tighten(g)


@st.composite
def framed_tables(draw):
    """Table protocols up to M=12, so symbols reach two digits, whose links
    leave the range tight, declare it equal to the realized maximum, or
    declare it above."""
    n = draw(st.integers(2, 4))
    M = draw(st.integers(1, 12))
    links = []
    for s in range(1, n + 1):
        for r in range(s + 1, n + 1):
            if not draw(st.booleans()):
                continue
            if draw(st.booleans()):
                symbols = tuple(draw(st.permutations(range(1, M + 1))))
            else:
                symbols = dense(draw(st.lists(st.integers(1, M), min_size=M, max_size=M)))
            top = max(symbols)
            declared = draw(st.one_of(st.just(0), st.just(top), st.integers(top + 1, 1000)))
            links.append(LinkTable(s, r, symbols, declared))
    return TableProtocol(n, M, tuple(links))


@settings(max_examples=100, deadline=None)
@given(framed_tables(), st.lists(st.integers(1, 16), max_size=3), st.integers(0, 2**32 - 1))
def test_dumps_matches_json_on_tables_and_rewrites(t, flips, seed):
    assert dumps(t) == dumps_oracle(t)
    g = table_to_general(t)
    assert dumps(g) == dumps_oracle(g)
    for index in flips if g.steps else ():
        g = flip_step(g, (index - 1) % len(g.steps) + 1)
        assert dumps(g) == dumps_oracle(g)
    correct = random_correct_protocol(random.Random(seed), t.M)
    for base in (t, correct) if verify_ad(t).ok else (correct,):
        wrapped = cd_wrapper(base)
        assert dumps(wrapped) == dumps_oracle(wrapped)


@settings(max_examples=100, deadline=None)
@given(random_rules())
def test_dumps_matches_json_on_history_dependent_rules(rules):
    p = materialize(*rules)
    assert dumps(p) == dumps_oracle(p)


@st.composite
def general_protocols(draw):
    """History-dependent rules rebuilt by `materialize`, or a random correct
    table expanded or wrapped."""
    if draw(st.booleans()):
        return materialize(*draw(random_rules()))
    t = random_correct_protocol(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 6)))
    return cd_wrapper(t) if draw(st.booleans()) else table_to_general(t)


@settings(max_examples=100, deadline=None)
@given(general_protocols(), st.lists(st.integers(1, 8), max_size=2), st.randoms(use_true_random=False))
def test_shuffled_entries_load_to_the_same_protocol(p, flips, rng):
    # a file's entries may come in any order: rows are grouped by history
    # whatever the order, and the writer sorts them back by (input, history)
    for index in flips if p.steps else ():
        p = flip_step(p, (index - 1) % len(p.steps) + 1)
    doc = json.loads(dumps(p))
    for part in doc["steps"] + doc["decisions"]:
        rng.shuffle(part["table"])
    back = protocol_from_doc(doc)
    assert back == p
    assert dumps(back) == dumps_oracle(back) == dumps(p)


ODD_VALUES = [True, False, 1.0, float("nan"), "1", None, [1]]
ODDITIES = ["note", "field", "repeat", "extra-key", "ignored-entry", "table", "missing-key"]


def add_oddity(doc, kind, value, rng):
    """Puts one oddity of `kind` in doc, where rng picks: `value` as a
    top-level "note", in a history, input or out, or as a table; a repeated
    entry; an entry with an extra key; a copy of an entry under a key the
    reader ignores; or a step or decision that lacks a key."""
    if kind == "note":
        doc["note"] = value
        return
    parts = [part for part in doc.get("steps", []) + doc.get("decisions", []) if part["table"]]
    if not parts:
        return
    part = rng.choice(parts)
    table = part["table"]
    entry = rng.choice(table)
    if kind == "field":
        name = rng.choice(["history", "input", "out"])
        if name == "history" and entry["history"]:
            entry["history"][rng.randrange(len(entry["history"]))] = value
        else:
            entry[name] = [value] if name == "history" else value
    elif kind == "repeat":
        table.insert(rng.randrange(len(table) + 1), copy.deepcopy(entry))
    elif kind == "extra-key":
        entry["extra"] = value
    elif kind == "ignored-entry":
        ignored = copy.deepcopy(entry)
        rng.choice([doc, part, entry])["note"] = rng.choice([ignored, [ignored]])
    elif kind == "table":
        part["table"] = rng.choice([value, copy.deepcopy(entry)])
    else:
        del part[rng.choice(sorted(part))]


def outcome(read):
    """The repr of the protocol read(), which shows the order of every
    table, or the type and message of the ValueError it raises."""
    try:
        return repr(read())
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(general_protocols(), framed_tables()),
    st.lists(st.integers(1, 8), max_size=2),
    st.booleans(),
    st.one_of(st.none(), st.sampled_from(ODDITIES)),
    st.sampled_from(ODD_VALUES),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_load_reads_as_the_reference_path(tmp_path, p, flips, shuffle, oddity, value, sort_keys, rng):
    # load_protocol groups entries while it parses; what it reads, and the
    # message of what it refuses, are those of protocol_from_doc(json.loads)
    for index in flips if isinstance(p, GeneralProtocol) and p.steps else ():
        p = flip_step(p, (index - 1) % len(p.steps) + 1)
    doc = json.loads(dumps(p))
    for part in doc.get("steps", []) + doc.get("decisions", []) if shuffle else ():
        rng.shuffle(part["table"])
    if oddity is not None:
        add_oddity(doc, oddity, value, rng)
    text = json.dumps(doc, indent=2, sort_keys=sort_keys)
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    expected = outcome(lambda: protocol_from_doc(json.loads(text)))
    assert outcome(lambda: load_protocol(path)) == expected
    if oddity is None:
        assert load_protocol(path) == p


def entry(x, h, out) -> dict:
    return {"input": x, "history": h, "out": out}


def sparse_doc() -> dict:
    """A two-node general document whose node-2 decision rows, (0,), (1,)
    and (2,), hold one input each: a history equal to another row's that
    is not the same list would join that row without a repeated entry."""
    return {
        "kind": "general", "n": 2, "M": 3,
        "steps": [{"from": 1, "to": 2, "range": 3, "table": [entry(x, [], x) for x in (1, 2, 3)]}],
        "decisions": [{"node": 2, "table": [entry(x, [x - 1], 0) for x in (1, 2, 3)]}],
    }


def set_history(index, history):
    def edit(decision):
        decision["table"][index]["history"] = history
    return edit


def note_after_table(decision):
    # a key the reader ignores, after the table: its entry is none of the table's
    decision["note"] = entry(1, [0], 1)


def note_and_non_entry(decision):
    # one entry under an ignored key, and one table element no entry: as many
    # entries are filed as the table has elements
    decision["note"] = decision["table"][2]
    decision["table"][2] = 5


@pytest.mark.parametrize(
    "edit",
    [
        None,
        set_history(2, [True]),
        set_history(1, [False]),
        set_history(2, [1.0]),
        set_history(2, [[1]]),
        set_history(2, ""),
        note_after_table,
        note_and_non_entry,
    ],
    ids=["valid", "true-history", "false-history", "float-history", "unhashable-history",
         "string-history", "note-after-table", "note-and-non-entry"],
)
def test_load_declines_what_would_group_other_rows(tmp_path, edit):
    doc = sparse_doc()
    if edit is not None:
        edit(doc["decisions"][0])
    text = json.dumps(doc)
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    expected = outcome(lambda: protocol_from_doc(json.loads(text)))
    assert outcome(lambda: load_protocol(path)) == expected
    assert isinstance(expected, str) == (edit in (None, note_after_table))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="truefals\" e", max_size=12))
def test_bool_scan_finds_the_words(text):
    assert serial._holds_bool(text) == ("true" in text or "false" in text)


def some_deciders(p, *nodes):
    """p with the decision tables of `nodes` only, in that order."""
    return GeneralProtocol(p.n, p.M, p.steps, {node: p.decisions[node] for node in nodes})


@pytest.mark.parametrize(
    "p",
    [
        GeneralProtocol(3, 2, ()),
        GeneralProtocol(3, 2, (), {2: rows({(1, ()): 0, (2, ()): 1})}),
        GeneralProtocol(2, 1, (Step(1, 2, rows({(1, ()): 1}), 1),), {2: {}}),
        GeneralProtocol(2, 2, (Step(1, 2, rows({(1, ()): 1, (2, ()): 2}), 2),)),
        some_deciders(table_to_general(table36()), 3, 2),
        TableProtocol(3, 2, ()),
    ],
    ids=["no-steps", "no-steps-one-decider", "empty-decision-table", "no-decisions", "some-deciders", "no-links"],
)
def test_dumps_matches_json_on_empty_parts(tmp_path, p):
    path = tmp_path / "p.json"
    save_protocol(p, path)
    assert path.read_text(encoding="utf-8") == dumps(p) == dumps_oracle(p)


def test_declared_range_survives():
    p = meq3_2k(1)
    doc = json.loads(dumps(p))
    assert doc["links"][0]["range"] == 4
    assert protocol_from_doc(doc).links[0].range_size == 4


def test_dump_is_deterministic():
    a = dumps(cd_wrapper(table36()))
    b = dumps(cd_wrapper(table36()))
    assert a == b


def test_file_round_trip(tmp_path):
    path = tmp_path / "p.json"
    save_protocol(table36(), path)
    assert load_protocol(path) == table36()
    text = path.read_text(encoding="utf-8")
    assert json.loads(text)["kind"] == "table"


def chunked_table(M: int) -> TableProtocol:
    """Three links of M symbols: one cycling through 1..7 under a declared
    range of 9, one injective, one constant."""
    return TableProtocol(3, M, (
        LinkTable(1, 2, tuple(x % 7 + 1 for x in range(M)), 9),
        LinkTable(1, 3, tuple(range(1, M + 1))),
        LinkTable(2, 3, (1,) * M),
    ))


@pytest.mark.parametrize(
    "p",
    [
        *(chunked_table(M) for M in (serial.CHUNK - 1, serial.CHUNK, serial.CHUNK + 1, 2 * serial.CHUNK + 1)),
        meq3_2k(3),
        cd_wrapper(star_protocol(4, 5)),
    ],
    ids=["chunk-minus-1", "chunk", "chunk-plus-1", "two-chunks-plus-1", "declared-ranges", "cd-star-4-5"],
)
def test_saved_file_equals_dumps_and_json(tmp_path, p):
    # the file is written a piece at a time, one input's entries or CHUNK
    # symbols, and dumps joins the same pieces
    path = tmp_path / "p.json"
    save_protocol(p, path)
    text = path.read_text(encoding="utf-8")
    assert text == dumps(p)
    assert text == json.dumps(protocol_to_doc(p), indent=2, sort_keys=True) + "\n"


def failing_piece(monkeypatch, path, name, error):
    """Makes the second call of the serial writer `name` raise `error` once
    it has written its piece, with the file open at `path`."""
    real = getattr(serial, name)
    calls = []

    def piece(write, *args):
        real(write, *args)
        calls.append(name)
        if len(calls) == 2:
            assert path.exists()
            raise error

    monkeypatch.setattr(serial, name, piece)
    return calls


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["oserror", "interrupt"])
@pytest.mark.parametrize(
    "p, name",
    [(table36(), "_link"), (cd_wrapper(table36()), "_table")],
    ids=["table", "general"],
)
def test_failed_save_leaves_no_file(tmp_path, monkeypatch, p, name, error):
    path = tmp_path / "p.json"
    path.write_text("an older file", encoding="utf-8")
    calls = failing_piece(monkeypatch, path, name, error)
    with pytest.raises(type(error)) as info:
        save_protocol(p, path)
    assert info.value is error
    assert calls == [name, name]
    assert not path.exists()


def test_failed_save_keeps_the_cli_exit_code(tmp_path, monkeypatch, capsys):
    # an OSError while writing exits 1 with one error line, as any other
    # OSError does; an interrupt still reaches the caller
    path = tmp_path / "t36.json"
    failing_piece(monkeypatch, path, "_link", OSError(28, "No space left on device"))
    assert run(["build", "table36", "--out", str(path)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not path.exists()
    monkeypatch.undo()
    failing_piece(monkeypatch, path, "_link", KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        run(["build", "table36", "--out", str(path)])
    assert not path.exists()


def traced_save(p, path) -> int:
    """The peak traced allocation of `save_protocol(p, path)`, in bytes."""
    tracemalloc.start()
    try:
        save_protocol(p, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build",
    [lambda: cd_wrapper(star_protocol(4, 12)), lambda: flip_step(table_to_general(extended_table(2)), 3)],
    ids=["cd-star-4-12", "flipped-ext6h-2"],
)
def test_general_save_holds_one_input_of_entries(tmp_path, build):
    # rows of at least 8 inputs: one input's entries are a small part of the file
    p = build()
    assert min(len(row) for t in [st.table for st in p.steps] + list(p.decisions.values()) for row in t.values()) >= 8
    path = tmp_path / "p.json"
    peak = traced_save(p, path)
    assert peak < path.stat().st_size / 2


def test_table_save_is_bounded_by_the_chunk(tmp_path):
    # a chunk of a two-symbol link costs the same at M = 2 CHUNK + 1 and
    # 16 CHUNK + 1, a small part of the larger file
    peaks = {}
    for M in (2 * serial.CHUNK + 1, 16 * serial.CHUNK + 1):
        p = TableProtocol(3, M, (LinkTable(1, 2, (1, 2) * (M // 2) + (1,)), LinkTable(1, 3, (1,) * M)))
        path = tmp_path / f"{M}.json"
        peaks[M] = traced_save(p, path)
        assert peaks[M] < 64 * serial.CHUNK
    small, large = peaks.values()
    assert large < small + serial.CHUNK
    assert large < path.stat().st_size / 8


@pytest.mark.parametrize(
    "build",
    [table36, lambda: cd_wrapper(extended_table(1)), lambda: cd_wrapper(star_protocol(4, 16))],
    ids=["table36", "cd-extended", "cd-star-4-16"],
)
def test_load_leaves_no_garbage_cycles(tmp_path, build):
    # nothing load_protocol decodes or builds forms a reference cycle, so
    # the collector has nothing to reclaim after it
    p = build()
    path = tmp_path / "p.json"
    save_protocol(p, path)
    gc.collect()
    loaded = load_protocol(path)
    assert gc.collect() == 0
    assert loaded == p
    del loaded
    assert gc.collect() == 0


def test_load_leaves_few_tracked_objects(tmp_path):
    # one row object per history, not one key tuple per entry: the first
    # collector pass after a load has few objects to walk
    path = tmp_path / "p.json"
    save_protocol(cd_wrapper(star_protocol(4, 16)), path)
    gc.collect()
    was = gc.isenabled()
    gc.disable()  # so no pass empties generation 0 before the count
    try:
        before = len(gc.get_objects(0))
        loaded = load_protocol(path)
        added = len(gc.get_objects(0)) - before
    finally:
        (gc.enable if was else gc.disable)()
    assert len(loaded.decisions[4]) == 16**3
    assert added < 10_000


def test_general_load_peaks_near_twice_the_file(tmp_path):
    # entries are grouped into rows as they are parsed, so what the load
    # holds at its peak is the file's bytes and text, not the parsed list
    path = tmp_path / "p.json"
    save_protocol(cd_wrapper(star_protocol(4, 12)), path)
    tracemalloc.start()
    try:
        load_protocol(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * path.stat().st_size


def write_good(path):
    save_protocol(table36(), path)


def write_malformed(path):
    path.write_text('{"kind": "table", "n": 3', encoding="utf-8")


def write_nested(path):
    steps = "[" * 100_000 + "]" * 100_000  # beyond the decoder's limit on every supported Python
    path.write_text('{"kind": "general", "n": 2, "M": 2, "steps": ' + steps + "}", encoding="utf-8")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "write, error, message",
    [
        (write_good, None, None),
        (write_malformed, ValueError, "^Expecting"),
        (None, OSError, "No such file"),
        (write_nested, ValueError, "^protocol file nests deeper than the JSON decoder allows$"),
    ],
    ids=["good", "malformed", "missing", "nested"],
)
def test_load_restores_the_collector(tmp_path, enabled, write, error, message):
    # load leaves the collector setting as it found it, on success or failure
    path = tmp_path / "p.json"
    if write is not None:
        write(path)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert load_protocol(path) == table36()
        else:
            with pytest.raises(error, match=message):
                load_protocol(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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
    doc = json.loads(dumps(table36()))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        protocol_from_doc(doc)


def test_non_integer_general_entries_rejected():
    doc = json.loads(dumps(table_to_general(table36())))
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
    doc = json.loads(dumps(protocol))
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(ValueError, match=message):
        protocol_from_doc(doc)


def test_repeated_decision_node_rejected():
    # a second node-3 decision that never flags would otherwise win silently
    doc = json.loads(dumps(table_to_general(table36())))
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
    doc = json.loads(dumps(table_to_general(table36())))
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


def repeat_then_fault(doc):
    # every entry is checked before a repeat is reported
    table = doc["decisions"][1]["table"]
    table.insert(1, dict(table[0]))
    table[6]["out"] = "1"


def repeats_abba(doc):
    # entries A, B, B, A: the key repeated first in list order, A, is named
    table = doc["decisions"][1]["table"]
    table[2:2] = [dict(table[1]), dict(table[0])]


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
        (repeat_then_fault,
         "node 2 decision table entry {'input': 2, 'history': [3], 'out': '1'} "
         "is not integer input, history and output"),
        (repeats_abba, "node 2 decision table has more than one entry for (input, history) (1, (1,))"),
    ],
    ids=["not-an-object", "string-history", "bool-input", "float-in-history",
         "missing-out", "repeated-key", "not-a-list", "first-of-two", "repeat-then-fault", "abba"],
)
def test_loader_errors_exit_one(tmp_path, capsys, edit, message):
    doc = protocol_to_doc(table_to_general(table36()))
    edit(doc)
    path = tmp_path / "g36.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify", "--ad", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
