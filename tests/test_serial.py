import json
import random

import pytest

from meqlab import (
    cd_wrapper,
    load_protocol,
    meq3_2k,
    protocol_from_doc,
    protocol_to_doc,
    save_protocol,
    star_protocol,
    table36,
    table_to_general,
    to_bipartite,
)
from meqlab.serial import bipartite_from_doc, bipartite_to_doc, dumps

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


MISSING = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("U",), MISSING, "bipartite document lacks field 'U'"),
        (("V",), MISSING, "bipartite document lacks field 'V'"),
        (("edges",), MISSING, "bipartite document lacks field 'edges'"),
        (("U",), "3", "U must be an integer"),
        (("V",), 3.0, "V must be an integer"),
        (("edges",), {"1": 1}, "edges must be a JSON list"),
        (("edges", 2), [1], r"edge \[1\] is not a pair of endpoints"),
        (("edges", 2), 5, "edge must be a JSON list"),
        (("edges", 0, 1), True, "edge endpoint must be an integer"),
        (("colors", 0), "1", "color must be an integer"),
        (("edges",), [[1, 1], [1, 1]], "inputs 1 and 2 collide on both outgoing links"),
    ],
)
def test_bipartite_document_rejected(path, value, message):
    doc = bipartite_to_doc(to_bipartite(table36()), (1, 2, 3, 1, 2, 3))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        bipartite_from_doc(doc)


def test_non_object_bipartite_document_rejected():
    with pytest.raises(ValueError, match="bipartite document must be a JSON object"):
        bipartite_from_doc([{"kind": "bipartite"}])


def test_bipartite_round_trip():
    g = to_bipartite(table36())
    doc = bipartite_to_doc(g, (1, 2, 3, 1, 2, 3))
    g2, inst = bipartite_from_doc(json.loads(json.dumps(doc)))
    assert g2 == g
    assert inst is not None and inst.colors == (1, 2, 3, 1, 2, 3)
    plain, none_inst = bipartite_from_doc(bipartite_to_doc(g))
    assert plain == g and none_inst is None


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
        (table_to_general(table36()), ("steps", 2, "table", 0, "out"), "step table entry lacks field 'out'"),
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
