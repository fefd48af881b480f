"""The value classes: frozen, compared and hashed by their fields, printed as
dataclasses print, and rebuilt through their constructors by pickle and copy."""

import copy
import math
import pickle
from types import MappingProxyType

import pytest

from meqlab import (
    BipartiteRep,
    ColoringInstance,
    GeneralProtocol,
    LinkTable,
    Step,
    TableProtocol,
    TripleStats,
    Verdict,
    complexity,
    optimal_search,
    simulate,
    table36,
    verify_ad,
)

from conftest import rows


def step():
    return Step(1, 2, rows({(1, ()): 1, (2, ()): 2}), 2)


def general():
    return GeneralProtocol(2, 2, (step(),), {2: rows({(1, (1,)): 0, (2, (1,)): 1})})


def graph():
    return BipartiteRep(1, 2, ((1, 1), (1, 2)))


# (build an instance, build one that differs in a field, its repr, whether it hashes)
VALUES = {
    "Step": (
        step,
        lambda: Step(1, 2, rows({(1, ()): 1, (2, ()): 1}), 2),
        "Step(sender=1, receiver=2, table={(): {1: 1, 2: 2}}, range_size=2)",
        False,
    ),
    "GeneralProtocol": (
        general,
        lambda: GeneralProtocol(2, 2, (step(),)),
        "GeneralProtocol(n=2, M=2, steps=(Step(sender=1, receiver=2, table={(): {1: 1, 2: 2}}, "
        "range_size=2),), decisions={2: {(1,): {1: 0, 2: 1}}})",
        False,
    ),
    "LinkTable": (
        lambda: LinkTable(1, 2, (1, 2, 1)),
        lambda: LinkTable(1, 2, (1, 2, 1), 3),
        "LinkTable(sender=1, receiver=2, symbols=(1, 2, 1), range_size=2)",
        True,
    ),
    "TableProtocol": (
        lambda: TableProtocol(2, 3, (LinkTable(1, 2, (1, 2, 1)),)),
        lambda: TableProtocol(2, 3, (LinkTable(1, 2, (1, 2, 2)),)),
        "TableProtocol(n=2, M=3, links=(LinkTable(sender=1, receiver=2, symbols=(1, 2, 1), range_size=2),))",
        True,
    ),
    "Transcript": (
        lambda: simulate(table36(), (1, 2, 1)),
        lambda: simulate(table36(), (1, 1, 1)),
        "Transcript(symbols=(1, 1, 2), received=((), (1,), (1, 2)), decisions=(0, 0, 1))",
        True,
    ),
    "Verdict": (
        lambda: verify_ad(table36()),
        lambda: Verdict(True, None, 215, 18),
        "Verdict(ok=True, counterexample=None, vectors_checked=216, nodes=18)",
        True,
    ),
    "BipartiteRep": (
        graph,
        lambda: BipartiteRep(2, 1, ((1, 1), (2, 1))),
        "BipartiteRep(U_size=1, V_size=2, edges=((1, 1), (1, 2)))",
        True,
    ),
    "ColoringInstance": (
        lambda: ColoringInstance(graph(), (1, 2)),
        lambda: ColoringInstance(graph(), (2, 1)),
        "ColoringInstance(graph=BipartiteRep(U_size=1, V_size=2, edges=((1, 1), (1, 2))), colors=(1, 2))",
        True,
    ),
    "TripleStats": (
        lambda: TripleStats((1, 2, 2), 2, 0, 0, 1),
        lambda: TripleStats((1, 2, 2), 2, 0, 1, 1),
        "TripleStats(sizes=(1, 2, 2), nodes=2, degree_cuts=0, canonical_cuts=0, colorings=1)",
        True,
    ),
    "OptimalResult": (
        lambda: optimal_search(2),
        lambda: optimal_search(3),
        "OptimalResult(U_size=1, V_size=2, W_size=2, product=4, bits=2.0, witness=ColoringInstance("
        "graph=BipartiteRep(U_size=1, V_size=2, edges=((1, 1), (1, 2))), colors=(1, 2)), infeasible=(), "
        "stats=(TripleStats(sizes=(1, 2, 2), nodes=2, degree_cuts=0, canonical_cuts=0, colorings=1),))",
        True,
    ),
}

names = pytest.mark.parametrize("name", sorted(VALUES))


@names
def test_fields_refuse_assignment_and_deletion(name):
    value = VALUES[name][0]()
    assert type(value).__name__ == name
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@names
def test_equality_is_by_fields(name):
    make, other, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other()
    assert a != tuple(getattr(a, field) for field in type(a).__slots__)
    subclass = type("Subclass", (type(a),), {"__slots__": ()})
    twin = subclass(*a.__reduce__()[1])
    assert twin != a  # the same fields in another class
    assert repr(twin) == "Subclass" + repr(a).removeprefix(name)


@names
def test_hash_where_the_fields_hash(name):
    make, _, _, hashes = VALUES[name]
    if hashes:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(make())


@names
def test_repr_is_the_dataclass_text(name):
    make, _, text, _ = VALUES[name]
    assert repr(make()) == text


@names
def test_pickle_and_copies_come_back_equal(name):
    value = VALUES[name][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == repr(value)  # keeps the fields equality leaves out, such as Verdict.nodes


def test_tables_are_read_only_views_not_copies():
    row = {1: 1, 2: 2}
    st = Step(1, 2, {(): row}, 2)
    assert type(st.table) is MappingProxyType and type(st.table[()]) is MappingProxyType
    with pytest.raises(TypeError):
        st.table[1,] = {1: 1}
    with pytest.raises(TypeError):
        st.table[()][3] = 1
    row[3] = 1  # the row it was built from is wrapped, not copied
    assert st.table[()][3] == 1
    assert Step(1, 2, st.table, 2).table is st.table  # a view is not wrapped again

    p = general()
    assert type(p.decisions) is MappingProxyType and type(p.decisions[2]) is MappingProxyType
    assert type(p.decisions[2][1,]) is MappingProxyType
    with pytest.raises(TypeError):
        p.decisions[1] = {}
    with pytest.raises(TypeError):
        p.decisions[2][2,] = {1: 1}
    with pytest.raises(TypeError):
        p.decisions[2][1,][1] = 1
    assert GeneralProtocol(2, 2, p.steps, p.decisions).decisions[2] is p.decisions[2]
    assert type(pickle.loads(pickle.dumps(p)).decisions[2][1,]) is MappingProxyType


def test_complexity_is_a_named_tuple():
    c = complexity(table36())
    assert c == (27, math.log2(27)) and c.product == 27
    assert repr(c) == "Complexity(product=27, bits=4.754887502163468)"
    product, bits = c
    assert (product, bits) == tuple(c)
    assert not hasattr(c, "__dict__")
