import itertools
import math
import sys

import pytest

from meqlab import (
    GeneralProtocol,
    LinkTable,
    MalformedProtocolError,
    Step,
    TableProtocol,
    complexity,
    make_iid,
    simulate,
    star_protocol,
    table36,
    table_to_general,
    verify_ad,
    verify_cd,
)
from meqlab.core import checked, materialize, rectangles, rules

from conftest import entries, eq_oracle, rows, tighten


def test_eq_oracle_basic():
    assert eq_oracle((1, 1, 1)) == 0
    assert eq_oracle((1, 2, 1)) == 1


def test_eq_oracle_enumeration_n3_m2():
    # independent count: exactly the two constant vectors map to 0
    zeros = [v for v in itertools.product((1, 2), repeat=3) if eq_oracle(v) == 0]
    assert zeros == [(1, 1, 1), (2, 2, 2)]


def test_simulate_table36_all_equal_six():
    tr = simulate(table36(), (6, 6, 6))
    assert tr.symbols == (3, 1, 3)
    assert tr.decisions == (0, 0, 0)


def test_simulate_table36_mismatch_only_third_node_detects():
    # node 2 sees symbol 1 and expects 1 for its own input 2, so it stays
    # silent; node 3 receives 2 on the last link but expects 1
    tr = simulate(table36(), (1, 2, 1))
    assert tr.decisions == (0, 0, 1)
    assert tr.received[1] == (1,)
    assert tr.received[2] == (1, 2)


def test_simulate_is_deterministic():
    a = simulate(table36(), (4, 2, 5))
    b = simulate(table36(), (4, 2, 5))
    assert a == b


def test_zero_step_protocol():
    empty = GeneralProtocol(3, 6, ())
    tr = simulate(empty, (1, 5, 3))
    assert tr.symbols == ()
    assert tr.decisions == (0, 0, 0)
    assert complexity(empty) == (1, 0.0)


def test_simulate_rejects_mismatched_vectors():
    with pytest.raises(ValueError):
        simulate(table36(), (1, 2))
    with pytest.raises(ValueError):
        simulate(table36(), (1, 2, 7))


@pytest.mark.parametrize("x", [2.5, True])
def test_simulate_inputs_must_be_integers(x):
    with pytest.raises(ValueError, match=f"^input must be an integer, got {x}$"):
        simulate(table36(), (1, x, 1))


def test_missing_step_entry_is_malformed():
    step = Step(1, 2, rows({(1, ()): 1}), 1)
    p = GeneralProtocol(2, 2, (step,))
    with pytest.raises(MalformedProtocolError):
        simulate(p, (2, 1))


def test_missing_decision_entry_is_malformed():
    step = Step(1, 2, rows({(1, ()): 1, (2, ()): 1}), 1)
    p = GeneralProtocol(2, 2, (step,), {2: rows({(1, (1,)): 0})})
    with pytest.raises(MalformedProtocolError):
        simulate(p, (1, 2))


def test_empty_decision_table_is_malformed():
    # an empty table is not an absent one: its node still has a decision to look up
    step = Step(1, 2, rows({(1, ()): 1, (2, ()): 1}), 1)
    p = GeneralProtocol(2, 2, (step,), {2: {}})
    for check in (checked, verify_ad, verify_cd, make_iid):
        with pytest.raises(MalformedProtocolError, match=r"^node 2: no decision for \(1, \(1,\)\)$"):
            check(p)


def test_complexity_values():
    assert complexity(table36()) == (27, math.log2(27))
    assert complexity(star_protocol(3, 64)) == (4096, 12.0)


def test_complexity_bits_match_product():
    for p in (table36(), star_protocol(4, 5), star_protocol(2, 2)):
        c = complexity(p)
        assert abs(c.bits - math.log2(c.product)) < 1e-12


def test_link_table_rejects_sparse_symbols():
    with pytest.raises(ValueError):
        LinkTable(1, 2, (1, 3))
    with pytest.raises(ValueError):
        LinkTable(1, 2, (2, 2))


def test_link_table_declared_range():
    lk = LinkTable(1, 2, (1, 1), range_size=2)
    assert lk.range_size == 2
    with pytest.raises(ValueError):
        LinkTable(1, 2, (1, 2), range_size=1)


def test_table_protocol_rejects_bad_links():
    with pytest.raises(ValueError):
        TableProtocol(3, 2, (LinkTable(2, 1, (1, 2)),))
    with pytest.raises(ValueError):
        TableProtocol(3, 2, (LinkTable(1, 2, (1, 2, 1)),))
    with pytest.raises(ValueError):
        TableProtocol(3, 2, (LinkTable(1, 3, (1, 2)), LinkTable(1, 2, (1, 2))))


def test_table_to_general_schedule_order():
    g = table_to_general(table36())
    assert [(st.sender, st.receiver) for st in g.steps] == [(1, 2), (1, 3), (2, 3)]
    assert [st.range_size for st in g.steps] == [3, 3, 3]


def test_table_to_general_single_link():
    t = TableProtocol(2, 2, (LinkTable(1, 2, (1, 2)),))
    g = table_to_general(t)
    assert len(g.steps) == 1
    assert simulate(g, (1, 2)).decisions == (0, 1)
    assert simulate(g, (2, 2)).decisions == (0, 0)


def test_table_to_general_round_trip_exhaustive():
    t = table36()
    g = table_to_general(t)
    for v in itertools.product(range(1, 7), repeat=3):
        a = simulate(t, v)
        b = simulate(g, v)
        assert a.symbols == b.symbols
        assert a.decisions == b.decisions


def test_tightness_recomputation():
    g = table_to_general(table36())
    padded = GeneralProtocol(
        g.n,
        g.M,
        tuple(Step(st.sender, st.receiver, st.table, st.range_size + 2) for st in g.steps),
        g.decisions,
    )
    assert complexity(padded).product == 5 * 5 * 5
    assert tuple(st.range_size for st in tighten(padded).steps) == (3, 3, 3)
    assert complexity(tighten(padded)).product == 27


def test_tighten_renumbers_sparse_symbols_in_histories():
    # step 1 sends 2, 4, 6 instead of 1, 2, 3; node 2's later table and
    # decisions are keyed by those sparse symbols
    g = table_to_general(table36())
    first, second, third = g.steps

    def doubled(key):
        return key[0], tuple(2 * s for s in key[1])

    sparse = GeneralProtocol(3, 6, (
        Step(1, 2, rows({key: 2 * s for key, s in entries(first.table).items()}), 6),
        second,
        Step(2, 3, rows({doubled(key): s for key, s in entries(third.table).items()}), 3),
    ), {**g.decisions, 2: rows({doubled(key): bit for key, bit in entries(g.decisions[2]).items()})})
    assert tighten(sparse) == g


def test_schedule_causality():
    # changing the last step cannot alter what earlier steps transmit
    g = table_to_general(table36())
    relabel = {1: 2, 2: 3, 3: 1}
    last = g.steps[2]
    twisted = GeneralProtocol(3, 6, (
        g.steps[0],
        g.steps[1],
        Step(last.sender, last.receiver, rows({k: relabel[s] for k, s in entries(last.table).items()}), 3),
    ))
    for v in itertools.product(range(1, 7), repeat=3):
        assert simulate(g, v).symbols[:2] == simulate(twisted, v).symbols[:2]


def test_single_value_alphabet():
    t = TableProtocol(3, 1, ())
    assert complexity(t) == (1, 0.0)
    assert simulate(t, (1, 1, 1)).decisions == (0, 0, 0)


def test_schedule_longer_than_recursion_limit():
    # nodes 1 and 2 trade their values back and forth; the rectangle walk
    # goes one level deeper per step
    steps = [(1, 2), (2, 1)] * sys.getrecursionlimit()

    def send(l, x, h):
        return x

    def decide(node, x, h):
        return int(any(sym != x for sym in h))

    p = materialize(2, 3, steps, send, decide)
    assert len(p.steps) == len(steps)
    assert verify_ad(p).ok and verify_cd(p, 1).ok
    assert tighten(p) == p


def test_rectangle_leaves_partition_the_inputs():
    g = table_to_general(table36())
    leaves = list(rectangles(g.n, g.M, *rules(g)[:2]))
    covered = []
    for sets, histories in leaves:
        for v in itertools.product(*sets):
            assert simulate(g, v).received == tuple(histories)
            covered.append(v)
    assert sorted(covered) == list(itertools.product(range(1, 7), repeat=3))


def test_materialize_rejects_override_below_realized():
    # step 1 of table36 realizes three symbols
    with pytest.raises(ValueError, match="^step 1: symbol 3 outside 1..2$"):
        materialize(3, 6, *rules(table36()), [2, 3, 3])


@pytest.mark.parametrize("ranges", [[], [3, 3], [3, 3, 3, 2]])
def test_materialize_takes_one_range_per_step(ranges):
    with pytest.raises(ValueError, match=f"^{len(ranges)} ranges for 3 steps$"):
        materialize(3, 6, *rules(table36()), ranges)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Step(1, 1, {}, 1), "sender and receiver must differ"),
        (lambda: Step(1, 2, {}, 0), "range_size must be positive"),
        (lambda: Step(1, 2, {1: {1: 1}}, 1), "table key (1, 1) is not (input, history)"),
        # a key's input and history symbols are integers, as a file writes them
        (lambda: Step(1, 2, rows({(True, ()): 1}), 1), "table key (True, ()) is not (input, history)"),
        (lambda: Step(1, 2, rows({(1.0, ()): 1}), 1), "table key (1.0, ()) is not (input, history)"),
        (lambda: Step(1, 2, rows({(1, (2, False)): 1}), 1), "table key (1, (2, False)) is not (input, history)"),
        (lambda: Step(1, 2, rows({(1, 2): 1}), 1), "table key (1, 2) is not (input, history)"),
        # the first refused entry is named, whichever check refuses it
        (lambda: Step(1, 2, rows({(1, ()): 3, (2.0, ()): 1}), 2), "symbol 3 outside 1..2"),
        (lambda: Step(1, 2, {(): {1: 1}, (1,): {}}, 1), "table row for history (1,) is not a non-empty dict"),
        (lambda: Step(1, 2, rows({(1, ()): 2}), 1), "symbol 2 outside 1..1"),
        (lambda: GeneralProtocol(2, 2, (Step(1, 3, {}, 1),)), "step 1: node 3 outside 1..2"),
        (lambda: GeneralProtocol(2, 2, (), {3: {}}), "decision node 3 outside 1..2"),
        (lambda: GeneralProtocol(2, 2, (), {2: rows({(1, ()): 2})}), "decision 2 for node 2 is not a bit"),
        (lambda: LinkTable(2, 2, (1,)), "sender and receiver must differ"),
        (lambda: LinkTable(1, 2, ()), "empty symbol table"),
        (lambda: TableProtocol(2, 1, (LinkTable(1, 3, (1,)),)), "link 1 endpoint outside 1..2"),
        # True == 1 and 1.0 == 1, but a file would hold true or 1.0, which no reader takes back
        (lambda: LinkTable(1, 2, (True, 2)), "symbol must be an integer, got True"),
        (lambda: LinkTable(1, 2, (1, 2.0)), "symbol must be an integer, got 2.0"),
        (lambda: LinkTable(True, 2, (1,)), "link endpoint must be an integer, got True"),
        (lambda: LinkTable(1, 2, (1,), 1.0), "range must be an integer, got 1.0"),
        (lambda: TableProtocol(3.0, 1, ()), "n must be an integer, got 3.0"),
        (lambda: Step(1, 2, rows({(1, ()): 1.0}), 1), "symbol must be an integer, got 1.0"),
        (lambda: Step(1, 2, rows({(1, ()): True}), 1), "symbol must be an integer, got True"),
        (lambda: Step(1, 2.0, {}, 1), "step endpoint must be an integer, got 2.0"),
        (lambda: Step(1, 2, {}, True), "range must be an integer, got True"),
        (lambda: GeneralProtocol(2, 2, (), {2: rows({(1, ()): True})}), "decision True for node 2 is not a bit"),
        (lambda: GeneralProtocol(2, 2, (), {2: rows({(1, ()): 0.0})}), "decision 0.0 for node 2 is not a bit"),
        (lambda: GeneralProtocol(2, 2, (), {True: {}}), "decision node must be an integer, got True"),
        (lambda: GeneralProtocol(2, True, ()), "M must be an integer, got True"),
        # a table or decisions argument that is no dict is named, not an AttributeError
        (lambda: Step(1, 2, [], 1), "table must be a dict, got list"),
        (lambda: Step(1, 2, ((), {1: 1}), 1), "table must be a dict, got tuple"),
        (lambda: GeneralProtocol(2, 2, (), []), "decisions must be a dict, got list"),
        (lambda: GeneralProtocol(2, 2, (), {2: [((), {1: 0})]}), "node 2 decision table must be a dict, got list"),
    ],
)
def test_constructor_rejects(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "decisions, message",
    [
        # a bare (input, history) key: `dumps` used to end in a TypeError on it
        ({2: {5: 0}}, "node 2 decision table row for history 5 is not a non-empty dict"),
        ({2: {(1,): {}}}, "node 2 decision table row for history (1,) is not a non-empty dict"),
        ({2: {(1,): [0, 1]}}, "node 2 decision table row for history (1,) is not a non-empty dict"),
        ({2: {1: {1: 0}}}, "node 2 decision table key (1, 1) is not (input, history)"),
        ({2: rows({(1, (1.0,)): 0})}, "node 2 decision table key (1, (1.0,)) is not (input, history)"),
        ({2: rows({(1, (True,)): 0})}, "node 2 decision table key (1, (True,)) is not (input, history)"),
        ({2: rows({(True, (1,)): 0})}, "node 2 decision table key (True, (1,)) is not (input, history)"),
        ({2: rows({("1", (1,)): 0})}, "node 2 decision table key ('1', (1,)) is not (input, history)"),
        # the first refused entry in row order is named, whichever check refuses it
        ({2: rows({(1, (1,)): 0, (2, (1,)): 2, (1, (2.0,)): 0})}, "decision 2 for node 2 is not a bit"),
        ({2: rows({(1, (1,)): 0, (1, (2.0,)): 2})}, "node 2 decision table key (1, (2.0,)) is not (input, history)"),
    ],
)
def test_decision_keys_are_checked(decisions, message):
    with pytest.raises(ValueError) as info:
        GeneralProtocol(2, 2, (), decisions)
    assert str(info.value) == message
