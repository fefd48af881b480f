import math

import pytest

from meqlab import (
    EnumerationBudgetError,
    GeneralProtocol,
    LinkTable,
    MalformedProtocolError,
    Step,
    TableProtocol,
    Verdict,
    cd_wrapper,
    complexity,
    extended_table,
    fooling_lower_bound,
    make_iid,
    simulate,
    star_protocol,
    table36,
    table_to_general,
    trivial_upper_bound,
    verify_ad,
    verify_cd,
)
from meqlab.core import rectangles, rules

from conftest import entries, eq_oracle, link, rows


def mutate_third_link(value_at_4: int) -> TableProtocol:
    t = table36()
    bc = list(link(t, 2, 3).symbols)
    bc[3] = value_at_4
    return TableProtocol(3, 6, (link(t, 1, 2), link(t, 1, 3), LinkTable(2, 3, tuple(bc))))


def test_table36_solves_anyone_detects():
    verdict = verify_ad(table36())
    assert verdict.ok
    assert verdict.vectors_checked == 216


def test_star_solves_both_flavours():
    assert verify_ad(star_protocol(4, 3)).ok
    assert verify_cd(star_protocol(3, 6)).ok  # detector defaults to node n


def test_mutated_protocol_fails_with_reproducible_counterexample():
    broken = mutate_third_link(2)
    verdict = verify_ad(broken)
    assert not verdict.ok
    values, decisions = verdict.counterexample
    assert values == (3, 4, 2)  # lexicographically smallest violation
    assert simulate(broken, values).decisions == decisions
    assert not any(decisions) and eq_oracle(values) == 1


def test_counterexample_reports_its_rank():
    verdict = verify_ad(mutate_third_link(2))
    assert verdict.counterexample[0] == (3, 4, 2)
    # 1 + 2*36 + 3*6 + 1*1: the vectors up to and including (3, 4, 2)
    assert verdict.vectors_checked == 92


def test_centralized_check_fails_for_table36():
    verdict = verify_cd(table36(), detector=3)
    assert not verdict.ok
    values, decisions = verdict.counterexample
    assert values == (1, 3, 6)  # only the middle node notices this one
    assert decisions[2] == 0 and eq_oracle(values) == 1
    assert simulate(table36(), values).decisions == decisions


def test_wrapped_protocol_passes_centralized_check():
    assert verify_cd(cd_wrapper(table36()), detector=3).ok


def test_centralized_implies_anyone_detects_for_constructions():
    for p in (star_protocol(3, 6), cd_wrapper(table36())):
        assert verify_cd(p).ok
        assert verify_ad(p).ok


def test_detector_validation():
    with pytest.raises(ValueError):
        verify_cd(table36(), detector=4)


@pytest.mark.parametrize("detector", [2.5, True])
def test_detector_must_be_an_integer(detector):
    # 2.5 lies in 1..3 but names no node, so no decision would be checked
    with pytest.raises(ValueError, match=f"^detector must be an integer, got {detector}$"):
        verify_cd(cd_wrapper(table36()), detector)


@pytest.mark.parametrize("check", [verify_ad, verify_cd])
def test_budget_must_be_an_integer(check):
    with pytest.raises(ValueError, match="^budget must be an integer, got 1.5$"):
        check(table36(), budget=1.5)


def test_star_join_is_pruned():
    # forward checking leaves each sender one value per collector input, so
    # 100**4 vectors are decided in at most 4*100 partial assignments
    verdict = verify_ad(star_protocol(4, 100))
    assert verdict.ok and verdict.vectors_checked == 10**8
    assert 0 < verdict.nodes <= 4 * 100


def test_nodes_count_work_but_not_equality():
    g = table_to_general(table36())
    assert verify_ad(g).nodes == len(list(rectangles(g.n, g.M, *rules(g)[:2])))
    assert verify_ad(g) == Verdict(True, None, 216)
    assert Verdict(True, None, 216, nodes=1) == Verdict(True, None, 216, nodes=2)
    assert hash(Verdict(True, None, 216, nodes=1)) == hash(Verdict(True, None, 216, nodes=2))


def test_budget_refusal():
    with pytest.raises(EnumerationBudgetError) as info:
        verify_ad(star_protocol(3, 100), budget=10**5)
    assert (info.value.n, info.value.M) == (3, 100)
    assert info.value.budget == 10**5


def test_fooling_lower_bound_values():
    assert fooling_lower_bound(3, 4) == 3.0
    for k in range(1, 9):
        assert fooling_lower_bound(2, 2**k) == pytest.approx(k)
    assert fooling_lower_bound(3, 6) == pytest.approx(1.5 * math.log2(6))


def test_trivial_upper_bound_values():
    for k in range(1, 9):
        assert trivial_upper_bound(3, 2**k) == pytest.approx(2 * k)
    assert trivial_upper_bound(2, 1) == 0.0
    assert trivial_upper_bound(5, 8) == pytest.approx(12.0)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        fooling_lower_bound(1, 4)
    with pytest.raises(ValueError):
        trivial_upper_bound(3, 0)


def test_sandwich_on_passing_protocols():
    for p in (table36(), star_protocol(3, 6), extended_table(2), star_protocol(4, 3)):
        assert verify_ad(p).ok
        assert fooling_lower_bound(p.n, p.M) <= complexity(p).bits + 1e-12


def test_star_achieves_trivial_bound_exactly():
    for n, M in ((2, 2), (3, 6), (4, 5), (3, 36)):
        assert complexity(star_protocol(n, M)).bits == pytest.approx(
            trivial_upper_bound(n, M), abs=1e-12
        )


def test_single_value_alphabet_verifies():
    assert verify_ad(TableProtocol(3, 1, ())).ok
    assert verify_cd(star_protocol(3, 1)).ok
    # the budget counts 2**n at M=1: 2**26 passes 10**8 and 2**27 does not
    assert verify_ad(TableProtocol(26, 1, ())) == Verdict(True, None, 1)
    with pytest.raises(EnumerationBudgetError):
        verify_ad(TableProtocol(27, 1, ()))


def without_step_entry(p, index, key):
    steps = list(p.steps)
    st = steps[index - 1]
    steps[index - 1] = Step(st.sender, st.receiver, rows({k: s for k, s in entries(st.table).items() if k != key}),
                            st.range_size)
    return GeneralProtocol(p.n, p.M, tuple(steps), p.decisions)


def without_decision_entry(p, node, key):
    table = rows({k: bit for k, bit in entries(p.decisions[node]).items() if k != key})
    return GeneralProtocol(p.n, p.M, p.steps, {**p.decisions, node: table})


@pytest.mark.parametrize("check", [verify_ad, verify_cd, lambda p: verify_cd(p, 1), make_iid])
def test_missing_general_entries_raise(check):
    g = table_to_general(table36())
    with pytest.raises(MalformedProtocolError) as info:
        check(without_step_entry(g, 3, (5, (3,))))
    assert str(info.value) == "step 3 (2->3): no entry for (5, (3,))"
    # node 2's decision table: an unchecked node for a detector other than 2.
    # Both gaps lie in every leaf that holds either, and the first input
    # read, in ascending order, is named.
    with pytest.raises(MalformedProtocolError) as info:
        check(without_decision_entry(without_decision_entry(g, 2, (6, (3,))), 2, (3, (3,))))
    assert str(info.value) == "node 2: no decision for (3, (3,))"


def test_missing_entry_raises_despite_smaller_counterexample():
    # (3, 4, 2) violates the contract, and the later input (4, 1, 6) reaches
    # the missing decision of node 3: every reachable entry is read first
    g = table_to_general(mutate_third_link(2))
    assert verify_ad(g).counterexample[0] == (3, 4, 2)
    with pytest.raises(MalformedProtocolError, match="node 3"):
        verify_ad(without_decision_entry(g, 3, (6, (3, 1))))
