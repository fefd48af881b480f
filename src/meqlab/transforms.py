"""Equivalence-preserving rewrites.

Two facts drive everything here. First, reversing one transmission keeps a
protocol correct: the new sender transmits the symbol it *expected* to
receive (the one that would arrive if every input matched its own), and the
old sender flags a mismatch whenever that expectation disagrees with what it
would have sent. Every other rule is the original protocol's, read on a
history with the expectation in place of the reversed symbol. Second, on
all-equal inputs every expectation is met, so reversals leave all-equal
transcripts alone; fixing every link to its all-equal symbols therefore
turns any protocol into an acyclic per-link-table protocol without raising
its cost, whichever steps were reversed first.
"""

from .core import (
    GeneralProtocol,
    MalformedProtocolError,
    Protocol,
    TableProtocol,
    check_int,
    checked,
    dense_link,
    materialize,
    replay,
    rules,
    simulate,
)


def _step(p: Protocol, step_index: int) -> int:
    """The 0-based position of a 1-based step index, refused outside the schedule."""
    length = len(p.links) if isinstance(p, TableProtocol) else len(p.steps)
    if not 1 <= check_int(step_index, "step index") <= length:
        raise ValueError(f"step index {step_index} outside 1..{length}")
    return step_index - 1


def expected_symbol(p: Protocol, step_index: int, x: int) -> int:
    """Symbol sent at the given step when every node's input is x."""
    l = _step(p, step_index)
    return simulate(p, (x,) * p.n).symbols[l]


def flip_step(p: Protocol, step_index: int) -> GeneralProtocol:
    """Reverse the direction of one step, preserving correctness.

    The reversed step l now runs from the old receiver R to the old sender T
    and carries R's expected symbol for l. Every node follows `rules(p)` on
    its p-history: R's has that expectation inserted at l, and T's drops the
    symbol it now receives at l. T additionally decides 1 when the
    expectation differs from what T would have sent. All ranges are
    recomputed afterward. A table p is read through its rules, not expanded.

    A general p is first walked by `core.checked`, which raises
    MalformedProtocolError on a missing reachable entry. After that, a
    p-history the rules cannot look up arises only on inputs where T flags:
    those are not all equal, so the smallest symbol of the step, or
    decision 1, keeps the protocol correct there.
    """
    p = checked(p)
    l0 = _step(p, step_index)
    schedule, p_send, p_decide = rules(p)
    expected = {x: replay(schedule, p_send, lambda node: x)[0][l0] for x in range(1, p.M + 1)}
    t_node, r_node = schedule[l0]
    smallest = [min(min(row.values()) for row in st.table.values()) for st in p.steps] \
        if isinstance(p, GeneralProtocol) else None
    # where step l0 sits in T's and R's histories
    k_t = sum(r == t_node for _, r in schedule[:l0])
    k_r = sum(r == r_node for _, r in schedule[:l0])

    def p_history(node, x, h, l):
        if l > l0 and node == r_node:
            return h[:k_r] + (expected[x],) + h[k_r:]
        if l > l0 and node == t_node:
            return h[:k_t] + h[k_t + 1:]
        return h

    def send(l, x, h):
        if l == l0:
            return expected[x]
        try:
            return p_send(l, x, p_history(schedule[l][0], x, h, l))
        except MalformedProtocolError:
            return smallest[l]

    def decide(node, x, h):
        try:
            return int(node == t_node and p_send(l0, x, h[:k_t]) != h[k_t]
                       or p_decide(node, x, p_history(node, x, h, len(schedule))))
        except MalformedProtocolError:
            return 1

    schedule[l0] = (r_node, t_node)
    return materialize(p.n, p.M, schedule, send, decide)


def make_iid(p: Protocol) -> TableProtocol:
    """Normalize to expected-symbol-per-link form.

    Each step's symbol is fixed to its expected value for the sender's own
    input, which removes all history dependence. Every step is placed on its
    unordered link, oriented from the lower to the higher node id: reversing
    a step (`flip_step`) would leave its all-equal symbols as they are, up to
    an ascending renumbering that keeps their order. Multiple steps on one
    link merge into a single table whose symbols rank the tuples of their
    values. Receivers detect by comparing arrivals against their own
    expectations, which is exactly the TableProtocol semantics.

    A general p is first walked by `core.checked`, so one missing a
    reachable table or decision entry raises MalformedProtocolError; a
    table p is read as it is.
    """
    p = checked(p)
    schedule, send, _ = rules(p)
    # a protocol with no step has nothing to replay, however large M is
    runs = [replay(schedule, send, lambda node: x)[0] for x in range(1, p.M + 1)] if schedule else []

    by_link: dict[tuple[int, int], list[int]] = {}
    for l, step in enumerate(schedule):
        by_link.setdefault(tuple(sorted(step)), []).append(l)

    links = [
        dense_link(sender, receiver, [tuple(run[l] for l in steps) for run in runs])
        for (sender, receiver), steps in sorted(by_link.items())
    ]
    return TableProtocol(p.n, p.M, tuple(links))
