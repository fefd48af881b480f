"""Equivalence-preserving rewrites.

Two facts drive everything here. First, reversing one transmission keeps a
protocol correct: the new sender transmits the symbol it *expected* to
receive (the one that would arrive if every input matched its own), and the
old sender flags a mismatch whenever that expectation disagrees with what it
would have sent. Everything else replays the original protocol with the
expectation in place of the reversed symbol. Second, on all-equal inputs
every expectation is met, so reversals leave all-equal transcripts alone;
fixing every link to its all-equal symbols therefore turns any protocol into
an acyclic per-link-table protocol without raising its cost, whichever steps
were reversed first.
"""

from .core import (
    GeneralProtocol,
    MalformedProtocolError,
    Protocol,
    TableProtocol,
    _run_general,
    dense_link,
    input_space,
    materialize,
    simulate,
)


def expected_symbol(p: Protocol, step_index: int, x: int) -> int:
    """Symbol sent at the given step when every node's input is x."""
    length = len(p.links) if isinstance(p, TableProtocol) else len(p.steps)
    if not 1 <= step_index <= length:
        raise ValueError(f"step index {step_index} outside 1..{length}")
    if not 1 <= x <= p.M:
        raise ValueError(f"input {x} outside 1..{p.M}")
    return simulate(p, (x,) * p.n).symbols[step_index - 1]


def flip_step(p: GeneralProtocol, step_index: int) -> GeneralProtocol:
    """Reverse the direction of one step, preserving correctness.

    The reversed step l now runs from the old receiver R to the old sender T
    and carries R's expected symbol for l. The new protocol behaves as a
    replay of p, on p's own schedule of histories, in which step l carries
    that expectation instead of T's symbol; T additionally decides 1 when
    the expectation differs from what T would have sent. All ranges are
    recomputed afterward.
    """
    if not 1 <= step_index <= len(p.steps):
        raise ValueError(f"step index {step_index} outside 1..{len(p.steps)}")
    l0 = step_index - 1
    t_node, r_node = p.steps[l0].sender, p.steps[l0].receiver
    expected = {x: expected_symbol(p, step_index, x) for x in range(1, p.M + 1)}

    schedule = [(st.sender, st.receiver) for st in p.steps]
    schedule[l0] = (r_node, t_node)

    # R's forced history can be unreachable in p, but only on inputs where
    # the expectation differs from what T would send. Those inputs are not
    # all equal and T already flags them, so any symbol, and decision 1,
    # keeps the protocol correct there.
    def semantics(values):
        forced = expected[values[r_node - 1]]
        flagged = False
        received = [[] for _ in range(p.n)]
        symbols = []
        for m, st in enumerate(p.steps):
            key = (values[st.sender - 1], tuple(received[st.sender - 1]))
            sym = st.table.get(key)
            if sym is None:
                if not flagged:
                    raise MalformedProtocolError(
                        f"step {m + 1} ({st.sender}->{st.receiver}): no entry for {key}"
                    )
                sym = min(st.table.values())
            if m == l0:
                flagged = sym != forced
                sym = forced
            symbols.append(sym)
            received[st.receiver - 1].append(sym)
        decisions = []
        for node in range(1, p.n + 1):
            table = p.decisions.get(node)
            if table is None:
                bit = 0
            else:
                key = (values[node - 1], tuple(received[node - 1]))
                bit = table.get(key)
                if bit is None:
                    if not flagged:
                        raise MalformedProtocolError(f"node {node}: no decision for {key}")
                    bit = 1
            decisions.append(1 if node == t_node and flagged else bit)
        return symbols, decisions

    return materialize(p.n, p.M, schedule, semantics)


def make_iid(p: GeneralProtocol) -> TableProtocol:
    """Normalize to expected-symbol-per-link form.

    Each step's symbol is fixed to its expected value for the sender's own
    input, which removes all history dependence. Every step is placed on its
    unordered link, oriented from the lower to the higher node id: reversing
    a step (`flip_step`) would leave its all-equal symbols as they are, up to
    an ascending renumbering that keeps their order. Multiple steps on one
    link merge into a single table whose symbols rank the tuples of their
    values. Receivers detect by comparing arrivals against their own
    expectations, which is exactly the TableProtocol semantics.

    Every input is replayed once first, so a protocol missing a reachable
    table or decision entry raises MalformedProtocolError.
    """
    for values in input_space(p.n, p.M):
        _run_general(p, values)
    runs = [simulate(p, (x,) * p.n).symbols for x in range(1, p.M + 1)]

    by_link: dict[tuple[int, int], list[int]] = {}
    for l, st in enumerate(p.steps):
        link = (min(st.sender, st.receiver), max(st.sender, st.receiver))
        by_link.setdefault(link, []).append(l)

    links = [
        dense_link(sender, receiver, [tuple(run[l] for l in steps) for run in runs])
        for (sender, receiver), steps in sorted(by_link.items())
    ]
    return TableProtocol(p.n, p.M, tuple(links))
