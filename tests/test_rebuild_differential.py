"""The rectangle-walk rebuild engine against a per-input replay oracle.

`materialize_oracle` replays every input vector through whole-vector
semantics; `table_to_general`, `tighten`, `flip_step`, `cd_wrapper` and
`materialize` itself on arbitrary node-local rules must build exactly the
protocols it builds.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab import (
    LinkTable,
    MalformedProtocolError,
    TableProtocol,
    cd_wrapper,
    expected_symbol,
    flip_step,
    meq3_2k,
    simulate,
    table_to_general,
)
from meqlab.core import materialize, rules

from conftest import entries, materialize_oracle, random_correct_protocol, tighten
from test_transforms import relay_protocol
from test_verify_differential import table_protocols


def oracle_table_to_general(t):
    def semantics(values):
        transcript = simulate(t, values)
        return transcript.symbols, transcript.decisions

    return materialize_oracle(t.n, t.M, [(lk.sender, lk.receiver) for lk in t.links], semantics,
                              [lk.range_size for lk in t.links])


def oracle_tighten(p):
    def semantics(values):
        transcript = simulate(p, values)
        return transcript.symbols, transcript.decisions

    return materialize_oracle(p.n, p.M, [(st.sender, st.receiver) for st in p.steps], semantics)


def oracle_flip(p, step_index):
    """Step reversal as a replay of p on every input with the reversed step
    carrying R's expected symbol; T flags a disagreement, and on flagged
    inputs a missing entry sends the step's smallest symbol or decides 1."""
    l0 = step_index - 1
    t_node, r_node = p.steps[l0].sender, p.steps[l0].receiver
    expected = {x: expected_symbol(p, step_index, x) for x in range(1, p.M + 1)}
    schedule = [(st.sender, st.receiver) for st in p.steps]
    schedule[l0] = (r_node, t_node)
    tables = [entries(st.table) for st in p.steps]
    decision_tables = {node: entries(table) for node, table in p.decisions.items()}

    def semantics(values):
        flagged = False
        received = [[] for _ in range(p.n)]
        symbols = []
        for m, st in enumerate(p.steps):
            sym = tables[m].get((values[st.sender - 1], tuple(received[st.sender - 1])))
            if sym is None:
                if not flagged:
                    raise MalformedProtocolError(f"step {m + 1}")
                sym = min(tables[m].values())
            if m == l0:
                flagged = sym != expected[values[r_node - 1]]
                sym = expected[values[r_node - 1]]
            symbols.append(sym)
            received[st.receiver - 1].append(sym)
        decisions = []
        for node in range(1, p.n + 1):
            table = decision_tables.get(node)
            bit = 0
            if table is not None:
                bit = table.get((values[node - 1], tuple(received[node - 1])))
                if bit is None:
                    if not flagged:
                        raise MalformedProtocolError(f"node {node}")
                    bit = 1
            decisions.append(1 if node == t_node and flagged else bit)
        return symbols, decisions

    return materialize_oracle(p.n, p.M, schedule, semantics)


def oracle_cd_wrapper(t):
    reporters = list(range(2, t.n))
    schedule = [(lk.sender, lk.receiver) for lk in t.links] + [(i, t.n) for i in reporters]
    ranges = [lk.range_size for lk in t.links] + [2] * len(reporters)

    def semantics(values):
        transcript = simulate(t, values)
        decisions = list(transcript.decisions)
        bits = [decisions[i - 1] + 1 for i in reporters]
        decisions[-1] = max(decisions)
        return list(transcript.symbols) + bits, decisions

    return materialize_oracle(t.n, t.M, schedule, semantics, ranges)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_framed_links_match_oracle(k):
    # every link declares the full 2**b range, beyond the symbols it realizes
    t = meq3_2k(k)
    assert table_to_general(t) == oracle_table_to_general(t)


@settings(max_examples=150, deadline=None)
@given(table_protocols(max_n=4, max_M=5), st.lists(st.integers(1, 16), max_size=4))
def test_table_to_general_tighten_and_flips_match_oracle(t, flips):
    general = table_to_general(t)
    assert general == oracle_table_to_general(t)
    assert tighten(general) == oracle_tighten(general)
    expected = general
    for index in flips:
        if not general.steps:
            break
        index = (index - 1) % len(general.steps) + 1
        general = flip_step(general, index)
        expected = oracle_flip(expected, index)
        assert general == expected
    assert tighten(general) == oracle_tighten(general)


def oracle_table_decide(t):
    """A table receiver's decision, one link at a time: 1 iff some received
    symbol differs from the one its own input sends on that link."""
    incoming = {node: [] for node in range(1, t.n + 1)}
    for lk in t.links:
        incoming[lk.receiver].append(lk.symbols)

    def decide(node, x, h):
        return int(any(sym != symbols[x - 1] for symbols, sym in zip(incoming[node], h)))

    return decide


@settings(max_examples=150, deadline=None)
@given(table_protocols(max_n=4, max_M=5), st.lists(st.integers(1, 6), max_size=2))
def test_table_decide_matches_per_link_oracle(t, extra):
    # cd_wrapper hands node n its history with the reported bits appended,
    # which a table's decision must ignore
    decide, oracle = rules(t)[2], oracle_table_decide(t)
    runs = [simulate(t, v).received for v in itertools.product(range(1, t.M + 1), repeat=t.n)]
    for node in range(1, t.n + 1):
        for h in {received[node - 1] for received in runs}:
            for x, history in itertools.product(range(1, t.M + 1), (h, h + tuple(extra))):
                assert decide(node, x, history) == oracle(node, x, history)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(3, 4))
def test_cd_wrapper_matches_oracle(seed, M, n):
    rng = random.Random(seed)
    if n == 3:
        t = random_correct_protocol(rng, M)
    else:
        # a star stays correct with an extra link, here a random permutation
        perm = list(range(1, M + 1))
        rng.shuffle(perm)
        identity = tuple(range(1, M + 1))
        t = TableProtocol(n, M, (LinkTable(1, 2, tuple(perm)),) + tuple(
            LinkTable(i, n, identity) for i in range(1, n)
        ))
    assert cd_wrapper(t) == oracle_cd_wrapper(t)


@st.composite
def random_rules(draw):
    """A schedule and node-local rules read off a salted hash, with symbols
    drawn from a small, often sparse alphabet."""
    n = draw(st.integers(2, 4))
    M = draw(st.integers(1, 4))
    pairs = [(s, r) for s in range(1, n + 1) for r in range(1, n + 1) if s != r]
    schedule = draw(st.lists(st.sampled_from(pairs), max_size=4))
    alphabet = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
    salt = draw(st.integers(0, 2**32 - 1))

    def send(l, x, h):
        return alphabet[hash((salt, l, x, h)) % len(alphabet)]

    def decide(node, x, h):
        return hash((salt, -node, x, h)) % 2

    return n, M, schedule, send, decide


@settings(max_examples=150, deadline=None)
@given(random_rules(), st.lists(st.integers(1, 16), max_size=3))
def test_materialize_and_flips_match_oracle_on_random_rules(rules, flips):
    # history-dependent rules: a flip here can force a history p never
    # reaches, which exercises the smallest-symbol and decide-1 fallbacks
    n, M, schedule, send, decide = rules

    def semantics(values):
        received = [() for _ in range(n)]
        symbols = []
        for l, (sender, receiver) in enumerate(schedule):
            sym = send(l, values[sender - 1], received[sender - 1])
            symbols.append(sym)
            received[receiver - 1] += (sym,)
        return symbols, [decide(node, values[node - 1], received[node - 1]) for node in range(1, n + 1)]

    p = materialize(n, M, schedule, send, decide)
    assert p == materialize_oracle(n, M, schedule, semantics)
    expected = p
    for index in flips if schedule else ():
        index = (index - 1) % len(schedule) + 1
        p = flip_step(p, index)
        expected = oracle_flip(expected, index)
        assert p == expected


@pytest.mark.parametrize("M", [2, 3])
def test_flips_of_relay_protocol_match_oracle(M):
    p = relay_protocol(M)
    for index in range(1, len(p.steps) + 1):
        assert flip_step(p, index) == oracle_flip(p, index)
