import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab import (
    GeneralProtocol,
    LinkTable,
    MalformedProtocolError,
    TableProtocol,
    cd_wrapper,
    complexity,
    expected_symbol,
    flip_step,
    make_iid,
    meq3_2k,
    parallel_compose,
    simulate,
    star_protocol,
    table36,
    table_to_general,
    verify_ad,
)
from meqlab import core, transforms
from meqlab.core import materialize
from meqlab.serial import dumps

from conftest import STAR_SIZES, entries, random_correct_protocol, relabelled_star, rows


def test_expected_symbol_third_link():
    g = table_to_general(table36())
    assert expected_symbol(g, 3, 5) == 2
    assert [expected_symbol(g, 1, x) for x in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_expected_symbol_star():
    g = table_to_general(star_protocol(3, 6))
    assert expected_symbol(g, 1, 4) == 4


def test_expected_symbol_invariant_under_flip():
    g = table_to_general(table36())
    for index in (1, 2, 3):
        flipped = flip_step(g, index)
        for x in range(1, 7):
            assert expected_symbol(flipped, index, x) == expected_symbol(g, index, x)


def test_expected_symbol_validation():
    g = table_to_general(table36())
    with pytest.raises(ValueError):
        expected_symbol(g, 4, 1)
    with pytest.raises(ValueError):
        expected_symbol(g, 1, 7)


@pytest.mark.parametrize("index", [0, 4])
def test_flip_step_index_validation(index):
    with pytest.raises(ValueError, match=f"step index {index} outside 1..3"):
        flip_step(table_to_general(table36()), index)


@pytest.mark.parametrize("index", [1.5, True])
@pytest.mark.parametrize("call", [flip_step, lambda g, index: expected_symbol(g, index, 1)])
def test_step_index_must_be_an_integer(call, index):
    with pytest.raises(ValueError, match=f"^step index must be an integer, got {index}$"):
        call(table_to_general(table36()), index)


def test_flip_without_decision_table_decides_zero():
    g = table_to_general(table36())
    assert set(entries(g.decisions[1]).values()) == {0}
    silent = GeneralProtocol(g.n, g.M, g.steps, {node: t for node, t in g.decisions.items() if node != 1})
    for index in (1, 2, 3):
        assert flip_step(silent, index) == flip_step(g, index)


def test_flip_third_link_stays_correct():
    g = table_to_general(table36())
    flipped = flip_step(g, 3)
    assert (flipped.steps[2].sender, flipped.steps[2].receiver) == (3, 2)
    assert verify_ad(flipped).ok
    assert complexity(flipped).product == complexity(g).product


def test_flip_star_steps_stay_correct():
    for M in (2, 3, 6):
        g = table_to_general(star_protocol(3, M))
        for index in (1, 2):
            flipped = flip_step(g, index)
            assert verify_ad(flipped).ok
            assert complexity(flipped).product <= complexity(g).product


def test_flip_never_raises_cost():
    rng = random.Random(11)
    for _ in range(15):
        g = table_to_general(random_correct_protocol(rng, rng.choice((2, 3, 4))))
        for index in range(1, len(g.steps) + 1):
            assert complexity(flip_step(g, index)).product <= complexity(g).product


def test_flip_preserves_all_equal_transcripts():
    g = table_to_general(table36())
    for index in (1, 2, 3):
        flipped = flip_step(g, index)
        for x in range(1, 7):
            assert simulate(flipped, (x,) * 3).symbols == simulate(g, (x,) * 3).symbols


def test_double_flip_keeps_cost_and_correctness():
    g = table_to_general(table36())
    twice = flip_step(flip_step(g, 3), 3)
    assert verify_ad(twice).ok
    assert complexity(twice).product == complexity(g).product


TABLES = {
    "table36": table36(),
    "bin2k-3": meq3_2k(3),
    **{f"star-{n}": relabelled_star(n, random.Random(n)) for n in sorted(STAR_SIZES)},
}


@pytest.mark.parametrize("t", TABLES.values(), ids=TABLES.keys())
def test_rewrites_expand_a_table_protocol(t):
    g = table_to_general(t)
    assert make_iid(t) == make_iid(g)
    for index in range(1, len(t.links) + 1):
        assert flip_step(t, index) == flip_step(g, index)


def test_table_builders_reject_a_general_protocol():
    g = table_to_general(table36())
    with pytest.raises(ValueError, match="table_to_general expects a table-kind protocol"):
        table_to_general(g)
    with pytest.raises(ValueError, match="cd_wrapper expects a table-kind protocol"):
        cd_wrapper(g)
    with pytest.raises(ValueError, match="parallel_compose expects a table-kind protocol"):
        parallel_compose(g, 36)


def test_make_iid_of_star_is_identity():
    assert make_iid(table_to_general(star_protocol(3, 6))) == star_protocol(3, 6)


def test_make_iid_recovers_table36_after_preflip():
    g = table_to_general(table36())
    scrambled = flip_step(g, 3)  # third link now runs against the node order
    recovered = make_iid(scrambled)
    assert recovered == table36()


def test_make_iid_idempotent():
    rng = random.Random(23)
    for _ in range(5):
        t = random_correct_protocol(rng, 4)
        normal = make_iid(table_to_general(t))
        assert make_iid(table_to_general(normal)) == normal


def test_make_iid_on_random_correct_protocols():
    rng = random.Random(5)
    for _ in range(20):
        t = random_correct_protocol(rng, rng.choice((2, 3, 4)))
        g = table_to_general(t)
        assert verify_ad(g).ok
        normal = make_iid(g)
        assert verify_ad(normal).ok
        assert complexity(normal).product <= complexity(g).product
        for index in range(1, len(g.steps) + 1):
            flipped = flip_step(g, index)
            assert verify_ad(flipped).ok
            renormal = make_iid(flipped)
            assert verify_ad(renormal).ok
            assert complexity(renormal).product <= complexity(flipped).product


def test_make_iid_result_decisions_match_comparison_semantics():
    # the normalized protocol must agree with the stepwise expansion of its
    # own tables on every input
    g = flip_step(table_to_general(table36()), 2)
    normal = make_iid(g)
    expanded = table_to_general(normal)
    for v in itertools.product(range(1, 7), repeat=3):
        assert simulate(normal, v).decisions == simulate(expanded, v).decisions


def _g():
    return table_to_general(table36())


@pytest.mark.parametrize(
    "build, digest",
    [
        (_g, "edd9b74e254cb5c40f81478a62fe4e13c0ea649485d0e781d9283ae84f1096bf"),
        (lambda: flip_step(_g(), 1), "f95c1301185d0d4c9a3cd74f1190adea1678c3afa5c20be8aed177a01e74db09"),
        (lambda: flip_step(_g(), 2), "723ee72c2608af328e13c91faaeea83846b86885e813e4670c0292ceb5b7f82f"),
        (lambda: flip_step(_g(), 3), "0024ff6dd21ee3d72245c533a337108e66e831e7b0e27ed225a87aace65505f2"),
        (lambda: flip_step(flip_step(_g(), 3), 1),
         "797722d441af21305fa201560dd122589279235a97dfccb3155856129fb57d56"),
        (lambda: cd_wrapper(table36()), "3c47294a3265eb62865dafafc6b8c3a1fac9e1756d81f77184b47f65d9ca6785"),
        (lambda: table_to_general(meq3_2k(3)),
         "c08a86654c4f9b262f3180b037bf05a03bc071d61c2a003ded816451b2dbba2d"),
        (lambda: make_iid(flip_step(cd_wrapper(table36()), 4)),
         "9751be9d645ffd0d8c1345907b5d2c999a8473e933aaa265cfa1f80be9b6ce61"),
        (lambda k=1: meq3_2k(k), "0527ff0572ec5f917404359b2c14dd6cdc688ac9ecaf456b25f1303162de4c84"),
        (lambda k=2: meq3_2k(k), "1bb76ccb7267d8be08d7fefe3418e73ad0ee590e185fcd8f0e2d212e1a58652e"),
        (lambda k=3: meq3_2k(k), "a4ce9d7e45006b769023428a70eea02044a046f44d73f4ac95cbfa9c14b79b8b"),
        (lambda k=4: meq3_2k(k), "2bf1a2ff159ac2a019b6552a535bd8d3acd671ef5963ee33c6b6d5ee8561a63c"),
        (lambda k=5: meq3_2k(k), "eedb12b9737fddc9c3574049543803134c87f3c54da483b54d8df5418ceec6b1"),
        (lambda k=6: meq3_2k(k), "a98e207666263c178bcdb6eeb8e66f521a029133f1c35e149fc3b4da044b4144"),
        (lambda k=7: meq3_2k(k), "432ac1afaa55f3d5d90bed0b1ae268e4203ef4b688bd27d3840a6c6cf2503189"),
        (lambda k=8: meq3_2k(k), "2397b59fd0b9538d4ddc83789f6b25ee5de67fa6763f09d5eed5d98958b4bc64"),
        (lambda: parallel_compose(table36(), 36),
         "7878a63c5df10876c0cb1ee4518d8ec6c9d97ffe6798c71f2c33ae017f8330d5"),
    ],
)
def test_rewrite_outputs_are_byte_identical(build, digest):
    # sha256 of the protocol files these rewrites wrote before the rebuild
    # engine was reduced to one replay per input, and these builders wrote
    # while meq3_2k still packed its base-3 words by hand
    text = dumps(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def flip_every_backward_step(p):
    for index in range(1, len(p.steps) + 1):
        st = p.steps[index - 1]
        if st.sender > st.receiver:
            p = flip_step(p, index)
    return p


@st.composite
def flipped_tables(draw):
    """A random table protocol in stepwise form with random steps reversed."""
    n = draw(st.integers(2, 4))
    M = draw(st.integers(1, 4))
    links = []
    for s in range(1, n + 1):
        for r in range(s + 1, n + 1):
            if draw(st.booleans()):
                raw = draw(st.lists(st.integers(1, M), min_size=M, max_size=M))
                dense = {sym: i for i, sym in enumerate(sorted(set(raw)), 1)}
                links.append(LinkTable(s, r, tuple(dense[sym] for sym in raw)))
    p = table_to_general(TableProtocol(n, M, tuple(links)))
    if p.steps:
        for index in draw(st.lists(st.integers(1, len(p.steps)), max_size=4)):
            p = flip_step(p, index)
    return p


@settings(max_examples=100, deadline=None)
@given(flipped_tables())
def test_make_iid_matches_explicit_flips(p):
    assert make_iid(p) == make_iid(flip_every_backward_step(p))


def relay_protocol(M):
    """Node 2 relays node 1's value to node 3, which later sends its own
    value back to node 2. Flipping any of the first three steps forces node
    2's history at step 4 into combinations p never reaches. Nodes 2 and 3
    flag any received value that differs from their own."""

    def send(step, x, history):
        return history[0] if step == 1 else x

    def decide(node, x, history):
        return int(any(sym != x for sym in history))

    return materialize(3, M, [(1, 2), (2, 3), (1, 3), (3, 2)], send, decide)


@pytest.mark.parametrize(
    "M, digest",
    [
        (2, "afe1e8402b2657dd6b4c1831d15fe271561ec2ddee483009ba3e5113ced73990"),
        (3, "fd8eb8b629dd597c36f0ce597a0e35f31f890d704c01025ccc0c8b0d6283ad19"),
        (4, "33204b4a0bfa6fef1cb8af015906e41ac1c6d5234b4eb50a3ae036eae3e1a36f"),
    ],
)
def test_relay_protocol_is_byte_identical(M, digest):
    # sha256 of the file the relay protocol gave when it was still built
    # from a callback over whole input vectors
    text = dumps(relay_protocol(M))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("M", [2, 3, 4])
def test_flip_of_relay_protocol_stays_correct(M):
    p = relay_protocol(M)
    assert verify_ad(p).ok
    for index in range(1, len(p.steps) + 1):
        flipped = flip_step(p, index)
        assert verify_ad(flipped).ok
        assert complexity(flipped).product <= complexity(p).product
    assert make_iid(p) == make_iid(flip_every_backward_step(p))


def without_entry(p, node, key):
    decisions = dict(p.decisions)
    decisions[node] = rows({k: bit for k, bit in entries(p.decisions[node]).items() if k != key})
    return GeneralProtocol(p.n, p.M, p.steps, decisions)


@pytest.mark.parametrize("rewrite", [lambda p: flip_step(p, 2), make_iid])
def test_rewrites_walk_a_general_input_once_and_a_table_never(rewrite, monkeypatch):
    # a table protocol has every reachable entry by construction, and its
    # rules are read as they are: nothing expands it
    g = table_to_general(table36())
    walks, calls = [], []

    def counted(name, function):
        return lambda *args: calls.append(name) or function(*args)

    walk = core.decided_rectangles
    monkeypatch.setattr(core, "decided_rectangles", lambda p: walks.append(p) or walk(p))
    rebuild = counted("materialize", core.materialize)
    monkeypatch.setattr(core, "materialize", rebuild)
    monkeypatch.setattr(transforms, "materialize", rebuild)
    monkeypatch.setattr(core, "table_to_general", counted("table_to_general", core.table_to_general))
    # every all-equal run is read off one rules(p), not rebuilt per input
    read = counted("rules", core.rules)
    monkeypatch.setattr(core, "rules", read)
    monkeypatch.setattr(transforms, "rules", read)
    # flip_step rebuilds the flipped protocol once; make_iid rebuilds nothing
    rebuilds = ["materialize"] if rewrite is not make_iid else []
    from_table = rewrite(table36())
    assert (walks, calls) == ([], ["rules"] + rebuilds)
    calls.clear()
    assert from_table == rewrite(g)
    # the walk over a general input reads its own rules first
    assert (walks, calls) == ([g], ["rules", "rules"] + rebuilds)


def test_missing_reachable_entry_raises():
    g = table_to_general(table36())
    # node 3's decision on input (1, 1, 2): every link forward, so only a
    # full replay reaches it
    gap = without_entry(g, 3, (2, (1, 1)))
    with pytest.raises(MalformedProtocolError):
        make_iid(gap)
    # flipping step 1 leaves that input unflagged, so the gap still shows
    with pytest.raises(MalformedProtocolError):
        flip_step(gap, 1)


def test_make_iid_of_a_wide_linkless_table_allocates_nothing_per_node():
    # the all-equal runs read only the nodes the schedule names, not n of them
    p = TableProtocol(10**6, 3, ())
    tracemalloc.start()
    try:
        assert make_iid(p) == p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_make_iid_of_a_linkless_table_replays_no_input():
    # with no step there is nothing to replay, so M all-equal runs are never built
    p = TableProtocol(3, 10**6, ())
    tracemalloc.start()
    try:
        assert make_iid(p) == p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
