"""The verifiers against the brute-force oracle, on random and stock protocols.

Table protocols are decided by the join search and general protocols by
their transcript rectangles; both must return exactly the oracle's Verdict,
including the counterexample's decisions and rank.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab import (
    GeneralProtocol,
    LinkTable,
    Step,
    TableProtocol,
    Verdict,
    cd_wrapper,
    conflict_pairs,
    flip_step,
    extended_table,
    make_iid,
    meq3_2k,
    parallel_compose,
    star_protocol,
    table36,
    table_to_general,
    verify_ad,
    verify_cd,
)

from meqlab.core import rectangles, rules
from meqlab.verify import _smallest_join

from conftest import (
    STAR_SIZES,
    brute_force_verdicts,
    entries,
    join_reference,
    link,
    random_correct_protocol,
    rectangles_reference,
    relabelled_star,
    rows,
    to_bipartite,
)


def assert_matches_oracle(p):
    expected = brute_force_verdicts(p)
    assert verify_ad(p) == expected[None]
    for d in range(1, p.n + 1):
        assert verify_cd(p, d) == expected[d], f"detector {d}"


def dense(raw) -> tuple[int, ...]:
    """`raw` with its symbols ranked 1..S, as a link table requires."""
    rank = {sym: i for i, sym in enumerate(sorted(set(raw)), 1)}
    return tuple(rank[sym] for sym in raw)


def draw_link(draw, s: int, r: int, M: int) -> LinkTable:
    # injective links make correct protocols and late counterexamples common
    if draw(st.booleans()):
        raw = draw(st.permutations(range(1, M + 1)))
    else:
        top = draw(st.integers(1, M))
        raw = draw(st.lists(st.integers(1, top), min_size=M, max_size=M))
    return LinkTable(s, r, dense(raw))


@st.composite
def table_protocols(draw, max_n=5, max_M=9):
    n = draw(st.integers(2, max_n))
    M = draw(st.integers(1, max_M))
    links = [
        draw_link(draw, s, r, M)
        for s in range(1, n + 1)
        for r in range(s + 1, n + 1)
        if draw(st.booleans())
    ]
    return TableProtocol(n, M, tuple(links))


@st.composite
def protocols_with_silent_nodes(draw, max_n=5, max_M=5):
    """Table protocols in which node 1 and at least one other node receive
    no link, so the join search leaves them unconstrained until they send."""
    n = draw(st.integers(3, max_n))
    M = draw(st.integers(1, max_M))
    receivers = draw(st.sets(st.integers(2, n), min_size=1, max_size=n - 2))
    links = [
        draw_link(draw, s, r, M)
        for s in range(1, n + 1)
        for r in range(s + 1, n + 1)
        if r in receivers and draw(st.booleans())
    ]
    return TableProtocol(n, M, tuple(links))


@settings(max_examples=200, deadline=None)
@given(table_protocols())
def test_random_tables_match_brute_force(p):
    assert_matches_oracle(p)


@settings(max_examples=100, deadline=None)
@given(protocols_with_silent_nodes())
def test_silent_nodes_match_brute_force(p):
    assert_matches_oracle(p)


@pytest.mark.parametrize("n", sorted(STAR_SIZES))
def test_relabelled_stars_match_brute_force(n):
    p = relabelled_star(n, random.Random(n))
    assert verify_ad(p).ok
    assert_matches_oracle(p)


@pytest.mark.parametrize(
    "n, sender", [(n, s) for n in sorted(STAR_SIZES) for s in range(1, n)],
)
def test_stars_with_a_merged_pair_match_brute_force(n, sender):
    # input b of one sender sends what input a sends, so the collector can no
    # longer tell a from b on that link
    rng = random.Random(f"{n}/{sender}")
    p = relabelled_star(n, rng)
    a, b = sorted(rng.sample(range(1, p.M + 1), 2))
    links = list(p.links)
    symbols = list(links[sender - 1].symbols)
    symbols[b - 1] = symbols[a - 1]
    links[sender - 1] = LinkTable(sender, n, dense(symbols))
    merged = TableProtocol(n, p.M, tuple(links))
    assert not verify_ad(merged).ok
    assert_matches_oracle(merged)


def table36_conflict_merges():
    """table36 with the third link's symbol of y set to that of x, for each
    of its 12 conflict pairs (x, y): each breaks the strong colouring."""
    t = table36()
    bc = link(t, 2, 3).symbols
    for x, y in sorted(conflict_pairs(to_bipartite(t))):
        merged = list(bc)
        merged[y - 1] = bc[x - 1]
        yield TableProtocol(3, 6, (link(t, 1, 2), link(t, 1, 3), LinkTable(2, 3, tuple(merged))))


STOCK = {
    "table36": table36(),
    "ext6h-2": extended_table(2),
    "star-4-6": star_protocol(4, 6),
    "bin2k-4": meq3_2k(4),
    "par6h-2": parallel_compose(table36(), 36),
    "cdwrap-table36": cd_wrapper(table36()),
    **{f"table36-merge-{i}": p for i, p in enumerate(table36_conflict_merges(), 1)},
}


@pytest.mark.parametrize("p", STOCK.values(), ids=STOCK.keys())
def test_stock_protocols_match_brute_force(p):
    assert_matches_oracle(p)


def test_merges_fail_on_both_paths():
    merges = list(table36_conflict_merges())
    assert len(merges) == 12
    for p in merges:
        verdict = verify_ad(p)
        assert not verdict.ok
        assert verify_ad(table_to_general(p)) == verdict


@st.composite
def composition_bases(draw, max_M=4):
    """A random correct three-node base with 2 to max_M values, or, flagged
    True, the same base with the third link's symbols of one conflict pair
    merged, which breaks its strong colouring."""
    base = random_correct_protocol(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, max_M)))
    pairs = sorted(conflict_pairs(to_bipartite(base)))
    if not pairs or not draw(st.booleans()):
        return base, False
    x, y = draw(st.sampled_from(pairs))
    ab, ac, bc = base.links
    merged = list(bc.symbols)
    merged[y - 1] = merged[x - 1]
    return TableProtocol(3, base.M, (ab, ac, LinkTable(2, 3, dense(merged)))), True


@settings(max_examples=60, deadline=None)
@given(composition_bases(), st.integers(1, 16))
def test_compositions_of_random_bases_match_brute_force(drawn, M):
    base, merged = drawn
    assert verify_ad(base).ok is not merged
    assert parallel_compose(base, base.M) == base
    assert_matches_oracle(parallel_compose(base, M))


@st.composite
def dense_three_node_tables(draw):
    M = draw(st.integers(1, 7))
    return TableProtocol(3, M, tuple(
        LinkTable(s, r, dense(draw(st.lists(st.integers(1, M), min_size=M, max_size=M))))
        for s, r in ((1, 2), (1, 3), (2, 3))
    ))


@settings(max_examples=150, deadline=None)
@given(st.one_of(composition_bases(7).map(lambda drawn: drawn[0]), dense_three_node_tables()))
def test_correct_iff_distinct_edges_strongly_coloured(t):
    """The reduction both ways: a three-node table is correct exactly when
    no two inputs collide on both of node 1's links and link 2->3 separates
    every conflict pair of the resulting graph."""
    try:
        pairs = conflict_pairs(to_bipartite(t))
    except ValueError:
        reduced = False
    else:
        bc = link(t, 2, 3).symbols
        reduced = all(bc[x - 1] != bc[y - 1] for x, y in pairs)
    assert verify_ad(t).ok is reduced


def test_protocol_without_links():
    p = TableProtocol(3, 4, ())
    assert_matches_oracle(p)
    counterexample = Verdict(False, ((1, 1, 2), (0, 0, 0)), 2)
    assert verify_ad(p) == counterexample
    assert verify_cd(p) == counterexample


def test_single_value_alphabet():
    p = TableProtocol(3, 1, (LinkTable(1, 2, (1,)), LinkTable(2, 3, (1,))))
    assert verify_ad(p) == Verdict(True, None, 1)
    assert verify_cd(p, 2) == Verdict(True, None, 1)
    general = GeneralProtocol(2, 1, (Step(1, 2, rows({(1, ()): 1}), 1),), {2: rows({(1, (1,)): 0})})
    assert verify_ad(general) == Verdict(True, None, 1)


def test_detector_without_incoming_link():
    # node 2 of the star only sends; node 4 spots the difference
    verdict = verify_cd(star_protocol(4, 6), detector=2)
    assert verdict == Verdict(False, ((1, 1, 1, 2), (0, 0, 0, 1)), 2)
    assert verify_cd(table36(), detector=1).counterexample[0] == (1, 1, 2)


def with_decision_flipped(p, node, index):
    """Copy of p whose node decides the other bit on one entry, the index-th
    in sorted order."""
    table = entries(p.decisions[node])
    key = sorted(table)[index % len(table)]
    table[key] = 1 - table[key]
    return GeneralProtocol(p.n, p.M, p.steps, {**p.decisions, node: rows(table)})


@st.composite
def general_protocols(draw):
    """Random tables in stepwise form flipped 0-4 times, or random correct
    three-node tables wrapped for centralized detection; half of them get
    one decision bit flipped, so that failing cases are common."""
    if draw(st.booleans()):
        p = table_to_general(draw(table_protocols(max_n=4, max_M=5)))
        if p.steps:
            for index in draw(st.lists(st.integers(1, len(p.steps)), max_size=4)):
                p = flip_step(p, index)
    else:
        p = cd_wrapper(random_correct_protocol(random.Random(draw(st.integers(0, 2**32 - 1))),
                                               draw(st.integers(2, 7))))
    if draw(st.booleans()):
        node = draw(st.integers(1, p.n))
        p = with_decision_flipped(p, node, draw(st.integers(0, p.M**p.n)))
    return p


@settings(max_examples=200, deadline=None)
@given(general_protocols())
def test_random_general_protocols_match_brute_force(p):
    assert_matches_oracle(p)


@settings(max_examples=100, deadline=None)
@given(table_protocols(max_n=4, max_M=5), st.data())
def test_general_protocols_missing_decision_tables_match_brute_force(t, data):
    # a node without a decision table decides 0 everywhere, which the walk
    # gives it without asking the rule once per input
    p = table_to_general(t)
    kept = data.draw(st.sets(st.sampled_from(sorted(p.decisions)), max_size=p.n - 1))
    q = GeneralProtocol(p.n, p.M, p.steps, {node: p.decisions[node] for node in kept})
    assert_matches_oracle(q)
    assert make_iid(q) == t


def join_oracle(M, outgoing, domains):
    """The first non-constant vector of the product of the domains that
    agrees along every link, by plain enumeration."""
    every = range(1, M + 1)
    for v in itertools.product(*(every if d is None else sorted(d) for d in domains)):
        if len(set(v)) > 1 and all(
            v[r] in agreeing[v[j] - 1] for j, links in enumerate(outgoing) for r, agreeing in links
        ):
            return v
    return None


@st.composite
def joins(draw):
    """A join of 1 to 5 nodes over 1..M, M <= 5: each domain is None or a
    set, empty ones included, and each pair j < r is linked or not."""
    n = draw(st.integers(1, 5))
    M = draw(st.integers(1, 5))
    values = st.sets(st.integers(1, M))
    domains = [draw(st.none() | values) for _ in range(n)]
    outgoing = [
        [(r, [draw(values) for _ in range(M)]) for r in range(j + 1, n) if draw(st.booleans())]
        for j in range(n)
    ]
    return M, outgoing, domains


@settings(max_examples=300, deadline=None)
@given(joins())
def test_join_matches_product_oracle(join):
    assert _smallest_join(*join)[0] == join_oracle(*join)


@settings(max_examples=500, deadline=None)
@given(joins())
def test_join_matches_reference_nodes(join):
    # shared domain lists and the unenumerated last node must count the
    # partial assignments the copying search made, one by one
    assert _smallest_join(*join) == join_reference(*join)


@pytest.mark.parametrize(
    "domains, smallest",
    [([[1], [1, 2], [1]], (1, 2, 1)), ([[1, 3], [1]], (3, 1)), ([[2], [2], [2]], None)],
)
def test_join_without_links(domains, smallest):
    found = _smallest_join(3, [()] * len(domains), domains)
    assert found[0] == smallest
    assert found == join_reference(3, [()] * len(domains), domains)


def assert_leaves_match_reference(p):
    schedule, send, _ = rules(p)
    leaves = list(rectangles(p.n, p.M, schedule, send))
    assert leaves == list(rectangles_reference(p.n, p.M, schedule, send))
    # a frame walked in place must not share its lists with another leaf
    assert len({id(lists) for leaf in leaves for lists in leaf}) == 2 * len(leaves)


@pytest.mark.parametrize("p", [*STOCK.values(), cd_wrapper(star_protocol(4, 16))],
                         ids=[*STOCK.keys(), "cdwrap-star-4-16"])
def test_stock_leaves_match_reference(p):
    assert_leaves_match_reference(p)
    if isinstance(p, TableProtocol):
        assert_leaves_match_reference(table_to_general(p))


@settings(max_examples=100, deadline=None)
@given(general_protocols())
def test_random_general_leaves_match_reference(p):
    assert_leaves_match_reference(p)
