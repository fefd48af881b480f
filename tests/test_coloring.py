import gc
import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meqlab import (
    BipartiteRep,
    ColoringInstance,
    LinkTable,
    SearchBudgetError,
    TableProtocol,
    complexity,
    conflict_pairs,
    fooling_lower_bound,
    optimal_search,
    protocol_from_coloring,
    strong_edge_color,
    table36,
    trivial_upper_bound,
    verify_ad,
)

from conftest import (
    canonical_oracle,
    conflict_oracle,
    link,
    random_correct_protocol,
    search_oracle,
    to_bipartite,
)
from meqlab import coloring
from meqlab.coloring import _edge_sets, _is_canonical


def complete_grid(a: int, b: int) -> BipartiteRep:
    return BipartiteRep(a, b, tuple(itertools.product(range(1, a + 1), range(1, b + 1))))


def collision_protocol() -> TableProtocol:
    # inputs 1 and 2 send identical symbols on both of node 1's links
    return TableProtocol(3, 6, (
        LinkTable(1, 2, (1, 1, 2, 2, 3, 3)),
        LinkTable(1, 3, (1, 1, 2, 3, 3, 1)),
        LinkTable(2, 3, (1, 2, 3, 1, 2, 3)),
    ))


def test_to_bipartite_of_table36():
    g = to_bipartite(table36())
    assert (g.U_size, g.V_size, g.M) == (3, 3, 6)
    assert g.edges[0] == (1, 1)
    assert g.edges[5] == (3, 1)


def test_to_bipartite_diagonal():
    identity = tuple(range(1, 4))
    t = TableProtocol(3, 3, (
        LinkTable(1, 2, identity),
        LinkTable(1, 3, identity),
        LinkTable(2, 3, identity),
    ))
    g = to_bipartite(t)
    assert g.edges == ((1, 1), (2, 2), (3, 3))
    assert conflict_pairs(g) == frozenset()


def test_to_bipartite_requires_all_links():
    from meqlab import star_protocol

    with pytest.raises(ValueError):
        to_bipartite(star_protocol(3, 4))


def test_collision_raises_and_breaks_the_protocol():
    broken = collision_protocol()
    with pytest.raises(ValueError, match=r"^inputs 1 and 2 collide on both outgoing links$"):
        to_bipartite(broken)
    verdict = verify_ad(broken)
    assert not verdict.ok
    assert verdict.counterexample[0] == (1, 2, 2)


def test_repeated_edge_is_a_value_error():
    with pytest.raises(ValueError, match="inputs 1 and 2 collide"):
        BipartiteRep(1, 1, ((1, 1), (1, 1)))


def test_conflicts_of_complete_2x2():
    assert len(conflict_pairs(complete_grid(2, 2))) == 6


def test_conflicts_of_disjoint_edges():
    g = BipartiteRep(2, 2, ((1, 1), (2, 2)))
    assert conflict_pairs(g) == frozenset()


def test_conflicts_of_table36_graph():
    g = to_bipartite(table36())
    pairs = conflict_pairs(g)
    assert len(pairs) == 12
    everything = {(x, y) for x in range(1, 7) for y in range(x + 1, 7)}
    assert everything - pairs == {(1, 4), (2, 5), (3, 6)}
    # the protocol's own third link separates every conflicting pair
    bc = link(table36(), 2, 3).symbols
    for x, y in pairs:
        assert bc[x - 1] != bc[y - 1]


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 4) for b in range(1, 5)])
def test_conflicts_match_oracle_on_every_edge_set(a, b):
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    for k in range(len(cells) + 1):
        for combo in itertools.combinations(cells, k):
            g = BipartiteRep(a, b, combo)
            assert conflict_pairs(g) == conflict_oracle(g)


@st.composite
def labelled_graphs(draw):
    a = draw(st.integers(1, 5))
    b = draw(st.integers(1, 6))
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    return BipartiteRep(a, b, tuple(draw(st.lists(st.sampled_from(cells), unique=True))))


@settings(max_examples=100, deadline=None)
@given(labelled_graphs())
def test_conflicts_match_oracle_on_random_edge_sets(g):
    assert conflict_pairs(g) == conflict_oracle(g)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BipartiteRep(0, 1, ()), "vertex classes must be nonempty"),
        (lambda: BipartiteRep(1, 1, ((2, 1),)), "edge 1 endpoint (2,1) out of range"),
        (lambda: to_bipartite(TableProtocol(2, 1, ())), "bipartite view is defined for three-node protocols"),
        (lambda: ColoringInstance(BipartiteRep(1, 1, ((1, 1),)), (0,)), "color 0 must be positive"),
        (lambda: strong_edge_color(BipartiteRep(1, 1, ((1, 1),)), 0), "W_size must be positive"),
        (lambda: BipartiteRep(2.5, 1, ()), "U_size must be an integer, got 2.5"),
        (lambda: BipartiteRep(2, True, ()), "V_size must be an integer, got True"),
        (lambda: BipartiteRep(2, 1, ((1, 1), (2.0, 1))), "edge endpoint must be an integer, got 2.0"),
        (lambda: ColoringInstance(BipartiteRep(2, 1, ((1, 1), (2, 1))), (1.5, 3)),
         "color must be an integer, got 1.5"),
        (lambda: strong_edge_color(BipartiteRep(2, 1, ((1, 1), (2, 1))), 2.5),
         "W_size must be an integer, got 2.5"),
    ],
)
def test_bipartite_arguments_rejected(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_strong_coloring_of_table36_graph():
    g = to_bipartite(table36())
    inst = strong_edge_color(g, 3)
    assert inst is not None
    assert inst.colors == (1, 2, 3, 1, 2, 3)
    assert strong_edge_color(g, 2) is None


def test_strong_coloring_of_complete_grid():
    g = complete_grid(2, 2)
    assert strong_edge_color(g, 3) is None
    inst = strong_edge_color(g, 4)
    assert inst is not None and inst.W_size == 4


def test_complete_grids_need_one_color_per_edge():
    for a, b in ((2, 2), (2, 3), (1, 4)):
        g = complete_grid(a, b)
        assert strong_edge_color(g, a * b - 1) is None
        assert strong_edge_color(g, a * b) is not None


def test_single_edge_one_color():
    inst = strong_edge_color(BipartiteRep(1, 1, ((1, 1),)), 1)
    assert inst is not None and inst.colors == (1,)


@st.composite
def small_graphs(draw):
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, 4))
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    return BipartiteRep(a, b, tuple(draw(st.lists(st.sampled_from(cells), unique=True, max_size=6))))


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_strong_coloring_is_the_smallest_by_product(g):
    pairs = conflict_oracle(g)
    for W in range(1, g.M + 2):
        smallest = next(
            (colors for colors in itertools.product(range(1, W + 1), repeat=g.M)
             if all(colors[x - 1] != colors[y - 1] for x, y in pairs)),
            None,
        )
        inst = strong_edge_color(g, W)
        assert (inst and inst.colors) == smallest, W


def test_strong_coloring_of_a_long_path():
    # 1,200 edges, one past the other along a path: a recursion per edge
    # would exceed Python's default recursion limit
    g = BipartiteRep(600, 601, tuple(e for i in range(1, 601) for e in ((i, i), (i, i + 1))))
    inst = strong_edge_color(g, 3)
    assert inst is not None and inst.colors == (1, 2, 3) * 400
    assert strong_edge_color(g, 2) is None


def test_invalid_coloring_rejected():
    g = to_bipartite(table36())
    with pytest.raises(ValueError, match="^edges 1 and 2 conflict but share color 1$"):
        ColoringInstance(g, (1, 1, 3, 1, 2, 3))
    # edges 1 and 6 share right vertex 1, edges 4 and 6 are bridged by edge
    # 5; the smallest counterexample (1, 1, 6) names the first pair
    with pytest.raises(ValueError, match="^edges 1 and 6 conflict but share color 1$"):
        ColoringInstance(g, (1, 2, 3, 1, 2, 1))
    with pytest.raises(ValueError):
        ColoringInstance(g, (1, 2, 3))


@st.composite
def colored_graphs(draw):
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, 4))
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    g = BipartiteRep(a, b, tuple(draw(st.lists(st.sampled_from(cells), unique=True))))
    return g, tuple(draw(st.lists(st.integers(1, g.M + 1), min_size=g.M, max_size=g.M)))


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
@example((BipartiteRep(1, 1, ()), ()))
def test_coloring_instance_accepts_exactly_the_strong_colorings(case):
    g, colors = case
    clashes = {(x, y) for x, y in conflict_oracle(g) if colors[x - 1] == colors[y - 1]}
    if not clashes:
        assert ColoringInstance(g, colors).colors == colors
        return
    with pytest.raises(ValueError) as info:
        ColoringInstance(g, colors)
    x, y, c = map(int, re.fullmatch(r"edges (\d+) and (\d+) conflict but share color (\d+)",
                                    str(info.value)).groups())
    assert (x, y) in clashes and c == colors[x - 1]


def test_conflict_pairs_scanned_once_per_coloring(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return conflict_pairs(g)

    monkeypatch.setattr(coloring, "conflict_pairs", counted)
    g = to_bipartite(table36())
    assert strong_edge_color(g, 3).colors == (1, 2, 3, 1, 2, 3)
    assert strong_edge_color(g, 2) is None
    assert len(calls) == 2
    ColoringInstance(g, (1, 2, 3, 1, 2, 3))
    assert len(calls) == 2
    assert not hasattr(coloring, "verify_ad")


def test_construction_catches_a_wrong_conflict_scan(monkeypatch):
    # validity is proven on the protocol, not with the solver's own pairs
    monkeypatch.setattr(coloring, "conflict_pairs", lambda g: frozenset())
    with pytest.raises(ValueError, match="^edges 1 and 3 conflict but share color 1$"):
        strong_edge_color(complete_grid(2, 2), 4)


def test_protocol_from_coloring_round_trip():
    t = table36()
    inst = ColoringInstance(to_bipartite(t), link(t, 2, 3).symbols)
    assert protocol_from_coloring(inst) == t


def test_protocol_from_complete_grid_coloring():
    inst = strong_edge_color(complete_grid(2, 2), 4)
    p = protocol_from_coloring(inst)
    verdict = verify_ad(p)
    assert verdict.ok and verdict.vectors_checked == 64


def test_valid_instances_from_random_correct_protocols():
    rng = random.Random(31)
    for _ in range(10):
        t = random_correct_protocol(rng, 6)
        inst = ColoringInstance(to_bipartite(t), link(t, 2, 3).symbols)
        assert verify_ad(protocol_from_coloring(inst)).ok


def test_optimal_search_m4():
    result = optimal_search(4)
    assert result.product == 16
    assert result.bits == pytest.approx(4.0, abs=1e-12)
    assert result.infeasible == ((2, 2, 2), (2, 2, 3))
    assert verify_ad(protocol_from_coloring(result.witness)).ok


def test_optimal_search_m6():
    result = optimal_search(6)
    assert (result.U_size, result.V_size, result.W_size) == (3, 3, 3)
    assert result.product == 27
    assert result.infeasible == ((2, 3, 3), (2, 3, 4))


def test_optimal_search_trivial_sizes():
    assert optimal_search(1).product == 1
    assert optimal_search(1).bits == 0.0
    assert optimal_search(2).product == 4


def test_optimal_search_bounds_sandwich():
    for M in range(1, 9):
        result = optimal_search(M)
        assert fooling_lower_bound(3, M) <= result.bits + 1e-12
        assert result.bits <= trivial_upper_bound(3, M) + 1e-12


def test_optimal_search_budget():
    with pytest.raises(SearchBudgetError) as info:
        optimal_search(6, graph_budget=1)
    assert len(info.value.frontier) > 0


def test_optimal_search_size_guard():
    # no cap by default; an explicit max_alphabet still refuses larger M
    with pytest.raises(ValueError):
        optimal_search(9, max_alphabet=8)


def test_witness_protocol_matches_reported_product():
    for M in (4, 6, 7):
        result = optimal_search(M)
        assert complexity(protocol_from_coloring(result.witness)).product == result.product
        assert result.bits == pytest.approx(math.log2(result.product), abs=1e-12)


SMALL_GRIDS = [(1, b) for b in range(1, 7)] + [(2, b) for b in range(2, 6)] + [(3, 3), (3, 4)]


@pytest.mark.parametrize("a, b", SMALL_GRIDS)
def test_is_canonical_matches_oracle_on_every_edge_set(a, b):
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    for k in range(len(cells) + 1):
        for combo in itertools.combinations(cells, k):
            assert _is_canonical(combo, b) == (canonical_oracle(combo, a, b) == combo)


@st.composite
def grid_edge_sets(draw):
    # up to six rows, most of which a random set leaves unused
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 6 if a <= 4 else 4))
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    chosen = draw(st.sets(st.sampled_from(cells)))
    return a, b, tuple(sorted(chosen))


@settings(max_examples=100, deadline=None)
@given(grid_edge_sets())
def test_is_canonical_matches_oracle_on_random_edge_sets(case):
    a, b, combo = case
    smallest = canonical_oracle(combo, a, b)
    assert _is_canonical(combo, b) == (smallest == combo)
    assert _is_canonical(smallest, b)


# product, size triple, rejected triples, witness edges and colours, as
# returned by the all-permutations search (M <= 11) and by the search that
# colours every canonical edge set of itertools.combinations (M = 12, 13)
SEARCH_PINS = {
    7: (48, (3, 4, 4),
        ((3, 3, 3), (2, 4, 4), (3, 3, 4), (2, 4, 5), (3, 3, 5), (2, 4, 6)),
        ((1, 1), (1, 2), (1, 3), (2, 1), (2, 4), (3, 2), (3, 4)),
        (1, 2, 3, 4, 2, 4, 1)),
    8: (60, (3, 4, 5),
        ((3, 3, 3), (2, 4, 4), (3, 3, 4), (2, 4, 5), (3, 3, 5), (2, 4, 6),
         (3, 4, 4), (2, 5, 5), (3, 3, 6), (2, 4, 7), (2, 5, 6)),
        ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 3), (3, 4)),
        (1, 2, 3, 4, 5, 3, 4, 1)),
    9: (64, (4, 4, 4),
        ((3, 3, 3), (3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 5, 5), (3, 3, 6),
         (2, 5, 6), (3, 4, 5), (3, 3, 7)),
        ((1, 1), (1, 2), (1, 3), (2, 1), (2, 4), (3, 2), (3, 4), (4, 3), (4, 4)),
        (1, 2, 3, 4, 2, 4, 3, 4, 1)),
    10: (80, (4, 4, 5),
         ((3, 4, 4), (2, 5, 5), (2, 5, 6), (3, 4, 5), (4, 4, 4), (2, 5, 7),
          (2, 6, 6), (3, 4, 6), (3, 5, 5), (2, 5, 8)),
         ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)),
         (1, 2, 3, 4, 5, 3, 4, 1, 5, 2)),
    11: (96, (4, 4, 6),
         ((3, 4, 4), (3, 4, 5), (4, 4, 4), (2, 6, 6), (3, 4, 6), (3, 5, 5),
          (4, 4, 5), (2, 6, 7), (3, 4, 7), (3, 5, 6), (2, 6, 8), (3, 4, 8)),
         ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (3, 4), (4, 2), (4, 3)),
         (1, 2, 3, 4, 5, 3, 6, 5, 2, 6, 4)),
    12: (96, (4, 4, 6),
         ((3, 4, 4), (3, 4, 5), (4, 4, 4), (2, 6, 6), (3, 4, 6), (3, 5, 5),
          (4, 4, 5), (2, 6, 7), (3, 4, 7), (3, 5, 6), (2, 6, 8), (3, 4, 8)),
         ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (3, 4), (4, 2), (4, 3),
          (4, 4)),
         (1, 2, 3, 4, 5, 3, 6, 5, 2, 6, 4, 1)),
    # the unpruned search, its budget lifted, took 96.6 s over 5,384,336
    # edge sets to return this
    13: (140, (4, 5, 7),
         ((4, 4, 4), (3, 5, 5), (4, 4, 5), (3, 5, 6), (4, 4, 6), (2, 7, 7),
          (4, 5, 5), (3, 5, 7), (3, 6, 6), (2, 7, 8), (4, 4, 7), (3, 5, 8),
          (4, 5, 6), (5, 5, 5), (2, 7, 9), (3, 6, 7), (2, 8, 8), (4, 4, 8),
          (3, 5, 9), (2, 7, 10)),
         ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 5), (3, 1), (3, 3), (3, 5),
          (4, 2), (4, 3), (4, 5)),
         (1, 2, 3, 4, 5, 6, 3, 7, 6, 2, 7, 5, 1)),
}


@pytest.mark.parametrize("M", sorted(SEARCH_PINS))
def test_optimal_search_pins(M):
    result = optimal_search(M, max_alphabet=max(M, 9))
    product, sizes, infeasible, edges, colors = SEARCH_PINS[M]
    assert result.product == product
    assert (result.U_size, result.V_size, result.W_size) == sizes
    assert result.infeasible == infeasible
    assert result.witness.graph.edges == edges
    assert result.witness.colors == colors


@pytest.mark.parametrize("M", range(1, 13))
def test_optimal_search_matches_the_unpruned_oracle(M):
    product, sizes, infeasible, witness = search_oracle(M)
    result = optimal_search(M)
    assert result.product == product
    assert (result.U_size, result.V_size, result.W_size) == sizes
    assert result.infeasible == infeasible
    assert result.witness.graph.edges == witness.graph.edges
    assert result.witness.colors == witness.colors


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 4) for b in range(1, 6)])
def test_edge_sets_are_the_canonical_sets_within_the_degree_bound(a, b):
    # every (M, c): the generator's cuts drop exactly the non-canonical sets
    # and those with an edge whose endpoints' degrees sum past c + 1
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    for M in range(1, a * b + 1):
        canonical = [combo for combo in itertools.combinations(cells, M) if _is_canonical(combo, b)]
        for c in range(1, a + b + 1):
            def fits(combo):
                rows, cols = Counter(u for u, _ in combo), Counter(v for _, v in combo)
                return all(rows[u] + cols[v] - 1 <= c for u, v in combo)

            counts = {"nodes": 0, "degree_cuts": 0, "canonical_cuts": 0}
            assert list(_edge_sets(a, b, c, M, counts, 10**9)) == list(filter(fits, canonical)), (M, c)


@pytest.mark.parametrize(
    "M, nodes, degree_cuts, canonical_cuts, colorings",
    [(4, 11, 1, 0, 2), (6, 18, 9, 0, 2), (7, 106, 41, 53, 9), (8, 199, 61, 106, 19), (9, 172, 101, 70, 8)],
)
def test_optimal_search_counts(M, nodes, degree_cuts, canonical_cuts, colorings):
    result = optimal_search(M, max_alphabet=9)
    assert [s.sizes for s in result.stats] == [
        *result.infeasible, (result.U_size, result.V_size, result.W_size)
    ]
    assert sum(s.nodes for s in result.stats) == nodes
    assert sum(s.degree_cuts for s in result.stats) == degree_cuts
    assert sum(s.canonical_cuts for s in result.stats) == canonical_cuts
    assert sum(s.colorings for s in result.stats) == colorings


def test_colorings_count_the_coloring_calls(monkeypatch):
    calls = Counter()

    def counted(g, W_size):
        calls[g.U_size, g.V_size, W_size] += 1
        return strong_edge_color(g, W_size)

    monkeypatch.setattr(coloring, "strong_edge_color", counted)
    for M in (4, 7, 10):
        calls.clear()
        stats = optimal_search(M).stats
        assert calls == {s.sizes: s.colorings for s in stats if s.colorings}
    calls.clear()
    with pytest.raises(SearchBudgetError) as info:
        optimal_search(7, graph_budget=100)
    assert calls == {s.sizes: s.colorings for s in info.value.stats if s.colorings}
    assert calls.total() > 0


def test_search_leaves_no_garbage_cycles():
    # each size triple's generator must not outlive its search as a cycle
    # that only the collector frees
    optimal_search(3)
    gc.collect()
    for M in (4, 7, 10):
        optimal_search(M)
        assert gc.collect() == 0
    with pytest.raises(SearchBudgetError):
        optimal_search(9, graph_budget=50)
    assert gc.collect() == 0


def test_search_budget_error_carries_counts():
    with pytest.raises(SearchBudgetError) as info:
        optimal_search(7, graph_budget=100)
    stats = info.value.stats
    # the budget runs out 8 nodes into the optimal triple, after 92 nodes
    # decided the six rejected ones
    assert sum(s.nodes for s in stats) == 100
    assert stats[-1].sizes == info.value.frontier[0] == (3, 4, 4)
    assert stats[-1].nodes == 8
    assert [s.sizes for s in stats[:-1]] == list(optimal_search(7).infeasible)
    # the message names the triple the search stopped in, not the whole frontier
    with pytest.raises(SearchBudgetError) as info:
        optimal_search(13, max_alphabet=13, graph_budget=1)
    assert len(info.value.frontier) == 294
    assert str(info.value) == (
        f"graph budget 1 exhausted in size triple {info.value.frontier[0]}; 294 size triples undecided"
    )


def test_search_budget_bounds_the_row_permutations(monkeypatch):
    # the canonicity test may draw row permutations only for nodes the budget
    # allows; M=100 opens on the 10 x 10 grid, whose 10! would not fit
    drawn = Counter()
    permutations = itertools.permutations

    def counted(*args):
        for perm in permutations(*args):
            drawn["perms"] += 1
            if drawn["perms"] > 1000:
                raise AssertionError("more than 1,000 row permutations drawn")
            yield perm

    monkeypatch.setattr(itertools, "permutations", counted)
    with pytest.raises(SearchBudgetError) as info:
        optimal_search(100, graph_budget=1)
    assert info.value.frontier[0] == (10, 10, 10)
    assert info.value.stats[-1].nodes == 1
