"""Bipartite view of three-node per-link protocols and the exact optimum.

A protocol over links 1->2, 1->3, 2->3 is drawn as a bipartite graph: left
vertices are the distinct symbols of link 1->2, right vertices those of
1->3, and each input value x becomes the edge joining its two symbols.
Correctness forces the edges to be distinct (else two values are
indistinguishable to both receivers) and forces the 2->3 table to separate
any two edges within distance two of each other, i.e. to be a strong edge
coloring. Searching all small graphs and color counts therefore computes
the exact optimal cost for three nodes. The coloring solver and its check
are the forward-checking join that `verify` decides table protocols with.
"""

import itertools
import math

from .core import Frozen, TableProtocol, check_int, check_size, dense_link
from .verify import BudgetError, _agreeing_input, _smallest_join


class BipartiteRep(Frozen):
    """Simple bipartite graph whose edges stand for the input values.

    ``edges[x-1]`` is the (left vertex, right vertex) pair of input x, so
    labels are positional and run over exactly 1..M.
    """

    __slots__ = _fields = ("U_size", "V_size", "edges")

    def __init__(self, U_size: int, V_size: int, edges: tuple[tuple[int, int], ...]):
        edges = tuple(tuple(e) for e in edges)
        if check_int(U_size, "U_size") < 1 or check_int(V_size, "V_size") < 1:
            raise ValueError("vertex classes must be nonempty")
        seen = {}
        for x, (u, v) in enumerate(edges, 1):
            if not (1 <= check_int(u, "edge endpoint") <= U_size
                    and 1 <= check_int(v, "edge endpoint") <= V_size):
                raise ValueError(f"edge {x} endpoint ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"inputs {seen[(u, v)]} and {x} collide on both outgoing links")
            seen[(u, v)] = x
        self._set(U_size, V_size, edges)

    @property
    def M(self) -> int:
        return len(self.edges)


def conflict_pairs(g: BipartiteRep) -> frozenset[tuple[int, int]]:
    """Unordered label pairs any valid third-link table must separate:
    edges (u, v) and (u', v') sharing an endpoint, or bridged by a common
    adjacent edge. A bridge shares one endpoint with each, so it is (u, v')
    or (u', v) unless u = u' or v = v'."""
    edges = set(g.edges)
    pairs = set()
    for x, y in itertools.combinations(range(1, g.M + 1), 2):
        (u, v), (u2, v2) = g.edges[x - 1], g.edges[y - 1]
        if u == u2 or v == v2 or (u, v2) in edges or (u2, v) in edges:
            pairs.add((x, y))
    return frozenset(pairs)


class ColoringInstance(Frozen):
    """A graph plus one color per edge, valid for the distance-2 constraint.

    Construction runs `verify`'s join on the protocol read off the instance;
    its smallest counterexample (z, x, y) names edges x != y that conflict
    through edge z and share a color. Holding an instance is proof that
    every conflicting pair is separated.
    """

    __slots__ = _fields = ("graph", "colors")

    def __init__(self, graph: BipartiteRep, colors: tuple[int, ...]):
        colors = tuple(colors)
        if len(colors) != graph.M:
            raise ValueError(f"{len(colors)} colors for {graph.M} edges")
        for c in colors:
            if check_int(c, "color") < 1:
                raise ValueError(f"color {c} must be positive")
        self._set(graph, colors)
        if graph.M:  # a table protocol needs at least one input
            t = protocol_from_coloring(self)
            bad = _agreeing_input(t, t.links)[0]
            if bad:
                x, y = sorted(bad[1:])
                raise ValueError(f"edges {x} and {y} conflict but share color {self.colors[x - 1]}")

    @property
    def W_size(self) -> int:
        return max(self.colors)


def strong_edge_color(g: BipartiteRep, W_size: int) -> ColoringInstance | None:
    """The lexicographically smallest distance-2 edge coloring with colors
    1..W_size, or None when there is none.

    It is `verify`'s join with edges as positions and colors as values: a
    conflict pair (x, y) links x to y, agreeing on every color but x's. Edge
    x may take only colors 1..x: renaming color classes in order of first
    use keeps a coloring valid and never raises a color, so the smallest
    coloring puts none above x on edge x. The join skips constant inputs,
    so a graph with no conflict pair gets the all-ones coloring directly.
    It scans `conflict_pairs` once; ColoringInstance checks the result."""
    if check_int(W_size, "W_size") < 1:
        raise ValueError("W_size must be positive")
    pairs = conflict_pairs(g)
    if not pairs:
        return ColoringInstance(g, (1,) * g.M)
    W = min(W_size, g.M)
    others = [set(range(1, W + 1)) - {c} for c in range(1, W + 1)]
    outgoing = [[] for _ in range(g.M)]
    for x, y in pairs:
        outgoing[x - 1].append((y - 1, others))
    domains = [set(range(1, min(W, x) + 1)) for x in range(1, g.M + 1)]
    colors = _smallest_join(W, outgoing, domains)[0]
    return None if colors is None else ColoringInstance(g, colors)


def protocol_from_coloring(inst: ColoringInstance) -> TableProtocol:
    """Read the three link tables off a labeled colored graph: input x sends
    its left vertex on 1->2, its right vertex on 1->3, its color on 2->3.
    Symbols are renumbered densely in ascending order."""
    g = inst.graph
    return TableProtocol(3, g.M, (
        dense_link(1, 2, [u for u, _ in g.edges]),
        dense_link(1, 3, [v for _, v in g.edges]),
        dense_link(2, 3, inst.colors),
    ))


class TripleStats(Frozen):
    """What the search did for one size triple: the edge-set prefixes it
    extended (``nodes``, which the budget counts), the prefixes it cut by
    the degree bound or as not canonical, and its strong_edge_color calls."""

    __slots__ = _fields = ("sizes", "nodes", "degree_cuts", "canonical_cuts", "colorings")

    def __init__(self, sizes: tuple[int, int, int], nodes: int, degree_cuts: int,
                 canonical_cuts: int, colorings: int):
        self._set(sizes, nodes, degree_cuts, canonical_cuts, colorings)


class SearchBudgetError(BudgetError):
    """The search-node budget ran out before the search finished.
    ``frontier`` holds every undecided size triple, the unfinished one
    first; ``stats`` holds the counts of every triple tried, the unfinished
    one last, so their nodes add up to the budget."""

    def __init__(self, budget: int, frontier: list[tuple[int, int, int]],
                 stats: tuple[TripleStats, ...] = ()):
        self.budget = budget
        self.frontier = tuple(frontier)
        self.stats = tuple(stats)
        super().__init__(
            f"graph budget {budget} exhausted in size triple {self.frontier[0]}; "
            f"{len(self.frontier)} size triples undecided"
        )


class OptimalResult(Frozen):
    """Outcome of the exhaustive minimum-product search. ``stats`` holds the
    counts of every triple tried, in search order."""

    __slots__ = _fields = ("U_size", "V_size", "W_size", "product", "bits", "witness", "infeasible", "stats")

    def __init__(self, U_size: int, V_size: int, W_size: int, product: int, bits: float,
                 witness: ColoringInstance, infeasible: tuple[tuple[int, int, int], ...],
                 stats: tuple[TripleStats, ...] = ()):
        self._set(U_size, V_size, W_size, product, bits, witness, infeasible, stats)


def _is_canonical(combo: tuple[tuple[int, int], ...], b: int) -> bool:
    """Whether ``combo`` (sorted edges on a grid with b columns) is the
    smallest of its sorted relabellings under all row and column permutations.

    Rows are permuted only over 1..r, r = combo[-1][0] the largest used row:
    after any relabelling, compressing the used rows R onto 1..|R| in order
    lowers only first components and keeps the edges' order, so the minimum
    is among permutations of 1..r. With the rows relabelled, each row's block
    of the sorted tuple has a fixed length and position, so the smallest
    tuple over all column relabellings numbers the columns in order of their
    sorted new-row lists, a column in an earlier row first (a list that ends
    sorts after any continuation of it). Equal lists are interchangeable.
    """
    r = combo[-1][0] if combo else 0
    for rp in itertools.permutations(range(1, r + 1)):
        rows_of = {v: [] for v in range(1, b + 1)}
        for u, v in combo:
            rows_of[v].append(rp[u - 1])
        order = sorted(rows_of, key=lambda v: (*sorted(rows_of[v]), r + 1))
        cp = {v: label for label, v in enumerate(order, 1)}
        if tuple(sorted((rp[u - 1], cp[v]) for u, v in combo)) < combo:
            return False
    return True


class _BudgetSpent(Exception):
    """_edge_sets was asked to extend one node more than its budget."""


def _edge_sets(a: int, b: int, c: int, M: int, counts: dict, budget: int):
    """Yield, in lexicographic order, the canonical sorted M-edge sets of the
    a x b grid (see _is_canonical) with deg(u) + deg(v) - 1 <= c at every
    edge (u, v). Depth first, a prefix is cut with all its extensions on
    either of two hereditary tests: the edges at u or at v form a conflict
    clique that needs that many colors, and degrees only grow; a relabelling
    that lowers a sorted set without its largest edge lowers the set too.
    Canonicity is tested when the newest edge opens a row and on every
    complete set. ``counts`` gains the nodes extended and the prefixes each
    test cut; extending node budget + 1 raises _BudgetSpent."""
    cells = [(u, v) for u in range(1, a + 1) for v in range(1, b + 1)]
    row_deg, col_deg = [0] * (a + 1), [0] * (b + 1)

    def extend(prefix, start):
        if counts["nodes"] == budget:
            raise _BudgetSpent
        counts["nodes"] += 1
        for i in range(start, len(cells) - (M - len(prefix)) + 1):
            u, v = cells[i]
            combo = prefix + ((u, v),)
            row_deg[u] += 1
            col_deg[v] += 1
            if any(row_deg[x] + col_deg[y] - 1 > c for x, y in combo):
                counts["degree_cuts"] += 1
            elif ((not prefix or prefix[-1][0] != u or len(combo) == M)
                  and not _is_canonical(combo, b)):
                counts["canonical_cuts"] += 1
            elif len(combo) == M:
                yield combo
            else:
                yield from extend(combo, i + 1)
            row_deg[u] -= 1
            col_deg[v] -= 1

    try:
        yield from extend((), 0)
    finally:
        del extend  # the recursive closure is a reference cycle; free it now


def optimal_search(
    M: int, *, max_alphabet: int | None = None, graph_budget: int = 2_000_000
) -> OptimalResult:
    """Exact minimum of |U|*|V|*|W| over graphs and colorings holding M edges.

    Size triples are unordered (flipping links permutes the three roles), so
    candidates are a <= b <= c with every pairwise product at least M, tried
    in increasing product with lexicographic tie-break. For each triple,
    _edge_sets generates the M-edge sets of the a x b grid, one per
    isomorphism class and only those whose degrees allow c colors, and each
    is tested for a c-color strong edge coloring. The first feasible triple
    is optimal; the triples rejected on the way are reported alongside the
    witness, with per-triple counts in ``stats``. Building the witness's
    ColoringInstance verified its protocol. ``graph_budget`` caps the search
    nodes extended, over all triples; ``max_alphabet``, when given, refuses
    any larger M outright.
    """
    check_size(3, M)
    if max_alphabet is not None and M > max_alphabet:
        raise ValueError(f"M={M} exceeds the exhaustive-search limit {max_alphabet}")

    triples = itertools.combinations_with_replacement(range(1, M + 1), 3)  # a <= b <= c
    candidates = sorted((t for t in triples if t[0] * t[1] >= M), key=lambda t: (math.prod(t), t))

    stats = []  # every triple tried before the feasible one is infeasible
    for pos, (a, b, c) in enumerate(candidates):
        counts = {"nodes": 0, "degree_cuts": 0, "canonical_cuts": 0, "colorings": 0}
        witness = None
        try:
            for combo in _edge_sets(a, b, c, M, counts, graph_budget - sum(s.nodes for s in stats)):
                counts["colorings"] += 1
                witness = strong_edge_color(BipartiteRep(a, b, combo), c)
                if witness is not None:
                    break
        except _BudgetSpent:
            stats.append(TripleStats((a, b, c), **counts))
            raise SearchBudgetError(graph_budget, candidates[pos:], stats) from None
        stats.append(TripleStats((a, b, c), **counts))
        if witness is not None:
            product = a * b * c
            infeasible = tuple(s.sizes for s in stats[:-1])
            return OptimalResult(a, b, c, product, math.log2(product), witness, infeasible, tuple(stats))
    raise AssertionError("search space exhausted without a feasible triple")
