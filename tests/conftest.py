import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from meqlab import (
    BipartiteRep,
    GeneralProtocol,
    LinkTable,
    MalformedProtocolError,
    Step,
    TableProtocol,
    Verdict,
    conflict_pairs,
    simulate,
    star_protocol,
    strong_edge_color,
)
from meqlab.coloring import _is_canonical
from meqlab.core import materialize, rules

SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict:
    """The environment for a new interpreter that imports meqlab from this
    checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def fresh_python(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports meqlab from
    this checkout."""
    return subprocess.run([sys.executable, "-c", code], env=checkout_env(), check=True, capture_output=True,
                          text=True, timeout=60).stdout


def dense_random_table(rng: random.Random, M: int) -> tuple[int, ...]:
    """Random length-M table renumbered so its symbols are exactly 1..S."""
    raw = [rng.randint(1, M) for _ in range(M)]
    rank = {s: r for r, s in enumerate(sorted(set(raw)), 1)}
    return tuple(rank[s] for s in raw)


def random_correct_protocol(rng: random.Random, M: int) -> TableProtocol:
    """Random three-node protocol that provably solves the detection problem.

    Left and right tables are drawn until no two inputs collide on both, and
    the third table is a greedy strong edge coloring of the induced graph in
    a shuffled edge order. Validity of the coloring is what makes the
    protocol correct, so every draw is correct by construction.
    """
    while True:
        ab = dense_random_table(rng, M)
        ac = dense_random_table(rng, M)
        pairs = tuple(zip(ab, ac))
        if len(set(pairs)) == M:
            break
    graph = BipartiteRep(max(ab), max(ac), pairs)
    neighbours = {x: set() for x in range(1, M + 1)}
    for x, y in conflict_pairs(graph):
        neighbours[x].add(y)
        neighbours[y].add(x)
    order = list(range(1, M + 1))
    rng.shuffle(order)
    colors = {}
    for x in order:
        taken = {colors[y] for y in neighbours[x] if y in colors}
        colors[x] = min(c for c in range(1, M + 1) if c not in taken)
    bc = tuple(colors[x] for x in range(1, M + 1))
    return TableProtocol(3, M, (
        LinkTable(1, 2, ab),
        LinkTable(1, 3, ac),
        LinkTable(2, 3, bc),
    ))


def rows(entries: dict) -> dict:
    """The ``{history: {input: value}}`` table of ``{(input, history):
    value}`` entries, the form the tests spell tables in."""
    table = {}
    for (x, h), value in entries.items():
        table.setdefault(h, {})[x] = value
    return table


def entries(table) -> dict:
    """The ``{(input, history): value}`` entries of a ``{history: {input:
    value}}`` table; `rows` inverts it."""
    return {(x, h): value for h, row in table.items() for x, value in row.items()}


def link(t: TableProtocol, sender: int, receiver: int) -> LinkTable:
    """The link of t from `sender` to `receiver`; KeyError if t has none."""
    for lk in t.links:
        if (lk.sender, lk.receiver) == (sender, receiver):
            return lk
    raise KeyError((sender, receiver))


def eq_oracle(v) -> int:
    """0 if every node holds the same value, 1 otherwise."""
    values = tuple(v)
    first = values[0]
    return 0 if all(x == first for x in values) else 1


def to_bipartite(t: TableProtocol) -> BipartiteRep:
    """Project a three-node protocol onto its edge graph.

    Requires links 1->2, 1->3 and 2->3 to all be present. Vertices are the
    symbols of links 1->2 and 1->3 themselves, which LinkTable keeps dense.
    """
    if t.n != 3:
        raise ValueError("bipartite view is defined for three-node protocols")
    try:
        ab = link(t, 1, 2).symbols
        ac = link(t, 1, 3).symbols
        link(t, 2, 3)
    except KeyError as missing:
        raise ValueError(f"protocol lacks link {missing.args[0]}") from None
    return BipartiteRep(max(ab), max(ac), tuple(zip(ab, ac)))


def tighten(p: GeneralProtocol) -> GeneralProtocol:
    """p rebuilt with every range recomputed from the symbols realized over
    all inputs."""
    return materialize(p.n, p.M, *rules(p))


STAR_SIZES = {3: 8, 4: 6, 5: 4}


def relabelled_star(n: int, rng: random.Random) -> TableProtocol:
    """star_protocol(n, M) with its inputs renamed by a seeded permutation:
    input x sends what input perm[x-1] sent."""
    star = star_protocol(n, STAR_SIZES[n])
    perm = rng.sample(range(1, star.M + 1), star.M)
    return TableProtocol(n, star.M, tuple(
        LinkTable(lk.sender, lk.receiver, tuple(lk.symbols[y - 1] for y in perm))
        for lk in star.links
    ))


def brute_force_verdicts(p) -> dict:
    """Exhaustive verdicts by replaying `simulate` on every input in
    lexicographic order, independent of `meqlab.verify`.

    Key None holds the anyone-detects verdict and key d the
    centralized-detect verdict with detector d. A failing verdict reports its
    counterexample's 1-based rank as the vectors checked.
    """
    flavours = (None, *range(1, p.n + 1))
    found = {}
    inputs = itertools.product(range(1, p.M + 1), repeat=p.n)
    for rank, values in enumerate(inputs, 1):
        decisions = simulate(p, values).decisions
        unequal = int(len(set(values)) > 1)
        for d in flavours:
            raised = int(any(decisions)) if d is None else decisions[d - 1]
            if d not in found and raised != unequal:
                found[d] = Verdict(False, (values, decisions), rank)
        if len(found) == len(flavours):
            break
    return {d: found.get(d, Verdict(True, None, p.M**p.n)) for d in flavours}


def canonical_oracle(edges, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """Smallest sorted relabelling of an edge set on an a x b grid, taken
    over all a!*b! row and column permutations."""
    return min(
        tuple(sorted((rp[u - 1], cp[v - 1]) for u, v in edges))
        for rp in itertools.permutations(range(1, a + 1))
        for cp in itertools.permutations(range(1, b + 1))
    )


def conflict_oracle(g: BipartiteRep) -> frozenset[tuple[int, int]]:
    """Label pairs whose edges share an endpoint or are both adjacent to a
    common edge, found by trying every edge as the bridge."""
    def adjacent(e, f):
        return e[0] == f[0] or e[1] == f[1]

    return frozenset(
        (x, y)
        for x, y in itertools.combinations(range(1, g.M + 1), 2)
        if adjacent(g.edges[x - 1], g.edges[y - 1])
        or any(adjacent(g.edges[x - 1], e) and adjacent(g.edges[y - 1], e) for e in g.edges)
    )


def materialize_oracle(n, M, schedule, semantics, ranges=None) -> GeneralProtocol:
    """Dense tables rebuilt by replaying `semantics(values) -> (symbols,
    decisions)` on every input in lexicographic order, independent of
    `meqlab.core.materialize`.

    Tables are keyed by the reachable (input, history) pairs of the symbols
    as returned; a key met twice with different outputs raises. The realized
    symbols of each step are then ranked 1..S, in table values and history
    keys alike. `ranges`, if given, declares each step's range in schedule
    order instead.
    """
    tables = [{} for _ in schedule]
    decision_tables = {node: {} for node in range(1, n + 1)}
    for values in itertools.product(range(1, M + 1), repeat=n):
        symbols, decisions = semantics(values)
        received = [[] for _ in range(n)]
        for l, (sender, receiver) in enumerate(schedule):
            key = (values[sender - 1], tuple(received[sender - 1]))
            if tables[l].setdefault(key, symbols[l]) != symbols[l]:
                raise MalformedProtocolError(f"step {l + 1} is not a function of {key}")
            received[receiver - 1].append(symbols[l])
        for node in range(1, n + 1):
            key = (values[node - 1], tuple(received[node - 1]))
            if decision_tables[node].setdefault(key, decisions[node - 1]) != decisions[node - 1]:
                raise MalformedProtocolError(f"node {node}'s decision is not a function of {key}")

    ranks = [{s: r for r, s in enumerate(sorted(set(table.values())), 1)} for table in tables]
    heard = {node: [l for l, (_, r) in enumerate(schedule) if r == node] for node in range(1, n + 1)}

    def renumber(node, key):
        x, history = key
        return x, tuple(ranks[l][sym] for l, sym in zip(heard[node], history))

    steps = []
    for l, (sender, receiver) in enumerate(schedule):
        size = len(ranks[l]) if ranges is None else ranges[l]
        table = {renumber(sender, key): ranks[l][sym] for key, sym in tables[l].items()}
        steps.append(Step(sender, receiver, rows(table), size))
    decisions = {
        node: rows({renumber(node, key): bit for key, bit in table.items()})
        for node, table in decision_tables.items()
    }
    return GeneralProtocol(n, M, tuple(steps), decisions)


def _entries(table) -> list:
    """The list of entries of a {history: {input: output}} table."""
    return [{"input": x, "history": list(hist), "out": out} for (x, hist), out in sorted(entries(table).items())]


def protocol_to_doc(p) -> dict:
    """The document of p's file, built as plain lists and dicts,
    independent of `meqlab.serial.dumps`."""
    if isinstance(p, TableProtocol):
        links = []
        for lk in p.links:
            entry = {"from": lk.sender, "to": lk.receiver, "symbols": list(lk.symbols)}
            if lk.range_size > max(lk.symbols):
                entry["range"] = lk.range_size
            links.append(entry)
        return {"kind": "table", "n": p.n, "M": p.M, "links": links}
    steps = [
        {"from": st.sender, "to": st.receiver, "range": st.range_size, "table": _entries(st.table)}
        for st in p.steps
    ]
    decisions = [{"node": node, "table": _entries(p.decisions[node])} for node in sorted(p.decisions)]
    return {"kind": "general", "n": p.n, "M": p.M, "steps": steps, "decisions": decisions}


def dumps_oracle(p) -> str:
    """The text of p's file as Python's json module lays out its document,
    independent of `meqlab.serial.dumps`."""
    return json.dumps(protocol_to_doc(p), indent=2, sort_keys=True) + "\n"


def search_oracle(M: int):
    """The exact three-node optimum by testing every canonical M-edge set
    that itertools.combinations lists for a coloring, without pruning or a
    budget, independent of `meqlab.coloring._edge_sets`. Returns the product,
    the size triple, the rejected triples and the witness."""
    candidates = sorted(
        (
            (a, b, c)
            for a in range(1, M + 1)
            for b in range(a, M + 1)
            for c in range(b, M + 1)
            if a * b >= M
        ),
        key=lambda t: (t[0] * t[1] * t[2], t),
    )

    infeasible = []
    for a, b, c in candidates:
        cells = [(u, v) for u in range(1, a + 1) for v in range(1, b + 1)]
        witness = None
        for combo in itertools.combinations(cells, M):
            if not _is_canonical(combo, b):
                continue
            inst = strong_edge_color(BipartiteRep(a, b, combo), c)
            if inst is not None:
                witness = inst
                break
        if witness is None:
            infeasible.append((a, b, c))
            continue
        return a * b * c, (a, b, c), tuple(infeasible), witness
    raise AssertionError("search space exhausted without a feasible triple")
