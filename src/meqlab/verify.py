"""Exhaustive correctness checks and the closed-form complexity bounds.

Both problem flavours are decided over all M**n input vectors; sampling can
never certify a universally quantified contract, so an instance whose input
space exceeds the budget is refused outright.

No path replays every vector one at a time. A general protocol is decided
leaf by leaf over its transcript rectangles (`core.rectangles`): inside one,
each node decides on its own input alone, so the smallest violation of a
leaf takes one pass over its sets. Every reachable table and decision entry
is read, so a missing one raises MalformedProtocolError even where a
smaller counterexample exists. A table protocol is decided by a
lexicographic join search: a receiver raises its flag exactly when an
incoming symbol differs from the one its own input would send, so a
violation is a non-constant input on which every checked link's two
endpoints send the same symbol. Such inputs are found node by node from
per-link symbol buckets, as in generic join (Ngo, Porat, Re and Rudra, PODS
2012), with forward checking (Haralick and Elliott, AIJ 1980): a value is
kept only while every receiver it sends to still has an input left that
matches all the symbols it has been sent, so no branch without a complete
extension is entered.
"""

import math
from dataclasses import dataclass, field
from itertools import repeat

from .core import (
    GeneralProtocol,
    Protocol,
    TableProtocol,
    check_size,
    decided_rectangles,
    simulate,
)

DEFAULT_BUDGET = 10**8


class EnumerationBudgetError(Exception):
    """The input space exceeds the enumeration budget; nothing was checked."""

    def __init__(self, n: int, M: int, budget: int):
        self.n = n
        self.M = M
        self.budget = budget
        self.required = M**n
        super().__init__(f"{M}**{n} = {self.required} input vectors exceed budget {budget}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive check.

    When `ok` is false, `counterexample` holds the offending input tuple and
    the decision tuple it produced; replaying the protocol on that input
    reproduces the violation. The reported counterexample is the
    lexicographically smallest one.

    `vectors_checked` is the number of input vectors decided: M**n when `ok`,
    otherwise the counterexample's 1-based lexicographic rank, since every
    lower-ranked vector was shown to satisfy the contract. Both search
    paths decide vectors in bulk, by rectangle or by symbol bucket, so it
    counts vectors decided, not vectors visited.

    `nodes` is the work the search did: the partial assignments the join
    search made for a table protocol, the transcript leaves read for a
    general one. It takes no part in equality, so two verdicts are equal
    when they decide the same.
    """

    ok: bool
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    vectors_checked: int = 0
    nodes: int = field(default=0, compare=False)


def _check_budget(p: Protocol, budget: int) -> int:
    total = p.M**p.n
    if total > budget:
        raise EnumerationBudgetError(p.n, p.M, budget)
    return total


def _rank(values: tuple[int, ...], M: int) -> int:
    """1-based position of `values` among all inputs in lexicographic order."""
    rank = 0
    for x in values:
        rank = rank * M + x - 1
    return rank + 1


def _first_nonconstant(n: int, candidates, state=None) -> tuple[tuple[int, ...] | None, int]:
    """The first non-constant vector of a depth-first search, or None if
    there is none, and the number of partial assignments made on the way.

    ``candidates(j, state)`` gives node j's values in ascending order, each
    paired with the state that node j+1's candidates take; `state` is node
    1's. Complete vectors appear in lexicographic order, so the vector found
    is the smallest one."""
    values = [0] * n
    stack = [iter(candidates(0, state))]
    nodes = 0
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            continue
        depth = len(stack)
        values[depth - 1], state = pair
        nodes += 1
        if depth < n:
            stack.append(iter(candidates(depth, state)))
        elif values.count(values[0]) < n:
            return tuple(values), nodes
    return None, nodes


def _smallest_violation(p: GeneralProtocol, checked) -> tuple[tuple[int, ...] | None, int]:
    """Lexicographically smallest input on which a node in `checked` gets
    the equality bit wrong (all of them say 0 on an unequal input, or one
    says 1 on an equal one), or None; and the number of leaves read.

    Inside a leaf S_1 x ... x S_n of p's transcript tree each node decides
    on its own input alone. Let Z_i hold the inputs in S_i on which node i
    raises no checked flag. A violation there is a constant input in every
    S_i that some checked node flags, or a non-constant vector of the
    product of the Z_i; the smallest over all leaves is the answer. Every
    leaf is read, so a missing reachable entry raises
    MalformedProtocolError whatever the verdict.
    """
    best, leaves = None, 0
    for sets, bits in decided_rectangles(p):
        leaves += 1
        zs, raised = [], set()
        for node, (xs, bs) in enumerate(zip(sets, bits), 1):
            if node in checked:
                zs.append([x for x, bit in zip(xs, bs) if not bit])
                raised.update(x for x, bit in zip(xs, bs) if bit)
            else:
                zs.append(xs)
        constant = min(raised.intersection(*sets), default=None)
        # an empty Z_i leaves nothing to find, and would send the search through
        # every choice before it; with none empty it passes one constant vector at most
        unflagged = None
        if all(zs):
            unflagged, _ = _first_nonconstant(p.n, lambda j, _: zip(zs[j], repeat(None)))
        for values in (unflagged, constant and (constant,) * p.n):
            if values and (best is None or values < best):
                best = values
    return best, leaves


def _agreeing_input(t: TableProtocol, links) -> tuple[tuple[int, ...] | None, int]:
    """Lexicographically smallest non-constant input on which every link in
    `links` carries the symbol its receiver's own input would send, or None;
    and the number of partial assignments made.

    Nodes are assigned depth first in order 1..n, and links point from lower
    to higher ids, so every sender is assigned before its receiver. Each
    receiver keeps a domain: the inputs that agree with the symbols of all
    its assigned senders, the intersection of one bucket per link (None
    while it has been sent nothing, so all of 1..M). A node's candidates are
    its sorted domain. A candidate is dropped when it would empty the domain
    of a node it sends to, since it then has no complete extension; a kept
    one passes the narrowed domains on. Candidates are tried in ascending
    order, so complete assignments appear in lexicographic order and the
    first non-constant one is the smallest; at most M constant ones come
    before it.
    """
    outgoing = [[] for _ in range(t.n)]
    for lk in links:
        buckets = {}
        for x, sym in enumerate(lk.symbols, 1):
            buckets.setdefault(sym, set()).add(x)
        outgoing[lk.sender - 1].append((lk.receiver - 1, [buckets[sym] for sym in lk.symbols]))
    every = range(1, t.M + 1)

    def candidates(j: int, domains):
        for x in every if domains[j] is None else sorted(domains[j]):
            narrowed = list(domains)
            for r, agreeing in outgoing[j]:
                domain = agreeing[x - 1] if narrowed[r] is None else narrowed[r] & agreeing[x - 1]
                if not domain:
                    break
                narrowed[r] = domain
            else:
                yield x, narrowed

    return _first_nonconstant(t.n, candidates, [None] * t.n)


def _decide(p: Protocol, checked: set[int], total: int) -> Verdict:
    if isinstance(p, TableProtocol):
        values, nodes = _agreeing_input(p, [lk for lk in p.links if lk.receiver in checked])
    else:
        values, nodes = _smallest_violation(p, checked)
    if values is None:
        return Verdict(True, None, total, nodes)
    return Verdict(False, (values, simulate(p, values).decisions), _rank(values, p.M), nodes)


def verify_ad(p: Protocol, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does some node flag every unequal input, and none flag an equal one?

    ok iff for every input vector: (all decisions 0) <=> (all inputs equal).
    """
    return _decide(p, set(range(1, p.n + 1)), _check_budget(p, budget))


def verify_cd(p: Protocol, detector: int | None = None, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does the detector node output the exact equality bit on every input?

    Other nodes' decisions are unconstrained. `detector` defaults to node n.
    """
    node = p.n if detector is None else detector
    if not 1 <= node <= p.n:
        raise ValueError(f"detector {node} outside 1..{p.n}")
    return _decide(p, {node}, _check_budget(p, budget))


def fooling_lower_bound(n: int, M: int) -> float:
    """(n/2)*log2(M): pigeonhole over the communication crossing each
    one-node-vs-rest cut, summed over all n cuts. Every correct protocol,
    of either flavour, costs at least this many bits."""
    check_size(n, M)
    return n * math.log2(M) / 2


def trivial_upper_bound(n: int, M: int) -> float:
    """(n-1)*log2(M): everyone forwards their raw value to one collector."""
    check_size(n, M)
    return (n - 1) * math.log2(M)
