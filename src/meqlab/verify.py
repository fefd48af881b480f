"""Exhaustive correctness checks and the closed-form complexity bounds.

Both problem flavours are decided over all M**n input vectors; sampling can
never certify a universally quantified contract, so an instance whose input
space exceeds the budget is refused outright.

No path replays every vector one at a time. Both protocol kinds ask one
search, `_smallest_join`, for the smallest non-constant input whose values
come from per-node candidate sets. A table receiver raises its flag exactly
when an incoming symbol differs from the one its own input would send, so a
violation is such an input on which every checked link's two endpoints send
the same symbol: the sets are narrowed along those links, as in generic join
(Ngo, Porat, Re and Rudra, PODS 2012). A general protocol is decided leaf by
leaf over its transcript rectangles (`core.rectangles`): inside one, each
node decides on its own input alone, so the sets are the inputs no checked
node flags and no link joins them. Every reachable table and decision entry
is read, so a missing one raises MalformedProtocolError even where a
smaller counterexample exists.
"""

import math
from itertools import compress
from operator import not_

from .core import (
    Frozen,
    GeneralProtocol,
    Protocol,
    TableProtocol,
    check_int,
    check_size,
    decided_rectangles,
    simulate,
)

DEFAULT_BUDGET = 10**8


class BudgetError(Exception):
    """A budget ran out before the work finished: the base of every budget
    refusal, which the CLI reports as one line and exit code 3."""


class EnumerationBudgetError(BudgetError):
    """The input space, counted as max(M, 2)**n so that n is bounded even at
    M=1, exceeds the enumeration budget; nothing was checked."""

    def __init__(self, n: int, M: int, budget: int):
        self.n = n
        self.M = M
        self.budget = budget
        count = f"{M}**{n} input vectors" if M > 1 else f"2**{n} (n={n} nodes at M=1)"
        super().__init__(f"{count} exceed budget {budget}")


class Verdict(Frozen):
    """Outcome of an exhaustive check.

    When `ok` is false, `counterexample` holds the offending input tuple and
    the decision tuple it produced; replaying the protocol on that input
    reproduces the violation. The reported counterexample is the
    lexicographically smallest one.

    `vectors_checked` is the number of input vectors decided: M**n when `ok`,
    otherwise the counterexample's 1-based lexicographic rank, since every
    lower-ranked vector was shown to satisfy the contract. The join decides
    vectors in bulk, by symbol bucket or by rectangle, so it counts vectors
    decided, not vectors visited.

    `nodes` is the work the search did: the join's partial assignments for a
    table protocol, the transcript leaves read for a general one. It takes
    no part in equality, so two verdicts are equal when they decide the same.
    """

    __slots__ = _fields = ("ok", "counterexample", "vectors_checked", "nodes")

    def __init__(self, ok: bool, counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
                 vectors_checked: int = 0, nodes: int = 0):
        self._set(ok, counterexample, vectors_checked, nodes)

    def _key(self) -> tuple:
        return self.ok, self.counterexample, self.vectors_checked


def _check_budget(p: Protocol, budget: int) -> int:
    # counting 2**n at M=1 bounds n, which the search still pays for per node;
    # m**k with m >= 2 passes any budget below 2**k, so m**n is never built in full
    if max(p.M, 2) ** min(p.n, check_int(budget, "budget").bit_length() + 1) > budget:
        raise EnumerationBudgetError(p.n, p.M, budget)
    return p.M**p.n


def _rank(values: tuple[int, ...], M: int) -> int:
    """1-based position of `values` among all inputs in lexicographic order."""
    rank = 0
    for x in values:
        rank = rank * M + x - 1
    return rank + 1


def _smallest_join(M: int, outgoing, domains) -> tuple[tuple[int, ...] | None, int]:
    """The lexicographically smallest non-constant input whose value x_j
    lies in domains[j] (None for all of 1..M, a set where a link leads) and
    agrees along every link, or None; and the number of partial assignments
    made.

    outgoing[j] lists pairs (r, agreeing) with r > j: agreeing[x-1] holds
    node r's inputs that agree with node j holding x. Nodes are assigned
    depth first in order 1..n, each trying its domain in ascending order, so
    complete assignments appear in lexicographic order and at most M
    constant ones come before the answer. With forward checking (Haralick
    and Elliott, AIJ 1980), a value is dropped when it would empty the
    domain of a node it links to, since it then has no complete extension;
    a kept one passes on the narrowed domains, each the intersection of one
    agreeing set per assigned sender. `coloring.strong_edge_color` calls it
    too, with a graph's edges as positions and colors as values: a conflict
    pair links its lower edge to its higher one, agreeing on every color
    but the sender's.
    """
    n = len(domains)

    def candidates(j: int, domains):
        for x in range(1, M + 1) if domains[j] is None else sorted(domains[j]):
            narrowed = list(domains)
            for r, agreeing in outgoing[j]:
                domain = agreeing[x - 1] if narrowed[r] is None else narrowed[r] & agreeing[x - 1]
                if not domain:
                    break
                narrowed[r] = domain
            else:
                yield x, narrowed

    values = [0] * n
    stack = [candidates(0, domains)]
    nodes = 0
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            continue
        depth = len(stack)
        values[depth - 1], narrowed = pair
        nodes += 1
        if depth < n:
            stack.append(candidates(depth, narrowed))
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
    product of the Z_i, the join over the Z_i with no links; the smallest
    over all leaves is the answer. Every leaf is read, so a missing
    reachable entry raises MalformedProtocolError whatever the verdict.
    """
    best, leaves = None, 0
    for sets, bits in decided_rectangles(p):
        leaves += 1
        zs, raised = [], set()
        for node, (xs, bs) in enumerate(zip(sets, bits), 1):
            if node in checked:
                zs.append(list(compress(xs, map(not_, bs))))
                raised.update(compress(xs, bs))
            else:
                zs.append(xs)
        constant = min(raised.intersection(*sets), default=None)
        # an empty Z_i leaves nothing to find, and would send the join through
        # every choice before it; with none empty it passes one constant vector at most
        unflagged = _smallest_join(p.M, [()] * p.n, zs)[0] if all(zs) else None
        for values in (unflagged, constant and (constant,) * p.n):
            if values and (best is None or values < best):
                best = values
    return best, leaves


def _agreeing_input(t: TableProtocol, links) -> tuple[tuple[int, ...] | None, int]:
    """Lexicographically smallest non-constant input on which every link in
    `links` carries the symbol its receiver's own input would send, or None;
    and the number of partial assignments made. Links point from lower to
    higher ids, and a receiver's inputs that agree with a sender input are
    the bucket of the symbol it sends."""
    outgoing = [[] for _ in range(t.n)]
    for lk in links:
        buckets = {}
        for x, sym in enumerate(lk.symbols, 1):
            buckets.setdefault(sym, set()).add(x)
        outgoing[lk.sender - 1].append((lk.receiver - 1, [buckets[sym] for sym in lk.symbols]))
    return _smallest_join(t.M, outgoing, [None] * t.n)


def _decide(p: Protocol, total: int, checked: set[int]) -> Verdict:
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
    return _decide(p, _check_budget(p, budget), set(range(1, p.n + 1)))


def verify_cd(p: Protocol, detector: int | None = None, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does the detector node output the exact equality bit on every input?

    Other nodes' decisions are unconstrained. `detector` defaults to node n.
    """
    node = p.n if detector is None else detector
    if not 1 <= check_int(node, "detector") <= p.n:
        raise ValueError(f"detector {node} outside 1..{p.n}")
    return _decide(p, _check_budget(p, budget), {node})


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
