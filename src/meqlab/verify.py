"""Exhaustive correctness checks and the closed-form complexity bounds.

Both problem flavours are decided over all M**n input vectors; sampling can
never certify a universally quantified contract, so an instance whose input
space exceeds the budget is refused outright.

A general protocol is replayed on every vector in lexicographic order. A
table protocol is decided by a lexicographic join search instead: a receiver
raises its flag exactly when an incoming symbol differs from the one its own
input would send, so a violation is a non-constant input on which every
checked link's two endpoints send the same symbol. Such inputs are found node
by node from per-link symbol buckets, as in generic join (Ngo, Porat, Re and
Rudra, PODS 2012), without visiting the vectors the buckets rule out.
"""

import math
from dataclasses import dataclass

from .core import (
    GeneralProtocol,
    Protocol,
    TableProtocol,
    _run_general,
    _run_table,
    check_size,
    eq_oracle,
    input_space,
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
    lower-ranked vector was shown to satisfy the contract.
    """

    ok: bool
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    vectors_checked: int = 0


def _check_budget(p: Protocol, budget: int) -> int:
    total = p.M**p.n
    if total > budget:
        raise EnumerationBudgetError(p.n, p.M, budget)
    return total


def _rank(values: tuple[int, ...], M: int) -> int:
    """1-based position of `values` in the lexicographic order of input_space."""
    rank = 0
    for x in values:
        rank = rank * M + x - 1
    return rank + 1


def _replay(p: GeneralProtocol, total: int, violated) -> Verdict:
    for rank, values in enumerate(input_space(p.n, p.M), 1):
        decisions = _run_general(p, values)[2]
        if violated(values, decisions):
            return Verdict(False, (values, tuple(decisions)), rank)
    return Verdict(True, None, total)


def _agreeing_input(t: TableProtocol, links) -> tuple[int, ...] | None:
    """Lexicographically smallest non-constant input on which every link in
    `links` carries the symbol its receiver's own input would send, or None.

    Nodes are assigned depth first in order 1..n, and links point from lower
    to higher ids, so every sender is assigned before its receiver. The
    candidates for a node are the inputs in the bucket of the symbol received
    on each of its incoming links, intersected (all of 1..M when it has
    none). They are tried in ascending order, so complete assignments appear
    in lexicographic order and the first non-constant one is the smallest;
    at most M constant ones come before it.
    """
    n = t.n
    incoming = [[] for _ in range(n)]
    for lk in links:
        buckets = {}
        for x, sym in enumerate(lk.symbols, 1):
            buckets.setdefault(sym, set()).add(x)
        incoming[lk.receiver - 1].append((lk.sender - 1, lk.symbols, buckets))
    every = range(1, t.M + 1)
    values = [0] * n

    def candidates(j: int):
        if not incoming[j]:
            return iter(every)
        return iter(sorted(set.intersection(*(
            buckets[symbols[values[s] - 1]] for s, symbols, buckets in incoming[j]
        ))))

    stack = [candidates(0)]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            continue
        values[len(stack) - 1] = x
        if len(stack) < n:
            stack.append(candidates(len(stack)))
        elif values.count(values[0]) < n:
            return tuple(values)
    return None


def _search(t: TableProtocol, links, total: int) -> Verdict:
    values = _agreeing_input(t, links)
    if values is None:
        return Verdict(True, None, total)
    return Verdict(False, (values, tuple(_run_table(t, values)[2])), _rank(values, t.M))


def verify_ad(p: Protocol, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does some node flag every unequal input, and none flag an equal one?

    ok iff for every input vector: (all decisions 0) <=> (all inputs equal).
    """
    total = _check_budget(p, budget)
    if isinstance(p, TableProtocol):
        return _search(p, p.links, total)
    return _replay(p, total, lambda values, decisions: int(any(decisions)) != eq_oracle(values))


def verify_cd(p: Protocol, detector: int | None = None, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does the detector node output the exact equality bit on every input?

    Other nodes' decisions are unconstrained. `detector` defaults to node n.
    """
    node = p.n if detector is None else detector
    if not 1 <= node <= p.n:
        raise ValueError(f"detector {node} outside 1..{p.n}")
    total = _check_budget(p, budget)
    if isinstance(p, TableProtocol):
        return _search(p, [lk for lk in p.links if lk.receiver == node], total)
    return _replay(p, total, lambda values, decisions: decisions[node - 1] != eq_oracle(values))


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
