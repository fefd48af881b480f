"""Every concrete protocol family in the workbench.

The six-value three-node protocol (27 symbol combinations instead of the
obvious 36) is the seed; the other builders either widen it, run it once per
digit of a vector encoding, or frame its symbols into fixed-width binary
words. The integer formula for the binary construction lives here too, as
does the wrapper that turns any anyone-detects protocol into a
centralized-detect one.
"""

from itertools import islice, product

from .core import (
    GeneralProtocol,
    LinkTable,
    TableProtocol,
    check_int,
    check_size,
    dense_link,
    materialize,
    rules,
)
from .verify import DEFAULT_BUDGET, BudgetError, verify_ad


def check_table_size(links: int, base: int, exponent: int = 1) -> None:
    """Refuse, with BudgetError, a table protocol of `links` links over
    M = base**exponent inputs when its links * M entries exceed
    DEFAULT_BUDGET, so that a builder fails before it allocates them. Sizes
    below one are left to the builders' own checks. An exponent beyond the
    budget's bit length is refused by that comparison alone, so a huge power
    is never computed."""
    if links < 1 or base < 1 or exponent < 0:
        return
    if base > 1 and exponent > DEFAULT_BUDGET.bit_length() or links * base**exponent > DEFAULT_BUDGET:
        M = base if exponent == 1 else f"{base}**{exponent}"
        raise BudgetError(f"{links} link tables of {M} entries exceed budget {DEFAULT_BUDGET}")


def star_protocol(n: int, M: int) -> TableProtocol:
    """Everyone sends their raw value to the last node, which compares."""
    check_size(n, M)
    check_table_size(n - 1, M)
    identity = tuple(range(1, M + 1))
    links = tuple(LinkTable(i, n, identity) for i in range(1, n))
    return TableProtocol(n, M, links)


def table36() -> TableProtocol:
    """Three-node protocol for six values with three symbols per link.

    Each link partitions the six inputs into three classes; the partitions
    are chosen so any two distinct values are separated on some link visible
    to a common node.
    """
    return TableProtocol(3, 6, (
        LinkTable(1, 2, (1, 1, 2, 2, 3, 3)),
        LinkTable(1, 3, (1, 2, 2, 3, 3, 1)),
        LinkTable(2, 3, (1, 2, 3, 1, 2, 3)),
    ))


def extended_table(h: int) -> TableProtocol:
    """Widen the six-value tables to M = 6**h in one shot.

    First link pairs consecutive inputs, second link pairs them shifted by
    one with wraparound, third link cycles three symbols. Reduces to
    table36() at h=1; costs (M/2) * (M/2) * 3 symbol combinations.
    """
    if check_int(h, "h") < 1:
        raise ValueError("h must be at least 1")
    check_table_size(3, 6, h)
    M = 6**h
    half = M // 2
    ab = tuple((x + 1) // 2 for x in range(1, M + 1))
    ac = tuple((x // 2) % half + 1 for x in range(1, M + 1))
    bc = tuple((x - 1) % 3 + 1 for x in range(1, M + 1))
    return TableProtocol(3, M, (
        LinkTable(1, 2, ab),
        LinkTable(1, 3, ac),
        LinkTable(2, 3, bc),
    ))


def least_exponent(base: int, value: int) -> int:
    """Smallest e >= 0 with base**e >= value, by integer comparison."""
    if base < 2 or value < 1:
        raise ValueError("need base >= 2 and value >= 1")
    e, power = 0, 1
    while power < value:
        e += 1
        power *= base
    return e


def parallel_compose(base: TableProtocol, M: int) -> TableProtocol:
    """Run one instance of `base` per digit of the inputs 1..M, bundling each
    link's per-digit symbols into a single combined symbol.

    Input x is the big-endian base-`base.M` expansion of x-1, each digit plus
    one, over h = least_exponent(base.M, M) digits. The encoding is injective,
    which is what lets per-digit equality checks decide equality of the
    original values. The combined ranges are tightened, so the cost never
    exceeds h times the base cost.
    """
    if not isinstance(base, TableProtocol):
        raise ValueError("parallel_compose expects a table-kind protocol")
    check_table_size(len(base.links), check_int(M, "M"))
    h = least_exponent(base.M, M)
    # product runs over table positions, so its first M tuples are the
    # link's symbols on the digit vectors of 1..M in order
    links = [
        dense_link(lk.sender, lk.receiver, list(islice(product(lk.symbols, repeat=h), M)))
        for lk in base.links
    ]
    return TableProtocol(base.n, M, tuple(links))


def par6h(h: int) -> TableProtocol:
    """table36() run once per base-6 digit of 1..6**h; table36() itself at h=1."""
    if check_int(h, "h") < 1:
        raise ValueError("h must be at least 1")
    check_table_size(3, 6, h)
    return parallel_compose(table36(), 6**h)


def meq3_2k(k: int) -> TableProtocol:
    """Binary-framed three-node protocol for M = 2**k.

    The digit-parallel composition of the six-value protocol over base-6
    vectors of length h = least power of 6 reaching 2**k, framed into
    b = ceil(h*log2(3))-bit words. Each link's combined symbol ranks its h
    three-way symbols, which is their big-endian base-3 word plus one.
    Every link declares the full 2**b range (the word is transmitted bit by
    bit), so the cost is exactly 3b bits.
    """
    check_table_size(3, 2, check_int(k, "k"))
    b = complexity_formula_2k(k) // 3
    links = parallel_compose(table36(), 2**k).links
    return TableProtocol(3, 2**k, tuple(LinkTable(lk.sender, lk.receiver, lk.symbols, 2**b) for lk in links))


def complexity_formula_2k(k: int) -> int:
    """Bit cost 3*ceil(h*log2(3)), h = ceil(k*log6(2)), of meq3_2k(k).

    Evaluated purely with integer power comparisons: near ties (such as
    k=39, where the cost equals the 2k baseline exactly) float rounding
    would corrupt the staircase.
    """
    if check_int(k, "k") < 1:
        raise ValueError("k must be at least 1")
    h = least_exponent(6, 2**k)
    return 3 * least_exponent(2, 3**h)


def cd_wrapper(p: TableProtocol, budget: int = DEFAULT_BUDGET) -> GeneralProtocol:
    """Turn an anyone-detects protocol into a centralized-detect one.

    After the base schedule, every interior node (ids 2..n-1) reports its
    decision bit to node n over one declared-binary step; node n outputs the
    maximum of all decisions, its own and the reported ones. Node 1 never
    receives anything and so never detects, which is why it sends no report. Costs
    exactly n-2 extra bits. Rejects a base that fails the anyone-detects
    check.
    """
    if not isinstance(p, TableProtocol):
        raise ValueError("cd_wrapper expects a table-kind protocol")
    verdict = verify_ad(p, budget)
    if not verdict.ok:
        raise ValueError(
            f"base protocol is incorrect (counterexample {verdict.counterexample[0]}); refusing to wrap"
        )
    reporters = list(range(2, p.n))
    schedule, link_send, link_decide = rules(p)
    schedule += [(i, p.n) for i in reporters]
    base = len(p.links)
    ranges = [lk.range_size for lk in p.links] + [2] * len(reporters)

    def send(l, x, h):
        return link_send(l, x, h) if l < base else link_decide(reporters[l - base], x, h) + 1

    def decide(node, x, h):
        # node n's history ends with the reported bits plus one, which link_decide ignores
        return int(link_decide(node, x, h) or (node == p.n and 2 in h[len(h) - len(reporters):]))

    return materialize(p.n, p.M, schedule, send, decide, ranges)
