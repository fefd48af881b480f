import itertools
import math
import tracemalloc

import pytest

from meqlab import (
    cd_wrapper,
    complexity,
    complexity_formula_2k,
    extended_table,
    meq3_2k,
    par6h,
    parallel_compose,
    simulate,
    star_protocol,
    table36,
    verify_ad,
    verify_cd,
)
from meqlab import constructions
from meqlab.constructions import check_table_size, least_exponent
from meqlab.verify import BudgetError

from conftest import link, tighten


def test_star_complexity():
    assert complexity(star_protocol(3, 6)).product == 36
    assert complexity(star_protocol(2, 2)) == (2, 1.0)
    assert complexity(star_protocol(3, 1)) == (1, 0.0)


def test_star_correctness():
    assert verify_ad(star_protocol(3, 6)).ok
    assert verify_cd(star_protocol(3, 6), detector=3).ok


def test_table36_rows():
    t = table36()
    assert link(t, 1, 2).symbols[2] == 2
    assert link(t, 1, 3).symbols[3] == 3
    assert link(t, 2, 3).symbols[4] == 2
    assert complexity(t).product == 27
    assert complexity(t).bits == pytest.approx(math.log2(27), abs=1e-12)


def test_extended_table_reduces_to_base():
    assert extended_table(1) == table36()


def test_extended_table_h2():
    e2 = extended_table(2)
    assert e2.M == 36
    assert complexity(e2).product == 972
    assert complexity(e2).bits == pytest.approx(math.log2(972), abs=1e-12)
    assert verify_ad(e2).ok
    assert verify_ad(e2).vectors_checked == 46656


def test_extended_table_rejects_bad_h():
    with pytest.raises(ValueError):
        extended_table(0)


def two_digit_ranks(symbols, M):
    """Rank of the base symbols on the two base-6 digits of each x in 1..M:
    the big-endian expansion of x-1, each digit plus one."""
    pairs = [(symbols[(x - 1) // 6], symbols[(x - 1) % 6]) for x in range(1, M + 1)]
    rank = {pair: r for r, pair in enumerate(sorted(set(pairs)), 1)}
    return tuple(rank[pair] for pair in pairs)


def test_radix_mapping():
    t, composed = table36(), parallel_compose(table36(), 36)
    for lk, combined in zip(t.links, composed.links):
        assert combined.symbols == two_digit_ranks(lk.symbols, 36)
    # table36 separates all six digits on its first two links, so the
    # combined symbols there decode every x
    decoded = {(composed.links[0].symbols[x - 1], composed.links[1].symbols[x - 1]) for x in range(1, 37)}
    assert len(decoded) == 36


def test_radix_mapping_height_inferred():
    # 6 < 16 <= 36: two base-6 digits
    composed = parallel_compose(table36(), 16)
    assert composed.M == 16
    for lk, combined in zip(table36().links, composed.links):
        assert combined.symbols == two_digit_ranks(lk.symbols, 16)
    assert verify_ad(composed).ok


def test_mapping_rejects_bad_input():
    with pytest.raises(ValueError, match="need base >= 2 and value >= 1"):
        parallel_compose(star_protocol(3, 1), 4)  # a one-value base has no digits
    with pytest.raises(ValueError, match="need base >= 2 and value >= 1"):
        parallel_compose(table36(), 0)


@pytest.mark.parametrize("build", [meq3_2k, complexity_formula_2k])
def test_binary_construction_rejects_k_below_one(build):
    with pytest.raises(ValueError, match="k must be at least 1"):
        build(0)


@pytest.mark.parametrize(
    "build, message",
    [
        # a fractional k passes the k >= 1 test, and 2.5 would be costed as k=3
        (lambda: complexity_formula_2k(2.5), "k must be an integer, got 2.5"),
        (lambda: meq3_2k(True), "k must be an integer, got True"),
        (lambda: extended_table(1.5), "h must be an integer, got 1.5"),
        pytest.param(lambda: par6h(1.5), "h must be an integer, got 1.5", id="par6h"),
        (lambda: parallel_compose(table36(), 2.5), "M must be an integer, got 2.5"),
        (lambda: star_protocol(3, 2.5), "M must be an integer, got 2.5"),
        (lambda: star_protocol(3, 0), "alphabet size must be positive"),
    ],
)
def test_family_sizes_must_be_integers(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_parallel_compose_h1_is_base():
    assert parallel_compose(table36(), 6) == table36()
    assert par6h(1) == table36()
    assert par6h(2) == parallel_compose(table36(), 36)


def test_parallel_compose_h2():
    composed = parallel_compose(table36(), 36)
    assert complexity(composed).product == 729
    assert complexity(composed).bits == pytest.approx(2 * math.log2(27), abs=1e-12)
    assert verify_ad(composed).ok


def test_parallel_compose_over_base_three_digits():
    # three base-3 digits hold 16 values; the identity links rank the digit
    # vectors in input order, so the composition is the 16-value star
    composed = parallel_compose(star_protocol(3, 3), 16)
    assert composed == star_protocol(3, 16)
    assert verify_ad(composed).ok


def test_ordering_chain_at_36():
    parallel = complexity(parallel_compose(table36(), 36))
    extended = complexity(extended_table(2))
    star = complexity(star_protocol(3, 36))
    assert parallel.product < extended.product < star.product
    assert (parallel.product, extended.product, star.product) == (729, 972, 1296)


def test_least_exponent_is_minimal():
    for base in (2, 3, 6):
        for value in list(range(1, 200)) + [2**40, 3**16]:
            e = least_exponent(base, value)
            assert base**e >= value
            assert e == 0 or base ** (e - 1) < value


def test_binary_construction_k4():
    p = meq3_2k(4)
    assert p.M == 16
    assert complexity(p) == (2**12, 12.0)
    assert verify_ad(p).ok
    assert verify_ad(p).vectors_checked == 4096


def test_binary_construction_small_k_declares_full_width():
    p = meq3_2k(1)
    assert complexity(p).product == 2**6
    # the actual symbol usage is far below the declared binary framing
    assert tuple(max(lk.symbols) for lk in p.links) == (1, 2, 2)


def test_binary_construction_matches_formula():
    for k in range(1, 13):
        assert complexity(meq3_2k(k)).product == 2 ** complexity_formula_2k(k)


def test_formula_values():
    assert complexity_formula_2k(1) == 6
    assert complexity_formula_2k(4) == 12
    assert complexity_formula_2k(39) == 78
    assert complexity_formula_2k(40) == 78
    # the k=40 cost comes from 16 base-6 digits packed into 26 bits per link
    assert least_exponent(6, 2**40) == 16
    assert least_exponent(2, 3**16) == 26


def test_crossover_scan():
    # the formula is the only source of meqlab figure's rows
    strict_ks = {k for k in range(1, 101) if complexity_formula_2k(k) < 2 * k}
    assert complexity_formula_2k(40) == 78
    assert 39 not in strict_ks
    assert set(range(40, 101)) <= strict_ks
    # sporadic early wins, exactly these below the crossover
    assert strict_ks & set(range(1, 40)) == {20, 23, 25, 28, 31, 32, 33, 35, 36, 37, 38}


def test_cd_wrapper_adds_one_bit_at_n3():
    wrapped = cd_wrapper(table36())
    base = complexity(table36())
    extra = complexity(wrapped)
    assert extra.product == base.product * 2
    assert extra.bits == pytest.approx(base.bits + 1, abs=1e-12)
    assert verify_cd(wrapped, detector=3).ok
    assert verify_ad(wrapped).ok


def test_cd_wrapper_on_star_is_redundant_but_correct():
    wrapped = cd_wrapper(star_protocol(3, 6))
    assert verify_cd(wrapped).ok
    assert complexity(wrapped).product == 72
    # the reporter never detects, so the extra step carries one symbol only
    assert tighten(wrapped).steps[-1].range_size == 1
    assert wrapped.steps[-1].range_size == 2


def test_cd_wrapper_n4():
    wrapped = cd_wrapper(star_protocol(4, 3))
    assert complexity(wrapped).product == 27 * 4
    assert verify_cd(wrapped, detector=4).ok


def test_cd_wrapper_rejects_incorrect_base():
    t = table36()
    bc = list(link(t, 2, 3).symbols)
    bc[3] = 2
    from meqlab import LinkTable, TableProtocol

    broken = TableProtocol(3, 6, (link(t, 1, 2), link(t, 1, 3), LinkTable(2, 3, tuple(bc))))
    with pytest.raises(ValueError):
        cd_wrapper(broken)


def test_first_node_never_detects():
    # node 1 has no incoming link in any construction here, so its decision
    # is 0 everywhere; that is why the centralized wrapper skips it
    for p in (table36(), meq3_2k(2), parallel_compose(table36(), 36)):
        for v in itertools.product(range(1, p.M + 1), repeat=3):
            assert simulate(p, v).decisions[0] == 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: meq3_2k(40), "3 link tables of 2**40 entries"),
        (lambda: meq3_2k(10**15), "3 link tables of 2**1000000000000000 entries"),
        (lambda: extended_table(12), "3 link tables of 6**12 entries"),
        (lambda: extended_table(10**15), "3 link tables of 6**1000000000000000 entries"),
        (lambda: par6h(12), "3 link tables of 6**12 entries"),
        (lambda: par6h(10**15), "3 link tables of 6**1000000000000000 entries"),
        (lambda: star_protocol(3, 10**9), "2 link tables of 1000000000 entries"),
        (lambda: star_protocol(2 * 10**8, 1), "199999999 link tables of 1 entries"),
        (lambda: parallel_compose(table36(), 10**9), "3 link tables of 1000000000 entries"),
        (lambda: check_table_size(3, 2, 25), "3 link tables of 2**25 entries"),
    ],
    ids=["bin2k", "bin2k_huge_k", "ext6h", "ext6h_huge_h", "par6h", "par6h_huge_h", "star_M", "star_n", "compose", "just_over"],
)
def test_builders_refuse_oversized_tables_before_allocating(build, message):
    # a huge exponent is refused by comparing it, never by computing the power
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{message} exceed budget 100000000"
    assert peak < 100_000


def test_table_size_budget_is_links_times_M():
    check_table_size(3, 2, 24)  # 50,331,648 entries
    check_table_size(1, 10**8)
    with pytest.raises(BudgetError):
        check_table_size(1, 10**8 + 1)
    for links, base, exponent in ((0, 10**9, 1), (3, 0, 1), (3, 2, -1), (-2, -10**9, 1)):
        check_table_size(links, base, exponent)  # sizes the builders' own checks refuse


@pytest.mark.parametrize(
    "build, entries",
    [
        (lambda: meq3_2k(3), 3 * 8),
        (lambda: extended_table(2), 3 * 36),
        (lambda: par6h(2), 3 * 36),
        (lambda: star_protocol(4, 5), 3 * 5),
        (lambda: parallel_compose(table36(), 10), 3 * 10),
    ],
    ids=["bin2k", "ext6h", "par6h", "star", "compose"],
)
def test_each_builder_checks_its_table_entries_against_the_budget(monkeypatch, build, entries):
    monkeypatch.setattr(constructions, "DEFAULT_BUDGET", entries - 1)
    with pytest.raises(BudgetError, match=f"exceed budget {entries - 1}$"):
        build()
    monkeypatch.setattr(constructions, "DEFAULT_BUDGET", entries)
    assert sum(len(lk.symbols) for lk in build().links) == entries
