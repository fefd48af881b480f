"""Acceptance checks, one test per criterion.

Every test prints one PASS/FAIL line (run pytest with -s to watch them) and
enforces the stated tolerance and runtime. Randomized parts are seeded, so
the whole suite is reproducible.
"""

import contextlib
import io
import math
import random
import time

from meqlab import (
    cd_wrapper,
    complexity,
    extended_table,
    flip_step,
    fooling_lower_bound,
    make_iid,
    meq3_2k,
    optimal_search,
    parallel_compose,
    protocol_from_coloring,
    star_protocol,
    table36,
    table_to_general,
    trivial_upper_bound,
    verify_ad,
    verify_cd,
)
from meqlab import LinkTable, TableProtocol, conflict_pairs
from meqlab.cli import run

from conftest import link, random_correct_protocol, to_bipartite


def check(number: int, limit: float | None, body):
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException as err:
        print(f"FAIL criterion {number}: {err}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {detail} [{elapsed:.2f}s]")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_table36_verified_and_costed():
    def body():
        verdict = verify_ad(table36())
        assert verdict.ok and verdict.vectors_checked == 216
        bits = complexity(table36()).bits
        assert abs(bits - 4.754888) < 1e-6
        assert abs(bits - math.log2(27)) < 1e-12
        return "table36 solves anyone-detects over 216 vectors at log2(27) bits"

    check(1, 1.0, body)


def test_criterion_2_exact_optima():
    def body():
        start = time.perf_counter()
        four = optimal_search(4)
        assert time.perf_counter() - start < 60.0
        assert four.product == 16 and four.bits == 4.0
        assert four.infeasible == ((2, 2, 2), (2, 2, 3))
        assert verify_ad(protocol_from_coloring(four.witness)).ok
        start = time.perf_counter()
        six = optimal_search(6)
        assert time.perf_counter() - start < 60.0
        assert six.product == 27
        assert (six.U_size, six.V_size, six.W_size) == (3, 3, 3)
        assert six.infeasible == ((2, 3, 3), (2, 3, 4))
        assert verify_ad(protocol_from_coloring(six.witness)).ok
        return "optima 16 (M=4) and 27 (M=6) with exactly the expected rejections"

    check(2, None, body)


def test_criterion_3_crossover():
    def body():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["figure", "--kmax", "1000"]) == 0
        header, *lines = out.getvalue().splitlines()
        assert header == "k,C,upper"
        rows = [tuple(map(int, line.split(","))) for line in lines]
        assert [k for k, _, _ in rows] == list(range(1, 1001))
        assert rows[38] == (39, 78, 78)
        assert all(cost < upper for _, cost, upper in rows[39:])
        for k, cost, _ in rows:
            assert cost < 1.840 * k + 7.755
        return "cost meets 2k at k=39, beats it for all 40..1000, stays under 1.840k+7.755"

    check(3, 1.0, body)


def test_criterion_4_ordering_chain_at_36():
    def body():
        parallel = parallel_compose(table36(), 36)
        extended = extended_table(2)
        star = star_protocol(3, 36)
        products = tuple(complexity(p).product for p in (parallel, extended, star))
        assert products == (729, 972, 1296)
        for p in (parallel, extended, star):
            verdict = verify_ad(p)
            assert verdict.ok and verdict.vectors_checked == 46656
        return "729 < 972 < 1296 and all three verified over 46656 vectors"

    check(4, 30.0, body)


def test_criterion_5_centralized_wrapper():
    def body():
        wrapped = cd_wrapper(table36())
        assert verify_cd(wrapped, detector=3).ok
        bits = complexity(wrapped).bits
        assert abs(bits - (math.log2(27) + 1)) < 1e-12
        return "wrapped table36 solves centralized-detect at log2(27)+1 bits"

    check(5, 5.0, body)


def test_criterion_6_equivalence_transforms():
    def body():
        rng = random.Random(2024)
        protocols = [table36()]
        for M in (2, 3, 4, 6):
            protocols.extend(random_correct_protocol(rng, M) for _ in range(25))
        assert len(protocols) == 101
        for t in protocols:
            base = verify_ad(t)
            assert base.ok  # exhaustive oracle for everything below
            g = table_to_general(t)
            budget = complexity(g).product
            for index in range(1, len(g.steps) + 1):
                flipped = flip_step(g, index)
                assert verify_ad(flipped).ok
                assert complexity(flipped).product <= budget
            normal = make_iid(g)
            assert verify_ad(normal).ok
            assert complexity(normal).product <= budget
        return "single-step flips and normalization keep 101 protocols correct, never costlier"

    check(6, 120.0, body)


def test_criterion_7_necessity_mutations():
    def body():
        t = table36()
        collided = TableProtocol(3, 6, (
            link(t, 1, 2),
            LinkTable(1, 3, (1, 1, 2, 3, 3, 1)),  # inputs 1,2 now collide
            link(t, 2, 3),
        ))
        assert not verify_ad(collided).ok
        graph = to_bipartite(t)
        bc = link(t, 2, 3).symbols
        pairs = sorted(conflict_pairs(graph))
        assert len(pairs) == 12
        for x, y in pairs:
            mutated = list(bc)
            mutated[y - 1] = bc[x - 1]
            broken = TableProtocol(3, 6, (
                link(t, 1, 2),
                link(t, 1, 3),
                LinkTable(2, 3, tuple(mutated)),
            ))
            verdict = verify_ad(broken)
            assert not verdict.ok, f"equating pair ({x},{y}) went undetected"
        return "the forced collision and all 12 conflict-pair merges produce counterexamples"

    check(7, 10.0, body)


def test_criterion_8_bound_sandwich():
    def body():
        # the collector baseline bounds the best protocol, not every protocol:
        # the wrapper and the small-k binary framings intentionally exceed it,
        # so they are held only to the lower bound
        for n, M in ((2, 2), (3, 4), (3, 6), (3, 36)):
            star = complexity(star_protocol(n, M))
            assert abs(star.bits - trivial_upper_bound(n, M)) < 1e-12

        economical = [
            table36(),
            extended_table(2),
            parallel_compose(table36(), 36),
            protocol_from_coloring(optimal_search(4).witness),
            protocol_from_coloring(optimal_search(6).witness),
        ]
        for p in economical:
            bits = complexity(p).bits
            assert fooling_lower_bound(3, p.M) <= bits + 1e-12
            assert bits <= trivial_upper_bound(3, p.M) + 1e-12

        for p in [cd_wrapper(table36())] + [meq3_2k(k) for k in range(1, 7)]:
            assert fooling_lower_bound(3, p.M) <= complexity(p).bits + 1e-12

        # the lower bound is not generally achievable: at M=4 the optimum is
        # a full bit above it
        assert fooling_lower_bound(3, 4) == 3.0
        assert optimal_search(4).bits == 4.0
        return "all constructions sit inside the bound sandwich; M=4 optimum strictly beats the lower bound"

    check(8, None, body)
