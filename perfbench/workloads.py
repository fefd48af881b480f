"""Seeded input generation and the job lists of the workloads.

There are four job groups, one per shape of work. A workload is one group,
or several run back to back in each pass (`COMPOSITES`). `generate` writes a
workload's protocol files into a work directory and returns its manifest:
the jobs a pass runs, in order, and the check each job's output must pass.
The program under test only ever sees the files written here; the seed
never reaches it.

Why each group exists, and which workloads BENCHMARK.json gates, is recorded
in NOTES.md next to this file.
"""

import json
import random
from pathlib import Path

GROUPS = ("verify_3node", "verify_star", "search", "rewrite")
COMPOSITES = {"rewrite_search": ("rewrite", "search")}
WORKLOADS = GROUPS + tuple(COMPOSITES)
DEFAULT_SEED = 1

# optimal_search(M, max_alphabet=9) as returned at the commit that added this
# benchmark: product, size triple, rejected triples, witness edges, colours.
SEARCH_PINS = {
    4: (16, (1, 4, 4), ((2, 2, 2), (2, 2, 3)),
        ((1, 1), (1, 2), (1, 3), (1, 4)), (1, 2, 3, 4)),
    5: (25, (1, 5, 5), ((2, 3, 3), (2, 3, 4)),
        ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5)), (1, 2, 3, 4, 5)),
    6: (27, (3, 3, 3), ((2, 3, 3), (2, 3, 4)),
        ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)), (1, 2, 3, 2, 3, 1)),
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
}

# sha256 of the files the rewrite workload writes, for DEFAULT_SEED at full
# size only; any other seed or size checks everything except these.
REWRITE_DIGESTS = {
    "f.json": "1fbfadc3136638cdb7d192a441f426429e445ab1ca18e8ed870b3c1309b563de",
    "cd.json": "44dc22c705a9649ebe4ce03e016a7b598502728b3117b311649a54a83829aafa",
}


def relabel(t, perm):
    """The same protocol with its inputs renamed: input x now sends what
    input perm[x-1] sent. Every node applies one bijection, so correctness
    and cost are unchanged."""
    from meqlab.core import LinkTable, TableProtocol

    return TableProtocol(t.n, t.M, tuple(
        LinkTable(lk.sender, lk.receiver,
                  tuple(lk.symbols[perm[x] - 1] for x in range(t.M)), lk.range_size)
        for lk in t.links
    ))


def collide(t, rng, links=None):
    """Give input b the symbols of input a on the chosen links (all by
    default), for a seeded pair a < b. On a correct three-node table protocol
    merged on every link, the smallest counterexample is then (a, a, b).

    `a` is drawn from eight labels at the centre of 1..M, inside its middle
    half, so the early stop lands near half of the M**n space on every seed.
    """
    from meqlab.core import LinkTable, TableProtocol

    lo = max(t.M // 4 + 1, t.M // 2 - 3)
    hi = min(3 * t.M // 4, t.M // 2 + 4)
    chosen = range(len(t.links)) if links is None else links
    for _ in range(1000):
        a = rng.randint(lo, hi)
        b = rng.randint(a + 1, t.M)
        merged = []
        try:
            for i, lk in enumerate(t.links):
                symbols = list(lk.symbols)
                if i in chosen:
                    symbols[b - 1] = symbols[a - 1]
                merged.append(LinkTable(lk.sender, lk.receiver, tuple(symbols), lk.range_size))
        except ValueError:  # b held the only copy of a symbol: pick again
            continue
        return TableProtocol(t.n, t.M, tuple(merged)), (a, b)
    raise RuntimeError("no pair can be merged without leaving a symbol unused")


def _permutation(rng, M):
    return rng.sample(range(1, M + 1), M)


def _cli(job_id, argv, exit_code=0, **checks):
    return {"id": job_id, "kind": "cli", "argv": argv, "exit": exit_code, **checks}


def generate(name, seed, workdir, *, tiny=False, tamper=False):
    """Write the inputs of workload `name` into `workdir`; return its manifest.

    `tiny` shrinks every input so the same code paths run in well under a
    second; `tamper` corrupts one input or expectation per group so that at
    least one job must fail its check.
    """
    workdir = Path(workdir)
    jobs, outputs = [], []
    for group in COMPOSITES.get(name, (name,)):
        group_jobs, group_outputs = _generate_group(group, seed, workdir, tiny, tamper)
        jobs += group_jobs
        outputs += group_outputs
    manifest = {"workload": name, "seed": seed, "jobs": jobs, "outputs": outputs}
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


def _generate_group(name, seed, workdir, tiny, tamper):
    """Write one group's inputs; return its jobs and the files they write."""
    import meqlab as mq
    from meqlab import serial

    rng = random.Random(f"{name}/{seed}")
    outputs = []

    if name == "verify_3node":
        t = relabel(mq.meq3_2k(4 if tiny else 7), _permutation(rng, 16 if tiny else 128))
        bad, (a, b) = collide(t, rng)
        if tamper:
            t, _ = collide(t, rng)
        serial.save_protocol(t, workdir / "ok.json")
        serial.save_protocol(bad, workdir / "bad.json")
        jobs = [
            _cli("verify_ok", ["verify", "--ad", "ok.json"]),
            _cli("verify_counterexample", ["verify", "--ad", "bad.json"], 2,
                 stdout_has=f"counterexample: input=({a}, {a}, {b})"),
        ]
    elif name == "verify_star":
        M_ad, M_cd = (8, 4) if tiny else (36, 16)
        star = relabel(mq.star_protocol(4, M_ad), _permutation(rng, M_ad))
        wrapped = mq.cd_wrapper(relabel(mq.star_protocol(4, M_cd), _permutation(rng, M_cd)))
        if tamper:
            star, _ = collide(star, rng, links=[0])
        serial.save_protocol(star, workdir / "star.json")
        serial.save_protocol(wrapped, workdir / "star_cd.json")
        jobs = [
            _cli("verify_star_ad", ["verify", "--ad", "star.json"]),
            _cli("verify_star_cd", ["verify", "--cd", "star_cd.json"]),
        ]
    elif name == "search":
        jobs = []
        for M in (4, 5, 6) if tiny else (6, 7, 8, 9):
            product, sizes, infeasible, edges, colors = SEARCH_PINS[M]
            if tamper and M == 6:
                colors = colors[::-1]
            jobs.append({
                "id": f"search_M{M}", "kind": "search", "M": M, "max_alphabet": 9,
                "expect": {"product": product, "sizes": sizes, "infeasible": infeasible,
                           "edges": edges, "colors": colors},
            })
    elif name == "rewrite":
        t = relabel(mq.extended_table(1 if tiny else 2), _permutation(rng, 6 if tiny else 36))
        if tamper:
            t, _ = collide(t, rng)
        serial.save_protocol(t, workdir / "t.json")
        digests = REWRITE_DIGESTS if seed == DEFAULT_SEED and not tiny else {}
        flip_checks = {"sha256": {"f.json": digests["f.json"]}} if digests else {}
        cd_checks = {"sha256": {"cd.json": digests["cd.json"]}} if digests else {}
        jobs = [
            _cli("flip", ["transform", "t.json", "--flip", "3", "--out", "f.json"], **flip_checks),
            _cli("iid", ["transform", "f.json", "--iid", "--out", "back.json"],
                 same_bytes=["back.json", "t.json"]),
            _cli("cdwrap", ["build", "cdwrap", "t.json", "--out", "cd.json"], **cd_checks),
            _cli("verify_cd", ["verify", "--cd", "cd.json"]),
        ]
        outputs = ["f.json", "back.json", "cd.json"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs, outputs
