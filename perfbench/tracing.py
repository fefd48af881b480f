"""Spans around the calls into each meqlab module, recorded from outside.

`install` wraps the public functions listed in TRACED and rebinds every
reference to them that any loaded meqlab module holds, so calls made inside
the library (``materialize`` imported by name into ``transforms`` and
``constructions``, ``verify_ad`` into ``coloring`` and ``constructions``) are
recorded too. Per-vector helpers such as ``decisions_on`` are deliberately
not wrapped: a span per input vector would swamp what it measures.

A span is ``[id, name, start, end, parent id, job id, info]``. Spans are
kept in memory and handed to the caller once the pass ends; `layer_metrics`
turns one pass's spans into the per-layer metrics of BENCHMARK.json.
"""

import functools
import importlib
import os
import statistics
import sys
import time

TRACED = (
    ("core", "materialize"),
    ("core", "table_to_general"),
    ("core", "simulate"),
    ("verify", "verify_ad"),
    ("verify", "verify_cd"),
    ("transforms", "flip_step"),
    ("transforms", "make_iid"),
    ("transforms", "expected_symbol"),
    ("constructions", "cd_wrapper"),
    ("coloring", "optimal_search"),
    ("coloring", "strong_edge_color"),
    ("coloring", "conflict_pairs"),
    ("serial", "load_protocol"),
    ("serial", "save_protocol"),
    ("cli", "run"),
)

SEARCH_SIZES = (6, 7, 8, 9)

PER_LAYER_UNITS = {
    "core.materialize.s": "s",
    "core.materialize.calls": "count",
    "core.table_to_general.s": "s",
    "core.simulate.calls": "count",
    "verify.verify_ad.s": "s",
    "verify.verify_cd.s": "s",
    "verify.vectors_per_s": "1/s",
    "verify.vectors_checked": "count",
    "transforms.flip_step.self_s": "s",
    "transforms.flip_step.calls": "count",
    "transforms.make_iid.self_s": "s",
    "transforms.expected_symbol.calls": "count",
    "constructions.cd_wrapper.self_s": "s",
    "coloring.optimal_search.s": "s",
    **{f"coloring.optimal_search.s.M{M}": "s" for M in SEARCH_SIZES},
    "coloring.optimal_search.self_s": "s",
    "coloring.canonical_share": "ratio",
    "coloring.strong_edge_color.calls": "count",
    "coloring.strong_edge_color.s": "s",
    "coloring.strong_edge_color.hit_ratio": "ratio",
    "coloring.conflict_pairs.s": "s",
    "coloring.graphs_per_s": "1/s",
    "serial.load_protocol.s": "s",
    "serial.save_protocol.s": "s",
    "serial.bytes_written": "bytes",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _verify_info(args, kwargs, verdict):
    """Vectors decided, counted here rather than read from the verdict: M**n
    for a pass, else the 1-based lexicographic rank of the counterexample."""
    p = _arg(args, kwargs, 0, "p")
    if verdict.ok:
        decided = p.M**p.n
    else:
        decided = 1
        for x in verdict.counterexample[0]:
            decided = (decided - 1) * p.M + x
    return {"decided": decided, "reported": getattr(verdict, "vectors_checked", None)}


INFO = {
    "verify.verify_ad": _verify_info,
    "verify.verify_cd": _verify_info,
    "coloring.optimal_search": lambda a, k, r: {"M": _arg(a, k, 0, "M")},
    "coloring.strong_edge_color": lambda a, k, r: {"hit": r is not None},
    "serial.save_protocol": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.job = None
        self.absent = []

    def wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append([span_id, name, start, time.perf_counter(), parent, self.job, None])
                raise
            finally:
                self.stack.pop()
            end = time.perf_counter()
            extra = info(args, kwargs, result) if info else None
            self.spans.append([span_id, name, start, end, parent, self.job, extra])
            return result

        return traced

    def install(self):
        """Wrap every TRACED function that exists; list the missing ones."""
        import meqlab  # noqa: F401  (loads every library module)
        import meqlab.cli  # noqa: F401

        for module_name, function_name in TRACED:
            name = f"{module_name}.{function_name}"
            try:
                module = importlib.import_module(f"meqlab.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, function_name, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, fn)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "meqlab" and not loaded_name.startswith("meqlab."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is fn:
                        setattr(loaded, attr, wrapped)


def layer_metrics(spans, absent):
    """Per-layer metrics of one pass. A metric built on a function that does
    not exist is None; a function that exists but was not called gives 0."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def outermost(name):
        for s in spans:
            if s[1] != name:
                continue
            parent = s[4]
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][4]
            if parent is None:
                yield s

    def total(name):
        return sum(s[3] - s[2] for s in outermost(name))

    def self_time(name):
        return sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in spans if s[1] == name)

    def calls(name):
        return sum(1 for s in spans if s[1] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    def verify_sum(field):
        values = [s[6][field] for n in ("verify.verify_ad", "verify.verify_cd")
                  for s in outermost(n) if s[6] is not None]
        return None if any(v is None for v in values) else sum(values)

    def search_total(M):
        return sum(s[3] - s[2] for s in outermost("coloring.optimal_search")
                   if s[6] is not None and s[6]["M"] == M)

    verify_s = total("verify.verify_ad") + total("verify.verify_cd")
    search_s = total("coloring.optimal_search")
    sec = "coloring.strong_edge_color"
    hits = sum(1 for s in spans if s[1] == sec and s[6] is not None and s[6]["hit"])
    bytes_written = sum(s[6]["bytes"] for s in spans
                        if s[1] == "serial.save_protocol" and s[6] is not None)

    table = {
        "core.materialize.s": (["core.materialize"], lambda: total("core.materialize")),
        "core.materialize.calls": (["core.materialize"], lambda: calls("core.materialize")),
        "core.table_to_general.s": (["core.table_to_general"], lambda: total("core.table_to_general")),
        "core.simulate.calls": (["core.simulate"], lambda: calls("core.simulate")),
        "verify.verify_ad.s": (["verify.verify_ad"], lambda: total("verify.verify_ad")),
        "verify.verify_cd.s": (["verify.verify_cd"], lambda: total("verify.verify_cd")),
        "verify.vectors_per_s": (["verify.verify_ad"], lambda: ratio(verify_sum("decided"), verify_s)),
        "verify.vectors_checked": (["verify.verify_ad"], lambda: verify_sum("reported")),
        "transforms.flip_step.self_s": (["transforms.flip_step"], lambda: self_time("transforms.flip_step")),
        "transforms.flip_step.calls": (["transforms.flip_step"], lambda: calls("transforms.flip_step")),
        "transforms.make_iid.self_s": (["transforms.make_iid"], lambda: self_time("transforms.make_iid")),
        "transforms.expected_symbol.calls": (["transforms.expected_symbol"],
                                             lambda: calls("transforms.expected_symbol")),
        "constructions.cd_wrapper.self_s": (["constructions.cd_wrapper"],
                                            lambda: self_time("constructions.cd_wrapper")),
        "coloring.optimal_search.s": (["coloring.optimal_search"], lambda: search_s),
        **{
            f"coloring.optimal_search.s.M{M}": (["coloring.optimal_search"],
                                                functools.partial(search_total, M))
            for M in SEARCH_SIZES
        },
        "coloring.optimal_search.self_s": (["coloring.optimal_search"],
                                           lambda: self_time("coloring.optimal_search")),
        "coloring.canonical_share": (["coloring.optimal_search"],
                                     lambda: ratio(self_time("coloring.optimal_search"), search_s)),
        "coloring.strong_edge_color.calls": ([sec], lambda: calls(sec)),
        "coloring.strong_edge_color.s": ([sec], lambda: total(sec)),
        "coloring.strong_edge_color.hit_ratio": ([sec], lambda: ratio(hits, calls(sec))),
        "coloring.conflict_pairs.s": (["coloring.conflict_pairs"], lambda: total("coloring.conflict_pairs")),
        "coloring.graphs_per_s": ([sec, "coloring.optimal_search"], lambda: ratio(calls(sec), search_s)),
        "serial.load_protocol.s": (["serial.load_protocol"], lambda: total("serial.load_protocol")),
        "serial.save_protocol.s": (["serial.save_protocol"], lambda: total("serial.save_protocol")),
        "serial.bytes_written": (["serial.save_protocol"], lambda: bytes_written),
        "cli.run.self_s": (["cli.run"], lambda: self_time("cli.run")),
    }
    missing = set(absent)
    return {
        name: None if missing.intersection(needs) else compute()
        for name, (needs, compute) in table.items()
    }


def median_metrics(per_pass):
    """Metric-wise median over passes; None stays None."""
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out
