"""meqlab: build, simulate, verify, transform, and optimize multiparty
equality protocols over synchronous point-to-point links.

`import meqlab` alone imports no submodule. Each public name below is read
from its home module, which is imported on first use (PEP 562); so is each
library module's own name, as in `meqlab.core`.
"""

import sys

# each library module and its public names; `__all__` is their union
_EXPORTS = {
    "coloring": (
        "BipartiteRep", "ColoringInstance", "OptimalResult", "SearchBudgetError",
        "TripleStats", "conflict_pairs", "optimal_search", "protocol_from_coloring",
        "strong_edge_color",
    ),
    "constructions": (
        "cd_wrapper", "complexity_formula_2k", "extended_table", "meq3_2k",
        "parallel_compose", "star_protocol", "table36",
    ),
    "core": (
        "Complexity", "GeneralProtocol", "LinkTable", "MalformedProtocolError", "Protocol",
        "Step", "TableProtocol", "Transcript", "complexity", "simulate", "table_to_general",
    ),
    "serial": ("load_protocol", "protocol_from_doc", "save_protocol"),
    "transforms": ("expected_symbol", "flip_step", "make_iid"),
    "verify": (
        "DEFAULT_BUDGET", "EnumerationBudgetError", "Verdict", "fooling_lower_bound",
        "trivial_upper_bound", "verify_ad", "verify_cd",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # nothing is cached here: a name rebound in its home module (a monkeypatch, a
    # tracer's wrapper) is what the next access returns
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    home = sys.modules[f"{__name__}.{module}"]
    return home if module == name else getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
