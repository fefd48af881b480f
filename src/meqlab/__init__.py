"""meqlab: build, simulate, verify, transform, and optimize multiparty
equality protocols over synchronous point-to-point links."""

from .constructions import (
    cd_wrapper,
    complexity_formula_2k,
    extended_table,
    meq3_2k,
    parallel_compose,
    star_protocol,
    table36,
)
from .core import (
    Complexity,
    GeneralProtocol,
    LinkTable,
    MalformedProtocolError,
    Protocol,
    Step,
    TableProtocol,
    Transcript,
    complexity,
    simulate,
    table_to_general,
)
from .serial import load_protocol, protocol_from_doc, save_protocol
from .transforms import expected_symbol, flip_step, make_iid
from .verify import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    Verdict,
    fooling_lower_bound,
    trivial_upper_bound,
    verify_ad,
    verify_cd,
)

__all__ = [
    "BipartiteRep",
    "ColoringInstance",
    "Complexity",
    "DEFAULT_BUDGET",
    "EdgeCollisionError",
    "EnumerationBudgetError",
    "GeneralProtocol",
    "LinkTable",
    "MalformedProtocolError",
    "OptimalResult",
    "Protocol",
    "SearchBudgetError",
    "Step",
    "TableProtocol",
    "Transcript",
    "TripleStats",
    "Verdict",
    "cd_wrapper",
    "complexity",
    "complexity_formula_2k",
    "conflict_pairs",
    "expected_symbol",
    "extended_table",
    "flip_step",
    "fooling_lower_bound",
    "load_protocol",
    "make_iid",
    "meq3_2k",
    "optimal_search",
    "parallel_compose",
    "protocol_from_coloring",
    "protocol_from_doc",
    "save_protocol",
    "simulate",
    "star_protocol",
    "strong_edge_color",
    "table36",
    "table_to_general",
    "trivial_upper_bound",
    "verify_ad",
    "verify_cd",
]


def __getattr__(name: str):
    # the public names not imported above are coloring's: only a search pays to import it (PEP 562)
    if name in __all__:
        from . import coloring
        return getattr(coloring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
