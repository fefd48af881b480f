"""Command-line front end over the protocol file format.

Subcommands are thin adapters onto the library: build writes the stock
constructions, simulate replays one input, verify/search decide exhaustively,
transform rewrites a protocol file, figure dumps the crossover CSV. Output is
deterministic; exit codes: 0 ok, 1 usage error or malformed protocol file
(an `error:` line on stderr, never a traceback), 2 counterexample, 3 budget.
"""

import argparse
import sys

from . import constructions, serial, transforms
from .core import MalformedProtocolError, TableProtocol, complexity, simulate
from .verify import DEFAULT_BUDGET, BudgetError, verify_ad, verify_cd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser(only: str | None = None) -> _Parser:
    """The meqlab parser, with every subcommand or only the one named `only`."""
    parser = _Parser(prog="meqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, **kwargs):
        return sub.add_parser(name, help=help, **kwargs) if only in (None, name) else None

    # build's options stay absent unless given: _cmd_build refuses those its builder never reads
    if build := add("build", "write a stock protocol to a file", argument_default=argparse.SUPPRESS):
        build.add_argument("what", choices=["star", "table36", "ext6h", "par6h", "bin2k", "cdwrap"])
        build.add_argument("base", nargs="?", help="base protocol file (cdwrap only)")
        build.add_argument("--n", type=int)
        build.add_argument("--M", type=int)
        build.add_argument("--k", type=int)
        build.add_argument("--h", type=int)
        build.add_argument("--budget", type=int, help="enumeration budget (cdwrap only)")
        build.add_argument("--out", required=True)

    if sim := add("simulate", "replay a protocol on one input vector"):
        sim.add_argument("file")
        sim.add_argument("--x", required=True, help="comma-separated inputs, e.g. 1,2,1")

    if ver := add("verify", "exhaustively check a protocol file"):
        ver.add_argument("file")
        mode = ver.add_mutually_exclusive_group()
        mode.add_argument("--ad", action="store_true", help="anyone-detects contract (default)")
        mode.add_argument("--cd", action="store_true", help="centralized-detect contract")
        ver.add_argument("--detector", type=int, default=None)
        ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    if tra := add("transform", "rewrite a protocol file"):
        tra.add_argument("file")
        op = tra.add_mutually_exclusive_group(required=True)
        op.add_argument("--flip", type=int, metavar="L", help="reverse step L")
        op.add_argument("--iid", action="store_true", help="normalize to per-link tables")
        tra.add_argument("--out", required=True)

    if sea := add("search", "exact three-node optimum for alphabet size M"):
        sea.add_argument("--M", type=int, required=True)
        sea.add_argument("--out", default=None, help="write the witness protocol here")

    if fig := add("figure", "CSV of binary-construction cost vs the 2k baseline"):
        fig.add_argument("--kmax", type=int, required=True)
    return parser


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse input vector {text!r}") from None


def _cmd_build(args) -> int:
    readers = {"--budget": ("cdwrap",), "base": ("cdwrap",), "--n": ("star",), "--M": ("star",),
               "--k": ("bin2k",), "--h": ("ext6h", "par6h")}
    for option, builders in readers.items():
        if option.lstrip("-") in vars(args) and args.what not in builders:
            raise _UsageError(f"{option} applies only to build {' or '.join(builders)}")
    defaults = {"base": None, "n": 3, "M": 6, "k": 1, "h": 1, "budget": DEFAULT_BUDGET}
    args = argparse.Namespace(**{**defaults, **vars(args)})
    if args.what == "star":
        p = constructions.star_protocol(args.n, args.M)
    elif args.what == "table36":
        p = constructions.table36()
    elif args.what == "ext6h":
        p = constructions.extended_table(args.h)
    elif args.what == "par6h":
        if args.h < 1:
            raise ValueError("h must be at least 1")
        p = constructions.parallel_compose(constructions.table36(), 6**args.h)
    elif args.what == "bin2k":
        p = constructions.meq3_2k(args.k)
    else:
        if not args.base:
            raise _UsageError("build cdwrap needs a base protocol file")
        base = serial.load_protocol(args.base)
        if not isinstance(base, TableProtocol):
            raise _UsageError("cdwrap expects a table-kind protocol file")
        p = constructions.cd_wrapper(base, args.budget)
    serial.save_protocol(p, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    p = serial.load_protocol(args.file)
    transcript = simulate(p, _parse_vector(args.x))
    print(f"symbols: {transcript.symbols}")
    print(f"decisions: {transcript.decisions}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.detector is not None and not args.cd:
        raise _UsageError("--detector applies only with --cd")
    p = serial.load_protocol(args.file)
    verdict = verify_cd(p, args.detector, args.budget) if args.cd else verify_ad(p, args.budget)
    if verdict.ok:
        c = complexity(p)
        print(f"ok, {verdict.vectors_checked} vectors, C=log2 {c.product} = {c.bits:.6f} bits")
        return EXIT_OK
    values, decisions = verdict.counterexample
    print(f"counterexample: input={values} decisions={decisions}")
    return EXIT_COUNTEREXAMPLE


def _cmd_transform(args) -> int:
    p = serial.load_protocol(args.file)
    if args.iid:
        out = transforms.make_iid(p)
    else:
        out = transforms.flip_step(p, args.flip)
    serial.save_protocol(out, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_search(args) -> int:
    from .coloring import optimal_search, protocol_from_coloring  # for search alone
    result = optimal_search(args.M)
    print(
        f"optimal product {result.product} "
        f"via ({result.U_size},{result.V_size},{result.W_size})"
    )
    print(f"bits {result.bits:.6f}")
    if args.out:
        serial.save_protocol(protocol_from_coloring(result.witness), args.out)
        print(f"witness written to {args.out}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    if args.kmax < 1:
        raise ValueError("kmax must be at least 1")
    print("k,C,upper")
    for k in range(1, args.kmax + 1):
        print(f"{k},{constructions.complexity_formula_2k(k)},{2 * k}")
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "transform": _cmd_transform,
    "search": _cmd_search,
    "figure": _cmd_figure,
}


def run(argv: list[str]) -> int:
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        budget = getattr(args, "budget", None)  # only build and verify take a budget
        if budget is not None and budget < 1:
            raise _UsageError("--budget must be at least 1")
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, MalformedProtocolError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
