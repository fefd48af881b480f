"""Command-line front end over the protocol file format.

Subcommands are thin adapters onto the library: build writes the stock
constructions, simulate replays one input, verify/search decide exhaustively,
transform rewrites a protocol file, figure dumps the crossover CSV. Output is
deterministic; exit codes: 0 ok, 1 usage error or malformed protocol file
(an `error:` line on stderr, never a traceback), 2 counterexample, 3 budget,
141 (128 + SIGPIPE, and nothing on stderr) when stdout's reader closes early.
"""

import os
import sys
from types import SimpleNamespace

from . import constructions, serial, transforms
from .core import MalformedProtocolError, TableProtocol, complexity, simulate
from .verify import DEFAULT_BUDGET, BudgetError, verify_ad, verify_cd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

class _UsageError(Exception):
    pass


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for `argv`, read without argparse, or
    None when `argv` is not plainly well formed.

    Plainly well formed means: a subcommand, then its options spelled in
    full, each at most once and each value in the next word, and its
    positionals in one unbroken run. Anything else, such as `-h`, an
    abbreviation, `--opt=value`, a value that starts with "-", `--` or any
    usage error, gives None, and argparse parses it instead: it words every
    help text and error. A plain command line so never imports argparse,
    whose first parser build imports `locale` through `gettext`.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, group, arguments, _ = _SUBCOMMANDS[argv[0]]
    options = dict(arguments)
    values = {"command": argv[0]}
    positionals = []  # (place in argv[1:], word)
    words = enumerate(argv[1:])
    for place, word in words:
        if not word.startswith("-"):
            positionals.append((place, word))
            continue
        option = options.get(word)
        if option is None or word[2:] in values:
            return None
        if option.get("action") == "store_true":
            values[word[2:]] = True
            continue
        value = next(words, (None, None))[1]
        if value is None or value.startswith("-"):
            return None
        if option.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[word[2:]] = value
    if positionals and positionals[-1][0] - positionals[0][0] >= len(positionals):
        return None  # the run is broken by an option
    names = [(name, argument) for name, argument in arguments if not name.startswith("-")]
    if not sum("nargs" not in argument for _, argument in names) <= len(positionals) <= len(names):
        return None
    for (name, argument), (_, word) in zip(names, positionals):
        if word not in argument.get("choices", (word,)):
            return None
        values[name] = word
    if group:
        required, members = group
        chosen = [member for member in members if member[2:] in values]
        if len(chosen) > 1 or required and not chosen:
            return None
    for name, argument in arguments:
        dest = name.lstrip("-")
        if dest not in values:
            if argument.get("required"):
                return None
            values[dest] = False if argument.get("action") == "store_true" else argument.get("default")
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser for what `_parse` declines."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(prog="meqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, group, arguments, _) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help)
        exclusive = group and command.add_mutually_exclusive_group(required=group[0])
        for argument, keywords in arguments:
            (exclusive if group and argument in group[1] else command).add_argument(argument, **keywords)
    return parser


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse input vector {text!r}") from None


def _cmd_build(args) -> int:
    given = {name: value for name, value in vars(args).items() if value is not None}
    for option, _ in _SUBCOMMANDS["build"][2]:
        readers = [what for what, (options, _) in _BUILDERS.items() if option in dict(options)]
        if option.lstrip("-") in given and readers and args.what not in readers:
            raise _UsageError(f"{option} applies only to build {' or '.join(readers)}")
    options, build = _BUILDERS[args.what]
    p = build(*(given.get(option.lstrip("-"), default) for option, default in options))
    serial.save_protocol(p, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _wrapped(base, budget):
    if not base:
        raise _UsageError("build cdwrap needs a base protocol file")
    base = serial.load_protocol(base)
    if not isinstance(base, TableProtocol):
        raise _UsageError("cdwrap expects a table-kind protocol file")
    return constructions.cd_wrapper(base, budget)  # read at call time, so a tracer's wrapper is seen


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


# Each builder's options, in the order its callable takes them, with their
# defaults, and the callable. `build`'s choices, its refusals of the options a
# builder never reads, its defaults and its dispatch all read this table.
_BUILDERS = {
    "star": ((("--n", 3), ("--M", 6)), constructions.star_protocol),
    "table36": ((), constructions.table36),
    "ext6h": ((("--h", 1),), constructions.extended_table),
    "par6h": ((("--h", 1),), constructions.par6h),
    "bin2k": ((("--k", 1),), constructions.meq3_2k),
    "cdwrap": ((("base", None), ("--budget", DEFAULT_BUDGET)), _wrapped),
}

# Each subcommand's help, its mutually exclusive options (whether one is
# required, and which), its arguments with their argparse keywords, in help
# order, and its handler. `_parse`, `_build_parser` and `run` all read this
# table, so a subcommand or option is declared in its row alone.
_SUBCOMMANDS = {
    "build": ("write a stock protocol to a file", None, (
        ("what", {"choices": _BUILDERS}),  # the table itself, so a row added later is a choice
        ("base", {"nargs": "?", "help": "base protocol file (cdwrap only)"}),
        ("--n", {"type": int}),
        ("--M", {"type": int}),
        ("--k", {"type": int}),
        ("--h", {"type": int}),
        ("--budget", {"type": int, "help": "enumeration budget (cdwrap only)"}),
        ("--out", {"required": True}),
    ), _cmd_build),
    "simulate": ("replay a protocol on one input vector", None, (
        ("file", {}),
        ("--x", {"required": True, "help": "comma-separated inputs, e.g. 1,2,1"}),
    ), _cmd_simulate),
    "verify": ("exhaustively check a protocol file", (False, ("--ad", "--cd")), (
        ("file", {}),
        ("--ad", {"action": "store_true", "help": "anyone-detects contract (default)"}),
        ("--cd", {"action": "store_true", "help": "centralized-detect contract"}),
        ("--detector", {"type": int}),
        ("--budget", {"type": int, "default": DEFAULT_BUDGET}),
    ), _cmd_verify),
    "transform": ("rewrite a protocol file", (True, ("--flip", "--iid")), (
        ("file", {}),
        ("--flip", {"type": int, "metavar": "L", "help": "reverse step L"}),
        ("--iid", {"action": "store_true", "help": "normalize to per-link tables"}),
        ("--out", {"required": True}),
    ), _cmd_transform),
    "search": ("exact three-node optimum for alphabet size M", None, (
        ("--M", {"type": int, "required": True}),
        ("--out", {"help": "write the witness protocol here"}),
    ), _cmd_search),
    "figure": ("CSV of binary-construction cost vs the 2k baseline", None, (
        ("--kmax", {"type": int, "required": True}),
    ), _cmd_figure),
}


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv) or _build_parser().parse_args(argv)
        budget = getattr(args, "budget", None)  # only build and verify take a budget
        if budget is not None and budget < 1:
            raise _UsageError("--budget must be at least 1")
        return _SUBCOMMANDS[args.command][3](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:  # an OSError, but the reader's doing, not the input's
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError, OSError, MalformedProtocolError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:  # else stdout's unsent rest fails again at exit, with a warning
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
