"""Data model and execution engine for fixed-schedule message-passing protocols.

A protocol runs on n nodes, each holding a private value in 1..M. It is a
finite, fixed schedule of point-to-point transmissions; every transmitted
symbol is a small positive integer read from a lookup table, and every node
ends with a one-bit decision (0 = "inputs may all be equal", 1 = "mismatch
seen"). All operations are pure.

A general protocol's step and decision tables are history-major: one row
``{input: value}`` per history. Inside a transcript rectangle every node's
history is fixed, so a reader fetches a row once and maps its inputs through
it. The types are frozen after construction; each table is a read-only view
of a new dict of read-only views of the rows it was built from, which are not
copied, so only a caller that kept a row can change one.
"""

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, groupby, repeat
from operator import attrgetter, getitem, methodcaller
from types import MappingProxyType


class MalformedProtocolError(Exception):
    """A lookup table has no entry for a reachable (input, history) pair."""


def check_int(value, what: str) -> int:
    """value itself, if it is an int. bool is a subclass of int, but
    true/false is no count, node or symbol, and the file reader refuses it."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def check_size(n: int, M: int) -> None:
    """Reject fewer than two nodes or an empty input alphabet."""
    check_int(n, "n")
    check_int(M, "M")
    if n < 2:
        raise ValueError("need at least two nodes")
    if M < 1:
        raise ValueError("alphabet size must be positive")


def placed(part: str, build, *args):
    """build(*args), with `part` named in front of a ValueError it raises,
    for errors of a whole built from many parts (`step 3: ...`)."""
    try:
        return build(*args)
    except ValueError as err:
        raise ValueError(f"{part}: {err}") from None


def _view(table) -> MappingProxyType:
    """A read-only view of `table`, which is not copied; a view as it is."""
    return table if type(table) is MappingProxyType else MappingProxyType(table)


_values = methodcaller("values")


def _rows(table, what: str, allowed: range, bad_value) -> MappingProxyType:
    """`table`, ``{history: {input: value}}``, as a read-only view of
    read-only rows; one already so wrapped is returned as it is.

    `table` must be a dict or such a view. Every history must be a tuple of
    ints, every row a non-empty dict, every input an int and every value an
    int in `allowed`. The checks run a column at a time at C speed, each
    distinct history once. Only a refused table is walked, in row order, to
    raise the ValueError of its first bad entry; `bad_value(value)` words
    the one of a bad value.
    """
    if not isinstance(table, (dict, MappingProxyType)):
        raise ValueError(f"{what} must be a dict, got {type(table).__name__}")
    histories, rows = table.keys(), table.values()
    row_types = set(map(type, rows))
    values = list(chain.from_iterable(map(_values, rows))) if row_types <= {dict, MappingProxyType} else None
    if values is None or not (
            all(rows)
            and set(map(type, histories)) <= {tuple}
            and set(map(type, chain.from_iterable(histories))) <= {int}
            and set(map(type, chain.from_iterable(rows))) <= {int}
            and set(map(type, values)) <= {int}
            and (not values or allowed.start <= min(values) and max(values) < allowed.stop)):
        for h, row in table.items():
            if type(row) not in (dict, MappingProxyType) or not row:
                raise ValueError(f"{what} row for history {h!r} is not a non-empty dict")
            for x, value in row.items():
                if not (type(x) is int and type(h) is tuple and set(map(type, h)) <= {int}):
                    raise ValueError(f"{what} key {(x, h)!r} is not (input, history)")
                if type(value) is not int or value not in allowed:
                    raise ValueError(bad_value(value))
    if type(table) is MappingProxyType and row_types <= {MappingProxyType}:
        return table
    return MappingProxyType(dict(zip(histories, map(_view, rows))))


def _plain(value):
    """value, with every read-only view in it turned back into a dict."""
    return {key: _plain(item) for key, item in value.items()} if type(value) is MappingProxyType else value


class Frozen:
    """Base of the immutable value classes. A subclass names its fields in
    constructor order as `__slots__ = _fields = (...)`, which its own
    subclasses inherit, and stores them once with `_set`. Instances refuse
    assignment and deletion, compare and hash by `_key` (every field unless
    a subclass leaves some out), print as dataclasses do, and pickle and
    copy through the constructor, read-only tables handed over as dicts."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={_plain(getattr(self, name))!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(_plain(getattr(self, name)) for name in self._fields)


class Step(Frozen):
    """One scheduled transmission.

    `sender` transmits ``table[history][x]`` to `receiver`, where x is the
    sender's own input and `history` is the tuple of symbols the sender has
    received on earlier steps, in schedule order. `range_size` is the number
    of symbols the step is allowed to use. Constructors in this package emit
    tight ranges (every value in 1..range_size realized by some reachable
    entry); a larger declared range is only used where a fixed transmission
    width is part of the construction itself.
    """

    __slots__ = _fields = ("sender", "receiver", "table", "range_size")

    def __init__(self, sender: int, receiver: int, table: dict, range_size: int):
        check_int(sender, "step endpoint")
        check_int(receiver, "step endpoint")
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        if check_int(range_size, "range") < 1:
            raise ValueError("range_size must be positive")
        # check_int words the error of a symbol that is no integer
        table = _rows(table, "table", range(1, range_size + 1),
                      lambda sym: f"symbol {check_int(sym, 'symbol')} outside 1..{range_size}")
        self._set(sender, receiver, table, range_size)


class GeneralProtocol(Frozen):
    """Ordered schedule of steps plus per-node decision tables.

    `decisions` maps a node id to ``{full received history: {x: bit}}``.
    A node absent from `decisions` always decides 0, which is the correct
    behaviour for nodes that never receive anything.
    """

    __slots__ = _fields = ("n", "M", "steps", "decisions")

    def __init__(self, n: int, M: int, steps: tuple[Step, ...], decisions: dict = MappingProxyType({})):
        steps = tuple(steps)
        check_size(n, M)
        for index, st in enumerate(steps, 1):
            for node in (st.sender, st.receiver):
                if not 1 <= node <= n:
                    raise ValueError(f"step {index}: node {node} outside 1..{n}")
        if not isinstance(decisions, (dict, MappingProxyType)):
            raise ValueError(f"decisions must be a dict, got {type(decisions).__name__}")
        views = {}
        for node, table in decisions.items():
            if not 1 <= check_int(node, "decision node") <= n:
                raise ValueError(f"decision node {node} outside 1..{n}")
            views[node] = _rows(table, f"node {node} decision table", range(2),
                                lambda bit: f"decision {bit!r} for node {node} is not a bit")
        self._set(n, M, steps, MappingProxyType(views))


class LinkTable(Frozen):
    """Symbol table of one directed link: on input x the sender transmits
    ``symbols[x-1]``. Symbols must form a dense prefix 1..max; `range_size`
    defaults to that maximum (tight) and may only be declared larger."""

    __slots__ = _fields = ("sender", "receiver", "symbols", "range_size")

    def __init__(self, sender: int, receiver: int, symbols: tuple[int, ...], range_size: int = 0):
        symbols = tuple(symbols)
        check_int(sender, "link endpoint")
        check_int(receiver, "link endpoint")
        check_int(range_size, "range")
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        if not symbols:
            raise ValueError("empty symbol table")
        top = max(check_int(sym, "symbol") for sym in symbols)
        if set(symbols) != set(range(1, top + 1)):
            raise ValueError(f"symbols {sorted(set(symbols))} are not a dense 1..{top} range")
        if range_size == 0:
            range_size = top
        elif range_size < top:
            raise ValueError(f"declared range {range_size} below realized {top}")
        self._set(sender, receiver, symbols, range_size)


class TableProtocol(Frozen):
    """Protocol whose every symbol depends only on the sender's own input.

    One table per directed link; links are oriented from the lower to the
    higher node id and scheduled in (sender, receiver) order, so node 1
    transmits first and node n only listens. A receiver decides 1 iff some
    received symbol differs from the one its own input produces; nodes with
    no incoming link decide 0.
    """

    __slots__ = _fields = ("n", "M", "links")

    def __init__(self, n: int, M: int, links: tuple[LinkTable, ...]):
        links = tuple(links)
        check_size(n, M)
        prev = None
        for index, lk in enumerate(links, 1):
            if not (1 <= lk.sender <= n and 1 <= lk.receiver <= n):
                raise ValueError(f"link {index} endpoint outside 1..{n}")
            if lk.sender >= lk.receiver:
                raise ValueError(f"link {index} ({lk.sender},{lk.receiver}) not oriented low->high")
            if len(lk.symbols) != M:
                raise ValueError(f"link {index} has {len(lk.symbols)} entries, expected {M}")
            key = (lk.sender, lk.receiver)
            if prev is not None and key <= prev:
                raise ValueError(f"link {index} not strictly after link {index - 1} by (sender, receiver)")
            prev = key
        self._set(n, M, links)


Protocol = GeneralProtocol | TableProtocol


class Transcript(Frozen):
    """Everything one execution produced.

    `symbols` lists the symbol of each step in schedule order. `received`
    gives, per node (index i holds node i+1), the symbols it saw arrive, again
    in schedule order; `decisions` holds each node's final bit.
    """

    __slots__ = _fields = ("symbols", "received", "decisions")

    def __init__(self, symbols: tuple[int, ...], received: tuple[tuple[int, ...], ...],
                 decisions: tuple[int, ...]):
        self._set(symbols, received, decisions)


def _check_vector(p: Protocol, v) -> tuple[int, ...]:
    values = tuple(v)
    if len(values) != p.n:
        raise ValueError(f"{len(values)} inputs for {p.n} nodes")
    for x in values:
        if not 1 <= check_int(x, "input") <= p.M:
            raise ValueError(f"input {x} outside 1..{p.M}")
    return values


def rules(p: Protocol):
    """p as node-local rules: (schedule, send, decide).

    ``send(l, x, h)`` is the symbol that step l's sender transmits on input x
    after receiving h (its symbols so far, in schedule order), and
    ``decide(node, x, h)`` a node's bit after its full history. Table links
    are steps; a node with k incoming links decides 1 iff h[:k] differs from
    the symbols its own input sends on them, in schedule order. General
    rules read the tables (a node without one decides 0) and raise
    MalformedProtocolError on a missing entry.
    """
    if isinstance(p, TableProtocol):
        # a stable sort keeps each receiver's links in schedule order
        incoming = groupby(sorted(p.links, key=attrgetter("receiver")), attrgetter("receiver"))
        own = {node: list(zip(*(lk.symbols for lk in links))) for node, links in incoming}

        def send(l, x, h):
            return p.links[l].symbols[x - 1]

        def decide(node, x, h):
            expected = own[node][x - 1] if node in own else ()
            return int(h[:len(expected)] != expected)

        return [(lk.sender, lk.receiver) for lk in p.links], send, decide

    def send(l, x, h):
        st = p.steps[l]
        try:
            return st.table[h][x]
        except KeyError:
            raise MalformedProtocolError(
                f"step {l + 1} ({st.sender}->{st.receiver}): no entry for {(x, h)}"
            ) from None

    def decide(node, x, h):
        try:
            return p.decisions[node][h][x] if node in p.decisions else 0
        except KeyError:
            raise MalformedProtocolError(f"node {node}: no decision for {(x, h)}") from None

    return [(st.sender, st.receiver) for st in p.steps], send, decide


def replay(schedule: list[tuple[int, int]], send, input_of) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """One run of the schedule under the `send` rule (as `rules` returns it)
    where node i holds input ``input_of(i)``: the symbols in schedule order,
    and what each node that receives anything received. Only the nodes the
    schedule names are read, so a run costs O(steps) whatever n is."""
    received = {}
    symbols = []
    for l, (sender, receiver) in enumerate(schedule):
        sym = send(l, input_of(sender), received.get(sender, ()))
        symbols.append(sym)
        received[receiver] = received.get(receiver, ()) + (sym,)
    return symbols, received


def simulate(p: Protocol, v) -> Transcript:
    """Replay the schedule on one input vector.

    Deterministic: the transcript is a pure function of (p, v). Raises
    MalformedProtocolError if a reachable table entry is missing.
    """
    values = _check_vector(p, v)
    schedule, send, decide = rules(p)
    symbols, received = replay(schedule, send, lambda node: values[node - 1])
    histories = tuple(received.get(node, ()) for node in range(1, len(values) + 1))
    decisions = tuple(decide(node, x, h) for node, (x, h) in enumerate(zip(values, histories), 1))
    return Transcript(tuple(symbols), histories, decisions)


class Complexity(namedtuple("Complexity", ("product", "bits"))):
    """Exact product of per-step symbol ranges and its base-2 logarithm.

    Protocols are compared through `product`; `bits` is derived and only for
    display or bound arithmetic.
    """

    __slots__ = ()


def complexity(p: Protocol) -> Complexity:
    """Channel usage of a protocol: product of range sizes over all steps."""
    ranges = [lk.range_size for lk in p.links] if isinstance(p, TableProtocol) \
        else [st.range_size for st in p.steps]
    product = math.prod(ranges)
    return Complexity(product, math.log2(product))


def _ranks(values) -> dict:
    """Each distinct value mapped to its 1-based rank in ascending order."""
    return {v: r for r, v in enumerate(sorted(set(values)), 1)}


def dense_link(sender: int, receiver: int, keys) -> LinkTable:
    """Link on which input x sends the rank of ``keys[x-1]`` among the
    distinct keys, so symbols run densely over 1..S in ascending order."""
    rank = _ranks(keys)
    return LinkTable(sender, receiver, tuple(rank[k] for k in keys))


def rectangles(n: int, M: int, schedule: list[tuple[int, int]], send) -> Iterator:
    """Leaves of the transcript tree: (sets, histories) per leaf.

    The inputs that share a transcript prefix form a rectangle S_1 x ... x
    S_n (Kushilevitz and Nisan, *Communication Complexity*, 1997), inside
    which every history is fixed. Step l from T to R splits S_T by
    ``send(l, x, h_T)`` and appends the symbol to R's history. At a leaf,
    sets[i] lists node i+1's inputs in ascending order and histories[i] what
    it received; every input lies in exactly one leaf. The cost follows the
    number of rectangles, not M**n. Leaves come depth first.
    """
    # (depth, sets, histories) of unexplored tree vertices, the next on top. A
    # loop, not recursion, since a schedule may outgrow the recursion limit.
    stack = [(0, [range(1, M + 1)] * n, [()] * n)]
    while stack:
        l, sets, histories = stack.pop()
        if l == len(schedule):
            yield sets, histories
            continue
        t, r = schedule[l][0] - 1, schedule[l][1] - 1
        groups = {}
        for x in sets[t]:
            groups.setdefault(send(l, x, histories[t]), []).append(x)
        for sym, xs in reversed(groups.items()):
            child_sets, child_histories = sets.copy(), histories.copy()
            child_sets[t], child_histories[r] = xs, histories[r] + (sym,)
            stack.append((l + 1, child_sets, child_histories))


def decided_rectangles(p: GeneralProtocol) -> Iterator:
    """(sets, bits) per leaf of p's transcript tree: bits[i][j] is node
    i+1's decision on its input sets[i][j]. Reads every reachable entry, so
    a missing one raises MalformedProtocolError."""
    schedule, send, decide = rules(p)
    for sets, histories in rectangles(p.n, p.M, schedule, send):
        bits = []
        for node, (xs, h) in enumerate(zip(sets, histories), 1):
            try:  # one row per node and leaf; the rule decides a node without a table, or names the missing entry
                bits.append(list(map(getitem, repeat(p.decisions[node][h]), xs)))
            except KeyError:
                bits.append([decide(node, x, h) for x in xs])
        yield sets, bits


def checked(p: Protocol) -> Protocol:
    """p, once a walk has read every reachable entry of a general p, else
    MalformedProtocolError. A table p, complete by construction, is not expanded."""
    if isinstance(p, GeneralProtocol):
        for _ in decided_rectangles(p):
            pass
    return p


def materialize(
    n: int,
    M: int,
    schedule: list[tuple[int, int]],
    send,
    decide,
    ranges: list[int] | None = None,
) -> GeneralProtocol:
    """Rebuild dense lookup tables for a protocol given node-local rules.

    `send` and `decide` are rules as `rules` returns them. One walk over the
    transcript rectangles records exactly the reachable rows, with the
    symbols as returned. Afterwards the realized symbols of each step are
    renumbered to 1..S in ascending order, in row values and history keys
    alike, each history key once per row; a table whose symbols are all
    dense already is kept as built.

    `ranges`, if given, holds one declared range_size per step in schedule
    order (for fixed-width framing), in place of the realized counts; Step
    rejects one below the realized count.
    """
    if ranges is not None and len(ranges) != len(schedule):
        raise ValueError(f"{len(ranges)} ranges for {len(schedule)} steps")
    tables = [{} for _ in schedule]

    def record(l, x, h):
        row = tables[l].get(h)
        if row is None:
            row = tables[l][h] = {}
        if x not in row:
            row[x] = send(l, x, h)
        return row[x]

    decision_tables = {node: {} for node in range(1, n + 1)}
    for sets, histories in rectangles(n, M, schedule, record):
        for node, (xs, h) in enumerate(zip(sets, histories), 1):
            row = decision_tables[node].setdefault(h, {})
            for x in xs:
                if x not in row:
                    row[x] = decide(node, x, h)

    remaps = [_ranks(chain.from_iterable(map(_values, table.values()))) for table in tables]
    dense = [all(sym == rank for sym, rank in remap.items()) for remap in remaps]
    # a history holds one symbol per step its owner received on, in schedule order
    heard = {node: [l for l, (_, r) in enumerate(schedule) if r == node] for node in range(1, n + 1)}

    def renumber(node, table, outputs):
        """`table` with node's history symbols ranked and its outputs mapped
        through `outputs` (None: kept); the table itself if nothing changes."""
        if outputs is None and all(dense[l] for l in heard[node]):
            return table
        ranks = [remaps[l] for l in heard[node]]
        return {
            tuple(map(getitem, ranks, history)): {x: outputs[out] for x, out in row.items()} if outputs else row
            for history, row in table.items()
        }

    steps = []
    for l, (sender, receiver) in enumerate(schedule):
        size = len(remaps[l]) if ranges is None else ranges[l]
        table = renumber(sender, tables[l], None if dense[l] else remaps[l])
        steps.append(placed(f"step {l + 1}", Step, sender, receiver, table, size))
    decision_tables = {node: renumber(node, table, None) for node, table in decision_tables.items()}
    return GeneralProtocol(n, M, tuple(steps), decision_tables)


def table_to_general(t: TableProtocol) -> GeneralProtocol:
    """Expand per-link tables into an explicit stepwise protocol: one step
    per link in schedule order, each entry read off `rules(t)`, declared
    ranges kept."""
    if not isinstance(t, TableProtocol):
        raise ValueError("table_to_general expects a table-kind protocol")
    return materialize(t.n, t.M, *rules(t), [lk.range_size for lk in t.links])
