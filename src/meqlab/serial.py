"""Protocol files: UTF-8 JSON, exactly as json.dumps(doc, indent=2,
sort_keys=True) lays out the document `protocol_from_doc` reads, plus a
newline.

One renderer, `_render`, writes that text straight from the protocol, one
format string per level of the fixed schema, without building the document.
It hands the text over in pieces of at most one input's table entries or
CHUNK link symbols: `save_protocol` streams them to the file, and `dumps`
joins them. Reading back what was written reproduces the original object
exactly, so files are a faithful interchange format between the CLI
subcommands.

A general file lists each table as entries sorted by (input, history); in
memory a table is history-major, one row {input: output} per history (see
`core`). The reader groups the entries into rows in one pass, whatever
their order; the writer reads the rows in history order and files each
history under the inputs of its row, so no entry is sorted on its own.

`load_protocol` files each entry of a general file into its table's rows
as the JSON decoder parses it, and never builds the list of entries, so
reading peaks at about twice the file size (the file's bytes and its text).
A file whose rows that parse cannot vouch for (see `_grouped`), or that
breaks the schema, is read again by the reference path,
`protocol_from_doc(json.loads(text))`, the one that words every error; so
what is read and what is refused do not change.

A file nested deeper than the JSON decoder allows is malformed, like any
other file that breaks the schema (ValueError).
"""

import json
from collections import Counter, defaultdict
from pathlib import Path

from .core import GeneralProtocol, LinkTable, Protocol, Step, TableProtocol, check_int, placed


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _object(value, what: str, *required: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    for name in required:
        if name not in value:
            raise ValueError(f"{what} lacks field {name!r}")
    return value


class _Rows(defaultdict):
    """The rows of a table grouped while its file was parsed; a JSON
    document holds none."""

    __slots__ = ()


def _lookup(raw, what: str) -> dict:
    """A ``{history: {input: output}}`` table from its list of entries,
    checked and grouped into rows in one walk; rows grouped while parsing,
    as they are. Raises ValueError, naming the first entry that is not an
    object with an integer input and output and a list of integers as
    history, else the first listed (input, history) given more than once."""
    if type(raw) is _Rows:
        return raw
    entries = _list(raw, what)
    rows = defaultdict(dict)
    for e in entries:
        try:
            if not (
                isinstance(e, dict)
                and type(e["input"]) is int
                and type(e["out"]) is int
                and type(e["history"]) is list
                and all(type(h) is int for h in e["history"])
            ):
                raise ValueError(f"{what} entry {e!r} is not integer input, history and output")
        except KeyError as err:
            raise ValueError(f"{what} entry lacks field {err.args[0]!r}") from None
        rows[tuple(e["history"])][e["input"]] = e["out"]
    # a repeated key would silently keep its last copy; the count shows one
    if sum(map(len, rows.values())) < len(entries):
        keys = Counter((e["input"], tuple(e["history"])) for e in entries)
        key = next(k for k, count in keys.items() if count > 1)
        raise ValueError(f"{what} has more than one entry for (input, history) {key}")
    return rows


def protocol_from_doc(doc: dict) -> Protocol:
    """The protocol a document describes. Raises ValueError, naming the
    field and the part of the document, on one that does not follow the
    schema."""
    doc = _object(doc, "protocol document")
    kind = doc.get("kind")
    if kind not in ("table", "general"):
        raise ValueError(f"unknown document kind {kind!r}")
    _object(doc, f"{kind} document", "n", "M", "links" if kind == "table" else "steps")
    if kind == "table":
        links = []
        for index, entry in enumerate(_list(doc["links"], "links"), 1):
            entry = _object(entry, "link", "from", "to", "symbols")
            links.append(placed(
                f"link {index}",
                LinkTable,
                entry["from"],
                entry["to"],
                tuple(_list(entry["symbols"], "symbols")),
                entry.get("range", 0),
            ))
        return placed("table document", TableProtocol, doc["n"], doc["M"], tuple(links))
    steps = []
    for index, raw in enumerate(_list(doc["steps"], "steps"), 1):
        raw = _object(raw, "step", "from", "to", "table", "range")
        steps.append(placed(
            f"step {index}",
            Step,
            raw["from"],
            raw["to"],
            _lookup(raw["table"], f"step {index} table"),
            raw["range"],
        ))
    decisions = {}
    for raw in _list(doc.get("decisions", []), "decisions"):
        raw = _object(raw, "decision", "node", "table")
        node = check_int(raw["node"], "decision node")
        if node in decisions:
            raise ValueError(f"decision node {node} appears more than once")
        decisions[node] = _lookup(raw["table"], f"node {node} decision table")
    return placed("general document", GeneralProtocol, doc["n"], doc["M"], tuple(steps), decisions)


CHUNK = 1 << 14  # symbols of a link rendered and written at a time
_SEP = ",\n        "  # between the elements of a list whose bracket sits 6 spaces in


def _write_list(write, items, indent: int, put) -> None:
    """Writes a JSON list laid out as json.dumps(indent=2) lays out a list
    whose closing bracket sits `indent` spaces in. `put(item)` writes each
    of `items`: one element, or a run of elements joined by the separator."""
    pad = "\n" + " " * (indent + 2)
    lead = "[" + pad
    for item in items:
        write(lead)
        put(item)
        lead = "," + pad
    write("[]" if lead[0] == "[" else "\n" + " " * indent + "]")


def _link(write, lk: LinkTable) -> None:
    """Writes one link of a table document, with "range" only when it
    exceeds the largest symbol, and its symbols CHUNK at a time."""
    declared = f'\n      "range": {lk.range_size},' if lk.range_size > max(lk.symbols) else ""
    write(f'{{\n      "from": {lk.sender},{declared}\n      "symbols": ')
    symbols = lk.symbols
    # "%d" renders an int as str does, without a string object per symbol
    _write_list(write, (symbols[i:i + CHUNK] for i in range(0, len(symbols), CHUNK)), 6,
                lambda run: write((("%d" + _SEP) * (len(run) - 1) + "%d") % run))
    write(f',\n      "to": {lk.receiver}\n    }}')


def _table(write, table, histories: dict) -> None:
    """Writes a step's or decision's "table" field: its entries as a list
    sorted by (input, history), one input's entries at a time. The rows are
    read in history order and each history is filed under the inputs of its
    row, so nothing is sorted per entry. `histories` caches the rendered
    text of each history, which many tables share."""
    for h in table.keys() - histories.keys():
        parts = []
        _write_list(parts.append, map(str, h), 10, parts.append)
        histories[h] = "".join(parts)
    by_input = defaultdict(list)
    for h in sorted(table):
        row = table[h]
        text_and_row = (histories[h], row)
        for x in row:
            by_input[x].append(text_and_row)

    def put(x):
        write(_SEP.join([
            f'{{\n          "history": {text},\n          "input": {x},\n          "out": {row[x]}\n        }}'
            for text, row in by_input[x]
        ]))

    _write_list(write, sorted(by_input), 6, put)


def _render(p: Protocol, write) -> None:
    """Writes the text of p's file, json.dumps(doc, indent=2, sort_keys=True)
    plus a newline for p's document, in pieces of at most one input's table
    entries or CHUNK symbols, without building the document. Each format
    string is one level of the schema, its keys in sorted order and its
    indent spelled out."""
    if isinstance(p, TableProtocol):
        write(f'{{\n  "M": {p.M},\n  "kind": "table",\n  "links": ')
        _write_list(write, p.links, 2, lambda lk: _link(write, lk))
        write(f',\n  "n": {p.n}\n}}\n')
        return
    histories = {}

    def decision(node):
        write(f'{{\n      "node": {node},\n      "table": ')
        _table(write, p.decisions[node], histories)
        write("\n    }")

    def step(st):
        write(f'{{\n      "from": {st.sender},\n      "range": {st.range_size},\n      "table": ')
        _table(write, st.table, histories)
        write(f',\n      "to": {st.receiver}\n    }}')

    write(f'{{\n  "M": {p.M},\n  "decisions": ')
    _write_list(write, sorted(p.decisions), 2, decision)
    write(f',\n  "kind": "general",\n  "n": {p.n},\n  "steps": ')
    _write_list(write, p.steps, 2, step)
    write("\n}\n")


def dumps(p: Protocol) -> str:
    """The text of p's file, as `save_protocol` writes it."""
    parts = []
    _render(p, parts.append)
    return "".join(parts)


def save_protocol(p: Protocol, path) -> None:
    """Writes p's file at `path` as it is rendered, a piece at a time. If
    rendering or writing fails, KeyboardInterrupt included, the partial
    file is removed and the error raised again."""
    f = open(path, "w", encoding="utf-8")
    try:
        with f:
            _render(p, f.write)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


_ENTRY = object()  # stands in the parsed document for an entry filed into rows


def _refuse(literal):
    raise ValueError(f"{literal} is not an int")


def _holds_bool(text: str) -> bool:
    """Whether `text` holds `true` or `false`. A general file has a few e's
    per table and none per entry, so they are found at memchr speed and the
    letters before each compared, faster than searching for the words."""
    # no "true" ends before 3; a "false" ending at 3 would start at -1,
    # which startswith reads as the last letter alone, so it never matches
    at = text.find("e", 3)
    while at >= 0:
        if text.startswith("tru", at - 3) or text.startswith("fals", at - 4):
            return True
        at = text.find("e", at + 1)
    return False


def _grouped(text: str):
    """The document of `text`, with each table of entries replaced by the
    `_Rows` it groups into, filed one entry at a time as the decoder closes
    it. Only for a text that does not `_holds_bool`.

    The rows equal the ones `_lookup` groups from the parsed list only if
    equal history tuples come from equal lists; but true == 1 == 1.0. So
    the text holds no true or false, and a float or a NaN raises ValueError
    here; `core._rows` then refuses any history element that is no int,
    once per row. An entry whose input or output is no int, or whose
    history is no list, raises ValueError, and so does a table whose list
    is not exactly the entries filed since the last table, or repeats one
    (input, history). An unhashable history raises TypeError.
    """
    rows, filed = _Rows(dict), 0

    def hook(obj):
        nonlocal rows, filed
        if len(obj) == 3 and "history" in obj and "input" in obj and "out" in obj:
            x, h, out = obj["input"], obj["history"], obj["out"]
            if not (type(x) is int is type(out) and type(h) is list):
                raise ValueError("entry is not integer input and output and a list history")
            rows[tuple(h)][x] = out
            filed += 1
            return _ENTRY
        table = obj.get("table")
        if filed and type(table) is list:
            # the row sizes add up to the count only without repeats
            if not len(table) == table.count(_ENTRY) == filed == sum(map(len, rows.values())):
                raise ValueError("entries outside their table, or repeated")
            obj["table"] = rows
            rows, filed = _Rows(dict), 0
        return obj

    return json.loads(text, object_hook=hook, parse_float=_refuse, parse_constant=_refuse)


def load_protocol(path) -> Protocol:
    """The protocol in the file at `path`, its general tables grouped into
    rows as the file is parsed. Raises OSError when the file cannot be read
    and ValueError when it is not a valid protocol file."""
    text = Path(path).read_text(encoding="utf-8")
    if not _holds_bool(text):
        try:
            return protocol_from_doc(_grouped(text))
        except (ValueError, TypeError, RecursionError):
            pass
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("protocol file nests deeper than the JSON decoder allows") from None
    return protocol_from_doc(doc)
