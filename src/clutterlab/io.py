"""Reading and writing clutters as text or JSON.

Text format: the first significant line holds "n d"; every following
significant line lists the d vertices of one circuit, space separated
and 1-based.  Lines starting with # and blank lines are ignored, and
duplicate circuits collapse.  A file whose first significant character
is "{" is parsed as the JSON form instead:

    {"n": 5, "d": 3, "circuits": [[1, 2, 3], [1, 4, 5]]}

Files are read as UTF-8, after a byte order mark if there is one.
Parse failures raise ClutterParseError carrying the offending line
number where there is one; so do a file that is not UTF-8 and JSON
nested too deeply, or holding an integer too long, for Python to load.

Text with no "#" is read in one pass over the whole text: its lines
split into tokens, blank ones dropped, every token read by int, and one
set of row widths checked against the header's d.  The flat list of
ints after the header then goes straight to clutter._from_flat, the
function behind make_clutter's fast path, which makes the masks and,
when the rows come in canonical order, keeps them on the clutter as
its circuits, so a report's echo of the input reuses them.  Text that
fails any of these checks, or holds a "#", goes to the per-line loop,
the one path that names a fault and its line.  The loop and the JSON
form build the clutter with make_clutter, whose own fast path and
fallback are described there.

Reports are written by dumps_report, which returns what
json.dumps(value, indent=2) returns, byte for byte.
"""

import json
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

from .clutter import Clutter, _check_parameters, _from_flat, make_clutter


class ClutterParseError(ValueError):
    """Malformed clutter input; .line is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def clutter_from_json_dict(obj: object) -> Clutter:
    """Build a clutter from the parsed JSON object form."""
    if not isinstance(obj, dict):
        raise ClutterParseError(f"JSON clutter must be an object, got {type(obj).__name__}")
    missing = {"n", "d", "circuits"} - obj.keys()
    if missing:
        raise ClutterParseError(f"JSON clutter lacks keys: {sorted(missing)}")
    n, d, circuits = obj["n"], obj["d"], obj["circuits"]
    # JSON true/false load as bool, a subclass of int; neither is a number here.
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (n, d)):
        raise ClutterParseError("JSON clutter n and d must be integers")
    if not isinstance(circuits, list) or not all(map(isinstance, circuits, repeat(list))):
        raise ClutterParseError("JSON clutter circuits must be a list of lists")
    kinds = {*map(type, chain.from_iterable(circuits))}
    if bool in kinds or not all(map(issubclass, kinds, repeat(int))):
        raise ClutterParseError("JSON clutter vertices must be integers")
    try:
        return make_clutter(n, d, circuits)
    except ValueError as exc:
        raise ClutterParseError(str(exc)) from exc


def clutter_to_json_dict(clutter: Clutter) -> dict[str, object]:
    return {
        "n": clutter.n,
        "d": clutter.d,
        "circuits": [*map(list, clutter.circuits)],
    }


def parse_clutter(text: str) -> Clutter:
    """Parse the text or JSON form of a clutter."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ClutterParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
        except (RecursionError, ValueError) as exc:  # too deep, or an int too long
            raise ClutterParseError(f"invalid JSON: {exc}") from exc
        return clutter_from_json_dict(obj)
    if "#" not in text and (rows := [*filter(None, map(str.split, text.splitlines()))]):
        try:
            n, d, *values = map(int, chain.from_iterable(rows))
            if len(rows[0]) == 2 and {*map(len, islice(rows, 1, None))} <= {d}:
                _check_parameters(n, d)
                if made := _from_flat(n, d, values):
                    return made
        except ValueError:
            pass  # the line loop below raises the same error, with its line

    header: tuple[int, int] | None = None
    circuits: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ClutterParseError(f"non-integer token in {line!r}", lineno) from None
        if header is None:
            if len(values) != 2:
                raise ClutterParseError(
                    f"header must be 'n d', got {len(values)} values", lineno)
            header = (values[0], values[1])
            continue
        if len(values) != header[1]:
            raise ClutterParseError(
                f"circuit has {len(values)} vertices, expected d = {header[1]}", lineno)
        circuits.append(values)
    if header is None:
        raise ClutterParseError("empty input: no 'n d' header found")
    try:
        return make_clutter(header[0], header[1], circuits)
    except ValueError as exc:
        raise ClutterParseError(str(exc)) from exc


def parse_clutter_file(path: str) -> Clutter:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ClutterParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ClutterParseError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_clutter(text)
    except ClutterParseError as exc:
        raise ClutterParseError(f"{path}: {exc.message}", exc.line) from exc


def clutter_to_text(clutter: Clutter) -> str:
    """Serialize in the plain text format (parse_clutter inverts this)."""
    lines = [f"{clutter.n} {clutter.d}"]
    lines.extend(" ".join(map(str, c)) for c in clutter.circuits)
    return "\n".join(lines) + "\n"


def clutter_to_json(clutter: Clutter) -> str:
    return dumps_report(clutter_to_json_dict(clutter)) + "\n"


def dumps_report(value: object) -> str:
    """json.dumps(value, indent=2), byte for byte, built in one pass.

    With indent set, json.dumps runs the pure-Python encoder, which
    yields a few pieces per value.  This writer walks non-empty lists,
    tuples and str-keyed dicts itself, as that encoder does, and writes
    the bulk of a report in single passes: a list or tuple of exact ints
    (lambda, the f-vector, the l-sequence) as one "%d" template, its
    cells joined once and filled by one %-format, and a list or tuple of
    equal-width, non-empty lists or tuples of exact ints (the echoed
    circuits, the order's elements) as one "%d" row template, repeated
    by one join and filled by one %-format over all the ints.  "%d"
    writes an exact int as int.__repr__ does, and past the interpreter's
    digit limit for int-to-str conversion both raise the same
    ValueError.  A list or tuple of dicts that all have the same str
    keys in the same order, at least one, and only exact ints for values
    (the graded Betti entries) is one such template too, its keys' "%"
    doubled.  In a dict, a value that is an exact int, an exact str, a
    bool, None or a non-empty list of exact ints is written in the key's
    line without a recursive call, the list as one "%d" template.  Any
    other container (empty, a subclass, a dict with a key that is not a
    str) goes whole to json.dumps(value, indent=2), its lines shifted to
    the current depth; a JSON string holds no raw newline, so every
    newline it writes starts a line.  It writes true, false and null
    itself, and every other scalar goes to json.dumps, which writes a
    scalar on one line whatever the indent.
    """
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value: object, newline: str, out: list[str]) -> None:
    """Append value's JSON to out; newline starts a line at its depth."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif (kind is list or kind is tuple) and value:
        inner = newline + "  "
        if (kinds := {*map(type, value)}) == {int}:
            cells = (',' + inner).join(['%d'] * len(value))
            out.append(f"[{inner}{cells}{newline}]" % tuple(value))
            return
        # rows of one shape: lists or tuples of one width, or dicts of one
        # str key order, each cell an exact int
        heads = ()
        if kinds <= {list, tuple} and len(shapes := {*map(len, value)}) == 1:
            heads, ints, ends = [""] * shapes.pop(), chain.from_iterable(value), "[]"
        elif (kinds == {dict} and len(shapes := {*map(tuple, value)}) == 1
              and {*map(type, keys := shapes.pop())} == {str}):
            heads = [encode_basestring_ascii(key).replace("%", "%%") + ": " for key in keys]
            ints, ends = chain.from_iterable(map(dict.values, value)), "{}"
        if heads and {*map(type, ints := [*ints])} == {int}:
            cells = (',' + inner + '  ').join([head + "%d" for head in heads])
            rows = (',' + inner).join([f"{ends[0]}{inner}  {cells}{inner}{ends[1]}"] * len(value))
            out.append(f"[{inner}{rows}{newline}]" % tuple(ints))
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and value and {*map(type, value)} == {str}:
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            # the commonest values, without a call
            if (kind := type(item)) is int:
                out.append(int.__repr__(item))
            elif kind is str:
                out.append(encode_basestring_ascii(item))
            elif kind is bool or item is None:
                out.append("null" if item is None else "true" if item else "false")
            elif kind is list and {*map(type, item)} == {int}:
                cells = (',' + inner + '  ').join(['%d'] * len(item))
                out.append(f"[{inner}  {cells}{inner}]" % tuple(item))
            else:
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple, dict)):
        out.append(json.dumps(value, indent=2).replace("\n", newline))
    elif value is True or value is False or value is None:
        out.append("true" if value else "null" if value is None else "false")
    else:
        out.append(json.dumps(value))
