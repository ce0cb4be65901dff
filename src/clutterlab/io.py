"""Reading and writing clutters as text or JSON.

Text format: the first significant line holds "n d"; every following
significant line lists the d vertices of one circuit, space separated
and 1-based.  Lines starting with # and blank lines are ignored, and
duplicate circuits collapse.  A file whose first significant character
is "{" is parsed as the JSON form instead:

    {"n": 5, "d": 3, "circuits": [[1, 2, 3], [1, 4, 5]]}

Parse failures raise ClutterParseError carrying the offending line
number where there is one; so do a file that is not UTF-8 and JSON
nested too deeply, or holding an integer too long, for Python to load.

Reports are written by dumps_report, which returns what
json.dumps(value, indent=2) returns, byte for byte.
"""

import json
from json.encoder import encode_basestring_ascii

from .clutter import Clutter, make_clutter


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
    if not isinstance(circuits, list) or not all(isinstance(c, list) for c in circuits):
        raise ClutterParseError("JSON clutter circuits must be a list of lists")
    if any(not isinstance(v, int) or isinstance(v, bool) for c in circuits for v in c):
        raise ClutterParseError("JSON clutter vertices must be integers")
    try:
        return make_clutter(n, d, circuits)
    except ValueError as exc:
        raise ClutterParseError(str(exc)) from exc


def clutter_to_json_dict(clutter: Clutter) -> dict[str, object]:
    return {
        "n": clutter.n,
        "d": clutter.d,
        "circuits": [list(c) for c in clutter.circuits],
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
        with open(path, encoding="utf-8") as fh:
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
    a list of exact ints, the bulk of a report, with a single join.  Any
    other container (empty, a subclass, a dict with a key that is not a
    str) goes whole to json.dumps(value, indent=2), its lines shifted to
    the current depth; a JSON string holds no raw newline, so every
    newline it writes starts a line.  Every other scalar goes to
    json.dumps, which writes a scalar on one line whatever the indent.
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
        if {*map(type, value)} == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
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
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple, dict)):
        out.append(json.dumps(value, indent=2).replace("\n", newline))
    else:
        out.append(json.dumps(value))
