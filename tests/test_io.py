"""Text and JSON clutter formats."""

from __future__ import annotations

import json
import sys
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from clutterlab import (
    Clutter,
    ClutterParseError,
    clutter_from_json_dict,
    clutter_to_json,
    clutter_to_json_dict,
    clutter_to_text,
    make_clutter,
    parse_clutter,
    parse_clutter_file,
)
from clutterlab.io import dumps_report

EX = make_clutter(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 4, 5)])

TEXT = """\
# running example
5 3
1 2 3
1 2 4

1 3 4
2 3 4
1 4 5
"""


def test_parse_text():
    assert parse_clutter(TEXT) == EX


def test_parse_text_duplicates_collapse():
    assert parse_clutter("4 2\n1 2\n1 2\n2 1\n").num_circuits == 1


def test_text_round_trip():
    assert parse_clutter(clutter_to_text(EX)) == EX
    empty = make_clutter(4, 3, [])
    assert parse_clutter(clutter_to_text(empty)) == empty


def test_json_round_trip():
    assert parse_clutter(clutter_to_json(EX)) == EX
    blob = clutter_to_json_dict(EX)
    assert blob == {"n": 5, "d": 3,
                    "circuits": [[1, 2, 3], [1, 2, 4], [1, 3, 4],
                                 [1, 4, 5], [2, 3, 4]]}
    assert clutter_from_json_dict(json.loads(json.dumps(blob))) == EX


@st.composite
def clutters(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    subsets = list(combinations(range(1, n + 1), d))
    picked = draw(st.lists(st.sampled_from(subsets), max_size=40)) if subsets else []
    return make_clutter(n, d, picked)


@given(clutters())
@example(make_clutter(4, 3, []))
def test_round_trips_on_random_clutters(c):
    assert parse_clutter(clutter_to_text(c)) == c
    assert parse_clutter(clutter_to_json(c)) == c


@given(clutters())
@example(make_clutter(4, 3, []))
@example(make_clutter(3, 1, [(2,)]))
def test_clutter_json_is_written_as_json_dumps_writes_it(c):
    assert clutter_to_json(c) == json.dumps(clutter_to_json_dict(c), indent=2) + "\n"


# Report-shaped values: exact ints of any size, int lists with bools
# mixed in, strings with non-ASCII and control characters and lone
# surrogates, None, empty containers and tuples; also floats, which
# dumps_report leaves to json.dumps, and dicts with keys that json turns
# into strings, which it hands whole to json.dumps(..., indent=2).
INTS = st.integers() | st.integers(-2**300, 2**300)
STRINGS = st.text(st.characters(blacklist_categories=()))


class Flag(IntEnum):
    OFF = 0
    ON = 1


# Row-shaped values: lists and tuples of equal-width exact-int rows, the
# writer's row branch, and rows that must miss it: ragged, empty, or
# holding a bool, an IntEnum or a float.
ROW_CELLS = INTS | st.booleans() | st.sampled_from(Flag) | st.floats(allow_nan=False)
ROWS = st.integers(0, 4).flatmap(lambda width: st.lists(
    st.lists(INTS, min_size=width, max_size=width)
    | st.lists(INTS, min_size=width, max_size=width).map(tuple)
    | st.lists(ROW_CELLS, min_size=width, max_size=width), min_size=1))
# Lists of dicts with one str key order and exact-int values, the writer's
# dict-row branch, and lists that must miss it: a bool, an IntEnum or a
# float among the values, the keys in another order, or an empty dict.
DICT_ROWS = st.lists(STRINGS | st.sampled_from(["i", "j", "value", "%d", "%%s"]),
                     unique=True, max_size=3).flatmap(lambda keys: st.lists(
    st.lists(INTS, min_size=len(keys), max_size=len(keys)).map(
        lambda values: dict(zip(keys, values)))
    | st.lists(ROW_CELLS, min_size=len(keys), max_size=len(keys)).map(
        lambda values: dict(zip(keys, values)))
    | st.permutations(keys).map(lambda order: dict.fromkeys(order, 1)),
    min_size=1))
# Flat dicts of scalars, as a report's verdict blocks are: str, bool and
# None values beside ints and floats, the writer's own-line branch.
SCALAR_DICTS = st.dictionaries(STRINGS, st.none() | st.booleans() | INTS | STRINGS
                               | st.floats(), min_size=1)
LEAVES = (st.none() | st.booleans() | INTS | STRINGS | st.floats()
          | st.lists(INTS | st.booleans()) | ROWS | ROWS.map(tuple)
          | st.lists(st.lists(INTS, max_size=3), min_size=1) | DICT_ROWS
          | SCALAR_DICTS)
KEYS = STRINGS | INTS | st.none() | st.booleans() | st.floats()
REPORTS = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(KEYS, kids)),
    max_leaves=30)


class ListSubclass(list):
    pass


class DictSubclass(dict):
    pass


class StrSubclass(str):
    pass


@given(REPORTS)
@example({"order": {"elements": [[], []], "neighborhood_sizes": [2, 1]}})
@example([[], {}, (), [[]], {"": {}}, [True, 1], (1, 2)])
@example({"a\u00e9\x00\n": ["\ud800", -10**80, None]})
# containers the writer hands whole to json.dumps, re-indented at depth >= 2
@example({"a": [{1: "x", None: [1, {"b": []}]}, {"s": 0, 2.5: ["\n"]}]})
@example({"a": [ListSubclass([1, [2, "c"]]), DictSubclass(b=[3], c={"d": {}})]})
@example({"a": {"b": [[], {}, ()], "c": {"d": [], "e": {}}}})
# true, false and null the writer spells itself; 1.0 == True and 0.0 == False
# must still go to json.dumps
@example([[True, 1.0, 1], [False, 0.0, -0.0, 0], [None, [1, 2], [True, [False, None]]]])
@example({"a": [[1.0, True], {"b": [0.0, False, -0.0, None]}], "c": [[1, 2], [3]]})
@example(({"valid": True, "l_sequence": None, "reason": None}, [[-0.0, 1], (True, 1.0)]))
# rows of exact ints, as lists and tuples, at depth 0, 1 and 2 and deeper
@example([[1, 2, 3], [1, 2, 4], [2, 3, 4]])
@example(((1, 2), [3, 4], (5, 6)))
@example({"input": {"circuits": [[1, 2], [2, 3]]}, "order": {"elements": ((1,), (2,))}})
@example([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
@example([[[[1, 2]], [[3, 4]]]])
# ragged rows, empty rows, and rows holding True, an IntEnum or a float
@example([[1, 2], [3]])
@example([[], []])
@example([[1], [], [2]])
@example([[1, True], [2, 3]])
@example([[True, False], [False, True]])
@example([[Flag.ON, 2], [3, 4]])
@example([[1.0, 2], [3, 4]])
# ints beyond 2**300
@example([[2**301, -2**302], [10**100, -1]])
# dicts with one key order and exact-int values, the graded Betti entries,
# at depth 1 and 2, with "%" in a key; and dicts that must miss that path:
# a bool value, two key orders, an empty dict, a non-str key
@example({"entries": [{"i": 0, "j": 2, "value": 5}, {"i": 1, "j": 3, "value": -2**301}]})
@example([[{"%d": 1, "%%s": 2}], ({"a": 3},)])
@example([{"i": 0, "value": True}, {"i": 1, "value": 2}])
@example([{"i": 0, "j": 1}, {"j": 1, "i": 0}])
@example([{}, {}])
@example([{"i": 1, 2: 3}, {"i": 1, 2: 3}])
# int values and int lists written in a dict's own line, beside ones that
# are not: a bool, an empty list, a list holding a bool, a tuple
@example({"n": 5, "f": [1, 5, 10], "ok": True, "e": [], "b": [1, True], "t": (1, 2)})
# int lists as one "%d" template: one entry, at depth 0, in a dict's line
# and as a tuple; ints of 4000 digits, the CLI's lambda cap; and int lists
# in a dict at depth 2 and 3
@example([7])
@example({"l": [7], "t": (7,)})
@example({"lambda": [10**3999, -(10**3999) + 1], "rows": [[10**3999]]})
@example({"a": {"b": [1, 2, 3]}, "c": [{"d": [4]}, {"e": {"f": [5, -6]}}]})
# str, bool and None values written in a dict's own line, beside a str
# subclass and the floats equal to True and False, which are not
@example({"s": "a\u00e9\n\"", "t": True, "f": False, "z": None, "e": "",
          "u": StrSubclass("x"), "one": 1.0, "zero": 0.0, "d": {"s": "%d", "z": None}})
def test_report_writer_is_json_dumps(value):
    assert dumps_report(value) == json.dumps(value, indent=2)


def dict_value_kinds(value) -> set[type]:
    """The types of the values of every str-keyed dict inside value."""
    if type(value) is dict:
        items = [*value.values()]
        kinds = {*map(type, items)} if all(type(key) is str for key in value) else set()
    elif type(value) in (list, tuple):
        items, kinds = value, set()
    else:
        return set()
    for item in items:
        kinds |= dict_value_kinds(item)
    return kinds


@pytest.mark.parametrize("kind", [str, bool, type(None)])
def test_report_strategy_puts_str_bool_and_none_in_dicts(kind):
    # the writer's own-line branch for these values is reached by the
    # strategy above, not only by its examples
    assert find(REPORTS, lambda v: kind in dict_value_kinds(v),
                settings=settings(database=None, derandomize=True,
                                  phases=[Phase.generate])) is not None


def test_report_writer_refuses_what_json_refuses():
    for bad in ({(1, 2): 3}, {"a": [{1, 2}]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            dumps_report(bad)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter converts ints of any length")
def test_report_writer_refuses_an_int_json_refuses():
    # past the interpreter's digit limit for int-to-str conversion, "%d"
    # raises the ValueError that int.__repr__ raises in json.dumps
    huge = 10 ** (sys.get_int_max_str_digits() + 100)
    for bad in ([huge], {"a": [1, huge]}, {"a": {"b": [huge]}}, [[1, huge]]):
        with pytest.raises(ValueError):
            json.dumps(bad, indent=2)
        with pytest.raises(ValueError):
            dumps_report(bad)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ClutterParseError) as exc:
        parse_clutter("5 3\n1 2\n")
    assert exc.value.line == 2
    with pytest.raises(ClutterParseError) as exc:
        parse_clutter("# only a comment\n5\n")
    assert exc.value.line == 2
    with pytest.raises(ClutterParseError) as exc:
        parse_clutter("5 3\n1 2 x\n")
    assert exc.value.line == 2


def test_parse_rejects_semantic_errors():
    with pytest.raises(ClutterParseError):
        parse_clutter("5 3\n1 2 9\n")      # vertex out of range
    with pytest.raises(ClutterParseError):
        parse_clutter("")                  # no header
    with pytest.raises(ClutterParseError):
        parse_clutter('{"n": 5, "d": 3}')  # missing circuits key
    with pytest.raises(ClutterParseError):
        parse_clutter('{"n": 5, "d": 3, "circuits": "nope"}')
    with pytest.raises(ClutterParseError):
        parse_clutter('{bad json')
    # JSON true and false load as bool, a subclass of int; neither is a number here
    for blob in ('{"n": true, "d": true, "circuits": [[true]]}',
                 '{"n": true, "d": 1, "circuits": [[1]]}',
                 '{"n": 3, "d": true, "circuits": [[2]]}',
                 '{"n": 3, "d": 2, "circuits": [[true, 2]]}'):
        with pytest.raises(ClutterParseError):
            parse_clutter(blob)
    # a vertex of another JSON type is refused for its type, not its range
    for vertex in ("1.0", '"1"', "null", "true"):
        with pytest.raises(ClutterParseError, match="^JSON clutter vertices must be integers$"):
            parse_clutter('{"n": 3, "d": 2, "circuits": [[%s, 2]]}' % vertex)


def test_parse_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(TEXT)
    assert parse_clutter_file(path) == EX

    jpath = tmp_path / "c.json"
    jpath.write_text(clutter_to_json(EX))
    assert parse_clutter_file(jpath) == EX


def test_parse_file_skips_a_utf8_byte_order_mark(tmp_path):
    for name, data in (("bom.txt", TEXT), ("bom.json", clutter_to_json(EX))):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + data.encode())
        assert parse_clutter_file(path) == EX
    # only the first one is a byte order mark; a second is a token
    path.write_bytes(b"\xef\xbb\xbf" * 2 + TEXT.encode())
    with pytest.raises(ClutterParseError, match="non-integer token"):
        parse_clutter_file(path)


def test_parse_file_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5 3\n1 2\n")
    with pytest.raises(ClutterParseError) as exc:
        parse_clutter_file(path)
    assert "bad.txt" in str(exc.value)
    assert exc.value.line == 2
    with pytest.raises(ClutterParseError):
        parse_clutter_file(tmp_path / "missing.txt")


# A file that starts with a UTF-16 byte order mark is not UTF-8, JSON nested
# this deep exhausts the parser's recursion, and a JSON integer past Python's
# 4300-digit limit does not load; all must be refused, not raised past.
UTF16_FILE = b"\xff\xfe5\x003\x00\n\x00"
DEEP_JSON = b'{"n": ' + b"[" * 100000 + b"]" * 100000 + b"}"
VALID_FILES = [TEXT.encode(), clutter_to_json(EX).encode()]


def parses_or_refuses(parse, arg):
    """parse(arg) returns a Clutter or raises ClutterParseError, nothing else."""
    try:
        result = parse(arg)
    except ClutterParseError:
        return
    assert isinstance(result, Clutter)


@st.composite
def mutated_files(draw):
    """A valid text or JSON file with a few bytes inserted, deleted or replaced."""
    data = bytearray(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "delete":
            del data[pos]
        else:
            data[pos] = byte
    return bytes(data)


@given(st.text() | st.text().map("{".__add__))
@example(DEEP_JSON.decode())
@example('{"n": 1%s, "d": 1, "circuits": []}' % ("0" * 5000))
def test_parse_clutter_on_arbitrary_text(text):
    parses_or_refuses(parse_clutter, text)


@given(st.binary() | mutated_files())
@example(UTF16_FILE)
@example(DEEP_JSON)
def test_parse_clutter_file_on_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    parses_or_refuses(parse_clutter_file, path)
