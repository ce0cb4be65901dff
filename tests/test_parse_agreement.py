"""The C-level input paths agree with the plain loops they stand in for.

parse_clutter reads text with no "#" by one pass over the whole text,
and make_clutter builds a list of lists or tuples of exact ints by
passes over all its rows; any irregularity hands the input to the
original per-line and per-circuit loops.  The loops are kept here
verbatim as references: on every input below, the library returns an
equal Clutter (equal masks in equal order), or raises the same exception
type with the same message and line.

A clutter built from canonical rows keeps them, and its circuits, its
JSON echo, its repr, hash and pickle are those of the verts_of
reference; the witness's element tuples, read off their masks without
verts_of for one- and two-vertex elements, are verts_of's too.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from clutterlab import Clutter, ClutterParseError, clutter, make_clutter, parse_clutter
from clutterlab.chordality import SimplicialOrder, _order
from clutterlab.clutter import MAX_VERTICES, verts_of
from clutterlab.io import clutter_to_json_dict


# ----- reference implementations: the plain loops ---------------------------


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def make_clutter_ref(n, d, circuits) -> Clutter:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"positive vertex count expected, got {n!r}")
    if n > MAX_VERTICES:
        raise ValueError(
            f"n={n} exceeds the supported maximum of {MAX_VERTICES} vertices")
    if d is not None and (not isinstance(d, int) or d < 1):
        raise ValueError(f"positive uniformity expected, got {d!r}")
    masks = []
    for circ in circuits:
        vs = tuple(circ)
        for v in vs:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(f"vertex {v!r} out of range 1..{n}")
        m = _mask_of(vs)
        if m.bit_count() != d:
            raise ValueError(
                f"circuit {sorted(set(vs))} has {m.bit_count()} vertices, expected {d}")
        masks.append(m)
    if n < d and masks:
        raise ValueError(f"no {d}-subsets exist on {n} vertices")
    return Clutter(n, d, tuple(sorted(set(masks), key=verts_of)))


def clutter_from_json_dict_ref(obj) -> Clutter:
    if not isinstance(obj, dict):
        raise ClutterParseError(f"JSON clutter must be an object, got {type(obj).__name__}")
    missing = {"n", "d", "circuits"} - obj.keys()
    if missing:
        raise ClutterParseError(f"JSON clutter lacks keys: {sorted(missing)}")
    n, d, circuits = obj["n"], obj["d"], obj["circuits"]
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (n, d)):
        raise ClutterParseError("JSON clutter n and d must be integers")
    if not isinstance(circuits, list) or not all(isinstance(c, list) for c in circuits):
        raise ClutterParseError("JSON clutter circuits must be a list of lists")
    if any(not isinstance(v, int) or isinstance(v, bool) for c in circuits for v in c):
        raise ClutterParseError("JSON clutter vertices must be integers")
    try:
        return make_clutter_ref(n, d, circuits)
    except ValueError as exc:
        raise ClutterParseError(str(exc)) from exc


def parse_clutter_ref(text: str) -> Clutter:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ClutterParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
        except (RecursionError, ValueError) as exc:
            raise ClutterParseError(f"invalid JSON: {exc}") from exc
        return clutter_from_json_dict_ref(obj)

    header = None
    circuits = []
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
        return make_clutter_ref(header[0], header[1], circuits)
    except ValueError as exc:
        raise ClutterParseError(str(exc)) from exc


# ----- the agreement property -------------------------------------------------


def outcome(build, *args):
    """("ok", clutter) or ("error", type, message, line) of build(*args)."""
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "error", type(exc), str(exc), getattr(exc, "line", None)


def assert_parse_agrees(text: str) -> None:
    assert outcome(parse_clutter, text) == outcome(parse_clutter_ref, text), text


def assert_make_agrees(n, d, rows, wrap=list) -> None:
    """Agreement on wrap(rows), made afresh for each call (wrap may be iter)."""
    fast = outcome(make_clutter, n, d, wrap(rows))
    assert fast == outcome(make_clutter_ref, n, d, wrap(rows)), (n, d, rows, wrap)


class Vertex(IntEnum):
    ONE = 1
    TWO = 2


MUTATIONS = ("shuffle", "reverse_rows", "reverse_within", "duplicate",
             "out_of_range", "wrong_width", "repeat_vertex", "bool", "float",
             "int_enum", "header")


@st.composite
def clutter_inputs(draw):
    """(n, d, rows): a canonical clutter's rows with a few mutations applied.

    The rows start strictly increasing within and between themselves, as
    clutter_to_text and generate write them; each mutation breaks one of
    the facts the fast paths check.
    """
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 4))
    subsets = list(combinations(range(1, n + 1), d))
    picked = sorted(set(draw(st.lists(st.sampled_from(subsets), max_size=12)))) if subsets else []
    rows = [list(r) for r in picked]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if mutation == "header":
            n, d = draw(st.sampled_from([(n + 1, d), (max(n - 1, 0), d), (n, d + 1),
                                         (n, d - 1), (n, 0), (65, d), (n, -1)]))
            continue
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
        if mutation == "shuffle":
            rows = draw(st.permutations(rows))
        elif mutation == "reverse_rows":
            rows.reverse()
        elif mutation == "reverse_within":
            rows[i] = rows[i][::-1]
        elif mutation == "duplicate":
            rows.insert(i, list(rows[i]))
        elif mutation == "out_of_range" and rows[i]:
            rows[i][j] = draw(st.sampled_from([0, -1, n + 1, 2 ** 70]))
        elif mutation == "wrong_width":
            rows[i] = rows[i][:-1] if rows[i] and draw(st.booleans()) else rows[i] + [n]
        elif mutation == "repeat_vertex" and len(rows[i]) > 1:
            rows[i][j] = rows[i][j - 1]
        elif mutation in ("bool", "float", "int_enum") and rows[i]:
            v = rows[i][j]
            rows[i][j] = {"bool": v == 1, "float": float(v),
                          "int_enum": Vertex(v) if v in (1, 2) else v}[mutation]
    return n, d, rows


def as_text(n, d, rows, crlf=False) -> str:
    lines = [f"{n} {d}", *(" ".join(map(str, r)) for r in rows)]
    return ("\r\n" if crlf else "\n").join(lines) + "\n"


def as_json(n, d, rows) -> str:
    return json.dumps({"n": n, "d": d, "circuits": rows})


@settings(max_examples=500, deadline=None)
@given(clutter_inputs(), st.booleans())
@example((5, 3, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 4, 5]]), False)
@example((5, 3, [[3, 2, 1], [1, 2, 4]]), False)        # a row reversed: sort branch
@example((5, 2, [[1, 2], [1, 2]]), False)              # a duplicate: not strictly increasing
@example((5, 2, [[2, 3], [1, 2]]), False)              # rows out of order
@example((5, 2, [[1, 1, 2]]), False)                   # too wide, 2 distinct vertices
@example((5, 3, [[1, 1, 3]]), False)                   # a repeated vertex: popcount < d
@example((5, 2, [[1, 6]]), True)                       # out of range
@example((5, 2, [[True, 2]]), False)
@example((5, 2, [[1.0, 2]]), False)
@example((2, 3, []), False)                            # n < d, empty
@example((2, 3, [[1, 2, 3]]), True)
@example((3, 0, []), False)
@example((3, -1, [[1, 2]]), False)
@example((65, 1, [[1]]), False)
def test_parse_agrees_with_the_line_loop(case, crlf):
    n, d, rows = case
    assert_parse_agrees(as_text(n, d, rows, crlf))
    assert_parse_agrees(as_json(n, d, rows))
    # blank lines and surrounding blanks keep the fast path; a comment sends
    # the text to the line loop, with every line number shifted by one
    assert_parse_agrees("\n  " + as_text(n, d, rows).replace("\n", " \n\n"))
    assert_parse_agrees("# comment\n" + as_text(n, d, rows))


@settings(max_examples=500, deadline=None)
@given(clutter_inputs())
@example((5, 2, [[Vertex.ONE, Vertex.TWO], [1, 3]]))
@example((5, 2, [(1, 2), [1, 3]]))                     # mixed row types
def test_make_clutter_agrees_with_the_loop(case):
    n, d, rows = case
    assert_make_agrees(n, d, rows)
    assert_make_agrees(n, d, [tuple(r) for r in rows])
    assert_make_agrees(n, d, rows, tuple)
    assert_make_agrees(n, d, rows, iter)


@pytest.mark.parametrize("d", range(1, 7))
def test_make_clutter_column_sums_are_the_row_masks(d, monkeypatch):
    # the fast path adds one column of vertex bits to every row at a time;
    # rows in canonical order keep it, shuffled ones go on to the sort.
    # The per-circuit loop, the only mask_of caller, must not run.
    monkeypatch.setattr(clutter, "mask_of", None)
    rng = random.Random(f"columns/{d}")
    for n in (d, d + 3, 20, 64):
        rows = sorted({tuple(sorted(rng.sample(range(1, n + 1), d))) for _ in range(60)})
        masks = tuple(map(_mask_of, rows))
        shuffled = [rng.sample(row, d) for row in rng.sample(rows, len(rows))]
        for given in (rows, shuffled):
            for wrap in (list, tuple):
                made = make_clutter(n, d, [wrap(row) for row in given])
                assert made.circuit_masks == masks, (n, given, wrap)


def test_parse_agrees_on_edge_texts():
    # no header, short and long headers and rows, stray tokens, a comment
    # after data, a huge d with no rows, the forms int() reads beyond plain
    # digits, a token past int()'s digit limit, a byte order mark left in
    # the text, and a form feed, which splitlines() breaks at
    for text in ("", "\n\n", "5\n", "5 3 1\n", "5 x\n", "5 3\n1 2\n", "5 3\n1 2 x\n",
                 "5 3\n1 2 3 4\n", "5 2\n1 2\n3\n", "5 2\n1 2\n# c\n2 3\n",
                 "5 2\n1 2 #\n", "3 1000000000\n", "5 2\n1_0 2\n", "5 2\n+1 \uff12\n",
                 "5 2\n1 " + "9" * 5000 + "\n", "\ufeff5 2\n1 2\n", "5 2\x0c1 2\n"):
        assert_parse_agrees(text)


def test_every_graph_on_four_vertices_in_every_order():
    """Every 2-uniform clutter on [4], its rows in canonical order, in
    reverse order, and each row reversed, read as text, as JSON and
    built directly from lists and from tuples."""
    edges = list(combinations(range(1, 5), 2))
    for k in range(len(edges) + 1):
        for picked in combinations(edges, k):
            expected = make_clutter_ref(4, 2, picked)
            canonical = [list(e) for e in picked]
            for rows in (canonical, canonical[::-1], [r[::-1] for r in canonical]):
                for text in (as_text(4, 2, rows), as_json(4, 2, rows)):
                    assert parse_clutter(text) == expected
                    assert_parse_agrees(text)
                assert make_clutter(4, 2, rows) == expected
                assert make_clutter(4, 2, [tuple(r) for r in rows]) == expected


# ----- kept rows: the circuits the parser already holds -----------------------


def seeded_rows(rng, n, d):
    """Up to 40 canonical d-subsets of [n], one of them holding vertex n."""
    picks = {tuple(sorted(rng.sample(range(1, n + 1), d))) for _ in range(40)}
    picks.add(tuple(sorted({n, *rng.sample(range(1, n), d - 1)})))
    return sorted(picks)


def assert_like_the_reference(made, rows) -> None:
    """made agrees with the loop's clutter on rows, field for field and as an echo."""
    ref = make_clutter_ref(made.n, made.d, rows)
    reference_rows = tuple(map(verts_of, ref.circuit_masks))
    assert made == ref and made.circuit_masks == ref.circuit_masks
    assert made.circuits == reference_rows
    assert clutter_to_json_dict(made) == {
        "n": ref.n, "d": ref.d, "circuits": [*map(list, reference_rows)]}
    assert hash(made) == hash(ref) and repr(made) == repr(ref)
    for twin in (pickle.loads(pickle.dumps(made)), copy.copy(made), copy.deepcopy(made)):
        assert twin == ref and twin.circuits == reference_rows
    assert pickle.dumps(made) == pickle.dumps(ref)


@pytest.mark.parametrize("d", range(1, 6))
def test_kept_rows_are_the_verts_of_rows_in_every_input_form(d):
    rng = random.Random(f"kept-rows/{d}")
    for n in (d, d + 2, 17, 40, 64):
        canonical = [list(r) for r in seeded_rows(rng, n, d)]
        for form in ("canonical", "shuffled", "duplicated", "reversed", "comment"):
            rows = [list(r) for r in canonical]
            if form == "shuffled":
                rng.shuffle(rows)
            elif form == "duplicated":
                rows.insert(rng.randrange(len(rows)), list(rng.choice(rows)))
            elif form == "reversed":
                rows = [r[::-1] for r in rows]
            text = as_text(n, d, rows)
            if form == "comment":
                text = "# a comment\n" + text
            built = [parse_clutter(text), parse_clutter(as_json(n, d, rows)),
                     make_clutter(n, d, rows), make_clutter(n, d, [tuple(r) for r in rows])]
            for made in built:
                assert_like_the_reference(made, rows)
                # rows are kept exactly when they come in canonical order
                assert (getattr(made, "_rows", None) is not None) == (rows == canonical)


def test_kept_rows_need_no_verts_of(monkeypatch):
    rows = seeded_rows(random.Random("no-verts-of"), 64, 3)
    text = as_text(64, 3, rows)
    monkeypatch.setattr(clutter, "verts_of", None)
    assert parse_clutter(text).circuits == tuple(rows)
    assert make_clutter(64, 3, [list(r) for r in rows]).circuits == tuple(rows)


def test_kept_rows_are_the_clutters_own():
    rows = [[1, 2, 3], [1, 2, 4], [2, 3, 64]]
    made = make_clutter(64, 3, rows)
    rows[0][0], rows[1] = 9, [5, 6, 7]
    rows.append([7, 8, 9])
    assert made.circuits == ((1, 2, 3), (1, 2, 4), (2, 3, 64))
    assert made == make_clutter_ref(64, 3, [(1, 2, 3), (1, 2, 4), (2, 3, 64)])
    with pytest.raises(AttributeError):
        made._rows = ()
    with pytest.raises(AttributeError):
        del made._rows


@pytest.mark.parametrize("size", range(5))
def test_order_tuples_are_verts_of_tuples(size):
    rng = random.Random(f"order/{size}")
    for top in (size + 1, 9, 64):
        elements = [sum(1 << (v - 1) for v in rng.sample(range(1, top + 1), size))
                    for _ in range(30)]
        if size:
            elements.append(sum(1 << (v - 1) for v in range(65 - size, 65)))  # vertex 64
        steps = [(e, rng.getrandbits(64)) for e in elements]
        expected = tuple((verts_of(e), nbr.bit_count()) for e, nbr in steps)
        assert _order(steps) == SimplicialOrder(expected)
        assert _order(iter(steps)).steps == expected
    assert _order([]) == SimplicialOrder(())
