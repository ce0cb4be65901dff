"""The value types and the package's name table keep their contract.

The seven records are built positionally, compare equal exactly when
their type and fields are equal, hash alike when equal, refuse
assignment and deletion, survive pickling and copying, match by
position, and print as Name(field=value, ...) unless they define their
own repr.  The package exports the same 79 names,
loaded on first use.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import clutterlab
from clutterlab import (
    AlphaSequence,
    Clutter,
    GradedBettiTable,
    LambdaDiagnosis,
    SimplicialOrder,
    SquarefreeIdeal,
    alpha_sequence,
    clique_complex_faces,
    find_simplicial_order,
    hochster_betti,
    make_clutter,
    make_ideal,
    validate_lambda,
)
from clutterlab.clutter import Record
from clutterlab.homology import FaceList

PATH = [(1, 2), (2, 3), (1, 3), (3, 4)]


def _build():
    """One record of each type, from the public constructors."""
    c = make_clutter(4, 2, PATH)
    return [c, make_ideal(4, [(1, 2), (3,)]), find_simplicial_order(c),
            clique_complex_faces(c, range(1, 5)), hochster_betti(c),
            alpha_sequence(5, 3), validate_lambda(5, 3, (3, 1))]


RECORDS = _build()
IDS = [type(r).__name__ for r in RECORDS]


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == {
        Clutter, SquarefreeIdeal, SimplicialOrder, FaceList, GradedBettiTable,
        AlphaSequence, LambdaDiagnosis}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("record, again", zip(RECORDS, _build()), ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(record, again):
    assert record is not again
    assert record == again and not record != again
    assert hash(record) == hash(again)
    assert type(record)(*_fields(record)) == record
    assert len({record, again}) == 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_another_type_with_the_same_fields_is_unequal(record):
    twin = type("Twin", (Record,), {"__slots__": type(record).__slots__})(*_fields(record))
    assert record != twin and twin != record
    assert not record == twin
    assert record != _fields(record)


def test_same_values_in_two_record_types_are_unequal():
    assert Clutter(5, 3, ()) != GradedBettiTable(5, 3, ())
    assert GradedBettiTable(5, 3, ()) != Clutter(5, 3, ())


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(record):
    for name in (*type(record).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == _build()[IDS.index(type(record).__name__)]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_survive_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_the_constructor_takes_one_value_per_field(record):
    values = _fields(record)
    with pytest.raises(TypeError):
        type(record)(*values, None)
    with pytest.raises(TypeError):
        type(record)(*values[:-1])


def test_records_match_by_position():
    match make_clutter(4, 2, PATH), validate_lambda(5, 3, (3, 1)):
        case Clutter(4, 2, masks), LambdaDiagnosis(True, None, ls):
            assert len(masks) == 4 and ls == (1, 2, 2)
        case _:
            raise AssertionError("no positional match")


def test_dataclass_style_reprs():
    c = make_clutter(4, 2, PATH)
    assert repr(find_simplicial_order(c)) == \
        "SimplicialOrder(steps=(((1,), 2), ((2,), 1), ((3,), 1)))"
    assert repr(clique_complex_faces(c, range(1, 5))) == (
        "FaceList(universe=(1, 2, 3, 4), "
        "by_size=((0,), (1, 2, 4, 8), (3, 5, 6, 12), (7,)))")
    assert repr(hochster_betti(c)) == \
        "GradedBettiTable(n=4, d=2, entries=(((0, 2), 2), ((1, 3), 1)))"
    assert repr(alpha_sequence(5, 3)) == \
        "AlphaSequence(n=5, d=3, alpha=(-6, 3, 2, 1), sigma=(6, 3, 1, 0))"
    assert repr(validate_lambda(5, 3, (3, 1))) == \
        "LambdaDiagnosis(valid=True, reason=None, l_sequence=(1, 2, 2))"
    assert repr(validate_lambda(5, 3, (9, 9))) == (
        "LambdaDiagnosis(valid=False, reason='l_1 = -6 < 0: lambda is not "
        "realizable', l_sequence=None)")


def test_clutter_and_ideal_keep_their_own_reprs():
    assert repr(make_clutter(4, 2, PATH)) == "Clutter(n=4, d=2, {12,13,23,34})"
    assert repr(make_ideal(4, [(1, 2), (3,)])) == "SquarefreeIdeal(n=4, (12,3))"


API = """AlphaSequence Clutter ClutterParseError GradedBettiTable LambdaDiagnosis
MAX_VERTICES OracleBoundError SearchLimitReached SimplicialOrder SquarefreeIdeal
UnrealizableLambda alpha_entry_closed_form alpha_sequence betti_from_h
betti_from_multiset circuit_ideal clique_complex_faces closed_neighborhood
clutter_from_json_dict clutter_from_masks clutter_to_json clutter_to_json_dict
clutter_to_text co_chordal_sequence complement complete_clutter complete_lambda
delete delta_from_multiset enumerate_simplicial_orders extremal_clutter
extremal_lambda_profile f_from_h f_vector_direct f_vector_from_multiset
find_simplicial_order greedy_simplicial_order h_from_f h_vector_from_multiset
has_linear_resolution hochster_betti ideal_from_masks ideal_with_m_vector
is_M_sequence is_chordal is_clique is_co_chordal is_squarefree_strongly_stable
is_valid_lambda lambda_from_lsequence lambda_max lambda_of lambda_sequence
lsequence_from_lambda m_vector macaulay_bound macaulay_representation
make_clutter make_ideal mu_direct mu_via_lemma multiplicity multiset_from_lambda
open_neighborhood p_polynomial parse_clutter parse_clutter_file
projective_dimension random_chordal_clutter random_graph
random_strongly_stable_ideal random_tree reduced_homology_ranks replay_order
simplicial_elements simplicial_multiset strongly_stable_closure
submaximal_circuits validate_lambda""".split()


def test_the_package_exports_the_same_names():
    assert len(API) == 79
    assert clutterlab.__all__ == API
    assert set(API) <= set(dir(clutterlab))
    namespace: dict = {}
    exec("from clutterlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(API)
    for name in API:
        value = getattr(clutterlab, name)
        assert value is namespace[name]
        if callable(value) and hasattr(value, "__module__"):
            assert value.__module__.startswith("clutterlab.")


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clutterlab.no_such_name  # noqa: B018
    assert not hasattr(clutterlab, "no_such_name")


def test_search_limit_reached_is_one_class():
    from clutterlab import chordality, guards
    assert clutterlab.SearchLimitReached is chordality.SearchLimitReached
    assert clutterlab.SearchLimitReached is guards.SearchLimitReached
    assert issubclass(clutterlab.SearchLimitReached, RuntimeError)
