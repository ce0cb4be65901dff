"""Chordality and resolution invariants of uniform clutters.

A d-uniform clutter is a set of d-element subsets (circuits) of
{1, ..., n}.  This package decides whether a clutter is chordal by
searching for a simplicial order, derives the invariants that order
carries (neighborhood-size multiset, lambda-sequence, f-, h-, and
graded Betti data of the circuit ideal of the complement), and checks
everything against independent enumeration oracles.

Importing the package loads none of its submodules: each public name
loads the submodule that defines it on first use (PEP 562), so a
program, or one command of the command line, pays only for the modules
it runs.  `from clutterlab import *` loads them all.
"""

__version__ = "0.1.0"

# The public names by the submodule that defines them; cli binds its
# commands' names by this table too.
_EXPORTS = {
    "clutter": """MAX_VERTICES Clutter SquarefreeIdeal circuit_ideal complement
        complete_clutter delete ideal_from_masks clutter_from_masks is_clique
        make_clutter make_ideal open_neighborhood closed_neighborhood
        submaximal_circuits""",
    "chordality": """SimplicialOrder co_chordal_sequence enumerate_simplicial_orders
        find_simplicial_order greedy_simplicial_order is_chordal is_co_chordal
        lambda_of lambda_sequence multiset_from_lambda replay_order
        simplicial_elements simplicial_multiset""",
    "invariants": """betti_from_h betti_from_multiset delta_from_multiset f_from_h
        f_vector_direct f_vector_from_multiset h_from_f h_vector_from_multiset
        multiplicity projective_dimension""",
    "macaulay": """AlphaSequence LambdaDiagnosis UnrealizableLambda
        alpha_entry_closed_form alpha_sequence complete_lambda extremal_clutter
        extremal_lambda_profile ideal_with_m_vector is_M_sequence
        is_squarefree_strongly_stable is_valid_lambda lambda_from_lsequence
        lambda_max lsequence_from_lambda m_vector macaulay_bound
        macaulay_representation mu_direct mu_via_lemma p_polynomial
        strongly_stable_closure validate_lambda""",
    "homology": """GradedBettiTable clique_complex_faces has_linear_resolution
        hochster_betti reduced_homology_ranks""",
    "generators": """random_chordal_clutter random_graph random_strongly_stable_ideal
        random_tree""",
    "guards": "OracleBoundError SearchLimitReached",
    "io": """ClutterParseError clutter_from_json_dict clutter_to_json
        clutter_to_json_dict clutter_to_text parse_clutter parse_clutter_file""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Load a public name from its submodule, and keep it bound here."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(_ORIGIN[name], globals(), None, (name,), 1)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
