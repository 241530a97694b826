"""The exact linear-algebra references of `linalg_reference`, and the
stability of the package's public names.

The expected values are frozen from direct evaluation; every one of them
is small enough to check by hand.
"""

from fractions import Fraction

import pytest

import newton_mu
from linalg_reference import (
    determinant,
    nullspace_vector,
    primitive_integer_vector,
    rank,
    solve,
)


def test_determinant_sign_and_singular():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[3, 4], [1, 2]]) == 2  # one row swap flips the sign
    assert determinant([[0, 1], [1, 0]]) == -1  # pivoting swaps rows
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1
    value = determinant([[Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 1], [1, 0, 3]])
    assert value == 2 and isinstance(value, Fraction)
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_rank_deficient_and_zero_rows():
    assert rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rank([]) == 0
    assert rank([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]]) == 2
    assert rank([[0, 0], [1, 2], [0, 0], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4], [5, 6]]) == 2


def test_solve_pins_free_variables_and_detects_inconsistency():
    assert solve([[1, 1, 0], [0, 0, 1]], [3, 4]) == [3, 0, 4]
    assert solve([[1, 2], [2, 4]], [1, 2]) == [1, 0]
    assert solve([[0, 1], [0, 2]], [1, 2]) == [0, 1]
    assert solve([[2, 1], [1, 3]], [5, 10]) == [1, 3]
    assert solve([[1, 2], [2, 4]], [1, 3]) is None
    assert solve([], []) == []
    assert all(isinstance(v, Fraction) for v in solve([[1, 1, 0], [0, 0, 1]], [3, 4]))
    with pytest.raises(ValueError):
        solve([[1]], [1, 2])


def test_nullspace_vector_first_free_coordinate_is_one():
    assert nullspace_vector([[1, 0], [0, 1]]) is None
    assert nullspace_vector([]) is None
    assert nullspace_vector([[1, 2, 3]]) == [-2, 1, 0]
    assert nullspace_vector([[0, 1, 0], [0, 0, 1]]) == [1, 0, 0]
    assert nullspace_vector([[1, 1, 1], [1, 2, 3]]) == [1, -2, 1]
    assert nullspace_vector([[2, 4], [1, 2]]) == [-2, 1]


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(-1, 2), Fraction(3, 4)]) == (-2, 3)
    assert primitive_integer_vector([0, -6, 4]) == (0, -3, 2)
    with pytest.raises(ValueError):
        primitive_integer_vector([0, 0])


PUBLIC_NAMES = [
    "BoundCertificate", "ChainLink", "ContainmentError", "DecompositionError",
    "DecompositionPiece", "DegreeTuple", "DomainError", "Facet", "FactoredResult",
    "FamilyStep", "FamilyVerdict", "FormulaMismatchError", "GuardrailError",
    "InvalidRegionError", "NewtonDiagram", "NewtonMuError", "NewtonRegion",
    "NewtonReport", "NotConvenientError", "NotQuasiConvenientError", "ParseError",
    "ParsedSeries", "Polynomial", "RNewtonReport", "Simplex", "StabilizationError",
    "SupportSet", "UsageError", "VanishingReport", "axis_simplex_r_newton",
    "axis_simplex_region", "bound_simplex", "decompose_difference", "degree_tuple",
    "ehrhart_volume", "elementary_symmetric", "f_coeff", "family_difference",
    "full_supporting_subsets", "g_coeff", "gamma_minus", "is_convenient",
    "is_quasi_convenient", "milnor_colength", "milnor_lower_bound",
    "minimal_full_supporting", "negligible_truncation_check", "newton_diagram",
    "newton_number", "newton_number_factored", "parse_series", "project", "r_bound",
    "r_newton_factored", "r_newton_number", "restrict", "sciv_milnor_bound",
    "shuffled_newton_number", "simplex_below_diagram", "simplex_volume",
    "stabilized_region", "standard_modification", "support", "support_from_json",
    "support_to_json", "vanishing_check",
]


def test_public_names_are_frozen_and_resolve():
    assert sorted(newton_mu.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(newton_mu, name) is not None
