"""Newton numbers: alternating sums, factorization, decomposition, vanishing."""

import random
from fractions import Fraction

import pytest

from conftest import random_offorigin_simplex
from newton_mu.cli import run
from newton_mu.errors import ContainmentError, DomainError, InvalidRegionError
from newton_mu.geometry import Simplex
from newton_mu.newton import (
    decompose_difference,
    full_supporting_subsets,
    minimal_full_supporting,
    newton_number,
    newton_number_factored,
    vanishing_check,
)
from newton_mu.polyhedra import (
    axis_simplex_region,
    gamma_minus,
    region_from_simplices,
    support,
)


def nu(region):
    return newton_number(region).total


def test_newton_number_frozen_cusp():
    # under x^3 + y^2: colength of the Jacobian ideal of the cusp is 2
    assert nu(gamma_minus(support([(3, 0), (0, 2)]))) == 2


def test_newton_number_frozen_curve_with_interior_vertex():
    # under x^3 + x*y + y^2: 2 * area 5/2 - (3 + 2) + 1 = 1
    assert nu(gamma_minus(support([(3, 0), (1, 1), (0, 2)]))) == 1


def test_newton_number_term_breakdown():
    report = newton_number(gamma_minus(support([(3, 0), (0, 2)])))
    by_subset = {t.subset: (t.sign, t.factorial_volume) for t in report.terms}
    assert by_subset[frozenset({0, 1})] == (1, 6)
    assert by_subset[frozenset({0})] == (-1, 3)
    assert by_subset[frozenset({1})] == (-1, 2)
    assert by_subset[frozenset()] == (1, 1)  # origin present
    assert report.total == 2


def test_origin_term_absent_without_origin():
    region = region_from_simplices([Simplex(((1, 0), (3, 0), (0, 2)))])
    report = newton_number(region)
    assert {t.subset: t.factorial_volume for t in report.terms}[frozenset()] == 0


def test_axis_simplex_law_small():
    # (a-1)^n for the axis simplex
    assert nu(axis_simplex_region((2, 3))) == 2
    assert nu(axis_simplex_region((4,))) == 3
    assert nu(axis_simplex_region((1, 1, 1))) == 0
    assert nu(axis_simplex_region((Fraction(5, 2), Fraction(5, 2)))) == Fraction(9, 4)


def test_full_supporting_subsets_frozen():
    s = Simplex(((1, 0), (3, 0), (0, 2)))
    subs = full_supporting_subsets(s)
    assert set(subs) == {frozenset({0}), frozenset({0, 1})}
    assert minimal_full_supporting(s) == frozenset({0})


def test_factored_equals_direct_frozen():
    region = region_from_simplices([Simplex(((1, 0), (3, 0), (0, 2)))])
    fac = newton_number_factored(region)
    assert fac.total == 2 == nu(region)
    assert set(fac.subset) == {0}
    assert fac.face_volume == 2  # segment of length 2 on the x-axis
    assert fac.projected_total == 1


def test_factored_full_subset_route():
    # minimal subset is everything: the factored value is the top volume term
    region = region_from_simplices([Simplex(((1, 1), (3, 1), (1, 2)))])
    fac = newton_number_factored(region)
    assert set(fac.subset) == {0, 1}
    assert fac.total == nu(region)


def test_factored_random_agreement():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        region = random_offorigin_simplex(rng, n)
        assert newton_number_factored(region).total == nu(region)


def test_factored_rejects_region_with_origin():
    with pytest.raises(DomainError):
        newton_number_factored(axis_simplex_region((2, 2)))


def test_decompose_difference_single_piece():
    x = gamma_minus(support([(3, 0), (0, 2)]))
    y = gamma_minus(support([(1, 0), (0, 2)]))
    pieces = decompose_difference(x, y)
    assert len(pieces) == 1
    piece = pieces[0]
    assert set(piece.minimal_subset) == {0}
    assert piece.total == 2
    assert nu(x) - nu(y) == 2


def test_decompose_difference_two_pieces():
    x = gamma_minus(support([(3, 0), (0, 2)]))
    y = gamma_minus(support([(1, 0), (0, 1)]))
    pieces = decompose_difference(x, y)
    totals = sorted(p.total for p in pieces)
    assert totals == [0, 2]
    assert sum(totals) == nu(x) - nu(y)


def test_decompose_requires_nesting():
    x = gamma_minus(support([(1, 0), (0, 2)]))
    y = gamma_minus(support([(3, 0), (0, 2)]))  # larger, not nested inside x
    with pytest.raises(DomainError):
        decompose_difference(x, y)


def test_decompose_containment_error_is_pinned():
    x = gamma_minus(support([(1, 0), (0, 2)]))
    y = gamma_minus(support([(3, 0), (0, 2)]))
    message = (
        "outer support point (1, 0) lies below the inner diagram;"
        " the inner region is not contained in the outer one"
    )
    with pytest.raises(ContainmentError) as exc:
        decompose_difference(x, y)
    assert type(exc.value) is ContainmentError
    assert str(exc.value) == message
    code, out = run(["decompose", "--poly", "x + y^2", "--inner-poly", "x^3 + y^2"])
    assert code == 2
    assert out == {"schema": "newton-mu/1", "error": {"type": "containment", "message": message}}


def test_decompose_containment_counts_points_on_the_inner_diagram():
    # (1, 1) lies on the inner diagram x + y = 2: contained, so no error
    x = gamma_minus(support([(3, 0), (1, 1), (0, 3)]))
    y = gamma_minus(support([(2, 0), (0, 2)]))
    pieces = decompose_difference(x, y)
    assert sum(p.total for p in pieces) == nu(x) - nu(y)
    # (1, 0, 1) is below x + y + z = 3 in three variables
    x = gamma_minus(support([(1, 0, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3)]))
    y = gamma_minus(support([(3, 0, 0), (0, 3, 0), (0, 0, 3)]))
    with pytest.raises(ContainmentError) as exc:
        decompose_difference(x, y)
    assert str(exc.value).startswith("outer support point (1, 0, 1) lies below")


def test_vanishing_report_zero_case():
    report = vanishing_check(axis_simplex_region((1, 1)))
    assert report.total == 0
    assert report.unit_axes == (0, 1)
    assert report.necessary_consistent
    assert report.extremal_consistent is not False


def test_vanishing_report_nonzero_case():
    report = vanishing_check(gamma_minus(support([(3, 0), (0, 2)])))
    assert report.total == 2
    assert report.unit_axes == ()
    assert report.necessary_consistent


def test_vanishing_sufficient_direction():
    # E_1 is a vertex and coordinate 1 vanishes on all other vertices
    region = gamma_minus(support([(2, 0), (0, 1)]))
    report = vanishing_check(region)
    assert report.total == 0
    assert report.sufficient_axis is not None
    assert report.sufficient_consistent


def test_newton_number_rejects_overlapping_regions():
    a = Simplex(((0, 0), (4, 0), (0, 4)))
    b = Simplex(((1, 1), (5, 1), (1, 5)))
    with pytest.raises(InvalidRegionError):
        newton_number(region_from_simplices([a, b]))
