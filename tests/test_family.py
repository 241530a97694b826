"""Single-vertex deformation steps in four variables.

The fixtures pair a support with one removable diagram vertex whose
deletion is known (frozen, independently recomputed) to preserve or
change the Newton number; the checker must predict which and verify its
own prediction.
"""

import pytest

from conftest import FAMILY_FIXTURES, family_with_case_i
from newton_mu.cli import run
from newton_mu.errors import DecompositionError, DomainError, NotConvenientError
from newton_mu.family import FamilyStep, family_difference, negligible_truncation_check
from newton_mu.newton import newton_number
from newton_mu.polyhedra import gamma_minus, region_from_simplices, support


def test_fixture_families_reproduce():
    for builder, apex, ms, case, witness, frozen_nu in FAMILY_FIXTURES:
        m = min(ms)
        verdict = negligible_truncation_check(FamilyStep(builder(m), apex))
        assert verdict.case == case
        assert verdict.witness == witness
        assert verdict.predicted_equal is True
        assert verdict.equal is True
        assert verdict.nu_f0 == verdict.nu_f1 == frozen_nu


def test_difference_simplex_is_exact():
    builder, apex, ms, _, _, _ = FAMILY_FIXTURES[0]
    m = min(ms)
    step = FamilyStep(builder(m), apex)
    delta = family_difference(step)
    assert apex in delta.vertices
    # removing the vertex really removes exactly this simplex
    nu0 = newton_number(gamma_minus(step.f0)).total
    nu1 = newton_number(gamma_minus(step.f1)).total
    assert nu0 - nu1 == newton_number(region_from_simplices([delta])).total


def test_interior_vertex_changes_value():
    s = support([(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5), (1, 1, 1, 1)])
    verdict = negligible_truncation_check(FamilyStep(s, (1, 1, 1, 1)))
    assert verdict.case is None
    assert verdict.witness is None
    assert verdict.predicted_equal is False
    assert verdict.nu_f0 == 256
    assert verdict.nu_f1 == 131
    assert verdict.equal is False


def test_missing_witness_predicts_change():
    s = support([(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5), (0, 1, 1, 2)])
    verdict = negligible_truncation_check(FamilyStep(s, (0, 1, 1, 2)))
    assert verdict.case == "i"
    assert verdict.witness is None
    assert verdict.predicted_equal is False
    assert verdict.nu_f0 == 256
    assert verdict.nu_f1 == 156
    assert verdict.equal is False


def test_absorbed_point_is_not_a_vertex():
    s = support([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1)])
    with pytest.raises(DomainError):
        FamilyStep(s, (1, 1, 1, 1))


def test_vertex_must_belong_to_support():
    s = family_with_case_i(8)
    with pytest.raises(DomainError):
        FamilyStep(s, (9, 9, 9, 9))


def test_absorbed_point_error_is_pinned():
    s = support([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (2, 2, 2, 2)])
    message = "removed point is not a diagram vertex; both members share one diagram"
    with pytest.raises(DomainError) as exc:
        FamilyStep(s, (2, 2, 2, 2))
    assert type(exc.value) is DomainError
    assert str(exc.value) == message
    code, out = run(
        ["family-check", "--poly", "x^4 + y^4 + z^4 + w^4 + x^2*y^2*z^2*w^2", "--vertex", "2,2,2,2"]
    )
    assert code == 2
    assert out == {"schema": "newton-mu/1", "error": {"type": "domain", "message": message}}


def test_vertex_of_a_non_convenient_support_is_found():
    # f1 misses the w axis, so the vertex test needs the facets of the
    # polyhedron that are not compact; (1, 1, 1, 1) is a vertex there
    s = support([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (1, 1, 1, 1), (1, 1, 1, 2)])
    with pytest.raises(NotConvenientError):
        FamilyStep(s, (1, 1, 1, 1))
    with pytest.raises(DomainError) as exc:
        FamilyStep(s, (1, 1, 1, 2))
    assert str(exc.value).startswith("removed point is not a diagram vertex")


def test_losing_an_axis_is_rejected():
    s = support([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)])
    with pytest.raises(DomainError):
        FamilyStep(s, (0, 0, 0, 4))


def test_multi_cell_difference_is_reported():
    # the dropped vertex sees two diagram facets, so the difference is not
    # one simplex; the checker refuses instead of picking one
    s = support(
        [
            (0, 0, 0, 5),
            (0, 0, 4, 0),
            (0, 2, 0, 0),
            (2, 0, 0, 1),
            (2, 0, 1, 0),
            (4, 0, 4, 4),
            (5, 0, 0, 0),
        ]
    )
    with pytest.raises(DecompositionError) as exc:
        family_difference(FamilyStep(s, (2, 0, 0, 1)))
    assert len(exc.value.payload()["pieces"]) == 2


def test_wrong_dimension_rejected():
    with pytest.raises(DomainError):
        FamilyStep(support([(3, 0), (0, 2)]), (3, 0))


def test_truncated_support_is_checked_without_building_a_diagram(monkeypatch):
    import newton_mu.family as family
    import newton_mu.polyhedra as polyhedra
    from newton_mu.errors import NotConvenientError

    builds = []
    real = polyhedra.newton_diagram
    # wrap every binding a call can reach, as the benchmark tracer does
    for module in (polyhedra, family):
        monkeypatch.setattr(
            module, "newton_diagram", lambda s: builds.append(s) or real(s)
        )
    builder, apex, ms, _, _, _ = FAMILY_FIXTURES[0]
    f1 = builder(min(ms))
    step = FamilyStep(f1, apex)
    assert builds == [f1]  # the vertex test; the truncated support needs none
    builds.clear()
    step.f0
    assert builds == []
    s = support([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1)])
    with pytest.raises(NotConvenientError) as exc:
        FamilyStep(s, (0, 0, 0, 4))
    assert str(exc.value) == "support misses pure powers on axes 4"
    assert exc.value.missing_axes == (3,)
    assert builds == [s]
