"""Support sets, Newton diagrams, and regions under them."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from newton_mu.errors import (
    DomainError,
    GuardrailError,
    InvalidRegionError,
    NotConvenientError,
)
from newton_mu.geometry import Simplex
from newton_mu.newton import newton_number
from newton_mu.polyhedra import (
    Facet,
    all_subsets,
    axis_simplex_region,
    check_dimension,
    default_variables,
    gamma_minus,
    is_convenient,
    is_quasi_convenient,
    max_dimension,
    newton_diagram,
    project,
    region_from_simplices,
    restrict,
    simplex_below_diagram,
    standard_modification,
    support,
    validate_region,
)
from test_hull_kernel import reference_diagram


def test_support_sorts_dedups_validates():
    s = support([(0, 2), (3, 0), (0, 2)])
    assert s.points == ((0, 2), (3, 0))
    assert s.variables == ("x", "y")
    with pytest.raises(DomainError):
        support([(0, -1)])
    with pytest.raises(DomainError):
        support([(1, 0), (1, 0, 0)])


def test_diagram_is_memoized_per_support_behind_the_dimension_guardrail(monkeypatch):
    s = support([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
    d = newton_diagram(s)
    assert newton_diagram(s) is d
    assert newton_diagram(support(s.points)) == d  # equal supports, own caches
    assert s == support(s.points) and hash(s) == hash(support(s.points))
    assert "_cache" not in repr(s)
    monkeypatch.setenv("NEWTON_MU_MAX_N", "2")
    with pytest.raises(GuardrailError):
        newton_diagram(s)


def test_support_point_guardrail():
    pts = [(i, 1) for i in range(70)]
    with pytest.raises(GuardrailError):
        support(pts)


def test_dimension_guardrail(monkeypatch):
    assert max_dimension() == 6
    with pytest.raises(GuardrailError):
        check_dimension(7)
    monkeypatch.setenv("NEWTON_MU_MAX_N", "8")
    assert max_dimension() == 8
    check_dimension(7)  # no raise under the override


def test_default_variables():
    assert default_variables(3) == ("x", "y", "z")
    assert default_variables(5) == ("z1", "z2", "z3", "z4", "z5")


def test_all_subsets_order():
    subs = all_subsets(2)
    assert subs == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    ]


def test_is_convenient():
    ok, missing = is_convenient(support([(3, 0), (0, 2)]))
    assert ok and missing == ()
    ok, missing = is_convenient(support([(2, 1), (0, 4)]))
    assert not ok and missing == (0,)


def test_newton_diagram_frozen_curve():
    # x^3 + x*y + y^2: two compact edges meeting at (1,1)
    s = support([(3, 0), (1, 1), (0, 2)])
    diag = newton_diagram(s)
    assert set(diag.vertices) == {(3, 0), (1, 1), (0, 2)}
    facts = {
        (tuple(f.inner_normal), f.offset): tuple(f.vertices) for f in diag.facets
    }
    assert ((1, 1), Fraction(2)) in facts
    assert ((1, 2), Fraction(3)) in facts
    assert len(facts) == 2


def test_newton_diagram_absorbs_deep_points():
    s = support([(3, 0), (0, 3), (2, 2)])
    diag = newton_diagram(s)
    assert (2, 2) not in diag.vertices


def test_point_inside_an_edge_is_no_vertex_however_many_facets_hold_it():
    # (1, 0, 0, 2) is the midpoint of the edge from (2, 0, 0, 0) to
    # (0, 0, 0, 4); at least four facets pass through it, but every normal
    # among them is orthogonal to that edge, so their rank is below 4
    s = support(
        [(0, 0, 0, 4), (0, 0, 2, 0), (0, 1, 1, 1), (1, 0, 0, 2), (1, 3, 0, 3), (2, 0, 0, 0), (3, 3, 3, 0)]
    )
    diag = newton_diagram(s)
    assert diag.vertices == ((0, 0, 0, 4), (0, 0, 2, 0), (0, 1, 1, 1), (2, 0, 0, 0))
    assert diag.facets == (
        Facet(diag.vertices, (2, 1, 2, 1), Fraction(4)),
    )
    assert diag == reference_diagram(s)


def test_diagram_matches_reference_with_points_inside_faces():
    # four and five variables, with midpoints of support pairs added so
    # that non-dominated points sit inside edges and faces of the polyhedron
    rng = random.Random(3)
    inside = 0
    for _ in range(16):
        n = rng.choice([4, 4, 5])
        pts = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(3, 6))}
        pts |= {
            tuple(rng.choice([2, 4]) if j == i else 0 for j in range(n))
            for i in range(n)
            if rng.random() < 0.8
        }
        for a, b in combinations(sorted(pts), 2):
            if all((x + y) % 2 == 0 for x, y in zip(a, b)) and rng.random() < 0.3:
                pts.add(tuple((x + y) // 2 for x, y in zip(a, b)))
        pts.discard((0,) * n)
        s = support(sorted(pts))
        diag = newton_diagram(s)
        assert diag == reference_diagram(s), s.points
        inside += any(
            p not in diag.vertices
            and not any(q != p and all(a <= b for a, b in zip(q, p)) for q in s.points)
            for p in s.points
        )
    assert inside >= 8


def test_gamma_minus_needs_convenient():
    with pytest.raises(NotConvenientError):
        gamma_minus(support([(2, 1), (0, 4)]))
    with pytest.raises(DomainError):
        gamma_minus(support([(0, 0), (2, 0), (0, 2)]))


def test_gamma_minus_volume_frozen():
    # under x^3 + y^2 the region is the triangle O,(3,0),(0,2): area 3
    region = gamma_minus(support([(3, 0), (0, 2)]))
    vols = region.subset_volumes()
    assert vols[frozenset({0, 1})] == 6  # 2! * area
    assert vols[frozenset({0})] == 3
    assert vols[frozenset({1})] == 2
    assert region.contains_origin()


def test_gamma_minus_pulling_order_invariance():
    s = support([(4, 0), (1, 1), (0, 3)])
    base = gamma_minus(s)
    order = {p: i for i, p in enumerate(sorted(base.vertex_set, reverse=True))}
    shuffled = gamma_minus(s, vertex_order=order)
    assert base.subset_volumes() == shuffled.subset_volumes()


def test_restrict_support_and_region():
    s = support([(3, 0), (1, 1), (0, 2)])
    sub = restrict(s, [0])
    assert sub.points == ((3,),)
    assert restrict(support([(1, 1)]), [0]) is None
    region = gamma_minus(s)
    line = restrict(region, [1])
    assert line.n == 1
    assert line.subset_volumes()[frozenset({0})] == 2


def test_restrict_rejects_indices_outside_the_coordinates():
    region = region_from_simplices([((0, 0), (3, 0), (0, 2))])
    for x, I in [(region, {5}), (region, {-1}), (support([(3, 0), (0, 2)]), {0, 5})]:
        with pytest.raises(DomainError, match="outside 0..1"):
            restrict(x, I)


def test_replaced_region_gets_its_own_cache():
    # the caches are not constructor fields, so a replaced region starts
    # empty instead of reading the volumes of the region it came from
    region = region_from_simplices([((0, 0), (3, 0), (0, 2))])
    assert newton_number(region).total == 2
    wider = dataclasses.replace(region, simplices=(Simplex(((0, 0), (5, 0), (0, 2))),))
    assert wider._cache is not region._cache
    assert newton_number(wider).total == 4


def test_restrict_to_empty_subset():
    region = gamma_minus(support([(2, 0), (0, 2)]))
    point = restrict(region, [])
    assert point.n == 0
    assert point.contains_origin()


def test_project_and_drop():
    s = Simplex(((1, 0, 0), (3, 0, 0), (0, 2, 1), (1, 1, 2)))
    shadow = project(s, [0])
    assert all(v[0] == 0 for v in shadow.vertices)


def test_quasi_convenient_cases():
    region = gamma_minus(support([(3, 0), (1, 1), (0, 2)]))
    ok, reason = is_quasi_convenient(region)
    assert ok, reason

    off_origin = region_from_simplices([Simplex(((1, 0), (3, 0), (0, 2)))])
    ok, reason = is_quasi_convenient(off_origin)
    assert not ok

    gap = region_from_simplices(
        [Simplex(((0,), (1,))), Simplex(((2,), (3,)))]
    )
    ok, reason = is_quasi_convenient(gap)
    assert not ok


def test_validate_region_rejects_overlap():
    a = Simplex(((0, 0), (4, 0), (0, 4)))
    b = Simplex(((1, 1), (5, 1), (1, 5)))
    with pytest.raises(InvalidRegionError):
        validate_region(region_from_simplices([a, b]))


def test_standard_modification():
    s = support([(2, 1), (0, 4)])
    mod = standard_modification(s, 5)
    assert (5, 0) in mod.points and (0, 5) in mod.points
    assert is_convenient(mod)[0]
    # already-covered axes gain no duplicate pure power
    assert sum(1 for p in mod.points if p[1] == 0) == 1
    with pytest.raises(DomainError):
        standard_modification(s, 4)


def test_axis_simplex_region_and_membership():
    region = axis_simplex_region((3, 2))
    assert region.contains_origin()
    assert region.subset_volumes()[frozenset({0, 1})] == 6
    s = support([(3, 0), (0, 2)])
    assert simplex_below_diagram(s, (3, 2))
    assert not simplex_below_diagram(s, (4, 2))


def test_axis_simplex_rational_intercepts():
    # 2! * area of the triangle with legs 5/2 and 4 is 5/2 * 4 = 10
    region = axis_simplex_region((Fraction(5, 2), 4))
    assert region.subset_volumes()[frozenset({0, 1})] == 10
