"""The Newton-diagram kernel against a brute-force reference.

The reference is the plain definition: every affinely independent
n-subset of *all* support points spans a candidate hyperplane, the ones
with a strictly positive normal that leave every point on one side are
the compact facets, and the diagram vertices are the support points that
the exact LP does not place in the hull of the others plus the orthant.
The kernel drops dominated points, stops evaluating a candidate early,
skips the LP for simplicial facets and reads most vertices off the
facets; its output must be identical.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from newton_mu.geometry import (
    affine_dim,
    extreme_points,
    in_convex_hull,
    polytope_facets,
    supporting_hyperplanes,
)
from newton_mu.linalg import nullspace_vector, primitive_integer_vector, rank
from newton_mu.polyhedra import (
    Facet,
    NewtonDiagram,
    is_convenient,
    newton_diagram,
    support,
)


def reference_hyperplanes(points) -> dict:
    """(w, c) -> on, for every hyperplane spanned by a d-subset that has all
    points on the side w . p >= c."""
    d = len(points[0])
    found = {}
    for subset in combinations(points, d):
        base = subset[0]
        rows = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
        if rank(rows) < d - 1:
            continue
        w = primitive_integer_vector(nullspace_vector(rows) if rows else [1])
        values = [sum(wi * pi for wi, pi in zip(w, p)) for p in points]
        c = sum(wi * bi for wi, bi in zip(w, base))
        for sign in (1, -1):
            if all(sign * v >= sign * c for v in values):
                on = tuple(i for i, v in enumerate(values) if v == c)
                found.setdefault((tuple(sign * wi for wi in w), sign * c), on)
    return found


def reference_diagram(s) -> NewtonDiagram:
    pts = list(s.points)
    facets = tuple(
        Facet(tuple(extreme_points([pts[i] for i in on])), w, Fraction(c))
        for (w, c), on in sorted(reference_hyperplanes(pts).items())
        if min(w) > 0
    )
    vertices = tuple(
        p
        for i, p in enumerate(pts)
        if len(pts) == 1 or not in_convex_hull(p, pts[:i] + pts[i + 1 :], plus_orthant=True)
    )
    return NewtonDiagram(s.n, s, facets, vertices)


def random_support(rng: random.Random, n: int, convenient: bool, origin: bool):
    top = rng.choice([3, 5, 8])
    count = rng.randint(1, {1: 5, 2: 9, 3: 8, 4: 7}[n])
    pts = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(count)}
    if convenient:
        pts |= {
            tuple(rng.randint(1, top + 2) if j == i else 0 for j in range(n))
            for i in range(n)
        }
    if origin:
        pts.add((0,) * n)
    else:
        pts.discard((0,) * n)
    return support(sorted(pts)) if pts else None


def seeded_supports():
    """The 160 seeded supports of the kernel test, n = 1..4 in turn."""
    rng = random.Random(20261018)
    checked = 0
    while checked < 160:
        n = 1 + checked % 4
        convenient = rng.random() < 0.5
        origin = rng.random() < 0.15
        s = random_support(rng, n, convenient, origin)
        if s is None:
            continue
        yield s
        checked += 1


def test_kernel_matches_reference_on_seeded_supports():
    kinds = set()
    for s in seeded_supports():
        assert repr(newton_diagram(s)) == repr(reference_diagram(s)), s.points
        kinds.add((is_convenient(s)[0], (0,) * s.n in s.points))
    assert len(kinds) == 4  # convenient or not, with and without the origin


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=6)] * n),
                min_size=1,
                max_size=8 if n < 3 else 6,
            ),
            st.lists(st.integers(min_value=0, max_value=7), min_size=n, max_size=n),
        )
    )
)
def test_kernel_matches_reference_property(case):
    points, axis_powers = case
    n = len(axis_powers)
    # a zero axis power adds nothing on that axis, so supports come both
    # convenient and not
    extra = [
        tuple(a if j == i else 0 for j in range(n))
        for i, a in enumerate(axis_powers)
        if a > 0
    ]
    s = support(points + extra)
    assert repr(newton_diagram(s)) == repr(reference_diagram(s))


def test_polytope_facets_match_reference():
    rng = random.Random(7)
    for n in (2, 3, 3, 4):
        for _ in range(10):
            pts = sorted({tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n + 4)})
            if affine_dim(pts) < n:
                continue
            assert polytope_facets(pts) == sorted(reference_hyperplanes(pts).values())


def test_dominated_point_breaking_coplanarity():
    # (5, 5) is dominated; the remaining candidates lie on one line
    s = support([(2, 0), (0, 3), (5, 5)])
    d = newton_diagram(s)
    assert d.facets == (Facet(((0, 3), (2, 0)), (3, 2), Fraction(6)),)
    assert d.vertices == ((0, 3), (2, 0))
    assert d == reference_diagram(s)


def test_hyperplane_through_every_point_has_both_orientations():
    assert list(supporting_hyperplanes([(2, 0), (0, 3)])) == [
        ((3, 2), 6, (0, 1)),
        ((-3, -2), -6, (0, 1)),
    ]


def test_single_point_has_no_facet_and_one_vertex():
    d = newton_diagram(support([(1, 1)]))
    assert d.facets == ()
    assert d.vertices == ((1, 1),)


def test_support_with_the_origin():
    s = support([(0, 0, 0), (1, 2, 0), (0, 0, 3), (2, 0, 0), (0, 1, 0)])
    d = newton_diagram(s)
    assert d.facets == ()
    assert d.vertices == ((0, 0, 0),)
    assert d == reference_diagram(s)
    line = newton_diagram(support([(0,), (3,)]))
    assert line.facets == (Facet(((0,),), (1,), Fraction(0)),)
    assert line.vertices == ((0,),)


def test_non_convenient_vertex_off_every_compact_facet():
    # (1, 1, 0) and (0, 0, 1) span no compact facet in three variables, yet
    # both are vertices of the Newton polyhedron; (2, 1, 0) is dominated
    s = support([(1, 1, 0), (0, 0, 1), (2, 1, 0)])
    d = newton_diagram(s)
    assert d.facets == ()
    assert d.vertices == ((0, 0, 1), (1, 1, 0))
    assert d == reference_diagram(s)
