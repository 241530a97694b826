"""The Newton-diagram kernel against a brute-force reference.

The reference is the plain definition: every affinely independent
n-subset of *all* support points spans a candidate hyperplane, the ones
with a strictly positive normal that leave every point on one side are
the compact facets, and the diagram vertices are the support points that
the exact LP does not place in the hull of the others plus the orthant.
The kernel drops dominated points, gift-wraps the compact facets and
reads the vertices off the wrapped facets, with no LP; its output must be
identical.  The LP (`ref_linear_feasible`, `ref_in_convex_hull`,
`ref_extreme_points`) is the package's earlier phase-1 simplex, kept here
verbatim but for the names, and `ref_compact_hyperplanes` is the
exhaustive n-subset enumeration that the wrap replaced.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from newton_mu.geometry import (
    Vec,
    affine_dim,
    polytope_facets,
    supporting_hyperplanes,
)
from linalg_reference import nullspace_vector, primitive_integer_vector, rank
from newton_mu.parsing import support_from_json
from newton_mu.polyhedra import (
    Facet,
    NewtonDiagram,
    _compact_hyperplanes,
    is_convenient,
    newton_diagram,
    support,
)


# ---------------------------------------------------------------------------
# Linear feasibility (phase-1 simplex with Bland's rule, exact arithmetic)
# ---------------------------------------------------------------------------


def ref_linear_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Does A x = b admit x >= 0?  Exact phase-1 simplex."""
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tableau: list[list[Fraction]] = []
    for row, b in zip(rows, rhs):
        r = [Fraction(v) for v in row]
        bb = Fraction(b)
        if bb < 0:
            r = [-v for v in r]
            bb = -bb
        tableau.append(r + [Fraction(0)] * m + [bb])
    for i in range(m):
        tableau[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    # reduced costs for the artificial objective (minimize sum of artificials)
    zrow = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            zrow[j] -= tableau[i][j]
    for i in range(m):
        zrow[n + i] = Fraction(0)

    while True:
        enter = next((j for j in range(n + m) if zrow[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:  # phase-1 objective is bounded below; unreachable
            raise ArithmeticError("phase-1 simplex lost boundedness")
        _, leave = best
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if zrow[enter] != 0:
            f = zrow[enter]
            zrow = [a - f * b for a, b in zip(zrow, tableau[leave])]
        basis[leave] = enter
    return -zrow[-1] == 0


def ref_in_convex_hull(point: Vec, points: list[Vec], plus_orthant: bool = False) -> bool:
    """Membership of point in conv(points) (optionally + nonnegative orthant)."""
    if not points:
        return False
    n = len(point)
    k = len(points)
    slots = k + (n if plus_orthant else 0)
    rows = []
    for i in range(n):
        row = [Fraction(points[j][i]) for j in range(k)]
        if plus_orthant:
            row += [Fraction(1) if t == i else Fraction(0) for t in range(n)]
        rows.append(row)
    rows.append([Fraction(1)] * k + [Fraction(0)] * (slots - k))
    rhs = [Fraction(x) for x in point] + [Fraction(1)]
    return ref_linear_feasible(rows, rhs)


def ref_extreme_points(points) -> list[Vec]:
    """Vertices of conv(points), in lexicographic order."""
    pts = sorted(set(tuple(p) for p in points))
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not others or not ref_in_convex_hull(p, others):
            out.append(p)
    return out


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
        Facet(tuple(ref_extreme_points([pts[i] for i in on])), w, Fraction(c))
        for (w, c), on in sorted(reference_hyperplanes(pts).items())
        if min(w) > 0
    )
    vertices = tuple(
        p
        for i, p in enumerate(pts)
        if len(pts) == 1 or not ref_in_convex_hull(p, pts[:i] + pts[i + 1 :], plus_orthant=True)
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


def test_in_convex_hull_plain_and_orthant():
    pts = [(2, 0), (0, 2)]
    assert ref_in_convex_hull((1, 1), pts)
    assert not ref_in_convex_hull((0, 0), pts)
    # adding the positive orthant recession cone absorbs larger points
    assert ref_in_convex_hull((5, 7), pts, plus_orthant=True)
    assert not ref_in_convex_hull((0, 1), pts, plus_orthant=True)


def test_extreme_points_drops_interior():
    pts = [(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)]
    assert sorted(ref_extreme_points(pts)) == [(0, 0), (0, 2), (2, 0)]


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


# ---------------------------------------------------------------------------
# The gift wrap of the compact facets against the exhaustive enumeration
# ---------------------------------------------------------------------------


def ref_compact_hyperplanes(points) -> tuple[list, list]:
    """The body the wrap replaced: every n-subset of the candidates through
    `supporting_hyperplanes`, C(N, n) eliminations."""
    pts = sorted(set(points))
    cands = [
        p for p in pts
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
    ]
    found = sorted(
        (w, c, on) for w, c, on in supporting_hyperplanes(cands) if min(w) > 0
    )
    return cands, found


def mostly_inconvenient_supports():
    """400 seeded supports, n = 1..5 in turn; an axis gets a pure power
    with probability 0.3, so most of them miss one."""
    rng = random.Random(20261019)
    for k in range(400):
        n = 1 + k % 5
        top = rng.choice([2, 3, 5, 9])
        count = rng.randint(1, 10 if n < 4 else 7)
        pts = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(count)}
        for j in range(n):
            if rng.random() < 0.3:
                pts.add(tuple(rng.randint(1, top + 2) if i == j else 0 for i in range(n)))
        yield sorted(pts)


def test_wrap_matches_exhaustive_on_supports_and_their_projections():
    inconvenient = 0
    for pts in mostly_inconvenient_supports():
        n = len(pts[0])
        inconvenient += not is_convenient(support(pts))[0]
        for size in range(1, n + 1):
            for cols in combinations(range(n), size):
                proj = [tuple(p[j] for j in cols) for p in pts]
                cands, found, corners = _compact_hyperplanes(proj)
                assert (cands, found) == ref_compact_hyperplanes(proj), proj
                # no added far point M e_j reaches a candidate, a facet or
                # a vertex
                assert set(cands) <= set(proj)
                assert all(on[-1] < len(cands) for _, _, on in found)
                assert corners <= set(range(len(cands)))
        s = support(pts)
        assert repr(newton_diagram(s)) == repr(reference_diagram(s)), pts
    assert inconvenient > 250  # 284 of the 400


def skewed_supports():
    """120 seeded supports, n = 2..5 in turn, each point one large
    coordinate over small ones, so that vertex normal cones are thin; the
    ones that miss a pure power on some axis."""
    rng = random.Random(20261020)
    for k in range(120):
        n = 2 + k % 4
        pts = set()
        for _ in range(rng.randint(2, 7)):
            p = [rng.randint(0, 2) for _ in range(n)]
            p[rng.randrange(n)] = rng.randint(8, 40)
            pts.add(tuple(p))
        s = support(sorted(pts))
        if not is_convenient(s)[0]:
            yield s


def test_vertices_match_reference_on_skewed_supports():
    checked = 0
    for s in skewed_supports():
        assert repr(newton_diagram(s)) == repr(reference_diagram(s)), s.points
        checked += 1
    assert checked > 100


def test_wrap_origin_cases():
    # n = 1: the origin keeps its facet x >= 0
    assert _compact_hyperplanes([(0,), (2,)]) == ([(0,)], [((1,), 0, (0,))], {0})
    # n >= 2: the origin alone has no compact facet
    for n in (2, 3, 4):
        origin = (0,) * n
        others = [(1,) * n, (2,) + (0,) * (n - 1)]
        assert _compact_hyperplanes([origin] + others) == ([origin], [], {0})
        assert _compact_hyperplanes([origin]) == ([origin], [], {0})


def test_wrap_matches_exhaustive_on_the_64_point_support():
    # perfbench/record.py layer_support(n=3, 64 points, scale 30): the
    # exhaustive enumeration runs C(38, 3) = 8,436 eliminations here
    path = Path(__file__).parent / "data" / "support_n3_64.json"
    s = support_from_json(json.loads(path.read_text()))
    cands, found, corners = _compact_hyperplanes(s.points)
    assert (len(s.points), len(cands), len(found), len(corners)) == (64, 38, 24, 20)
    assert (cands, found) == ref_compact_hyperplanes(s.points)


def count_eliminations(monkeypatch) -> list:
    import newton_mu.geometry as geometry
    import newton_mu.polyhedra as polyhedra

    calls = []
    real = geometry.echelon
    for module in (geometry, polyhedra):
        monkeypatch.setattr(module, "echelon", lambda m: calls.append(1) or real(m))
    return calls


def test_wrap_eliminations_follow_the_facets(monkeypatch):
    calls = count_eliminations(monkeypatch)
    path = Path(__file__).parent / "data" / "support_n3_64.json"
    d = newton_diagram(support_from_json(json.loads(path.read_text())))
    assert len(d.facets) == 24
    # 85 today (ridges and non-simplicial facets), against the 8,436
    # n-subsets of the 38 candidates
    assert len(calls) < 300


def test_vertices_cost_no_elimination_beyond_the_wrap(monkeypatch):
    calls = count_eliminations(monkeypatch)
    # no pure power on axes 1 and 5; 2 compact facets, 6 vertices
    s = support([
        (0, 0, 0, 2, 0), (0, 0, 5, 0, 0), (0, 4, 0, 0, 0), (1, 0, 2, 0, 2),
        (1, 4, 1, 0, 1), (2, 0, 3, 0, 1), (2, 2, 1, 0, 1), (2, 2, 4, 0, 2),
        (2, 3, 0, 4, 2), (2, 3, 1, 0, 0), (2, 4, 4, 2, 1), (3, 0, 4, 3, 2),
        (3, 2, 4, 2, 4), (3, 4, 0, 3, 0), (4, 4, 3, 0, 1),
    ])
    d = newton_diagram(s)
    # 9 today, all in the one wrap; 57 when the vertices took a wrap of
    # each coordinate projection and a rank test per candidate
    assert len(calls) < 20
    assert (len(d.facets), len(d.vertices)) == (2, 6)
    assert d == reference_diagram(s)
