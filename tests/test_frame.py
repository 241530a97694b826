"""One affine frame per point set, against the rank/solve/determinant routes.

`geometry` derives affine dimension, the chart of a point set's affine
hull, degeneracy and normalized volume from one elimination of the edge
vectors (`_frame`).  The references below are the earlier routes, kept
verbatim: one `rank` per point and one `solve` per point for the chart, a
`rank` of the edge matrix for the dimension and degeneracy, and a
`determinant` of the edges over the live coordinates for the volume, and
for `Simplex.contains_point` a `Fraction` elimination of the edges beside
the point.  The references eliminate in their own Fraction arithmetic
(`linalg_reference`), the package on the integer grid of the points.
Every public result, and every error message, must be the same.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from newton_mu.errors import InvalidRegionError
from newton_mu.geometry import (
    Simplex,
    _chart,
    affine_dim,
    coordinate_support,
    polytope_facets,
    pull_triangulate,
    supporting_hyperplanes,
)
from linalg_reference import determinant, rank, ref_back_substitute, ref_echelon, solve

# ---------------------------------------------------------------------------
# references


def vec_sub(a, b) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def ref_affine_dim(points) -> int:
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return 0
    return rank([list(vec_sub(p, pts[0])) for p in pts[1:]])


def ref_chart(points) -> list[tuple[Fraction, ...]]:
    """Affine coordinates of the points inside their own affine hull."""
    base = points[0]
    basis: list[tuple[Fraction, ...]] = []
    for p in points[1:]:
        cand = vec_sub(p, base)
        if rank([list(b) for b in basis] + [list(cand)]) > len(basis):
            basis.append(cand)
    d = len(basis)
    matrix = [[basis[j][i] for j in range(d)] for i in range(len(base))]
    coords = []
    for p in points:
        sol = solve(matrix, list(vec_sub(p, base)))
        if sol is None:
            raise ArithmeticError("point left its own affine hull")
        coords.append(tuple(sol))
    return coords


def ref_edge_matrix(s: Simplex) -> list[list[Fraction]]:
    base = s.vertices[0]
    return [list(vec_sub(v, base)) for v in s.vertices[1:]]


def ref_is_degenerate(s: Simplex) -> bool:
    return rank(ref_edge_matrix(s)) < s.dim


def ref_normalized_volume(s: Simplex) -> Fraction:
    k = s.dim
    if k == 0:
        return Fraction(1)
    live = sorted(set().union(*[coordinate_support(v) for v in s.vertices]))
    if len(live) < k:
        return Fraction(0)
    if len(live) > k:
        if rank(ref_edge_matrix(s)) < k:
            return Fraction(0)
        raise InvalidRegionError(
            "volume requested for a simplex outside any coordinate subspace"
        )
    base = s.vertices[0]
    edges = [
        [Fraction(v[i]) - Fraction(base[i]) for i in live]
        for v in s.vertices[1:]
    ]
    return abs(determinant(edges))


def ref_polytope_facets(points) -> list[tuple[int, ...]]:
    pts = [tuple(p) for p in points]
    if ref_affine_dim(pts) == 0:
        return []
    return sorted(on for _, _, on in supporting_hyperplanes(ref_chart(pts)))


def ref_pull_triangulate(points, order_key=None) -> list[tuple]:
    pts = sorted(set(tuple(p) for p in points), key=order_key)
    d = ref_affine_dim(pts)
    if len(pts) == d + 1:
        return [tuple(pts)]
    apex = pts[0]
    pieces = []
    for face in ref_polytope_facets(pts):
        face_pts = [pts[i] for i in face]
        if apex in face_pts:
            continue
        for cell in ref_pull_triangulate(face_pts, order_key):
            pieces.append(cell + (apex,))
    return pieces


def ref_contains_point(self: Simplex, point) -> bool:
    """Exact membership via barycentric coordinates (degenerate: False)."""
    base = self.vertices[0]
    cols = [vec_sub(v, base) for v in self.vertices[1:]]
    if not cols:
        return tuple(point) == base
    rhs = vec_sub(point, base)
    rows, pivots, _ = ref_echelon([[c[i] for c in cols] + [rhs[i]] for i in range(self.n)])
    if len(pivots) < self.dim or (pivots and pivots[-1] == self.dim):
        return False  # degenerate, or point off the simplex's affine hull
    coeffs = ref_back_substitute(rows, pivots, [Fraction(0)] * self.dim)
    residual_ok = all(
        sum(c[i] * x for c, x in zip(cols, coeffs)) == rhs[i] for i in range(self.n)
    )
    if not residual_ok:
        return False
    return all(c >= 0 for c in coeffs) and sum(coeffs) <= 1


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    """The value with its type, or the error with its message."""
    try:
        value = fn(*args)
    except (InvalidRegionError, ArithmeticError) as e:
        return ("error", type(e).__name__, str(e))
    return ("value", repr(value))


def assert_simplex_agrees(vertices):
    s = Simplex(tuple(vertices))
    assert outcome(lambda: s.is_degenerate) == outcome(ref_is_degenerate, s)
    assert outcome(s.normalized_volume) == outcome(ref_normalized_volume, s)
    assert affine_dim(s.vertices) == ref_affine_dim(s.vertices)


def assert_point_set_agrees(points, order_key=None):
    assert affine_dim(points) == ref_affine_dim(points)
    assert polytope_facets(points) == ref_polytope_facets(points)
    assert repr(pull_triangulate(points, order_key)) == repr(
        ref_pull_triangulate(points, order_key)
    )


def coordinate(rng: random.Random, rational: bool, top: int):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(0, 2 * top), rng.randint(1, 3))
    return rng.randint(0, top)


def distinct_points(rng, n, count, rational=False, top=3, zero_rate=0.3):
    """count distinct points of the orthant in R^n; zero_rate of the
    coordinates are forced to 0, so many sets lie in coordinate subspaces."""
    points = []
    for _ in range(50 * count):
        p = tuple(
            0 if rng.random() < zero_rate else coordinate(rng, rational, top) for _ in range(n)
        )
        if p not in points:
            points.append(p)
        if len(points) == count:
            break
    return points


def embedded_points(rng, n, m, count):
    """count distinct integer points of an m-flat of the orthant in R^n:
    an m-dimensional configuration under an integer affine map."""
    gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    raw = {tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(count)}
    mapped = [tuple(sum(t * g[i] for t, g in zip(ts, gens)) for i in range(n)) for ts in raw]
    shift = [-min(p[i] for p in mapped) for i in range(n)]
    return sorted({tuple(x + s for x, s in zip(p, shift)) for p in mapped})


# ---------------------------------------------------------------------------
# tests


def test_simplices_agree_seeded():
    rng = random.Random(20240)
    checked = 0
    for _ in range(2500):
        n = rng.randint(1, 5)
        rational = rng.random() < 0.4
        k = rng.randint(0, n)
        vertices = distinct_points(rng, n, k + 1, rational, zero_rate=rng.choice([0.0, 0.3, 0.6]))
        if len(vertices) == k + 1:
            assert_simplex_agrees(vertices)
            checked += 1
    assert checked > 2000


def test_simplices_off_every_coordinate_subspace():
    # all coordinates positive and dim < n: the volume is out of scope
    # unless the vertices are affinely dependent
    rng = random.Random(7)
    raised = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        rational = rng.random() < 0.5
        vertices = [
            tuple(coordinate(rng, rational, 3) + 1 for _ in range(n)) for _ in range(k + 1)
        ]
        if len(set(vertices)) == k + 1:
            assert_simplex_agrees(vertices)
            raised += outcome(Simplex(tuple(vertices)).normalized_volume)[0] == "error"
    assert raised > 100


def test_degenerate_simplices_in_higher_dimensions():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        points = embedded_points(rng, n, m, m + 3)
        if len(points) >= 2:
            assert_simplex_agrees(points[: m + 2])


def test_single_points():
    for p in [(0,), (3,), (0, 0, 0), (1, 0, 2), (Fraction(1, 2), 0)]:
        assert_simplex_agrees([p])
        assert Simplex((p,)).normalized_volume() == 1
        assert_point_set_agrees([p])
    assert affine_dim([]) == 0 and polytope_facets([]) == []


def test_point_sets_agree_seeded():
    rng = random.Random(4051)
    for _ in range(250):
        n = rng.randint(1, 5)
        count = rng.randint(1, 8 if n <= 3 else 7)
        points = distinct_points(rng, n, count, rational=rng.random() < 0.3)
        key = None if rng.random() < 0.5 else (lambda v: tuple(-c for c in v))
        assert_point_set_agrees(points, key)


def test_lower_dimensional_point_sets_agree():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = rng.randint(1, min(3, n - 1))
        assert_point_set_agrees(embedded_points(rng, n, m, 7))


def test_chart_of_integer_points_is_integer():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        points = embedded_points(rng, n, m, 6)
        chart = _chart(points)
        assert all(type(c) is int for p in chart for c in p)
        # the chart is the affine hull in its own coordinates: same
        # dimension, full-dimensional there, and injective
        d = affine_dim(points)
        assert all(len(p) == d for p in chart)
        assert affine_dim(chart) == d
        assert len(set(chart)) == len(points)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6, unique=True
        )
    )
)
def test_frame_matches_references(points):
    assert_point_set_agrees(points)
    if len(points) <= len(points[0]) + 1:
        assert_simplex_agrees(points)


def probe_points(rng, vertices):
    """(kind, point) pairs around a simplex: its vertices, points inside
    and on its boundary, points on its affine hull outside it, and points
    off the hull."""
    k = len(vertices) - 1
    n = len(vertices[0])
    out = [("vertex", v) for v in vertices]

    def combination(weights):
        return tuple(sum(w * v[i] for w, v in zip(weights, vertices)) for i in range(n))

    out.append(("inside", combination([Fraction(1, k + 1)] * (k + 1))))
    if k >= 1:
        out.append(("boundary", combination([Fraction(1, 2)] * 2 + [0] * (k - 1))))
    for _ in range(4):
        raw = [Fraction(rng.randint(1, 6)) for _ in range(k + 1)]
        out.append(("inside", combination([w / sum(raw) for w in raw])))
        if k >= 1:
            raw[rng.randrange(k + 1)] = Fraction(-rng.randint(1, 4))
            total = sum(raw)
            if total != 0:
                out.append(("hull", combination([w / total for w in raw])))
    for _ in range(3):
        base = rng.choice(vertices)
        i = rng.randrange(n)
        out.append(("off", tuple(x + (i == j) for j, x in enumerate(base))))
        out.append(("off", tuple(rng.randint(0, 4) for _ in range(n))))
    return out


def test_contains_point_matches_reference():
    """Full-dimensional, lower-dimensional, degenerate and rational
    simplices, probed inside, on the boundary, on the affine hull outside
    the simplex and off the hull."""
    rng = random.Random(3301)
    seen = {}
    for trial in range(360):
        n = rng.randint(1, 4)
        shape = trial % 4
        if shape == 0:  # full-dimensional (rarely degenerate)
            vertices = distinct_points(rng, n, n + 1, rational=False, zero_rate=0.2)
        elif shape == 1:  # lower-dimensional, often inside a coordinate flat
            vertices = distinct_points(rng, n, rng.randint(1, n), zero_rate=0.5)
        elif shape == 2:  # affinely dependent
            m = rng.randint(1, max(1, n - 1))
            vertices = embedded_points(rng, n, m, m + 3)[: rng.randint(m + 2, m + 3)]
        else:  # rational coordinates, any dimension
            vertices = distinct_points(rng, n, rng.randint(1, n + 1), rational=True)
        if len(vertices) < 1:
            continue
        s = Simplex(tuple(vertices))
        kind = "degenerate" if s.is_degenerate else ("full" if s.dim == n else "lower")
        if any(isinstance(c, Fraction) and c.denominator > 1 for v in vertices for c in v):
            kind += "-rational"
        for probe, point in probe_points(rng, list(s.vertices)):
            got = s.contains_point(point)
            assert got == ref_contains_point(s, point), (s.vertices, point)
            seen[kind, probe, got] = seen.get((kind, probe, got), 0) + 1
    for kind in ("full", "lower", "full-rational", "lower-rational"):
        assert seen[kind, "inside", True] >= 20
        assert seen[kind, "boundary", True] >= 5
        assert seen[kind, "hull", False] >= 20
        assert seen[kind, "off", False] >= 20
    assert seen["degenerate", "inside", False] >= 20
    assert seen["degenerate", "vertex", False] >= 20


def test_contains_point_single_vertex_and_rational_points():
    s = Simplex(((Fraction(1, 2), 0),))
    assert s.contains_point((Fraction(1, 2), 0)) and not s.contains_point((0, 0))
    t = Simplex(((0, 0, 0), (4, 0, 0), (0, 2, 0)))  # a triangle in the z = 0 plane
    assert t.contains_point((Fraction(3, 2), Fraction(1, 2), 0))
    assert not t.contains_point((Fraction(3, 2), Fraction(1, 2), Fraction(1, 9)))
    assert not t.contains_point((3, 1, 0))
