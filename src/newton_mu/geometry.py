"""Exact geometry in the nonnegative orthant.

Points are plain tuples of ints/Fractions (they hash and compare across the
two types consistently).  Everything lives in the orthant, which buys two
simplifications used throughout:

  * the origin belongs to a simplex iff it is one of its vertices;
  * a simplex meets a coordinate subspace R^I exactly in the face spanned
    by its vertices lying in R^I.

The kernels eliminate in integers only.  `_grid` is the one place where
denominators are cleared: it scales a point set by the lcm L of its
denominators (L = 1, unchanged, for integer points).  Scaling by L
multiplies every k-minor of the edges by L^k and keeps every pivot
column, rank and hyperplane direction.

Every point-set quantity comes from one fraction-free elimination of the
edge vectors p - p0 on the grid.  On all columns (`_frame`) its pivot
count is the affine dimension and its pivot coordinates chart the affine
hull.  Face volumes come from `_volume_on`, not `_frame`: on the k columns
of the coordinate subspace R^I holding a k-simplex, the last pivot over
L^k is its normalized volume, the k x k determinant up to sign.  No Gram
determinants.

Every hyperplane normal is the cofactor vector of one elimination
(`_normal`).  `supporting_hyperplanes` enumerates the facets of small
point sets, one elimination per d-subset: simplices, facets being
triangulated, and the facets of one facet of a Newton diagram, whose
compact facets `polyhedra` gift-wraps.  Simplex membership has one
answer, the integer barycentric rows of its chart (`_barycentric_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from .errors import InvalidRegionError
from .linalg import back_substitute, echelon

Vec = tuple  # tuple of int | Fraction, all >= 0


def coordinate_support(v: Vec) -> frozenset[int]:
    """Indices (0-based) of the nonzero coordinates."""
    return frozenset(i for i, x in enumerate(v) if x != 0)


def is_origin(v: Vec) -> bool:
    return all(x == 0 for x in v)


@dataclass(frozen=True)
class Simplex:
    """A simplex given by its vertices, stored in lexicographic order.

    Construction does not insist on affine independence; degenerate vertex
    sets are accepted and report zero volume, so callers that merely sum
    volumes need no special casing.
    """

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        verts = tuple(sorted(tuple(v) for v in self.vertices))
        if not verts:
            raise InvalidRegionError("simplex needs at least one vertex")
        n = len(verts[0])
        for v in verts:
            if len(v) != n:
                raise InvalidRegionError("mixed ambient dimensions in simplex")
            if any(x < 0 for x in v):
                raise InvalidRegionError(f"vertex {v} leaves the nonnegative orthant")
        if len(set(verts)) != len(verts):
            raise InvalidRegionError("duplicate vertices in simplex")
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        """Combinatorial dimension (vertex count - 1)."""
        return len(self.vertices) - 1

    @property
    def is_degenerate(self) -> bool:
        return len(_frame(self.vertices)[1]) < self.dim

    def contains_origin(self) -> bool:
        return any(is_origin(v) for v in self.vertices)

    def normalized_volume(self) -> Fraction:
        """dim! times the dim-volume, inside the simplex's coordinate subspace.

        A degenerate simplex has volume 0.  Otherwise the coordinates that
        are nonzero somewhere (the live ones) must number exactly dim: with
        more, the simplex spans no axis-parallel coordinate flat and its
        volume is out of scope.  The value is `_volume_on` the live
        coordinates, 1 for a point.
        """
        live = set().union(*[coordinate_support(v) for v in self.vertices])
        if 0 < self.dim < len(live) and not self.is_degenerate:
            raise InvalidRegionError(
                "volume requested for a simplex outside any coordinate subspace"
            )
        return _volume_on(self.vertices, sorted(live))

    def volume(self) -> Fraction:
        return self.normalized_volume() / factorial(self.dim)

    def contains_point(self, point: Vec) -> bool:
        """Exact membership via barycentric coordinates (degenerate: False).

        The `_barycentric_rows` of the chart (the frame's pivot coordinates)
        give D > 0 times the weights of the point's chart.  The chart is
        injective only on the affine hull, so below full dimension the
        weights must also rebuild the point itself.
        """
        k = self.dim
        if k == 0:
            return tuple(point) == self.vertices[0]
        pivots = _frame(self.vertices)[1]
        if len(pivots) < k:
            return False
        rows = _barycentric_rows([tuple(v[c] for c in pivots) for v in self.vertices])
        chart = [point[c] for c in pivots]
        weights = [sum(w * x for w, x in zip(row, chart)) + row[-1] for row in rows]
        if any(x < 0 for x in weights):
            return False
        scale = sum(weights)  # D: the rows sum to it at every point
        return k == self.n or all(
            sum(x * v[i] for x, v in zip(weights, self.vertices)) == scale * point[i]
            for i in range(self.n)
        )


def _barycentric_rows(vertices) -> list[list[int]] | None:
    """One integer row (w, c) per vertex of n + 1 points in R^n with
    w . p + c = D * (p's barycentric coordinate at that vertex), D > 0, so
    p lies in the simplex iff every row is >= 0 at p; None for a zero
    determinant.

    One `echelon` of the grid's (`_grid`, scale L) edge matrix E beside
    the identity gives [U | T] with U = T E, and its last pivot is det E up
    to sign; D = |det E|.  Solving U y = D (column k of T) gives y =
    D E^-1 e_k, column k of the adjugate up to sign, in integers, so every
    division of the back-substitution is exact.  At a grid point q = L p,
    D lambda_j = y_j . (q - grid base), so p's row is (L y_j, -y_j . base).
    """
    scale, grid = _grid(vertices)
    base = grid[0]
    n = len(base)
    rows, pivots, _ = echelon(
        [[v[i] - base[i] for v in grid[1:]] + [int(t == i) for t in range(n)] for i in range(n)]
    )
    # [edges | I] has rank n, so pivots has n entries; the edges are
    # independent iff all of them lie in the first n columns
    if pivots[-1] != n - 1:
        return None
    det = abs(rows[-1][n - 1])  # the row swaps only flip its sign
    adjugate_cols = [
        back_substitute([row[:n] + [det * row[n + k]] for row in rows], pivots, [0] * n)
        for k in range(n)
    ]
    # D lambda_j(p) = w_j . (L p - base), w_j = D (inverse row j), for
    # j >= 1, and lambda_0 = 1 - (the other lambdas)
    functionals = []
    for j in range(n):
        w = [col[j] for col in adjugate_cols]
        functionals.append([scale * x for x in w] + [-sum(a * b for a, b in zip(w, base))])
    functionals.insert(0, [-sum(col) for col in zip(*functionals)])
    functionals[0][n] += det
    return functionals


def _covers(rows, total, count) -> bool:
    """Does the simplex with barycentric rows `rows` contain total / count
    (count > 0)?  A centroid is tested as (sum of vertices, vertex count),
    a lattice point of the k-th dilate as (point, k)."""
    return all(sum(w * t for w, t in zip(row, total)) + row[-1] * count >= 0 for row in rows)


def simplex_volume(s: Simplex) -> Fraction:
    """k-volume of a k-simplex (0 for degenerate vertex sets)."""
    return s.volume()


# ---------------------------------------------------------------------------
# Face enumeration and pulling triangulation
# ---------------------------------------------------------------------------


def _grid(points) -> tuple[int, list]:
    """(L, the points times L), with L the lcm of the denominators of
    their coordinates, so the scaled points are integer tuples.  Points
    whose coordinates are all ints come back unchanged, with L = 1."""
    if all(type(x) is int for p in points for x in p):
        return 1, points
    scale = lcm(*(x.denominator for p in points for x in p))
    return scale, [tuple(int(x * scale) for x in p) for p in points]


def _volume_on(vertices, columns) -> Fraction:
    """k! times the k-volume of k + 1 points whose edges vanish off the
    given coordinates: |last pivot| / L^k of one `echelon` of the grid
    edges (`_grid`, scale L) on those columns, 0 below rank k, 1 for k = 0.
    With k columns the last pivot is the k x k determinant up to sign."""
    k = len(vertices) - 1
    scale, grid = _grid(vertices)
    rows, pivots, _ = echelon([[p[c] - grid[0][c] for c in columns] for p in grid[1:]])
    if len(pivots) < k:
        return Fraction(0)
    return Fraction(abs(rows[-1][pivots[-1]]), scale**k) if k else Fraction(1)


def _frame(points):
    """(rows, pivots): `echelon` of the edge vectors q - q0 of the points
    on their grid (`_grid`, points nonempty).

    Its pivot count is the affine dimension, and its pivot columns give a
    chart: the echelon rows restricted to them are triangular with nonzero
    diagonal, so dropping the other coordinates is injective on the affine
    hull.  Its last pivot is the minor of the grid edges on all k pivot
    columns (not the pivot product), the cofactor that `_normal` reads.
    """
    grid = _grid(points)[1]
    return echelon([[a - b for a, b in zip(p, grid[0])] for p in grid[1:]])[:2]


def affine_dim(points) -> int:
    pts = [tuple(p) for p in points]
    return len(_frame(pts)[1]) if pts else 0


def _chart(points) -> list[tuple]:
    """The points in coordinates of their own affine hull: the pivot
    coordinates of their frame, so integer points keep integer charts."""
    pivots = _frame(points)[1]
    return [tuple(p[c] for c in pivots) for p in points]


def _normal(rows, pivots, d):
    """Primitive integer kernel vector of an integer matrix with d columns
    and rank d - 1, read off its `echelon` (rows, pivots); None for a
    lower rank.

    The one free column is set to |last pivot|, the minor of the pivot
    rows on the pivot columns, so the exact integer back-substitution
    gives the cofactor vector (Cramer's rule), and the gcd is divided out.
    """
    if len(pivots) != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    x = [0] * d
    x[free] = abs(rows[len(pivots) - 1][pivots[-1]]) if pivots else 1
    x = back_substitute(rows, pivots, x)
    g = gcd(*x)
    return tuple(v // g for v in x)


def supporting_hyperplanes(points):
    """Hyperplanes through d affinely independent points of R^d that leave
    every point on one side.

    This is the one k-subset enumeration of the package: every affinely
    independent d-subset spans a candidate, whose normal is the cofactor
    vector of the subset's `_frame` (`_normal`).  The loop costs C(N, d)
    eliminations, so it serves small sets only: simplices and facets being
    triangulated, and the facets of one facet while the Newton diagram is
    wrapped.  Each distinct hyperplane is evaluated once,
    however many subsets span it, and its evaluation stops at the first
    point that shows points strictly on both sides.

    Yields (w, c, on) once per supporting hyperplane: w is the primitive
    integer normal oriented so that w . p >= c for every point p, and on
    holds the indices of the points with equality.  A hyperplane holding
    every point supports them from both sides and is yielded in both
    orientations.  Integer points are evaluated in integer arithmetic.
    """
    d = len(points[0])
    seen = set()
    for subset in combinations(range(len(points)), d):
        w = _normal(*_frame([points[j] for j in subset]), d)
        if w is None:
            continue
        c = sum(wi * bi for wi, bi in zip(w, points[subset[0]]))
        if (w, c) in seen:
            continue
        seen.add((w, c))
        side = 0
        on = []
        for i, p in enumerate(points):
            value = sum(wi * pi for wi, pi in zip(w, p)) - c
            if value == 0:
                on.append(i)
            elif side == 0:
                side = 1 if value > 0 else -1
            elif (value > 0) != (side > 0):
                break
        else:
            for sign in (side,) if side else (1, -1):
                yield tuple(sign * wi for wi in w), sign * c, tuple(on)


def polytope_facets(points) -> list[tuple[int, ...]]:
    """Index sets of the facets of conv(points).

    Points must be distinct; they need not all be extreme (non-extreme points
    on a facet's hyperplane are included in that facet's index set).
    """
    pts = [tuple(p) for p in points]
    chart = _chart(pts) if pts else [()]
    if not chart[0]:
        return []  # affine dimension 0
    return sorted(on for _, _, on in supporting_hyperplanes(chart))


def pull_triangulate(points, order_key=None) -> list[tuple[Vec, ...]]:
    """Triangulate conv(points) by pulling at the least vertex, recursively.

    Uses only the given points as vertices.  With the same vertex order the
    induced triangulation of any face equals the face's own pulling
    triangulation, so triangulations built facet-by-facet agree on shared
    ridges and assemble into a simplicial complex.
    """
    pts = sorted(set(tuple(p) for p in points), key=order_key)
    d = affine_dim(pts)
    if len(pts) == d + 1:
        return [tuple(pts)]
    apex = pts[0]
    pieces: list[tuple[Vec, ...]] = []
    for face in polytope_facets(pts):
        face_pts = [pts[i] for i in face]
        if apex in face_pts:
            continue
        for cell in pull_triangulate(face_pts, order_key):
            pieces.append(cell + (apex,))
    return pieces
