"""Supports, Newton diagrams, and regions under them.

A SupportSet is the exponent set of a power series.  Its Newton polyhedron
P is the hull of the translated orthants; the diagram is the union of
compact faces, enumerated here as the facets with strictly positive inner
normal.  `newton_diagram` finds them exactly, once per SupportSet, from
the non-dominated support points only (a point lying coordinatewise at or
above another support point touches no compact face).

The compact facets are gift-wrapped (Chand and Kapur, J. ACM 17, 1970;
Swart, J. Algorithms 6, 1985) in integer arithmetic, so the cost follows
the facets found, not the C(N, n) n-subsets of N candidates, and the
vertices are read off the same wrap:

  * Wrap step.  Given a facet w . x >= c and a ridge R of it, one
    `echelon` gives the normal u of the edges of R and w, oriented so that
    u . x < cu (cu = u . r on R) at the facet's points off R.  Every
    hyperplane through R has its normal in span(w, u).  Each candidate q
    gives a = w . q - c >= 0 and b = u . q - cu, and the facet across R
    runs through the q with a > 0 where b / a is greatest, compared by
    cross-multiplying: its normal is b* w - a* u, its offset b* c - a* cu,
    divided by the normal's gcd.  Two dot products per candidate, where
    the n-subset loop ran one elimination per subset.
  * Ridges.  A facet with exactly n points has their (n-1)-subsets as
    ridges, any other the facets of its points (`polytope_facets`, on a
    small set).  Each ridge, kept as a set of points, is wrapped once.
  * Stop rule.  A ridge whose points all have x_j = 0 borders the facet
    x_j >= 0, so nothing is wrapped about it.
  * First facet.  The points with x_1 = 0 give, recursively, one compact
    facet (w_r, c_r) of their polyhedron in R^(n-1), the least point when
    n = 1.  It is a ridge of the facet x_1 >= 0, and one wrap step from
    (e_1, 0), with u = -(0, w_r) and cu = -c_r, crosses it.
  * Supports that are not convenient get the points M e_j on every axis,
    M = n^2 D H + 1 with D the largest coordinate and H a Hadamard bound
    on the (n-1)-minors of the edge vectors; dominance drops the ones on
    axes with a pure power.  Only the facets whose points avoid the added
    ones are kept, and they are exactly the compact facets of the support.
  * Vertices.  A point of a wrapped facet, also of one through an added
    point, is a vertex when the facet's ridges through it share no other
    point; the added points are dropped from the vertices.

The `newton_diagram` docstring proves the stop rule, that the wrap
reaches every compact facet, the bound on M and the vertex rule.
gamma_minus cones the diagram to the origin and triangulates it (pulling
rule at the lexicographically least vertex), giving a NewtonRegion: a
union of simplices with cached exact subset volumes, the single data
structure every Newton-number computation consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from operator import mul

from .errors import (
    DomainError,
    GuardrailError,
    InvalidRegionError,
    NotConvenientError,
)
from .geometry import (
    Simplex,
    Vec,
    _barycentric_rows,
    _covers,
    _normal,
    _volume_on,
    coordinate_support,
    polytope_facets,
    pull_triangulate,
)
from .linalg import echelon

DEFAULT_MAX_N = 6
MAX_SUPPORT_POINTS = 64
DEFAULT_VARIABLES = ("x", "y", "z", "w")

CoordinateSubset = frozenset  # frozenset[int], 0-based coordinate indices


def max_dimension() -> int:
    """Ambient-dimension guardrail; NEWTON_MU_MAX_N overrides the default 6."""
    raw = os.environ.get("NEWTON_MU_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise GuardrailError(f"NEWTON_MU_MAX_N is not an integer: {raw!r}")


def check_dimension(n: int) -> None:
    limit = max_dimension()
    if n > limit:
        raise GuardrailError(
            f"ambient dimension {n} exceeds guardrail {limit}"
            " (set NEWTON_MU_MAX_N to override)"
        )
    if n < 0:
        raise DomainError("ambient dimension must be nonnegative")


def default_variables(n: int) -> tuple[str, ...]:
    if n <= len(DEFAULT_VARIABLES):
        return DEFAULT_VARIABLES[:n]
    return tuple(f"z{i+1}" for i in range(n))


def all_subsets(n: int) -> list[frozenset[int]]:
    """Every I subset of {0..n-1}, ordered by size then lexicographically."""
    out: list[frozenset[int]] = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            out.append(frozenset(combo))
    return out


@dataclass(frozen=True)
class SupportSet:
    """Finite set of exponent vectors (nonnegative integers), no duplicates.

    Its Newton diagram is built once and kept in `_cache`.
    """

    variables: tuple[str, ...]
    points: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        variables = tuple(self.variables)
        if not variables:
            raise DomainError("support needs at least one variable")
        pts = sorted(set(tuple(int(c) for c in p) for p in self.points))
        if not pts:
            raise DomainError("support set is empty")
        if len(pts) > MAX_SUPPORT_POINTS:
            raise GuardrailError(
                f"support has {len(pts)} points; guardrail is {MAX_SUPPORT_POINTS}"
            )
        for p in pts:
            if len(p) != len(variables):
                raise DomainError(f"point {p} does not have {len(variables)} coordinates")
            if any(c < 0 for c in p):
                raise DomainError(f"point {p} has a negative exponent")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "points", tuple(pts))

    @property
    def n(self) -> int:
        return len(self.variables)


def support(points, variables: tuple[str, ...] | None = None) -> SupportSet:
    pts = [tuple(p) for p in points]
    if variables is None:
        if not pts:
            raise DomainError("support set is empty")
        variables = default_variables(len(pts[0]))
    return SupportSet(variables, tuple(pts))


def is_convenient(s: SupportSet) -> tuple[bool, tuple[int, ...]]:
    """Does every axis carry a pure-power point?  Returns (flag, missing axes)."""
    present = set()
    for p in s.points:
        supp = coordinate_support(p)
        if len(supp) == 1:
            present.add(next(iter(supp)))
    missing = tuple(i for i in range(s.n) if i not in present)
    return (not missing, missing)


def _require_convenient(s: SupportSet) -> None:
    """Raise NotConvenientError naming the axes without a pure power."""
    convenient, missing = is_convenient(s)
    if not convenient:
        raise NotConvenientError(
            "support misses pure powers on axes "
            + ", ".join(str(i + 1) for i in missing),
            missing,
        )


@dataclass(frozen=True)
class Facet:
    """Compact facet of the Newton polyhedron: primitive inner normal > 0."""

    vertices: tuple[Vec, ...]
    inner_normal: tuple[int, ...]
    offset: Fraction


@dataclass(frozen=True)
class NewtonDiagram:
    n: int
    support: SupportSet
    facets: tuple[Facet, ...]
    vertices: tuple[Vec, ...]


def _compact_hyperplanes(points) -> tuple[list, list, set]:
    """(candidates, sorted (w, c, on) with w > 0, corners) of a point set:
    its non-dominated points, the hyperplanes of its compact facets with on
    indexing the candidates, and the indices of the candidates that are
    vertices of its polyhedron.  One gift wrap finds facets and vertices;
    the module docstring gives the wrap, the `newton_diagram` docstring why
    it finds all of them."""
    pts = sorted(set(points))
    cands = [
        p for p in pts
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
    ]
    n = len(cands[0])
    if n == 1:
        return cands, [((1,), cands[0][0], (0,))], {0}
    if not any(cands[0]):
        return cands, [], {0}  # the origin dominates every other point
    # M = n^2 D H + 1 on the axes without a pure power (module docstring)
    top = max(max(p) for p in cands)
    far = n * n * top * (isqrt(((n - 1) * top * top) ** (n - 1)) + 1) + 1
    axes = (tuple(far * (i == j) for i in range(n)) for j in range(n))
    pool = cands + [
        e for e in axes if not any(all(a <= b for a, b in zip(q, e)) for q in cands)
    ]
    first = _first_facet(pool)
    facets = {first[:2]: first[2]}
    todo = [first]
    wrapped = set()
    corners = set()
    while todo:
        w, c, on = todo.pop()
        if len(on) == n:
            ridges = list(combinations(on, n - 1))
        else:
            ridges = [tuple(on[i] for i in f) for f in polytope_facets([pool[i] for i in on])]
        # a vertex of the facet is the one point its ridges through it share
        corners.update(
            i for i in on if set(on).intersection(*(r for r in ridges if i in r)) == {i}
        )
        for ridge in ridges:
            key = frozenset(ridge)
            if key in wrapped or not all(map(any, zip(*(pool[i] for i in ridge)))):
                continue  # wrapped from the other side, or on some x_j = 0
            wrapped.add(key)
            base = pool[ridge[0]]
            rows, pivots, _ = echelon(
                [[a - b for a, b in zip(pool[i], base)] for i in ridge[1:]] + [list(w)]
            )
            u = _normal(rows, pivots, n)
            cu = sum(map(mul, u, base))
            if sum(map(mul, u, pool[next(i for i in on if i not in key)])) > cu:
                u, cu = tuple(-x for x in u), -cu  # negative off the ridge
            found = _rotate(pool, w, c, u, cu)
            if found[:2] not in facets:
                facets[found[:2]] = found[2]
                todo.append(found)
    # the facets through no added point are the candidates' own
    kept = sorted((w, c, on) for (w, c), on in facets.items() if on[-1] < len(cands))
    return cands, kept, {i for i in corners if i < len(cands)}


def _first_facet(pool) -> tuple:
    """One compact facet (w, c, on) of a convenient point set without the
    origin: wrap the facet x_1 >= 0 about the ridge that one compact facet
    of the points with x_1 = 0 gives (the least point when n = 1)."""
    n = len(pool[0])
    if n == 1:
        return (1,), min(p[0] for p in pool), ()
    w, c, _ = _first_facet([p[1:] for p in pool if p[0] == 0])
    return _rotate(pool, (1,) + (0,) * (n - 1), 0, (0,) + tuple(-x for x in w), -c)


def _rotate(pool, w, c, u, cu) -> tuple:
    """The facet (w', c', on) across the ridge {w . x = c, u . x = cu} of
    the facet w . x >= c, where u . x < cu at the facet's points off the
    ridge: the wrap step of the module docstring.  Its points are the
    ridge's (a = b = 0) and those tied at the greatest b / a.
    """
    best_a = best_b = 0
    on: list[int] = []
    ties: list[int] = []
    for i, q in enumerate(pool):
        a = sum(map(mul, w, q)) - c
        b = sum(map(mul, u, q)) - cu
        if a == 0:
            if b == 0:
                on.append(i)
        elif not best_a or b * best_a > best_b * a:
            best_a, best_b, ties = a, b, [i]
        elif b * best_a == best_b * a:
            ties.append(i)
    normal = [best_b * x - best_a * y for x, y in zip(w, u)]
    g = gcd(*normal)
    return (
        tuple(x // g for x in normal),
        (best_b * c - best_a * cu) // g,
        tuple(sorted(on + ties)),
    )


def newton_diagram(s: SupportSet) -> NewtonDiagram:
    """Compact facets (strictly positive inner normal) plus diagram vertices.

    The diagram is built once per SupportSet and kept in its `_cache`; the
    dimension guardrail is checked on every call.

    Candidates are the non-dominated support points: p is dropped when
    another support point q has q <= p coordinatewise.  Dropping p leaves
    the polyhedron unchanged (p lies in q + orthant) and p is no vertex,
    and for every normal w > 0, w . p > w . q, so p is strictly above every
    hyperplane that can carry a compact facet.  The compact facets are
    gift-wrapped over the candidates (module docstring).  A
    lower-dimensional diagram (no compact facet of dimension n-1) is legal
    and yields an empty facet list.  With the origin among the support
    points the candidates are the origin alone: no compact facet for
    n >= 2, and the facet x >= 0 for n = 1.

    Facets of a convenient P = conv(S) + orthant.  Every facet normal w is
    >= 0 and every offset c >= 0, as P lies in the orthant and contains
    x + orthant for each of its points.  If some w_j = 0, the pure power on
    axis j gives c = 0, and the facet lies in the proper face P cap {x_i =
    0} for an i with w_i > 0, so it is that face: x_i >= 0.  Hence the
    facets of P are the compact ones and the x_i >= 0, and P is {x >= 0 :
    w . x >= c for every compact facet}.

    The wrap is complete.  Let S be convenient without the origin
    (n >= 2).  Stop rule: if a ridge R of a compact facet F lies in
    x_j = 0, then F, whose normal is > 0, meets x_j = 0 in a proper face
    that contains R, so in R, and R's two facets are F and x_j >= 0.  A
    ridge in no coordinate hyperplane lies in no non-compact facet, so both
    its facets are compact and the wrap step crosses it.  Connectivity: the
    origin is not in P, and a ray from it into the orthant enters P (S is
    convenient).  At the entry point some facet w . x >= c with c > 0 is
    tight, a compact one, and no later point of the ray lies on a compact
    facet.  So x -> x / sum(x) maps the union of the compact facets one to
    one and continuously onto the simplex {x >= 0, sum x = 1}: it is an
    (n-1)-ball.  Two facets of a polyhedral (n-1)-ball are joined by a
    chain of facets, each sharing a ridge with the next (removing the faces
    of dimension n-3 or less leaves a connected manifold), and such a
    ridge is shared by two compact facets, so it lies in no coordinate
    hyperplane.  Hence the wrap from one compact facet reaches all of them.

    Bound on M, for S not convenient.  Let P' be the polyhedron of S and
    the added points M e_j.  A compact facet (w, c) of S runs through n
    affinely independent candidates p_0..p_{n-1}, whose edges p_i - p_0
    have entries in [-D, D].  Their cofactor vector is a nonzero integer
    multiple of the primitive w, and each entry is an (n-1)-minor, at most
    (sqrt(n-1) D)^(n-1) <= H by Hadamard's inequality.  So 1 <= w_j <= H
    and c = w . p_0 <= n D H < M <= w . M e_j: each added point is strictly
    above (w, c), which stays a compact facet of P' with the same points.
    Conversely a compact facet of P' whose points are all in S supports S
    and spans n - 1 dimensions, so it is a compact facet of S.  The facets
    need only M > n D H; the vertices need M > n^2 D H.

    The vertices of P are the candidates that the wrap marks, in four steps.
      1. Every vertex v of P is a vertex of P'.  P is full-dimensional and
         pointed, so n facets with independent normals run through v.  Each
         is spanned by n - 1 independent edge or unit vectors, so its
         primitive normal has entries in [0, H] as above.  Their sum w is
         > 0, v is the only point of P where w is least, and w . v <=
         n^2 D H < M <= w . M e_j, so v is also the only such point of P'.
      2. P' is convenient, so each of its vertices lies on a compact facet
         of P': the ray from the origin through a vertex enters P' at the
         vertex (an earlier entry point u leaves v in u + orthant), and the
         entry point lies on a compact facet (connectivity, above).
      3. A vertex of a polytope is the only point common to the facets
         through it.  A wrapped facet is the polytope of its points, and its
         facets are the ridges the wrap computes, so the points marked on
         it are its vertices, which are vertices of P'.  By 2 the marks
         over every wrapped facet, also one through an added point, are
         all the vertices of P'.
      4. A candidate that is a vertex of P' is a vertex of P, because P is
         inside P'.  With 1, the marked candidates are the vertices of P.
    A facet's vertices are the vertices of P on it.  For n = 1 and with the
    origin in S the one candidate is the one vertex.
    """
    check_dimension(s.n)
    if "diagram" in s._cache:
        return s._cache["diagram"]
    cands, found, corners = _compact_hyperplanes(s.points)
    facets = tuple(
        Facet(tuple(cands[i] for i in on if i in corners), w, Fraction(c))
        for w, c, on in found
    )
    vertices = tuple(cands[i] for i in sorted(corners))
    s._cache["diagram"] = NewtonDiagram(s.n, s, facets, vertices)
    return s._cache["diagram"]


@dataclass(frozen=True)
class NewtonRegion:
    """Union of simplices in the orthant; the working representation of
    regions under Newton diagrams and of the explicit polyhedra X, Y.

    Every question about the pieces X^I of X in the coordinate subspaces
    R^I reads one table, `_faces()`, built once and kept in `_cache`: it
    maps each coordinate subset I to the distinct nonempty faces X^I of
    the cells, the union of the cells' `_cell_faces` tables.  X^I is the
    union of these faces.  Subset volumes sum `_volume_on` the columns I
    over the faces with |I| + 1 vertices (identical faces from several
    cells count once), with no `Simplex` per face; quasi-convenience tests
    the faces' shape, and an explicit region's restriction reindexes them.
    """

    n: int
    simplices: tuple[Simplex, ...]
    source: SupportSet | None = None
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        sims = tuple(sorted(self.simplices, key=lambda s: s.vertices))
        for s in sims:
            if s.n != self.n:
                raise InvalidRegionError("simplex ambient dimension mismatch")
        if len(set(sims)) != len(sims):
            raise InvalidRegionError("duplicate simplices in region")
        object.__setattr__(self, "simplices", sims)

    def contains_origin(self) -> bool:
        return any(s.contains_origin() for s in self.simplices)

    @property
    def vertex_set(self) -> tuple[Vec, ...]:
        return tuple(sorted(set(v for s in self.simplices for v in s.vertices)))

    def contains_point(self, point: Vec) -> bool:
        return any(s.contains_point(point) for s in self.simplices)

    def _faces(self) -> dict[frozenset[int], frozenset[tuple[Vec, ...]]]:
        """Map I -> the distinct nonempty faces X^I of the cells, for every
        coordinate subset I in `all_subsets` order; each face is a cell's
        vertices lying in R^I, in the cell's order."""
        if "faces" not in self._cache:
            tables = [_cell_faces(s) for s in self.simplices]
            self._cache["faces"] = {
                I: frozenset(t[I] for t in tables if t[I]) for I in all_subsets(self.n)
            }
        return self._cache["faces"]

    def subset_volumes(self) -> dict[frozenset[int], Fraction]:
        """Map I -> |I|! * V_|I|(X^I), for every coordinate subset I."""
        if "vols" not in self._cache:
            self._cache["vols"] = {
                I: sum(
                    (_volume_on(f, sorted(I)) for f in faces if len(f) == len(I) + 1),
                    Fraction(0),
                )
                for I, faces in self._faces().items()
            }
        return self._cache["vols"]


def _cell_faces(cell: Simplex) -> dict[frozenset[int], tuple[Vec, ...]]:
    """Map I -> the cell's vertices lying in R^I, in the cell's order, for
    every coordinate subset I in `all_subsets` order.  Inside the orthant
    a simplex meets R^I exactly in the face these vertices span; this is
    the one place where that rule is written."""
    supports = [(v, coordinate_support(v)) for v in cell.vertices]
    return {I: tuple(v for v, sp in supports if sp <= I) for I in all_subsets(cell.n)}


def region_from_simplices(simplices, source: SupportSet | None = None) -> NewtonRegion:
    sims = tuple(Simplex(tuple(v) for v in s) if not isinstance(s, Simplex) else s for s in simplices)
    if not sims:
        raise InvalidRegionError("region needs at least one simplex")
    return NewtonRegion(sims[0].n, sims, source)


def validate_region(x: NewtonRegion, rng_seed: int = 0) -> None:
    """Overlap screen: exact centroid-in-other tests on pairs of cells.

    Only the full-dimensional cells take part: those with n + 1 affinely
    independent vertices; lower-dimensional and degenerate cells are
    skipped.  With k such cells, every one of the k(k-1)/2 pairs is tested
    when there are at most 300, else a sample of 300 drawn by
    random.Random(rng_seed).sample.  For each pair (a, b) the centroid of a
    is tested against b, then the centroid of b against a, and the first
    centroid found in the other cell (boundary included) raises
    InvalidRegionError.  Such a centroid is an interior point of its cell,
    so it proves an interior overlap.

    Passing is a screen, not a proof that the cells triangulate a region:
    unsampled pairs are not tested, two cells can overlap with neither
    centroid in the other, and gaps and improperly glued faces are not
    looked for.  Each cell's barycentric rows (`geometry._barycentric_rows`)
    are computed once, and each centroid is tested as the sum of its
    vertices over n + 1, in integer arithmetic for integer vertices.
    """
    import random

    top = [s for s in x.simplices if s.dim == x.n]
    if len(top) < 2:
        return
    cells = []
    for s in top:
        rows = _barycentric_rows(s.vertices)
        if rows is not None:
            cells.append((s.vertices, rows, tuple(map(sum, zip(*s.vertices)))))
    k = len(cells)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if len(pairs) > 300:
        rng = random.Random(rng_seed)
        pairs = rng.sample(pairs, 300)
    count = x.n + 1
    for i, j in pairs:
        for (a, _, total), (b, rows, _) in ((cells[i], cells[j]), (cells[j], cells[i])):
            if _covers(rows, total, count):
                raise InvalidRegionError(
                    f"simplices overlap: centroid of {a} lies in {b}"
                )


def cone_over_visible_facets(s: SupportSet, apex: Vec, order_key=None) -> list[Simplex]:
    """Cone apex over the diagram facets it sees strictly (w . apex < offset).

    Each visible facet is pull-triangulated (optional pulling-order key)
    and every cell gains the apex as its last vertex.
    """
    cells = []
    for facet in newton_diagram(s).facets:
        if sum(w * c for w, c in zip(facet.inner_normal, apex)) < facet.offset:
            for cell in pull_triangulate(facet.vertices, order_key):
                cells.append(Simplex(cell + (apex,)))
    return cells


def gamma_minus(s: SupportSet, vertex_order=None) -> NewtonRegion:
    """Region under the Newton diagram, triangulated by coning facet
    triangulations to the origin.

    Requires a convenient support without the zero exponent, so every
    compact facet has a positive offset and the origin sees all of them.
    The optional vertex_order (a point -> rank map) replaces the
    lexicographic pulling order; any fixed order yields a valid
    triangulation of the same region.
    """
    _require_convenient(s)
    origin = tuple(0 for _ in range(s.n))
    if origin in s.points:
        raise DomainError("support contains the zero exponent (unit term)")
    key = None
    if vertex_order is not None:
        key = lambda v: (vertex_order[tuple(v)], tuple(v))
    return NewtonRegion(s.n, tuple(cone_over_visible_facets(s, origin, key)), source=s)


def restrict(x: NewtonRegion | SupportSet, I) -> NewtonRegion | SupportSet | None:
    """Restriction to the coordinate subspace R^I, reindexed to |I| coordinates.

    For supports: keep the points supported inside I (None when nothing
    survives).  For regions built from a support: recompute gamma_minus of
    the restricted support.  For explicit regions: keep the faces X^I of
    the cells (all dimensions, so origin membership survives).  Indices
    outside 0..n-1 raise DomainError.
    """
    members = frozenset(I)
    order = sorted(members)
    outside = [i for i in order if i not in range(x.n)]
    if outside:
        raise DomainError(f"coordinate indices {outside} lie outside 0..{x.n - 1}")
    if isinstance(x, SupportSet):
        keep = [p for p in x.points if coordinate_support(p) <= members]
        if not keep:
            return None
        if not order:
            raise DomainError("cannot restrict a support to the empty subset")
        vars_kept = tuple(x.variables[i] for i in order)
        return SupportSet(vars_kept, tuple(tuple(p[i] for i in order) for p in keep))
    if not order:
        sims = (Simplex(((),)),) if x.contains_origin() else ()
        if not sims:
            raise DomainError("restriction to the empty subset of an origin-free region")
        return NewtonRegion(0, sims)
    if x.source is not None:
        sub = restrict(x.source, members)
        if sub is None:
            raise DomainError("restricted support is empty")
        return gamma_minus(sub)
    faces = {tuple(tuple(v[i] for i in order) for v in f) for f in x._faces()[members]}
    if not faces:
        raise DomainError("region does not meet the requested coordinate subspace")
    return NewtonRegion(len(order), tuple(Simplex(f) for f in sorted(faces)))


def project(x: NewtonRegion | Simplex, I) -> NewtonRegion | Simplex:
    """Image under the projection that zeroes the coordinates in I.

    Duplicate vertices collapse; the result stays in the same ambient space
    (the complement subspace R_I), and its dimension may drop.
    """
    members = frozenset(I)

    def proj_vec(v: Vec) -> Vec:
        return tuple(0 if i in members else c for i, c in enumerate(v))

    if isinstance(x, Simplex):
        return Simplex(tuple(sorted(set(proj_vec(v) for v in x.vertices))))
    sims = sorted(set(project(s, members) for s in x.simplices), key=lambda s: s.vertices)
    return NewtonRegion(x.n, tuple(sims))


def is_quasi_convenient(x: NewtonRegion) -> tuple[bool, str]:
    """Sufficient proxy for the disk conditions.

    Checks: origin in X; nonzero vertex coordinates >= 1; and for every
    nonempty I the family of maximal faces in R^I is pure |I|-dimensional,
    star-shaped at the origin, and connected through shared codimension-1
    faces.  Regions built by gamma_minus pass.  The verdict (ok, reason)
    is kept in the region's `_cache`.
    """
    if "quasi" not in x._cache:
        x._cache["quasi"] = _quasi_convenience(x)
    return x._cache["quasi"]


def _quasi_convenience(x: NewtonRegion) -> tuple[bool, str]:
    if not x.contains_origin():
        return False, "origin is not in the region"
    for v in x.vertex_set:
        for c in v:
            if c != 0 and c < 1:
                return False, f"vertex {v} has a nonzero coordinate below 1"
    origin = tuple(0 for _ in range(x.n))
    for I, faces in x._faces().items():
        if not I:
            continue  # every other X^I holds the origin, so it is nonempty
        face_sets = {f: set(f) for f in faces}
        maximal = [
            f
            for f in faces
            if not any(g != f and face_sets[f] < face_sets[g] for g in faces)
        ]
        want = len(I) + 1
        for f in maximal:
            if len(f) != want or _volume_on(f, sorted(I)) == 0:
                return False, (
                    f"restriction to subspace {sorted(i + 1 for i in I)} is not pure"
                )
            if origin not in f:
                return False, (
                    f"restriction to subspace {sorted(i + 1 for i in I)}"
                    " is not star-shaped at the origin"
                )
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for j in range(len(maximal)):
                if j not in seen and len(face_sets[maximal[cur]] & face_sets[maximal[j]]) >= len(I):
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != len(maximal):
            return False, (
                f"restriction to subspace {sorted(i + 1 for i in I)} is disconnected"
            )
    return True, ""


def standard_modification(s: SupportSet, m: int) -> SupportSet:
    """Add the pure powers m*e_i on every axis (m beyond every exponent)."""
    top = max(max(p) for p in s.points)
    if m <= top:
        raise DomainError(f"modification degree {m} must exceed every exponent ({top})")
    extra = []
    for i in range(s.n):
        point = tuple(m if j == i else 0 for j in range(s.n))
        extra.append(point)
    return SupportSet(s.variables, s.points + tuple(extra))


def simplex_below_diagram(s: SupportSet, a) -> bool:
    """Does the hyperplane sum(x_i / a_i) = 1 lie on or below every support
    point?  Exactly when Y_a = |O, a_1 e_1, ..., a_n e_n| sits under the
    diagram."""
    avec = [Fraction(v) for v in a]
    if len(avec) != s.n:
        raise DomainError("intercept tuple length differs from ambient dimension")
    if any(v <= 0 for v in avec):
        raise DomainError("intercepts must be positive")
    return all(sum(Fraction(c) / ai for c, ai in zip(p, avec)) >= 1 for p in s.points)


def axis_simplex_region(a) -> NewtonRegion:
    """The simplex Y_a = |O, a_1 e_1, ..., a_n e_n| as a region."""
    avec = [Fraction(v) for v in a]
    n = len(avec)
    if any(v <= 0 for v in avec):
        raise DomainError("intercepts must be positive")
    origin = tuple(Fraction(0) for _ in range(n))
    verts = [origin] + [
        tuple(avec[i] if j == i else Fraction(0) for j in range(n)) for i in range(n)
    ]
    return NewtonRegion(n, (Simplex(tuple(verts)),))
