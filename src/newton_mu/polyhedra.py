"""Supports, Newton diagrams, and regions under them.

A SupportSet is the exponent set of a power series.  Its Newton polyhedron
is the hull of the translated orthants; the diagram is the union of compact
faces, enumerated here as the facets with strictly positive inner normal.
`newton_diagram` finds them exactly from the non-dominated support points
only (a point lying coordinatewise at or above another support point
touches no compact face).  The other facets of the polyhedron are the
compact facets of the support's coordinate projections, and a point is a
vertex when the normals of the facets through it have full rank; its
docstring proves both steps.  gamma_minus cones the diagram to the
origin and triangulates it (pulling rule at the lexicographically least
vertex), giving a NewtonRegion: a union of simplices with cached exact
subset volumes, the single data structure every Newton-number
computation consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

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
    coordinate_support,
    pull_triangulate,
    supporting_hyperplanes,
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
    """Finite set of exponent vectors (nonnegative integers), no duplicates."""

    variables: tuple[str, ...]
    points: tuple[tuple[int, ...], ...]

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


def _compact_hyperplanes(points) -> tuple[list, list]:
    """(candidates, sorted (w, c, on) with w > 0) of a point set: its
    non-dominated points and the hyperplanes of its compact facets, with on
    indexing the candidates."""
    pts = sorted(set(points))
    cands = [
        p for p in pts
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
    ]
    found = sorted(
        (w, c, on) for w, c, on in supporting_hyperplanes(cands) if min(w) > 0
    )
    return cands, found


def newton_diagram(s: SupportSet) -> NewtonDiagram:
    """Compact facets (strictly positive inner normal) plus diagram vertices.

    Candidates are the non-dominated support points: p is dropped when
    another support point q has q <= p coordinatewise.  Dropping p leaves
    the polyhedron unchanged (p lies in q + orthant) and p is no vertex,
    and for every normal w > 0, w . p > w . q, so p is strictly above every
    hyperplane that can carry a compact facet.  Candidate hyperplanes run
    over affinely independent n-subsets of the candidates
    (`supporting_hyperplanes`); those with a positive normal are the
    compact facets.  A lower-dimensional diagram (no compact facet of
    dimension n-1) is legal and yields an empty facet list.

    Every facet comes from a projection.  The polyhedron P = conv(S) +
    orthant is full-dimensional and every facet normal w is >= 0.  Take J
    = supp w and the projection x -> x_J.  The face of P where w is least
    is conv(A) + cone(e_i : i not in J), A the support points where w is
    least, so its dimension is dim aff(A_J) + n - |J|, and A_J is where
    w_J is least on S_J.  It is a facet exactly when w_J > 0 is the normal
    of a compact facet of the polyhedron of S_J in R^J.  So the facets of
    P are the compact facets of the 2^n - 1 projections S_J, lifted by
    zeros (J = all coordinates gives the diagram's own), each found as
    above from the non-dominated points of S_J.  A projection containing
    the origin has the orthant R^J as its polyhedron, with no compact facet
    but x_j >= 0 for |J| = 1; it is skipped after a scan.  For a convenient
    support every proper projection contains the origin, so the facets of
    P are the compact ones and the x_j >= 0, and P is {x >= 0 : w . x >= c
    for every compact facet}.

    A point of a full-dimensional pointed polyhedron is a vertex exactly
    when the normals of the facets through it have rank n (Schrijver,
    Theory of Linear and Integer Programming, 1986, section 8.5), so one
    `echelon` of those normals decides each candidate.  A facet's vertices
    are the vertices of P on it, and the diagram vertices are all vertices
    of P.
    """
    check_dimension(s.n)
    n = s.n
    cands, found = _compact_hyperplanes(s.points)
    through = [[] for _ in cands]  # normals of the facets of P through each
    for J in all_subsets(n)[1:]:
        cols = sorted(J)
        proj = [tuple(p[j] for j in cols) for p in cands]
        if len(cols) > 1 and (0,) * len(cols) in proj:
            continue
        sub, hyperplanes = (cands, found) if len(cols) == n else _compact_hyperplanes(proj)
        for w, _, on in hyperplanes:
            lifted = [0] * n
            for j, wj in zip(cols, w):
                lifted[j] = wj
            on_pts = {sub[i] for i in on}
            for i, q in enumerate(proj):
                if q in on_pts:
                    through[i].append(lifted)
    vertex = [len(ws) >= n and len(echelon(ws)[1]) == n for ws in through]
    facets = tuple(
        Facet(tuple(cands[i] for i in on if vertex[i]), w, Fraction(c))
        for w, c, on in found
    )
    vertices = tuple(p for p, v in zip(cands, vertex) if v)
    return NewtonDiagram(n, s, facets, vertices)


@dataclass(frozen=True)
class NewtonRegion:
    """Union of simplices in the orthant; the working representation of
    regions under Newton diagrams and of the explicit polyhedra X, Y.

    All per-coordinate-subset volumes are read off the simplices' faces:
    inside the orthant a simplex meets R^I exactly in the face spanned by
    its vertices lying there, and identical faces coming from several
    simplices are counted once.
    """

    n: int
    simplices: tuple[Simplex, ...]
    source: SupportSet | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

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

    def subset_volumes(self) -> dict[frozenset[int], Fraction]:
        """Map I -> |I|! * V_|I|(X^I), for every coordinate subset I."""
        if "vols" in self._cache:
            return self._cache["vols"]
        n = self.n
        faces: dict[frozenset[int], set[tuple[Vec, ...]]] = {
            I: set() for I in all_subsets(n)
        }
        supports = {}
        for s in self.simplices:
            vert_supp = [(v, coordinate_support(v)) for v in s.vertices]
            supports[s] = vert_supp
        for I in all_subsets(n):
            want = len(I) + 1
            for s in self.simplices:
                face = tuple(v for v, sp in supports[s] if sp <= I)
                if len(face) == want:
                    faces[I].add(face)
        vols: dict[frozenset[int], Fraction] = {}
        for I in all_subsets(n):
            total = Fraction(0)
            for face in faces[I]:
                total += Simplex(face).normalized_volume()
            vols[I] = total
        self._cache["vols"] = vols
        return vols


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
    the restricted support.  For explicit regions: keep each simplex's face
    in R^I (all dimensions, so origin membership survives).
    """
    members = frozenset(I)
    order = sorted(members)
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
    faces = set()
    for s in x.simplices:
        face = s.face_in_subspace(members)
        if face:
            faces.add(tuple(tuple(v[i] for i in order) for v in face))
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


def drop_coordinates(x: NewtonRegion | Simplex, I) -> NewtonRegion | Simplex:
    """Forget the coordinates in I (they must vanish on every vertex)."""
    members = frozenset(I)
    if isinstance(x, Simplex):
        keep = [i for i in range(x.n) if i not in members]
        for v in x.vertices:
            if any(v[i] != 0 for i in members):
                raise DomainError("cannot drop a live coordinate")
        return Simplex(tuple(tuple(v[i] for i in keep) for v in x.vertices))
    sims = tuple(drop_coordinates(s, members) for s in x.simplices)
    return NewtonRegion(x.n - len(members), tuple(sorted(set(sims), key=lambda s: s.vertices)))


def is_quasi_convenient(x: NewtonRegion) -> tuple[bool, str]:
    """Sufficient proxy for the disk conditions.

    Checks: origin in X; nonzero vertex coordinates >= 1; and for every
    nonempty I the family of maximal faces in R^I is pure |I|-dimensional,
    star-shaped at the origin, and connected through shared codimension-1
    faces.  Regions built by gamma_minus pass.
    """
    if not x.contains_origin():
        return False, "origin is not in the region"
    for v in x.vertex_set:
        for c in v:
            if c != 0 and c < 1:
                return False, f"vertex {v} has a nonzero coordinate below 1"
    origin = tuple(0 for _ in range(x.n))
    for I in all_subsets(x.n):
        if not I:
            continue
        faces = set()
        for s in x.simplices:
            face = s.face_in_subspace(I)
            if face:
                faces.add(face)
        if not faces:
            return False, f"region misses the coordinate subspace {sorted(I)}"
        face_sets = {f: set(f) for f in faces}
        maximal = [
            f
            for f in faces
            if not any(g != f and face_sets[f] < face_sets[g] for g in faces)
        ]
        want = len(I) + 1
        for f in maximal:
            if len(f) != want or Simplex(f).normalized_volume() == 0:
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
