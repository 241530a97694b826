"""Newton numbers of regions, factorization, and difference decomposition.

The Newton number of a region X in the nonnegative orthant is the
alternating sum over coordinate subsets I of |I|! V_|I|(X^I), where X^I is
the part of X inside the subspace spanned by the coordinates in I (the
empty subset contributes 1 exactly when the origin lies in X).  For a
union of simplices all sharing the same minimal "full-supporting" subset I
and the same base face in R^I, the number factors through the projection
that kills the I coordinates; both routes are computed and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ContainmentError,
    DomainError,
    FormulaMismatchError,
    InvalidRegionError,
    NotQuasiConvenientError,
)
from .geometry import Simplex, Vec
from .polyhedra import (
    NewtonRegion,
    SupportSet,
    _cell_faces,
    all_subsets,
    check_dimension,
    cone_over_visible_facets,
    is_quasi_convenient,
    newton_diagram,
    validate_region,
)


@dataclass(frozen=True)
class NewtonTerm:
    subset: frozenset[int]
    sign: int
    factorial_volume: Fraction

    @property
    def contribution(self) -> Fraction:
        return self.sign * self.factorial_volume


@dataclass(frozen=True)
class NewtonReport:
    n: int
    terms: tuple[NewtonTerm, ...]
    total: Fraction


def _alternating_terms(x: NewtonRegion, r: int = 0) -> list[tuple]:
    """(I, (-1)^(n-|I|), |I|! V(X^I)) for every coordinate subset I with
    |I| >= r, in `all_subsets` order: the one alternating sum behind the
    plain and the r-th Newton numbers.  Checks the dimension guardrail,
    then r <= n, then screens the region; a region that passed once is
    marked in its `_cache` and not screened again."""
    check_dimension(x.n)
    if r > x.n:
        raise DomainError(f"order r={r} exceeds ambient dimension {x.n}")
    if "screened" not in x._cache:
        validate_region(x)
        x._cache["screened"] = True
    vols = x.subset_volumes()
    return [(I, (-1) ** (x.n - len(I)), vols[I]) for I in all_subsets(x.n) if len(I) >= r]


def newton_number(x: NewtonRegion) -> NewtonReport:
    """Alternating-sum Newton number with one term per coordinate subset."""
    terms = tuple(NewtonTerm(*term) for term in _alternating_terms(x))
    return NewtonReport(x.n, terms, sum((t.contribution for t in terms), Fraction(0)))


def full_supporting_subsets(s: Simplex) -> list[frozenset[int]]:
    """Coordinate subsets I such that exactly |I|+1 vertices of s lie in R^I,
    in `all_subsets` order, read off the cell's face table (`_cell_faces`).

    For a nondegenerate top-dimensional simplex these are the subsets whose
    subspace meets s in a full |I|-dimensional face; they are closed under
    intersection, so a unique minimal one exists.
    """
    if s.dim != s.n or s.is_degenerate:
        raise DomainError("full-supporting subsets need a nondegenerate top-dimensional simplex")
    return [I for I, f in _cell_faces(s).items() if len(f) == len(I) + 1]


def minimal_full_supporting(s: Simplex) -> frozenset[int]:
    subs = full_supporting_subsets(s)
    smallest = frozenset(range(s.n))
    for I in subs:
        smallest &= I
    if smallest not in subs:
        raise InvalidRegionError(
            "full-supporting subsets are not intersection-closed for this simplex"
        )
    return smallest


@dataclass(frozen=True)
class FactoredResult:
    total: Fraction
    subset: frozenset[int]
    face_volume: Fraction
    projected_total: Fraction | None
    route: str


def _factored_preamble(z: NewtonRegion | Simplex, direct):
    """Checks and shared data of the two factored routes.

    Coerces z to a region that must avoid the origin and consist of
    nondegenerate top-dimensional simplices, evaluates direct(region), and
    requires one minimal full-supporting subset I and one base face in R^I
    for every piece.  Returns (region, direct report, I, |I|! V(base face),
    projected region).  The face volume is the region's subset volume at
    I, whose one face has |I| + 1 vertices.  The projected region drops
    the I coordinates of every piece and is None when |I| = n or two
    pieces or vertices collapse under the projection.
    """
    region = z if isinstance(z, NewtonRegion) else NewtonRegion(z.n, (z,))
    check_dimension(region.n)
    if region.contains_origin():
        raise DomainError("factored route needs a region avoiding the origin")
    for s in region.simplices:
        if s.dim != region.n or s.is_degenerate:
            raise DomainError("factored route needs nondegenerate top-dimensional simplices")
    report = direct(region)

    mins = {minimal_full_supporting(s) for s in region.simplices}
    if len(mins) != 1:
        raise InvalidRegionError(
            "pieces disagree on the minimal full-supporting subset: "
            + ", ".join(str(sorted(i + 1 for i in m)) for m in sorted(mins, key=sorted))
        )
    I = next(iter(mins))
    if len(region._faces()[I]) != 1:
        raise InvalidRegionError("pieces do not share one base face in the subspace")
    face_volume = region.subset_volumes()[I]

    m = region.n - len(I)
    prime = None
    if m > 0:
        keep = [i for i in range(region.n) if i not in I]
        projected = [
            Simplex(tuple({tuple(v[i] for i in keep) for v in s.vertices}))
            for s in region.simplices
        ]
        if len(set(projected)) == len(projected) and all(
            len(p.vertices) == m + 1 and not p.is_degenerate for p in projected
        ):
            prime = NewtonRegion(m, tuple(projected))
    return region, report, I, face_volume, prime


def newton_number_factored(z: NewtonRegion | Simplex) -> FactoredResult:
    """Newton number via the base-face/projection factorization.

    Every simplex must share one minimal full-supporting subset I and one
    base face in R^I; then nu(z) = |I|! V(z^I) * nu(projection of z along I).
    The direct alternating sum is always computed as well; disagreement is
    a hard error.  Inputs whose projections collapse fall back to the
    direct route (reported in the result).
    """
    region, report, I, face_volume, prime = _factored_preamble(z, newton_number)
    direct = report.total
    if len(I) == region.n:
        total, projected_total = face_volume, None
    elif prime is None:
        return FactoredResult(direct, I, face_volume, None, "direct")
    else:
        projected_total = newton_number(prime).total
        total = face_volume * projected_total
    if total != direct:
        raise FormulaMismatchError(
            "factored and direct Newton numbers disagree",
            {"factored": str(total), "direct": str(direct)},
        )
    return FactoredResult(total, I, face_volume, projected_total, "factored")


@dataclass(frozen=True)
class DecompositionPiece:
    minimal_subset: frozenset[int]
    base_face: tuple[Vec, ...]
    region: NewtonRegion
    total: Fraction


def _removal_shells(outer: SupportSet, inner: SupportSet) -> list[Simplex]:
    """Triangulated difference of the regions under two nested diagrams.

    Starting from the union support (same diagram as the inner one), the
    points missing from the outer support are removed one at a time; each
    removal frees the cone from the removed point over the strictly visible
    facets of the new diagram.  Points already absorbed contribute nothing.
    The last removal leaves the outer support itself, whose diagram is kept.
    """
    cur = set(outer.points) | set(inner.points)
    shells: list[Simplex] = []
    for apex in sorted(set(inner.points) - set(outer.points)):
        cur.remove(apex)
        if len(cur) > len(outer.points):
            shells += cone_over_visible_facets(SupportSet(outer.variables, tuple(sorted(cur))), apex)
        else:
            shells += cone_over_visible_facets(outer, apex)
    return shells


def decompose_difference(x: NewtonRegion, y: NewtonRegion) -> list[DecompositionPiece]:
    """Split X \\ Y into groups sharing one minimal subset and base face.

    Both regions must be quasi-convenient and nested (Y inside X).  For
    regions built from supports the difference is triangulated by removal
    shells; explicit regions must already share a common refinement.  The
    grouped Newton numbers must add up to nu(X) - nu(Y); any gap is a hard
    error rather than a silently wrong decomposition.
    """
    if x.n != y.n:
        raise DomainError("regions live in different ambient dimensions")
    check_dimension(x.n)
    for label, region in (("outer", x), ("inner", y)):
        ok, reason = is_quasi_convenient(region)
        if not ok:
            raise NotQuasiConvenientError(f"{label} region: {reason}")

    if x.source is not None and y.source is not None:
        # a source comes from gamma_minus, so it is convenient and its
        # Newton polyhedron is {p >= 0 : w . p >= c on every compact facet}
        facets = newton_diagram(y.source).facets
        for p in x.source.points:
            if any(sum(w * c for w, c in zip(f.inner_normal, p)) < f.offset for f in facets):
                raise ContainmentError(
                    f"outer support point {p} lies below the inner diagram;"
                    " the inner region is not contained in the outer one"
                )
        simplices = _removal_shells(x.source, y.source)
    else:
        outer, inner = set(x.simplices), set(y.simplices)
        missing = [s for s in y.simplices if s not in outer]
        if missing:
            raise ContainmentError(
                "explicit regions must share a common refinement"
                f" (inner simplex {missing[0].vertices} is not a piece of the outer region)"
            )
        simplices = [s for s in x.simplices if s not in inner]

    groups: dict[tuple, list[Simplex]] = {}
    for s in simplices:
        I = minimal_full_supporting(s)
        face = _cell_faces(s)[I]
        key = (len(I), tuple(sorted(I)), face)
        groups.setdefault(key, []).append(s)

    pieces = []
    for (size, members, face) in sorted(groups):
        region = NewtonRegion(x.n, tuple(groups[(size, members, face)]))
        total = newton_number(region).total
        pieces.append(DecompositionPiece(frozenset(members), face, region, total))

    gap = newton_number(x).total - newton_number(y).total - sum(
        (p.total for p in pieces), Fraction(0)
    )
    if gap != 0:
        raise FormulaMismatchError(
            "decomposition does not add up to the Newton-number difference",
            {"gap": str(gap)},
        )
    return pieces


@dataclass(frozen=True)
class VanishingReport:
    total: Fraction
    unit_axes: tuple[int, ...]
    necessary_consistent: bool
    sufficient_axis: int | None
    sufficient_consistent: bool
    extremal_applicable: bool
    extremal_consistent: bool | None


def vanishing_check(x: NewtonRegion, complement_convex: bool | None = None) -> VanishingReport:
    """Test the vanishing criteria for the Newton number of a region.

    Necessary: nu = 0 forces some unit vector among the vertices.
    Sufficient: a unit-vector vertex whose coordinate vanishes on every
    other vertex forces nu = 0.  When the orthant complement of the region
    is convex (always true for regions under a diagram; override with the
    flag for explicit regions) the necessary condition is two-sided.
    """
    report = newton_number(x)
    nu = report.total
    verts = x.vertex_set
    unit_axes = []
    for j in range(x.n):
        ej = tuple(1 if i == j else 0 for i in range(x.n))
        if ej in verts:
            unit_axes.append(j)
    necessary_consistent = not (nu == 0 and not unit_axes)

    sufficient_axis = None
    for j in unit_axes:
        ej = tuple(1 if i == j else 0 for i in range(x.n))
        if all(v[j] == 0 for v in verts if v != ej):
            sufficient_axis = j
            break
    sufficient_consistent = sufficient_axis is None or nu == 0

    applicable = complement_convex if complement_convex is not None else x.source is not None
    extremal_consistent = ((nu == 0) == bool(unit_axes)) if applicable else None
    return VanishingReport(
        nu,
        tuple(unit_axes),
        necessary_consistent,
        sufficient_axis,
        sufficient_consistent,
        bool(applicable),
        extremal_consistent,
    )
