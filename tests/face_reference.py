"""Per-function face loops that `NewtonRegion._faces` and
`polyhedra._cell_faces` replaced.

Each routine below collected the faces X^I of a region's cells on its own,
one 2^n subsets x cells pass per call, and the axis screen tested every
axis-simplex vertex against every cell with `contains_point`.  The
full-supporting loop, the grouping of `decompose_difference` and the
factored projection `drop_coordinates(project(s, I), I)` asked each cell
for its face in R^I again, and volumes were read off a `Simplex` per face.
They are kept verbatim, with the removed `Simplex.face_in_subspace` rule
written inline, as references for the tests that compare the package's
face tables against them.
"""

from __future__ import annotations

from fractions import Fraction

from newton_mu.errors import ContainmentError, DomainError, InvalidRegionError
from newton_mu.geometry import Simplex, Vec, coordinate_support
from newton_mu.polyhedra import NewtonRegion, all_subsets, project


def subset_volumes(x: NewtonRegion) -> dict[frozenset[int], Fraction]:
    """Map I -> |I|! * V_|I|(X^I), for every coordinate subset I."""
    n = x.n
    faces: dict[frozenset[int], set[tuple[Vec, ...]]] = {
        I: set() for I in all_subsets(n)
    }
    supports = {}
    for s in x.simplices:
        vert_supp = [(v, coordinate_support(v)) for v in s.vertices]
        supports[s] = vert_supp
    for I in all_subsets(n):
        want = len(I) + 1
        for s in x.simplices:
            face = tuple(v for v, sp in supports[s] if sp <= I)
            if len(face) == want:
                faces[I].add(face)
    vols: dict[frozenset[int], Fraction] = {}
    for I in all_subsets(n):
        total = Fraction(0)
        for face in faces[I]:
            total += Simplex(face).normalized_volume()
        vols[I] = total
    return vols


def is_quasi_convenient(x: NewtonRegion) -> tuple[bool, str]:
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
            face = tuple(v for v in s.vertices if coordinate_support(v) <= I)
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


def check_axis_simplex_inside(x: NewtonRegion, avec) -> None:
    """The explicit branch: quasi-convenience, then every axis vertex
    against every cell."""
    ok, reason = is_quasi_convenient(x)
    if not ok:
        raise ContainmentError(f"explicit region is not quasi-convenient: {reason}")
    for i, ai in enumerate(avec):
        vertex = tuple(ai if j == i else Fraction(0) for j in range(x.n))
        if not x.contains_point(vertex):
            raise ContainmentError(
                f"axis-simplex vertex {tuple(str(c) for c in vertex)} lies outside the region"
            )


def restrict(x: NewtonRegion, I) -> NewtonRegion:
    """The explicit-region branch of `restrict` for a nonempty subset."""
    members = frozenset(I)
    order = sorted(members)
    faces = set()
    for s in x.simplices:
        face = tuple(v for v in s.vertices if coordinate_support(v) <= members)
        if face:
            faces.add(tuple(tuple(v[i] for i in order) for v in face))
    if not faces:
        raise DomainError("region does not meet the requested coordinate subspace")
    return NewtonRegion(len(order), tuple(Simplex(f) for f in sorted(faces)))


def full_supporting_subsets(s: Simplex) -> list[frozenset[int]]:
    if s.dim != s.n or s.is_degenerate:
        raise DomainError("full-supporting subsets need a nondegenerate top-dimensional simplex")
    out = []
    for I in all_subsets(s.n):
        if len(tuple(v for v in s.vertices if coordinate_support(v) <= I)) == len(I) + 1:
            out.append(I)
    return out


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


def decomposition_groups(simplices) -> list[tuple]:
    """(minimal subset, base face, cells) per group of `decompose_difference`,
    in its order."""
    groups: dict[tuple, list[Simplex]] = {}
    for s in simplices:
        I = minimal_full_supporting(s)
        face = tuple(v for v in s.vertices if coordinate_support(v) <= I)
        key = (len(I), tuple(sorted(I)), face)
        groups.setdefault(key, []).append(s)
    return [
        (frozenset(members), face, groups[(size, members, face)])
        for (size, members, face) in sorted(groups)
    ]


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


def factored_parts(region: NewtonRegion, I) -> tuple:
    """(|I|! V(base face), projected region or None) as the factored
    preamble read them, for a region whose pieces share the minimal
    subset I and one base face."""
    faces = region._faces()[I]
    face_volume = Simplex(next(iter(faces))).normalized_volume()
    m = region.n - len(I)
    prime = None
    if m > 0:
        projected = [drop_coordinates(project(s, I), I) for s in region.simplices]
        if len(set(projected)) == len(projected) and all(
            len(p.vertices) == m + 1 and not p.is_degenerate for p in projected
        ):
            prime = NewtonRegion(m, tuple(projected))
    return face_volume, prime
