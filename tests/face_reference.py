"""Per-function face loops that `NewtonRegion._faces` replaced.

Each routine below collected the faces X^I of a region's cells on its own,
one 2^n subsets x cells pass per call, and the axis screen tested every
axis-simplex vertex against every cell with `contains_point`.  They are
kept verbatim as references for the tests that compare the package's
face table against them.
"""

from __future__ import annotations

from fractions import Fraction

from newton_mu.errors import ContainmentError, DomainError
from newton_mu.geometry import Simplex, Vec, coordinate_support
from newton_mu.polyhedra import NewtonRegion, all_subsets


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
        face = s.face_in_subspace(members)
        if face:
            faces.add(tuple(tuple(v[i] for i in order) for v in face))
    if not faces:
        raise DomainError("region does not meet the requested coordinate subspace")
    return NewtonRegion(len(order), tuple(Simplex(f) for f in sorted(faces)))
