"""Cross-checks of the headline quantities.

Volumes are recomputed by lattice-point counting and a finite difference,
and Milnor numbers by exact linear algebra on truncated Jacobian ideals;
both avoid the diagram and triangulation code.  The counting oracle tests
lattice points with the barycentric rows of `geometry._barycentric_rows`,
the same helper that `polyhedra.validate_region` screens overlaps with,
so a fault in that helper or in its elimination can reach both sides of a
comparison.  The shuffled-order oracle reuses the diagram and pulling
code with a different vertex order, so it checks only that the Newton
number does not depend on the pulling order, not that the diagram is
right.  The colength oracle eliminates with its own sparse routine
(`_sparse_rank`), not with `linalg.echelon`, so the check nu = mu keeps a
route that shares no elimination code with the volumes.  All are
deliberately slow and kept to small inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from math import comb, factorial

from .errors import DomainError, StabilizationError
from .geometry import Simplex, _barycentric_rows, _covers, _grid
from .newton import newton_number
from .polyhedra import NewtonRegion, SupportSet, gamma_minus

ORACLE_MAX_DIMENSION = 3
ORACLE_MAX_DEGREE = 8
COLENGTH_MAX_ORDER = 24


@dataclass
class Polynomial:
    """Finite exponent->coefficient map; just enough algebra for oracles."""

    n: int
    coefficients: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for exps, coeff in self.coefficients.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[exps] = coeff
        self.coefficients = clean

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.coefficients)

    def partial(self, i: int) -> "Polynomial":
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.coefficients.items():
            if exps[i] == 0:
                continue
            lowered = tuple(e - 1 if j == i else e for j, e in enumerate(exps))
            out[lowered] = coeff * exps[i]
        return Polynomial(self.n, out)

    def support(self, variables: tuple[str, ...] | None = None) -> SupportSet:
        if self.is_zero:
            raise DomainError("the zero series has no support")
        if variables is None:
            from .polyhedra import default_variables

            variables = default_variables(self.n)
        return SupportSet(variables, tuple(self.coefficients))


def ehrhart_volume(x: NewtonRegion | Simplex) -> Fraction:
    """Top-degree coefficient of the lattice-point counting polynomial.

    Counts lattice points of the dilates k = 1..n+1 of the region and
    reads the leading coefficient of the degree-n counting polynomial, which
    equals the Euclidean volume, as the n-th forward difference of the
    counts over n!.  Only for small dimensions; counting is exponential.
    """
    region = x if isinstance(x, NewtonRegion) else NewtonRegion(x.n, (x,))
    n = region.n
    if n > ORACLE_MAX_DIMENSION:
        raise DomainError(
            f"lattice counting is capped at dimension {ORACLE_MAX_DIMENSION}"
        )
    if n < 1:
        raise DomainError("lattice counting needs dimension at least 1")
    if any(_grid(s.vertices)[0] != 1 for s in region.simplices):
        raise DomainError("lattice counting needs integer vertices")

    # p lies in the k-th dilate of a cell iff p / k lies in the cell, so the
    # barycentric rows of the undilated cells serve every dilate
    fast = []
    slow = []
    for s in region.simplices:
        rows = _barycentric_rows(s.vertices) if s.dim == n else None
        if rows is None:
            slow.append(s)
        else:
            fast.append(rows)
    box = [max(int(v[i]) for s in region.simplices for v in s.vertices) for i in range(n)]
    counts = []
    for k in range(1, n + 2):
        dilated = [
            Simplex(tuple(tuple(int(c) * k for c in v) for v in s.vertices))
            for s in slow
        ]
        count = 0
        for point in iter_product(*(range(b * k + 1) for b in box)):
            if any(_covers(rows, point, k) for rows in fast) or any(
                s.contains_point(point) for s in dilated
            ):
                count += 1
        counts.append(count)

    # the n-th forward difference of a degree-n polynomial is its leading
    # coefficient times n!
    top = sum((-1) ** (n - i) * comb(n, i) * count for i, count in enumerate(counts))
    return Fraction(top, factorial(n))


def shuffled_newton_number(s: SupportSet, seed: int) -> Fraction:
    """Newton number recomputed with a seeded random triangulation order.

    The pulling order is a shuffle of the support points instead of the
    lexicographic default; the resulting triangulation differs but the
    number may not.  The support points include every diagram vertex, and
    a uniform shuffle of them orders the vertices uniformly, so only
    gamma_minus builds the diagram.
    """
    rng = random.Random(seed)
    shuffled = list(s.points)
    rng.shuffle(shuffled)
    order = {v: i for i, v in enumerate(shuffled)}
    region = gamma_minus(s, vertex_order=order)
    return newton_number(region).total


def _monomials_below(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for exps in iter_product(*(range(degree) for _ in range(n))):
        if sum(exps) < degree:
            out.append(exps)
    return sorted(out)


def _sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of sparsely stored rows by incremental elimination.

    Each row is a column->value dict; keeping one pivot row per leading
    column makes the reduction cost scale with the number of nonzero
    entries instead of the full matrix size.  This is the colength
    oracle's own elimination, deliberately independent of
    `linalg.echelon`: it stays sparse and in Fraction, so a fault in the
    dense fraction-free elimination behind every volume and normal cannot
    reach both sides of the nu = mu check.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    count = 0
    for row in rows:
        current = dict(row)
        while current:
            lead = min(current)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = current[lead]
                pivots[lead] = {c: v / scale for c, v in current.items()}
                count += 1
                break
            factor = current[lead]
            for c, v in pivot.items():
                updated = current.get(c, Fraction(0)) - factor * v
                if updated:
                    current[c] = updated
                elif c in current:
                    del current[c]
    return count


def milnor_colength(p: Polynomial) -> int:
    """Milnor number as the colength of the Jacobian ideal.

    For truncation order N, the dimension of the quotient of polynomials
    of degree < N by the truncated span of all monomial multiples of the
    partial derivatives is computed by exact rank.  That dimension is
    c_N = dim O/(J + m^N), with J the Jacobian ideal and m the maximal
    ideal of the local ring O, and the first repeat is final: c_N = c_{N+1}
    means the surjection O/(J + m^{N+1}) -> O/(J + m^N) has zero kernel, so
    m^N lies in J + m^{N+1} = J + m * m^N, and Nakayama's lemma gives
    m^N inside J.  Then c_M = c_N = dim O/J, the Milnor number, for every
    M >= N.  Hitting the order cap without a repeat suggests a
    non-isolated critical point.
    """
    if p.n > ORACLE_MAX_DIMENSION:
        raise DomainError(
            f"colength computation is capped at dimension {ORACLE_MAX_DIMENSION}"
        )
    if p.degree() > ORACLE_MAX_DEGREE:
        raise DomainError(
            f"colength computation is capped at degree {ORACLE_MAX_DEGREE}"
        )
    partials = [p.partial(i) for i in range(p.n)]
    if all(g.is_zero for g in partials):
        raise DomainError("all partial derivatives vanish identically")

    previous = None
    for order in range(2, COLENGTH_MAX_ORDER + 1):
        monomials = _monomials_below(p.n, order)
        index = {mono: i for i, mono in enumerate(monomials)}
        rows: list[dict[int, Fraction]] = []
        for g in partials:
            if g.is_zero:
                continue
            for alpha in monomials:
                row: dict[int, Fraction] = {}
                for exps, coeff in g.coefficients.items():
                    shifted = tuple(a + e for a, e in zip(alpha, exps))
                    if sum(shifted) < order:
                        col = index[shifted]
                        updated = row.get(col, Fraction(0)) + coeff
                        if updated:
                            row[col] = updated
                        elif col in row:
                            del row[col]
                if row:
                    rows.append(row)
        colength = len(monomials) - _sparse_rank(rows)
        if colength == previous:
            return colength
        previous = colength
    raise StabilizationError(
        f"colength still moving at truncation order {COLENGTH_MAX_ORDER};"
        " the critical point may not be isolated"
    )
