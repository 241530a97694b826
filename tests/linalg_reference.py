"""Exact linear-algebra references built on `linalg.echelon`.

The package reads rank, charts, volumes, normals and the Ehrhart leading
coefficient off `echelon` and `back_substitute` directly.  These routines
are the earlier derived ones, kept verbatim for the tests that freeze
their values and compare the package against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from newton_mu.linalg import back_substitute, echelon


def determinant(matrix) -> Fraction:
    """Exact determinant of a square matrix of rationals: the sign of the
    row swaps times the last Bareiss pivot."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("determinant requires a square matrix")
    if not size:
        return Fraction(1)
    rows, pivots, sign = echelon(matrix)
    if len(pivots) < size:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1])


def rank(matrix) -> int:
    """Row rank over the rationals."""
    return len(echelon(matrix)[1])


def solve(matrix, rhs) -> list[Fraction] | None:
    """Solve A x = b exactly.

    Accepts rectangular A; returns one solution (free variables pinned to 0)
    or None when inconsistent.
    """
    if len(matrix) != len(rhs):
        raise ValueError("rhs length mismatch")
    if not matrix:
        return []
    cols = len(matrix[0])
    rows, pivots, _ = echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == cols:
        return None
    return [Fraction(v) for v in back_substitute(rows, pivots, [0] * cols)]


def nullspace_vector(matrix) -> list[Fraction] | None:
    """One nonzero kernel vector of A, or None when A has full column rank.

    The first free coordinate is 1 and the other free coordinates are 0.
    """
    if not matrix:
        return None
    cols = len(matrix[0])
    rows, pivots, _ = echelon(matrix)
    free = next((c for c in range(cols) if c not in pivots), None)
    if free is None:
        return None
    x = [0] * cols
    x[free] = 1
    return [Fraction(v) for v in back_substitute(rows, pivots, x)]


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers (sign preserved)."""
    fracs = [Fraction(v) for v in vec]
    if all(v == 0 for v in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = lcm(*[v.denominator for v in fracs])
    ints = [int(v * denom) for v in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
