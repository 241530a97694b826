"""Exact linear-algebra references in their own Fraction arithmetic.

`ref_echelon` is Gaussian elimination over Fraction and
`ref_back_substitute` its back-substitution: the package's elimination
before it became Bareiss's, kept verbatim but for the names.  The
`determinant`, `rank`, `solve` and `nullspace_vector` built on them are
the earlier derived routines.  None of them calls `newton_mu.linalg`, so
a test that compares the package against them shares no elimination with
what it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def ref_echelon(matrix) -> tuple[list[list[Fraction]], list[int], int]:
    """Row echelon form by forward elimination, pivoting on the first row
    with a nonzero entry in each column.

    Returns (rows, pivot columns, sign of the row permutation).  Row i has
    its leading entry in column pivots[i]; rows past len(pivots) are zero.
    """
    rows = [[Fraction(entry) for entry in row] for row in matrix]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    for col in range(width):
        rk = len(pivots)
        if rk == len(rows):
            break
        pivot_row = next((r for r in range(rk, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != rk:
            rows[rk], rows[pivot_row] = rows[pivot_row], rows[rk]
            sign = -sign
        pivot = rows[rk][col]
        for r in range(rk + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pivot
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rk])]
        pivots.append(col)
    return rows, pivots, sign


def ref_back_substitute(rows, pivots, x: list) -> list:
    """Fill the pivot entries of x, bottom row first, so that every echelon
    row holds as row[:len(x)] . x = row[len(x)] (0 when the row has no
    augmented entry).  The other entries of x are the free variables and
    are read as given."""
    width = len(x)
    for row, col in reversed(list(zip(rows, pivots))):
        rhs = row[width] if len(row) > width else 0
        x[col] = (rhs - sum(row[j] * x[j] for j in range(col + 1, width))) / row[col]
    return x


def determinant(matrix) -> Fraction:
    """Exact determinant of a square matrix of rationals."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("determinant requires a square matrix")
    rows, pivots, sign = ref_echelon(matrix)
    if len(pivots) < size:
        return Fraction(0)
    det = Fraction(sign)
    for i in range(size):
        det *= rows[i][i]
    return det


def rank(matrix) -> int:
    """Row rank over the rationals."""
    return len(ref_echelon(matrix)[1])


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
    rows, pivots, _ = ref_echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == cols:
        return None
    return ref_back_substitute(rows, pivots, [Fraction(0)] * cols)


def nullspace_vector(matrix) -> list[Fraction] | None:
    """One nonzero kernel vector of A, or None when A has full column rank.

    The first free coordinate is 1 and the other free coordinates are 0.
    """
    if not matrix:
        return None
    cols = len(matrix[0])
    rows, pivots, _ = ref_echelon(matrix)
    free = next((c for c in range(cols) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * cols
    x[free] = Fraction(1)
    return ref_back_substitute(rows, pivots, x)


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers (sign preserved)."""
    fracs = [Fraction(v) for v in vec]
    if all(v == 0 for v in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = lcm(*[v.denominator for v in fracs])
    ints = [int(v * denom) for v in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
