"""Exact linear algebra over Fraction.

Matrices are lists of row lists.  Every routine here is one forward
Gaussian elimination (`echelon`) followed, where a solution is wanted, by
one back-substitution (`back_substitute`).  Pivots are exact; rows are
neither normalized nor reduced upward, because most callers only need the
rank or the pivot product.  Sizes stay tiny (ambient dimension <= 6, the
oracles' dense systems at most 4 x 4), so no fraction-free tricks are
needed.

`determinant`, `rank` and `nullspace_vector` no longer have a caller in the
package: `geometry` reads dimension, charts and volumes off one `echelon`.
They are kept as the independent references that the tests freeze and
compare against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def echelon(matrix) -> tuple[list[list[Fraction]], list[int], int]:
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


def back_substitute(rows, pivots, x: list) -> list:
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
    rows, pivots, sign = echelon(matrix)
    if len(pivots) < size:
        return Fraction(0)
    det = Fraction(sign)
    for i in range(size):
        det *= rows[i][i]
    return det


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
    return back_substitute(rows, pivots, [Fraction(0)] * cols)


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
    x = [Fraction(0)] * cols
    x[free] = Fraction(1)
    return back_substitute(rows, pivots, x)


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers (sign preserved)."""
    fracs = [Fraction(v) for v in vec]
    if all(v == 0 for v in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = lcm(*[v.denominator for v in fracs])
    ints = [int(v * denom) for v in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
