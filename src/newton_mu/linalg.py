"""Exact linear algebra over the integers: fraction-free elimination.

Matrices are lists of row lists of ints.  There are two routines: one
forward elimination (`echelon`) and, where a solution is wanted, one
back-substitution (`back_substitute`).  Rows are neither normalized nor
reduced upward, because most callers only need the rank, a minor or a
kernel vector.  Rational points reach them only through the integer grid
of `geometry._grid`, so every entry here is an int.

`echelon` is Bareiss's fraction-free elimination (Math. Comp. 22, 1968).
Each step replaces every row below the pivot row by
(pivot * row - row[col] * pivot row) / (previous pivot), the previous
pivot being 1 at the first step.  By Sylvester's determinant identity
every entry of the result is a minor of the row-permuted input: after k
steps, the entry in row r and column j is the (k+1) x (k+1) minor on the
first k rows and row r and on the first k pivot columns and column j.  A
minor of an integer matrix is an integer, so each division is exact and
the rows stay integers, with no gcd.  The invariant holds only if every
row below the pivot is updated, also a row whose entry in the pivot
column is already 0.  In particular the pivot of the k-th row is the
k x k minor on the first k rows and pivot columns, so a determinant is
the sign of the row swaps times the last pivot, not the product of the
pivots.
"""

from __future__ import annotations


def echelon(matrix) -> tuple[list[list[int]], list[int], int]:
    """Row echelon form of an integer matrix by Bareiss elimination,
    pivoting on the first row with a nonzero entry in each column.

    Returns (rows, pivot columns, sign of the row permutation).  Row i has
    its leading entry in column pivots[i]; rows past len(pivots) are zero.
    The leading entry of row k is the minor on rows 0..k and columns
    pivots[:k + 1] of the row-permuted input.  Every entry must be an int:
    the divisions are floor divisions, exact only because they divide
    minors of an integer matrix.
    """
    rows = [list(row) for row in matrix]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    previous = 1
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
        top = rows[rk]
        pivot = top[col]
        # every row below, also one with a 0 in this column, or the next
        # division would no longer be exact
        for r in range(rk + 1, len(rows)):
            row = rows[r]
            factor = row[col]
            rows[r] = [(pivot * a - factor * b) // previous for a, b in zip(row, top)]
        previous = pivot
        pivots.append(col)
    return rows, pivots, sign


def back_substitute(rows, pivots, x: list) -> list:
    """Fill the pivot entries of x, bottom row first, so that every echelon
    row holds as row[:len(x)] . x = row[len(x)] (0 when the row has no
    augmented entry).  The other entries of x are the free variables and
    are read as given.

    Every quotient must be an int, else ArithmeticError.  With integer
    rows, setting the one free variable of a kernel to the last pivot, or
    scaling the right side of a square system by it, makes the solution
    integral (Cramer's rule), so every division is exact.
    """
    width = len(x)
    for row, col in reversed(list(zip(rows, pivots))):
        rhs = row[width] if len(row) > width else 0
        numerator = rhs - sum(row[j] * x[j] for j in range(col + 1, width))
        quotient, remainder = divmod(numerator, row[col])
        if remainder:
            raise ArithmeticError(f"{numerator} / {row[col]} is not an integer")
        x[col] = quotient
    return x
