"""Fraction-free elimination against the Fraction elimination it replaced.

`linalg.echelon` is Bareiss's elimination of integer matrices: the rows
stay integers and the pivot of row k is the minor on the first k + 1 rows
and pivot columns.  The references are the earlier Fraction routines:
Gaussian elimination over Fraction, its back-substitution and the
`determinant`, `solve` and `nullspace_vector` built on them (all in
`linalg_reference`), and below the normal of
`geometry.supporting_hyperplanes` by Fraction back-substitution and
`primitive_integer_vector`, and `_barycentric_rows` from the inverse
times the pivot product.  Pivots, swap sign, rank and every derived value
must agree.  A rational matrix reaches `echelon` only on its integer grid
(`geometry._grid`), so the rational inputs here are scaled there first.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from newton_mu.geometry import Simplex, _barycentric_rows, _grid, supporting_hyperplanes
from linalg_reference import (
    determinant,
    nullspace_vector,
    primitive_integer_vector,
    rank,
    ref_back_substitute,
    ref_echelon,
    solve,
)
from newton_mu.linalg import back_substitute, echelon

# ---------------------------------------------------------------------------
# references


def ref_frame(points):
    base = points[0]
    return ref_echelon([[a - b for a, b in zip(p, base)] for p in points[1:]])


def ref_supporting_hyperplanes(points):
    d = len(points[0])
    seen = set()
    for subset in combinations(range(len(points)), d):
        base = points[subset[0]]
        rows, pivots, _ = ref_frame([points[j] for j in subset])
        if len(pivots) < d - 1:
            continue
        # d - 1 independent rows in d columns leave exactly one free column
        w = primitive_integer_vector(
            ref_back_substitute(rows, pivots, [Fraction(c not in pivots) for c in range(d)])
        )
        c = sum(wi * bi for wi, bi in zip(w, base))
        if (w, c) in seen:
            continue
        seen.add((w, c))
        side = 0
        on = []
        for i, p in enumerate(points):
            value = sum(wi * pi for wi, pi in zip(w, p)) - c
            if value == 0:
                on.append(i)
            elif side == 0:
                side = 1 if value > 0 else -1
            elif (value > 0) != (side > 0):
                break
        else:
            for sign in (side,) if side else (1, -1):
                yield tuple(sign * wi for wi in w), sign * c, tuple(on)


def ref_barycentric_rows(vertices) -> list[list] | None:
    base = vertices[0]
    n = len(base)
    rows, pivots, _ = ref_echelon(
        [[v[i] - base[i] for v in vertices[1:]] + [int(t == i) for t in range(n)] for i in range(n)]
    )
    # [edges | I] has rank n, so pivots has n entries; the edges are
    # independent iff all of them lie in the first n columns
    if pivots[-1] != n - 1:
        return None
    scale = abs(prod(rows[i][i] for i in range(n)))  # |det|; the row swaps only flip its sign
    inverse_cols = [
        ref_back_substitute([row[:n] + [row[n + k]] for row in rows], pivots, [0] * n)
        for k in range(n)
    ]
    # |det| lambda_j(p) = w_j . (p - base), w_j = |det| (inverse row j), for
    # j >= 1, and lambda_0 = 1 - (the other lambdas)
    functionals = []
    for j in range(n):
        w = [_exact(col[j] * scale) for col in inverse_cols]
        functionals.append(w + [-sum(a * b for a, b in zip(w, base))])
    functionals.insert(0, [-sum(col) for col in zip(*functionals)])
    functionals[0][n] += _exact(scale)
    return functionals


def _exact(x: Fraction):
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# inputs


def random_matrix(rng: random.Random, rows: int, cols: int, rational: bool) -> list[list]:
    """Small entries, so zeros and coincidences are common; often of low
    rank (rows combined from a few), with zero rows and zero columns."""

    def entry():
        a = rng.randint(-3, 3)
        return Fraction(a, rng.randint(1, 4)) if rational and rng.random() < 0.6 else a

    if rng.random() < 0.4 and rows > 1:
        basis = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, rows - 1))]
        matrix = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(cols)]
            for _ in range(rows)
        ]
    else:
        matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        if rows:
            matrix[rng.randrange(rows)] = [0] * cols
        if cols:
            c = rng.randrange(cols)
            for row in matrix:
                row[c] = 0
    return matrix


def seeded_matrices():
    """Every shape from 0 x 0 to 7 x 13, integer and rational."""
    rng = random.Random(20261018)
    for rows in range(8):
        for cols in range(14):
            for rational in (False, True):
                for _ in range(3):
                    yield random_matrix(rng, rows, cols, rational)


def assert_matches_reference(matrix):
    """`echelon` and `back_substitute` against the Fraction references, on
    the integer grid of the matrix."""
    matrix = [list(row) for row in _grid(matrix)[1]]
    rows, pivots, sign = echelon(matrix)
    ref_rows, ref_pivots, ref_sign = ref_echelon(matrix)
    assert (pivots, sign) == (ref_pivots, ref_sign), matrix
    assert rank(matrix) == len(pivots)
    # Bareiss invariant: row k is the Gaussian row k times the product of
    # the k pivots above it, so its pivot is the leading (k + 1)-minor
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        scale = prod(ref_rows[i][c] for i, c in enumerate(ref_pivots[:k]))
        assert row == [scale * e for e in ref_row], matrix
    assert all(type(e) is int for row in rows for e in row), matrix
    if matrix and len(matrix) == len(matrix[0]) == len(pivots):
        assert sign * rows[-1][-1] == determinant(matrix), matrix
    if not matrix:
        return
    # the last pivot D clears the denominators of a kernel vector and of a
    # solution (Cramer's rule), so the back-substitution stays in int
    cols = len(matrix[0])
    last = abs(rows[len(pivots) - 1][pivots[-1]]) if pivots else 1
    kernel = nullspace_vector(matrix)
    if kernel is not None:
        x = [0] * cols
        x[next(c for c in range(cols) if c not in pivots)] = last
        assert back_substitute(rows, pivots, x) == [last * v for v in kernel], matrix
        assert all(type(v) is int for v in x)
    rng = random.Random(repr(matrix))
    consistent = [sum(rng.randint(-2, 2) * e for e in row) for row in matrix]
    arbitrary = [rng.randint(-3, 3) for _ in matrix]
    for rhs in (consistent, arbitrary):
        reference = solve(matrix, rhs)
        rows, pivots, _ = echelon([row + [b] for row, b in zip(matrix, rhs)])
        assert (reference is None) == bool(pivots and pivots[-1] == cols), matrix
        if reference is not None:
            last = abs(rows[len(pivots) - 1][pivots[-1]]) if pivots else 1
            x = back_substitute(
                [row[:cols] + [last * row[cols]] for row in rows], pivots, [0] * cols
            )
            assert x == [last * v for v in reference], matrix


# ---------------------------------------------------------------------------
# elimination


def test_echelon_matches_reference_on_every_shape():
    kinds = {"deficient": 0, "zero row": 0, "zero column": 0}
    for matrix in seeded_matrices():
        assert_matches_reference(matrix)
        if matrix and matrix[0]:
            kinds["deficient"] += rank(matrix) < min(len(matrix), len(matrix[0]))
            kinds["zero row"] += any(not any(row) for row in matrix)
            kinds["zero column"] += any(not any(col) for col in zip(*matrix))
    assert min(kinds.values()) >= 50


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.integers(min_value=-4, max_value=4)
                | st.fractions(min_value=-3, max_value=3, max_denominator=5),
                min_size=cols,
                max_size=cols,
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_echelon_matches_reference_property(matrix):
    assert_matches_reference(matrix)


def test_determinant_is_the_last_pivot():
    # the pivots are the leading minors 2, 2 and 16; their product is 64
    matrix = [[2, 1, 0], [4, 3, 1], [0, 1, 9]]
    rows, pivots, sign = echelon(matrix)
    assert [rows[k][c] for k, c in enumerate(pivots)] == [2, 2, 16]
    assert sign * rows[-1][-1] == 16 == determinant(matrix)
    rows, _, sign = echelon([[0, 1], [3, 5]])  # one swap
    assert sign * rows[-1][-1] == -3 == determinant([[0, 1], [3, 5]])
    # a row that is 0 in the pivot column is still multiplied by the pivot
    rows, _, _ = echelon([[2, 1], [0, 3]])
    assert rows == [[2, 1], [0, 6]]
    # an exact division gives an int, an inexact one raises
    assert back_substitute([[2, 4]], [0], [0, 3]) == [-6, 3]
    assert type(back_substitute([[2, 4]], [0], [0, 3])[0]) is int
    with pytest.raises(ArithmeticError):
        back_substitute([[2, 1]], [0], [0, 1])


# ---------------------------------------------------------------------------
# geometry callers


def seeded_point_sets():
    """Points in R^d, d = 1..4, integer or rational, some sets lying on one
    hyperplane (so it is yielded in both orientations)."""
    rng = random.Random(11)
    for case in range(160):
        d = 1 + case % 4
        count = rng.randint(d, {1: 4, 2: 8, 3: 8, 4: 7}[d])
        pts = {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(count)}
        if case % 5 == 1 and d > 1:
            # on the hyperplane w . p = c with one coefficient 1
            w = [rng.randint(-2, 2) for _ in range(d - 1)]
            c = rng.randint(0, 6)
            pts = {p[:-1] + (c - sum(a * b for a, b in zip(w, p)),) for p in pts}
        if case % 3 == 2:
            den = rng.randint(2, 3)
            pts = {tuple(Fraction(x, den) for x in p) for p in pts}
        yield sorted(pts)


def test_supporting_hyperplanes_match_reference():
    coplanar = 0
    for pts in seeded_point_sets():
        got = list(supporting_hyperplanes(pts))
        assert repr(got) == repr(list(ref_supporting_hyperplanes(pts))), pts
        assert all(type(x) is int for w, _, _ in got for x in w)
        coplanar += any(len(on) == len(pts) for _, _, on in got) and len(pts) > len(pts[0])
    assert coplanar >= 10


def test_coplanar_set_yields_both_orientations_in_order():
    pts = [(0, 0, 2), (1, 0, 1), (0, 1, 3), (2, 1, 1)]  # x - y + z = 2
    assert list(supporting_hyperplanes(pts)) == [
        ((1, -1, 1), 2, (0, 1, 2, 3)),
        ((-1, 1, -1), -2, (0, 1, 2, 3)),
    ]
    assert list(supporting_hyperplanes(pts)) == list(ref_supporting_hyperplanes(pts))


def random_simplex(rng: random.Random, n: int, rational: bool):
    verts = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(n + 1)]
    if rng.random() < 0.2:
        verts[-1] = tuple(2 * a - b for a, b in zip(verts[1], verts[0]))  # collinear
    if rational:
        verts = [tuple(Fraction(x, rng.randint(1, 3)) for x in v) for v in verts]
    return verts


def test_barycentric_rows_match_reference():
    rng = random.Random(12)
    degenerate = 0
    for case in range(300):
        n = 1 + case % 5
        rational = case % 3 == 0
        verts = random_simplex(rng, n, rational)
        got = _barycentric_rows(verts)
        ref = ref_barycentric_rows(verts)
        degenerate += got is None
        if got is None:
            assert ref is None, verts
            continue
        # the rows are D = |det| of the grid edges times the weights, and
        # the grid scales the edges by L
        scale = lcm(*(Fraction(x).denominator for v in verts for x in v)) ** n
        assert got == [[scale * x for x in row] for row in ref], verts
        assert all(type(x) is int for row in got for x in row)
    assert degenerate >= 20


def test_normalized_volume_is_the_last_pivot():
    rng = random.Random(13)
    for case in range(200):
        n = 1 + case % 5
        verts = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n + 1)}
        if len(verts) < n + 1:
            continue
        s = Simplex(tuple(verts))
        base = s.vertices[0]
        edges = [[a - b for a, b in zip(v, base)] for v in s.vertices[1:]]
        value = s.normalized_volume()
        assert (type(value), value) == (Fraction, abs(determinant(edges)))
