"""Exact convex geometry primitives."""

from fractions import Fraction

import pytest

from newton_mu.errors import InvalidRegionError
from newton_mu.geometry import (
    Simplex,
    affine_dim,
    coordinate_support,
    is_origin,
    polytope_facets,
    pull_triangulate,
    simplex_volume,
)


def test_vector_helpers():
    assert coordinate_support((0, 2, 0, 1)) == frozenset({1, 3})
    assert is_origin((0, 0))
    assert not is_origin((0, 1))


def test_simplex_sorts_and_validates():
    s = Simplex(((1, 0), (0, 1), (0, 0)))
    assert s.vertices == ((0, 0), (0, 1), (1, 0))
    assert s.n == 2 and s.dim == 2
    with pytest.raises(InvalidRegionError):
        Simplex(((0, 0), (0, 0)))
    with pytest.raises(InvalidRegionError):
        Simplex(((-1, 0), (0, 1)))
    with pytest.raises(InvalidRegionError):
        Simplex(((0, 0), (0, 1, 2)))


def test_unit_simplex_volume():
    # volume of the standard corner simplex is 1/n!
    for n, expect in [(1, Fraction(1)), (2, Fraction(1, 2)), (3, Fraction(1, 6))]:
        verts = [(0,) * n] + [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        assert simplex_volume(Simplex(tuple(verts))) == expect


def test_volume_frozen_triangle():
    # area of the triangle (1,0),(3,0),(0,2): half base 2 times height 2
    s = Simplex(((1, 0), (3, 0), (0, 2)))
    assert simplex_volume(s) == 2
    assert s.normalized_volume() == 4


def test_degenerate_simplex():
    s = Simplex(((0, 0), (1, 1), (2, 2)))
    assert s.is_degenerate
    assert simplex_volume(s) == 0
    flat = Simplex(((0, 0), (2, 2)))
    assert flat.dim == 1 and not flat.is_degenerate


def test_contains_point():
    s = Simplex(((0, 0), (4, 0), (0, 4)))
    assert s.contains_point((1, 1))
    assert s.contains_point((0, 0))
    assert s.contains_point((2, 2))  # boundary
    assert not s.contains_point((3, 3))


def test_affine_dim():
    assert affine_dim([(1, 1)]) == 0
    assert affine_dim([(0, 0), (2, 2)]) == 1
    assert affine_dim([(0, 0), (1, 0), (0, 1)]) == 2


def test_polytope_facets_square():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    facets = polytope_facets(square)
    edges = {tuple(sorted(square[i] for i in f)) for f in facets}
    assert edges == {
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    }


def test_pull_triangulation_covers_square():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    cells = pull_triangulate(square)
    total = sum(simplex_volume(Simplex(c)) for c in cells)
    assert total == 1
    # a different pulling order changes cells but never the covered volume
    reordered = pull_triangulate(square, order_key=lambda v: tuple(-c for c in v))
    total2 = sum(simplex_volume(Simplex(c)) for c in reordered)
    assert total2 == 1
