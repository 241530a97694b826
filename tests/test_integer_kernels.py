"""Every elimination runs on integers.

`geometry._grid` is the one place where denominators are cleared: it
scales a point set by the lcm L of its denominators.  So `linalg.echelon`
receives int entries also while rational simplices, axis-simplex regions
with rational intercepts and regions with rational vertices are computed.
The bindings of `echelon` in every module that imports it are wrapped, as
in `test_hull_kernel`, and each call's entries are checked.
"""

import importlib
import pkgutil
import random
from fractions import Fraction

import newton_mu
import newton_mu.linalg as linalg
from newton_mu.bounds import bound_simplex
from newton_mu.cli import run
from newton_mu.errors import InvalidRegionError
from newton_mu.geometry import (
    Simplex,
    affine_dim,
    polytope_facets,
    pull_triangulate,
    supporting_hyperplanes,
)
from newton_mu.higher import DegreeTuple, r_bound, r_newton_number
from newton_mu.newton import newton_number
from newton_mu.polyhedra import axis_simplex_region, validate_region
from test_validation import random_region


def record_eliminations(monkeypatch) -> list:
    """Every matrix passed to `echelon`, from any module's binding."""
    matrices = []
    modules = [
        importlib.import_module(f"newton_mu.{info.name}")
        for info in pkgutil.iter_modules(newton_mu.__path__)
    ]
    real = linalg.echelon
    bound = [m for m in modules if m is not linalg and getattr(m, "echelon", None) is real]
    assert {m.__name__ for m in bound} == {"newton_mu.geometry", "newton_mu.polyhedra"}
    for module in bound:
        monkeypatch.setattr(
            module, "echelon", lambda m: matrices.append([list(r) for r in m]) or real(m)
        )
    return matrices


def test_grid_clears_denominators_once():
    from newton_mu.geometry import _grid

    points = [(0, 3), (1, 2)]
    assert _grid(points) == (1, points) and _grid(points)[1] is points
    assert _grid([(Fraction(1, 2), 0), (0, Fraction(2, 3))]) == (6, [(3, 0), (0, 4)])
    scale, grid = _grid([(Fraction(2), Fraction(0))])
    assert (scale, grid) == (1, [(2, 0)]) and all(type(x) is int for x in grid[0])


def test_every_elimination_receives_ints(monkeypatch):
    matrices = record_eliminations(monkeypatch)
    rng = random.Random(31)
    half, third = Fraction(1, 2), Fraction(1, 3)
    # rational simplices and point sets
    for _ in range(40):
        n = rng.randint(1, 4)
        verts = {
            tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n + 1)
        }
        s = Simplex(tuple(verts))
        s.is_degenerate
        if len(verts) == n + 1:
            s.normalized_volume()
        s.contains_point(tuple(x / 2 for x in s.vertices[0]))
        affine_dim(s.vertices)
        polytope_facets(s.vertices)
        pull_triangulate(s.vertices)
        list(supporting_hyperplanes(list(s.vertices)))
    assert Simplex(((0, 0), (half, 0), (0, third))).normalized_volume() == Fraction(1, 6)
    # axis-simplex regions with rational intercepts
    a = (Fraction(8, 3), 4, Fraction(5, 2))
    region = axis_simplex_region(a)
    assert newton_number(region).total == Fraction(15, 2)  # prod(a_i - 1)
    r_newton_number(region, DegreeTuple(2, (1, 2)))
    bound_simplex(region, a)
    r_bound(region, DegreeTuple(2, (1, 1)), a)
    code, _ = run(["bound", "--poly", "x^2*y + y^4", "--a", "8/3,4", "--with-oracles"])
    assert code == 0
    # regions with rational vertices, screened
    for n in (2, 3, 4):
        for _ in range(4):
            try:
                validate_region(random_region(rng, n, False, True))
            except InvalidRegionError:
                pass
    assert len(matrices) > 500
    assert all(type(x) is int for m in matrices for row in m for x in row)
