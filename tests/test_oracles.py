"""Independent verification routes: lattice counting, reshuffled
triangulations, and Jacobian-ideal colength."""

import math
import random
from fractions import Fraction

import pytest

from conftest import random_convenient_support
from newton_mu.errors import DomainError, StabilizationError
from newton_mu.geometry import Simplex
from newton_mu.newton import newton_number
from newton_mu.oracles import (
    Polynomial,
    ehrhart_volume,
    milnor_colength,
    shuffled_newton_number,
)
from newton_mu.polyhedra import gamma_minus, support


def poly(n, terms):
    return Polynomial(n, {tuple(k): Fraction(v) for k, v in terms.items()})


def test_polynomial_basics():
    p = poly(2, {(3, 0): 1, (0, 2): 1, (1, 1): 0})
    assert p.degree() == 3
    assert set(p.support().points) == {(3, 0), (0, 2)}  # zero term dropped
    px = p.partial(0)
    assert px.coefficients == {(2, 0): Fraction(3)}
    assert poly(2, {}).is_zero


def test_ehrhart_unit_cases():
    # segment of length 3 -> one-dimensional volume 3
    s = Simplex(((0,), (3,)))
    assert ehrhart_volume(s) == 3
    # right triangle with legs 2 and 2 -> area 2
    t = Simplex(((0, 0), (2, 0), (0, 2)))
    assert ehrhart_volume(t) == 2


def test_ehrhart_matches_triangulation():
    rng = random.Random(314)
    for _ in range(12):
        n = rng.choice([1, 2, 3])
        region = gamma_minus(random_convenient_support(rng, n, max_exp=4))
        vol = ehrhart_volume(region)
        top = region.subset_volumes()[frozenset(range(n))]
        assert vol * math.factorial(n) == top


def test_ehrhart_guardrails():
    with pytest.raises(DomainError):
        ehrhart_volume(Simplex(((0, 0, 0, 0), (1, 0, 0, 0))))
    with pytest.raises(DomainError):
        ehrhart_volume(Simplex(((Fraction(1, 2), 0), (0, 1))))


def test_shuffled_matches_canonical():
    for pts in [
        [(3, 0), (0, 2)],
        [(3, 0), (1, 1), (0, 2)],
        [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)],
    ]:
        s = support(pts)
        canon = newton_number(gamma_minus(s)).total
        for seed in range(1, 6):
            assert shuffled_newton_number(s, seed) == canon


def test_shuffled_builds_the_diagram_once(monkeypatch):
    import newton_mu.oracles as oracles
    import newton_mu.polyhedra as polyhedra

    builds = []
    real = polyhedra.newton_diagram
    # wrap every binding a call can reach, as the benchmark tracer does
    for module in (polyhedra, oracles):
        if hasattr(module, "newton_diagram"):
            monkeypatch.setattr(
                module, "newton_diagram", lambda s: builds.append(s) or real(s)
            )
    s = support([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
    for seed in range(1, 4):
        builds.clear()
        assert shuffled_newton_number(s, seed) == 11
        assert builds == [s]


def test_colength_frozen_values():
    # classical values, each recomputable by hand from the Jacobian ideal
    assert milnor_colength(poly(2, {(3, 0): 1, (0, 2): 1})) == 2
    assert milnor_colength(poly(2, {(2, 1): 1, (0, 4): 1})) == 5
    assert milnor_colength(poly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})) == 8
    assert milnor_colength(poly(1, {(5,): 1})) == 4


def test_colength_coefficients_matter():
    # x^2 + 2xy + y^2 = (x+y)^2 is not an isolated singularity even though
    # its support alone looks harmless
    degenerate = poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    with pytest.raises(StabilizationError):
        milnor_colength(degenerate)


def test_colength_nonisolated_raises():
    with pytest.raises(StabilizationError):
        milnor_colength(poly(2, {(2, 1): 1}))


def test_colength_guardrails():
    with pytest.raises(DomainError):
        milnor_colength(poly(4, {(2, 0, 0, 0): 1}))
    with pytest.raises(DomainError):
        milnor_colength(poly(2, {(9, 0): 1, (0, 2): 1}))
    with pytest.raises(DomainError):
        milnor_colength(poly(2, {(0, 0): 3}))
