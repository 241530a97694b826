"""Higher-order Newton numbers and their factorization identities."""

import random
from fractions import Fraction

import pytest

from conftest import fan_union, forced_minimal_simplex, random_convenient_support
from newton_mu.coefficients import elementary_symmetric, f_coeff
from newton_mu.errors import DomainError
from newton_mu.higher import (
    DegreeTuple,
    axis_simplex_r_newton,
    degree_tuple,
    r_bound,
    r_newton_factored,
    r_newton_number,
    sciv_milnor_bound,
)
from newton_mu.newton import newton_number
from newton_mu.polyhedra import axis_simplex_region, gamma_minus, support


def closed_form(r, d, a):
    """Independent route for the axis simplex: the alternating weighted sum
    of elementary symmetric functions of the intercepts."""
    n = len(a)
    total = Fraction(0)
    for s in range(r, n + 1):
        total += (-1) ** (n - s) * f_coeff(s, r, d) * elementary_symmetric(s, a)
    return total + (-1) ** (n - r + 1)


def test_degree_tuple_validation():
    dt = degree_tuple((2, 3))
    assert dt.r == 2 and dt.d == (2, 3)
    with pytest.raises(DomainError):
        DegreeTuple(0, ())
    with pytest.raises(DomainError):
        DegreeTuple(2, (1,))
    with pytest.raises(DomainError):
        DegreeTuple(2, (1, 0))


def test_order_one_degree_one_recovers_newton_number():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        region = gamma_minus(random_convenient_support(rng, n))
        assert (
            r_newton_number(region, DegreeTuple(1, (1,))).total
            == newton_number(region).total
        )


def test_r_newton_frozen_axis_case():
    # Y_(2,2) with r = 2, d = (1,1): F(2,2,(1,1)) * 2! * area - 1 = 4 - 1...
    # frozen via the closed form: sigma_2(2,2) * 1 - 1 = 3... computed: 3
    region = axis_simplex_region((2, 2))
    value = r_newton_number(region, DegreeTuple(2, (1, 1))).total
    assert value == closed_form(2, (1, 1), (Fraction(2), Fraction(2)))
    assert value == 3


def test_r_newton_epsilon_depends_on_origin():
    dt = DegreeTuple(2, (1, 2))
    with_origin = axis_simplex_region((3, 2))
    report = r_newton_number(with_origin, dt)
    assert report.epsilon == 1
    assert report.epsilon_term == (-1) ** (2 - 2 + 1)


def test_r_exceeding_dimension_rejected():
    region = axis_simplex_region((2, 2))
    with pytest.raises(DomainError):
        r_newton_number(region, DegreeTuple(3, (1, 1, 1)))


def test_axis_closed_form_matches_direct_sweep():
    rng = random.Random(5150)
    for n in range(1, 5):
        for r in range(1, n + 1):
            for _ in range(6):
                d = tuple(rng.randint(1, 3) for _ in range(r))
                a = tuple(Fraction(rng.randint(1, 5)) for _ in range(n))
                direct = r_newton_number(
                    axis_simplex_region(a), DegreeTuple(r, d)
                ).total
                cf = axis_simplex_r_newton(DegreeTuple(r, d), a)
                assert cf == direct == closed_form(r, d, a)


def test_factored_on_forced_minimal_simplices():
    rng = random.Random(77)
    seen_branches = set()
    for _ in range(30):
        n = rng.choice([4, 5])
        size = rng.randint(1, n - 1)
        region = forced_minimal_simplex(rng, n, size)
        r = rng.choice([2, 3])
        d = tuple(rng.randint(1, 3) for _ in range(r))
        fac = r_newton_factored(region, DegreeTuple(r, d))
        direct = r_newton_number(region, DegreeTuple(r, d)).total
        assert fac.total == direct
        seen_branches.add(fac.branch)
    assert len(seen_branches) >= 2


def test_factored_on_fan_unions():
    rng = random.Random(78)
    for _ in range(10):
        n = rng.choice([4, 5])
        region = fan_union(rng, n, n - 2)
        r = rng.choice([2, 3])
        d = tuple(rng.randint(1, 3) for _ in range(r))
        fac = r_newton_factored(region, DegreeTuple(r, d))
        assert fac.route == "factored"
        assert fac.total == r_newton_number(region, DegreeTuple(r, d)).total


def test_r_bound_certificate():
    region = axis_simplex_region((3, 2))
    cert = r_bound(region, DegreeTuple(2, (1, 1)), (3, 2))
    assert cert.r == 2 and cert.d == (1, 1)
    assert cert.nu_value >= cert.bound >= 0
    assert cert.verdict is True


def test_sciv_bound_convenient_support():
    s = support([(3, 0), (0, 2)])
    cert = sciv_milnor_bound(s, DegreeTuple(1, (1,)), (3, 2))
    assert cert.bound == 2
    assert cert.nu_value == 2
    assert cert.verdict is True
    assert cert.modification_m is None


def test_sciv_bound_stabilizes():
    s = support([(2, 1), (0, 4)])
    cert = sciv_milnor_bound(s, DegreeTuple(1, (1,)), (Fraction(8, 3), 4))
    assert cert.modification_m is not None
    assert cert.nu_value == 5
    assert cert.bound == 5
    assert cert.verdict is True


def test_factored_route_screens_the_region_once(monkeypatch):
    import newton_mu.newton as newton_module

    screened = []
    screen = newton_module.validate_region
    monkeypatch.setattr(
        newton_module, "validate_region", lambda x: (screened.append(x), screen(x))[1]
    )
    rng = random.Random(7)
    region = fan_union(rng, 4, 2)
    for d in ((2,), (1, 2), (2, 1, 1)):
        screened.clear()
        r_newton_factored(region, degree_tuple(d))
        assert sum(x is region for x in screened) == 1
