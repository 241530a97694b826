"""Higher-order Newton numbers and their factorization identities."""

import random
from fractions import Fraction
from math import prod

import pytest

from conftest import fan_union, forced_minimal_simplex, random_convenient_support
from newton_mu.cli import run
from newton_mu.coefficients import elementary_symmetric, f_coeff, g_coeff
from newton_mu.geometry import Simplex
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
from newton_mu.polyhedra import (
    NewtonRegion,
    axis_simplex_region,
    gamma_minus,
    region_from_simplices,
    support,
)


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


def count_screens(monkeypatch) -> list:
    import newton_mu.newton as newton_module

    screened = []
    screen = newton_module.validate_region
    monkeypatch.setattr(
        newton_module, "validate_region", lambda x: (screened.append(x), screen(x))[1]
    )
    return screened


def test_factored_route_screens_the_region_once(monkeypatch):
    screened = count_screens(monkeypatch)
    rng = random.Random(7)
    region = fan_union(rng, 4, 2)
    for d in ((2,), (1, 2), (2, 1, 1)):
        r_newton_factored(region, degree_tuple(d))
    # a passed screen is kept in the region's cache, so across the calls too
    assert sum(x is region for x in screened) == 1


def test_each_region_is_screened_once(monkeypatch):
    screened = count_screens(monkeypatch)
    # the region and its projection X', which each k of the sum reads
    r_newton_factored(fan_union(random.Random(7), 4, 2), degree_tuple((2, 1, 1)))
    assert (len(screened), len(set(screened))) == (2, 2)
    screened.clear()
    # outer, inner and one region per piece; nu(X) and nu(Y) are asked twice
    code, _ = run(["decompose", "--poly", "x^5+y^5+z^5", "--inner-poly", "x^3+y^3+z^3"])
    assert code == 0
    assert (len(screened), len(set(screened))) == (5, 5)


def printed_branch(r, size, m, n, d):
    """The four branch cases of the factorization as printed: the k range,
    the trailing F term and the branch label."""
    if r <= size and r <= m:
        return range(1, r + 1), 0, "r<=|I|, r<=m"
    if r <= size:
        return range(1, m + 1), f_coeff(n - m, r - m, tuple(d[m:r])), "r<=|I|, r>m"
    if r <= m:
        return range(r - size, r + 1), 0, "r>|I|, r<=m"
    return range(r - size, m + 1), f_coeff(n - m, r - m, tuple(d[m:r])), "r>|I|, r>m"


def branch_region(n, size):
    """The n-simplex 1_I + {0, e_1, ..., e_n}, 1_I the indicator of the
    first `size` axes: it avoids the origin, its minimal full-supporting
    subset is I, and its projection X' is the standard simplex of the
    other m = n - size axes."""
    ones = tuple(int(i < size) for i in range(n))
    steps = [tuple(x + (i == j) for i, x in enumerate(ones)) for j in range(n)]
    return region_from_simplices([Simplex((ones, *steps))])


def test_folded_branches_match_the_printed_cases():
    seen = set()
    for n in range(3, 7):
        for size in range(1, n):
            m = n - size
            region = branch_region(n, size)
            for r in range(2, n):
                d = tuple(1 + (i * 7 + n) % 3 for i in range(r))
                fac = r_newton_factored(region, DegreeTuple(r, d))
                assert fac.route == "factored", (n, size, r)
                ks, trailing, branch = printed_branch(r, size, m, n, d)
                prime = NewtonRegion(m, (Simplex(tuple(
                    tuple(int(i == j) for i in range(m)) for j in range(-1, m)
                )),))
                values = tuple(r_newton_number(prime, DegreeTuple(k, d[:k])).total for k in ks)
                inner = sum(
                    prod(d[k:r]) * g_coeff(size + 1, r - k + 1, d[k - 1 : r]) * value
                    for k, value in zip(ks, values)
                )
                assert (fac.branch, fac.projected_values) == (branch, values), (n, size, r)
                assert fac.total == fac.face_volume * (inner + trailing)
                seen.add(branch)
    assert len(seen) == 4
