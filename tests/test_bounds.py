"""Certified lower bounds for the Milnor number via Newton numbers."""

from fractions import Fraction

import pytest

from newton_mu.bounds import (
    CITED_MILNOR_NEWTON,
    bound_simplex,
    chain_verdict,
    check_axis_simplex_inside,
    milnor_lower_bound,
    product_bound,
    stabilized_region,
)
from newton_mu.errors import ContainmentError, DomainError
from newton_mu.newton import newton_number
from newton_mu.polyhedra import (
    axis_simplex_region,
    gamma_minus,
    region_from_simplices,
    support,
)


def test_product_bound():
    assert product_bound((3, 2)) == 2
    assert product_bound((1, 1, 1)) == 0
    assert product_bound((Fraction(8, 3), 4)) == 5


def test_intercept_validation():
    region = axis_simplex_region((3, 2))
    with pytest.raises(DomainError):
        bound_simplex(region, (Fraction(1, 2), 2))  # below 1
    with pytest.raises(DomainError):
        bound_simplex(region, (3, 2, 2))  # wrong arity
    with pytest.raises(DomainError):
        milnor_lower_bound(support([(3, 0), (0, 2)]), (3,))


def test_bound_simplex_equality_case():
    cert = bound_simplex(axis_simplex_region((3, 2)), (3, 2))
    assert cert.bound == 2
    assert cert.nu_value == 2
    assert cert.verdict is True
    assert all(link.status == "verified:true" for link in cert.chain)


def test_bound_simplex_mismatched_region():
    with pytest.raises(DomainError):
        bound_simplex(axis_simplex_region((3, 2)), (4, 2))


def test_axis_simplex_containment_check():
    s = support([(3, 0), (0, 2)])
    check_axis_simplex_inside(gamma_minus(s), (3, 2))
    with pytest.raises(DomainError):
        check_axis_simplex_inside(gamma_minus(s), (4, 2))


def test_axis_simplex_outside_an_explicit_region_is_pinned():
    # no CLI verb takes an explicit region, so this path is pinned in the
    # library only
    region = region_from_simplices([((0, 0), (3, 0), (0, 2))])
    check_axis_simplex_inside(region, (Fraction(3), Fraction(2)))
    for avec, shown in [
        ((Fraction(4), Fraction(2)), "('4', '0')"),
        ((Fraction(3), Fraction(5, 2)), "('0', '5/2')"),
    ]:
        with pytest.raises(ContainmentError) as exc:
            check_axis_simplex_inside(region, avec)
        assert type(exc.value) is ContainmentError
        assert str(exc.value) == f"axis-simplex vertex {shown} lies outside the region"


def test_chain_verdict_ignores_cited_links():
    cert = milnor_lower_bound(support([(3, 0), (0, 2)]), (3, 2))
    statuses = [link.status for link in cert.chain]
    assert CITED_MILNOR_NEWTON in statuses
    assert cert.verdict is True  # cited links do not block the verdict
    assert chain_verdict(cert.chain) is True


def test_milnor_lower_bound_convenient():
    cert = milnor_lower_bound(support([(3, 0), (0, 2)]), (3, 2))
    assert cert.kind == "milnor"
    assert cert.bound == 2
    assert cert.nu_value == 2
    assert cert.modification_m is None


def test_milnor_lower_bound_oracle_link():
    cert = milnor_lower_bound(support([(3, 0), (0, 2)]), (3, 2), oracle_mu=2)
    first = cert.chain[0]
    assert first.status == "verified:true"
    assert cert.verdict is True


def test_stabilization_of_nonconvenient_support():
    s = support([(2, 1), (0, 4)])
    region, value, m = stabilized_region(s)
    assert m is not None and m >= 5
    assert value == newton_number(region).total
    assert value == 5


def test_milnor_lower_bound_with_stabilization():
    # ideal-colength value of the singularity behind this support is 5,
    # and the intercepts (8/3, 4) realize it exactly
    s = support([(2, 1), (0, 4)])
    cert = milnor_lower_bound(s, (Fraction(8, 3), 4))
    assert cert.modification_m is not None
    assert cert.nu_value == 5
    assert cert.bound == 5
    assert cert.verdict is True


def test_milnor_lower_bound_containment_failure():
    s = support([(2, 1), (0, 4)])
    with pytest.raises(DomainError):
        milnor_lower_bound(s, (4, 4))
