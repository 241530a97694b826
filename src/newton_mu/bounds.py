"""Certified lower bounds built from Newton numbers.

A certificate is a chain of inequality links.  Links whose two sides are
computed here carry verified:true/false statuses; links resting on an
external theorem carry a fixed cited:... status and are trusted.  The
verdict is the conjunction of the verified links only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ContainmentError, DomainError, StabilizationError
from .newton import newton_number
from .polyhedra import (
    NewtonRegion,
    SupportSet,
    gamma_minus,
    is_convenient,
    is_quasi_convenient,
    simplex_below_diagram,
    standard_modification,
)

CITED_MILNOR_NEWTON = "cited:[K]-Thm.I"
CITED_MILNOR_R_NEWTON = "cited:[O2]-Thm.7.2"

STABILIZATION_CAP_DOUBLINGS = 10


@dataclass(frozen=True)
class ChainLink:
    lhs: str
    rel: str
    rhs: str
    status: str


@dataclass(frozen=True)
class BoundCertificate:
    kind: str
    a: tuple[Fraction, ...]
    bound: Fraction
    nu_value: Fraction
    chain: tuple[ChainLink, ...]
    verdict: bool
    modification_m: int | None = None
    r: int | None = None
    d: tuple[int, ...] | None = None


def verified(flag: bool) -> str:
    return "verified:true" if flag else "verified:false"


def chain_verdict(chain) -> bool:
    return all(
        link.status == "verified:true"
        for link in chain
        if link.status.startswith("verified:")
    )


def _check_intercepts(a, n: int) -> tuple[Fraction, ...]:
    avec = tuple(Fraction(v) for v in a)
    if len(avec) != n:
        raise DomainError("intercept tuple length differs from ambient dimension")
    if any(v < 1 for v in avec):
        raise DomainError("intercepts must be at least 1")
    return avec


def product_bound(a) -> Fraction:
    out = Fraction(1)
    for v in a:
        out *= Fraction(v) - 1
    return out


def _require_below_diagram(s: SupportSet, avec) -> None:
    """Containment of |O, a_1 e_1, ..., a_n e_n| under the diagram of s."""
    if not simplex_below_diagram(s, avec):
        raise ContainmentError(
            "the axis simplex pokes above the Newton diagram; choose smaller intercepts"
        )


def check_axis_simplex_inside(x: NewtonRegion, avec) -> None:
    """Containment precondition for |O, a_1 e_1, ..., a_n e_n| inside x.

    Exact for regions built from a support (hyperplane test against every
    support point).  For explicit regions only the simplex vertices are
    screened, which is necessary but not sufficient; building the region
    from its support enables the exact check.  The screen reads the faces
    X^{i} on each axis from the region's face table (`_faces`) after
    checking quasi-convenience.
    """
    if x.source is not None:
        _require_below_diagram(x.source, avec)
        return
    ok, reason = is_quasi_convenient(x)
    if not ok:
        raise ContainmentError(f"explicit region is not quasi-convenient: {reason}")
    faces = x._faces()
    for i, ai in zip(range(x.n), avec):
        # quasi-convenience makes the maximal faces on axis i segments
        # [0, b e_i] and puts every other face inside one of them, so X
        # meets the axis in [0, top] e_i, top the largest i-th coordinate
        # among these faces; the longest segment is a face of a maximal
        # cell, nondegenerate by purity for I = {1..n}, so this agrees with
        # `contains_point` on the cells
        top = max(v[i] for face in faces[frozenset((i,))] for v in face)
        if not 0 <= ai <= top:
            vertex = tuple(ai if j == i else Fraction(0) for j in range(x.n))
            raise ContainmentError(
                f"axis-simplex vertex {tuple(str(c) for c in vertex)} lies outside the region"
            )


def bound_simplex(x: NewtonRegion, a) -> BoundCertificate:
    """Certificate nu(x) >= prod(a_i - 1) >= 0 for an inscribed axis simplex."""
    avec = _check_intercepts(a, x.n)
    check_axis_simplex_inside(x, avec)
    nu = newton_number(x).total
    bound = product_bound(avec)
    chain = (
        ChainLink("nu(X)", ">=", "prod(a_i - 1)", verified(nu >= bound)),
        ChainLink("prod(a_i - 1)", ">=", "0", verified(bound >= 0)),
    )
    return BoundCertificate("newton", avec, bound, nu, chain, chain_verdict(chain))


def stabilized_region(
    s: SupportSet,
    floor_m: int | None = None,
    value: Callable[[NewtonRegion], Fraction] | None = None,
) -> tuple[NewtonRegion, Fraction, int | None]:
    """Region under the diagram, stabilized when the support is not convenient.

    Non-convenient supports get pure powers m*e_i added on every axis.  m
    starts above every coordinate sum (and above floor_m) and doubles until
    the tracked value (Newton number by default) repeats, giving up after a
    fixed number of doublings.  This stop rule is a first-repeat heuristic:
    a repeat is not shown to be final, nor the value to settle (for
    x^2 y + y^3 z + z^2 and d = (1, 2) the r-th Newton number keeps growing,
    while the Newton number settles at 7).  Returns (region, value, m) with
    m = None when no modification was needed.
    """
    if value is None:
        value = lambda region: newton_number(region).total
    convenient, _ = is_convenient(s)
    if convenient:
        region = gamma_minus(s)
        return region, value(region), None
    m0 = 1 + max(sum(p) for p in s.points)
    if floor_m is not None and floor_m > m0:
        m0 = floor_m
    cap = m0 << STABILIZATION_CAP_DOUBLINGS
    prev_region = None
    prev_value = None
    prev_m = None
    m = m0
    while m <= cap:
        region = gamma_minus(standard_modification(s, m))
        val = value(region)
        if prev_value is not None and val == prev_value:
            return prev_region, prev_value, prev_m
        prev_region, prev_value, prev_m = region, val, m
        m *= 2
    raise StabilizationError(
        f"value still moving at modification degree {cap}; support may not"
        " describe an isolated singularity"
    )


def milnor_lower_bound(s: SupportSet, a, oracle_mu: int | None = None) -> BoundCertificate:
    """Certified chain mu(f) >= nu(g) >= prod(a_i - 1) >= 0.

    g is the series itself when the support is convenient, otherwise its
    stabilized modification with pure powers added; either way the Milnor
    number of the original series dominates nu(g).  Passing the separately
    computed Milnor number upgrades the first link from cited to verified.
    """
    avec = _check_intercepts(a, s.n)
    _require_below_diagram(s, avec)
    floor = 1 + math.ceil(max(avec))
    region, nu_g, m_used = stabilized_region(s, floor_m=floor)
    bound = product_bound(avec)
    first = (
        ChainLink("mu(f)", ">=", "nu(g)", CITED_MILNOR_NEWTON)
        if oracle_mu is None
        else ChainLink("mu(f)", ">=", "nu(g)", verified(Fraction(oracle_mu) >= nu_g))
    )
    chain = (
        first,
        ChainLink("nu(g)", ">=", "prod(a_i - 1)", verified(nu_g >= bound)),
        ChainLink("prod(a_i - 1)", ">=", "0", verified(bound >= 0)),
    )
    return BoundCertificate(
        "milnor", avec, bound, nu_g, chain, chain_verdict(chain), modification_m=m_used
    )
