"""Weighted (r-th) Newton numbers and the bounds built on them.

The r-th Newton number attaches the weight F^{|I|}_r(d) to each subset
term of the alternating sum (subsets smaller than r drop out) plus a
degree-dependent origin correction.  It obeys a factorization through the
common base face exactly parallel to the plain Newton number, printed in
four branch cases; they are computed as one range of orders and checked
against two independent summations on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    CITED_MILNOR_R_NEWTON,
    BoundCertificate,
    ChainLink,
    _check_intercepts,
    _require_below_diagram,
    chain_verdict,
    check_axis_simplex_inside,
    stabilized_region,
    verified,
)
from .coefficients import elementary_symmetric, f_coeff, g_coeff
from .errors import DomainError, FormulaMismatchError
from .geometry import Simplex
from .newton import _alternating_terms, _factored_preamble
from .polyhedra import (
    NewtonRegion,
    SupportSet,
    axis_simplex_region,
)


@dataclass(frozen=True)
class DegreeTuple:
    """Weight degrees d = (d_1, ..., d_r); r is the order of the number."""

    r: int
    d: tuple[int, ...]

    def __post_init__(self):
        d = tuple(int(v) for v in self.d)
        if self.r < 1:
            raise DomainError("order r must be at least 1")
        if len(d) != self.r:
            raise DomainError(f"degree tuple has {len(d)} entries, expected r={self.r}")
        if any(v < 1 for v in d):
            raise DomainError("degrees must be positive integers")
        object.__setattr__(self, "d", d)


def degree_tuple(d) -> DegreeTuple:
    dd = tuple(int(v) for v in d)
    return DegreeTuple(len(dd), dd)


@dataclass(frozen=True)
class RNewtonTerm:
    subset: frozenset[int]
    sign: int
    weight: int
    factorial_volume: Fraction

    @property
    def contribution(self) -> Fraction:
        return self.sign * self.weight * self.factorial_volume


@dataclass(frozen=True)
class RNewtonReport:
    n: int
    r: int
    d: tuple[int, ...]
    terms: tuple[RNewtonTerm, ...]
    epsilon: int
    epsilon_term: Fraction
    total: Fraction


def r_newton_number(x: NewtonRegion, dt: DegreeTuple) -> RNewtonReport:
    """Weighted alternating sum over subsets of size >= r, plus the origin
    correction epsilon * (-1)^(n-r+1)."""
    terms = tuple(
        RNewtonTerm(I, sign, f_coeff(len(I), dt.r, dt.d), vol)
        for I, sign, vol in _alternating_terms(x, dt.r)
    )
    epsilon = 1 if x.contains_origin() else 0
    epsilon_term = Fraction(epsilon * (-1) ** (x.n - dt.r + 1))
    total = sum((t.contribution for t in terms), Fraction(0)) + epsilon_term
    return RNewtonReport(x.n, dt.r, dt.d, terms, epsilon, epsilon_term, total)


@dataclass(frozen=True)
class RFactoredResult:
    total: Fraction
    subset: frozenset[int]
    face_volume: Fraction
    branch: str
    route: str
    projected_values: tuple[Fraction, ...] | None


def r_newton_factored(z: NewtonRegion | Simplex, dt: DegreeTuple) -> RFactoredResult:
    """r-th Newton number through the base-face factorization.

    With I the common minimal full-supporting subset, m = n - |I|, and X'
    the projection killing the I coordinates, the number is
    |I|! V(X^I) * [ sum over k of (d_{k+1}...d_r) * G^{|I|+1}_{r-k+1}(d_k..d_r)
    * nu^k_{d_1..d_k}(X') + trailing F term ], k running from
    max(1, r - |I|) to min(r, m) and the F term present exactly when r > m.
    These fold the four printed branch cases, which the reported branch
    names by comparing r with |I| and with m.  The result is checked
    against the direct sum and against the superset-restricted sum; any
    disagreement raises.  Orders r = 1 and r = n use the direct route only,
    as do inputs whose projections collapse.
    """
    r, d = dt.r, dt.d
    if r > z.n:
        raise DomainError(f"order r={r} exceeds ambient dimension {z.n}")
    region, report, I, face_volume, prime = _factored_preamble(
        z, lambda region: r_newton_number(region, dt)
    )
    n = region.n
    direct = report.total

    # every piece has minimal full-supporting subset I, which kills the
    # terms of the subsets not containing I and the origin correction
    restricted = sum((t.contribution for t in report.terms if I <= t.subset), Fraction(0))
    if restricted != direct:
        raise FormulaMismatchError(
            "restricted and direct r-th Newton numbers disagree",
            {"restricted": str(restricted), "direct": str(direct)},
        )

    size = len(I)
    m = n - size
    if r == 1 or r == n or prime is None:
        return RFactoredResult(direct, I, face_volume, "direct", "direct", None)

    ks = range(max(1, r - size), min(r, m) + 1)
    trailing = f_coeff(n - m, r - m, tuple(d[m:r])) if r > m else 0
    branch = f"r{'<=' if r <= size else '>'}|I|, r{'<=' if r <= m else '>'}m"

    inner = Fraction(0)
    projected_values = []
    for k in ks:
        tail = 1
        for i in range(k + 1, r + 1):
            tail *= d[i - 1]
        gw = g_coeff(size + 1, r - k + 1, tuple(d[k - 1 : r]))
        nuk = r_newton_number(prime, DegreeTuple(k, tuple(d[:k]))).total
        projected_values.append(nuk)
        inner += tail * gw * nuk
    total = face_volume * (inner + trailing)

    if total != direct:
        raise FormulaMismatchError(
            "factored and direct r-th Newton numbers disagree",
            {"branch": branch, "factored": str(total), "direct": str(direct)},
        )
    return RFactoredResult(total, I, face_volume, branch, "factored", tuple(projected_values))


def axis_simplex_r_newton(dt: DegreeTuple, a) -> Fraction:
    """Closed form for nu^r_d of |O, a_1 e_1, ..., a_n e_n|:
    sum_{s=r}^n (-1)^(n-s) F^s_r(d) sigma_s(a) + (-1)^(n-r+1)."""
    avec = tuple(Fraction(v) for v in a)
    n = len(avec)
    if dt.r > n:
        raise DomainError(f"order r={dt.r} exceeds ambient dimension {n}")
    total = Fraction((-1) ** (n - dt.r + 1))
    for s in range(dt.r, n + 1):
        total += (-1) ** (n - s) * f_coeff(s, dt.r, dt.d) * elementary_symmetric(s, avec)
    return total


def _checked_axis_bound(dt: DegreeTuple, avec) -> Fraction:
    bound = axis_simplex_r_newton(dt, avec)
    direct = r_newton_number(axis_simplex_region(avec), dt).total
    if bound != direct:
        raise FormulaMismatchError(
            "closed-form and direct axis-simplex values disagree",
            {"closed_form": str(bound), "direct": str(direct)},
        )
    return bound


def r_bound(x: NewtonRegion, dt: DegreeTuple, a) -> BoundCertificate:
    """Certificate nu^r(x) >= B(r, d, a) for an inscribed axis simplex.

    B is the closed-form r-th Newton number of the axis simplex, recomputed
    directly from the simplex as a consistency check.
    """
    avec = _check_intercepts(a, x.n)
    check_axis_simplex_inside(x, avec)
    bound = _checked_axis_bound(dt, avec)
    nu_r = r_newton_number(x, dt).total
    chain = (
        ChainLink("nu^r(X)", ">=", "B(r, d, a)", verified(nu_r >= bound)),
        ChainLink("B(r, d, a)", ">=", "0", verified(bound >= 0)),
    )
    return BoundCertificate(
        "r-newton", avec, bound, nu_r, chain, chain_verdict(chain), r=dt.r, d=dt.d
    )


def sciv_milnor_bound(s: SupportSet, dt: DegreeTuple, a) -> BoundCertificate:
    """Certified chain mu(f) >= nu^r(g) >= B(r, d, a).

    The support is stabilized (when not convenient) on the r-th Newton
    number itself, so the certified quantity is the one that settles.
    """
    avec = _check_intercepts(a, s.n)
    if dt.r > s.n:
        raise DomainError(f"order r={dt.r} exceeds ambient dimension {s.n}")
    _require_below_diagram(s, avec)
    floor = 1 + math.ceil(max(avec))
    region, nu_r, m_used = stabilized_region(
        s, floor_m=floor, value=lambda reg: r_newton_number(reg, dt).total
    )
    bound = _checked_axis_bound(dt, avec)
    chain = (
        ChainLink("mu(f)", ">=", "nu^r(g)", CITED_MILNOR_R_NEWTON),
        ChainLink("nu^r(g)", ">=", "B(r, d, a)", verified(nu_r >= bound)),
        ChainLink("B(r, d, a)", ">=", "0", verified(bound >= 0)),
    )
    return BoundCertificate(
        "sciv-milnor",
        avec,
        bound,
        nu_r,
        chain,
        chain_verdict(chain),
        modification_m=m_used,
        r=dt.r,
        d=dt.d,
    )
