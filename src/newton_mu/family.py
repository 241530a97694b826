"""Single-term deformations in four variables.

A family step drops one diagram vertex A from a support; the region under
the diagram grows by the cone from A over the facets it was holding up.
When that cone is a single 4-simplex, equality of the two Newton numbers
is decided by the zero pattern of A and a matching witness vertex; the
pattern verdict is always cross-checked against the directly computed
numbers, and any discrepancy is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DecompositionError, DomainError, FormulaMismatchError
from .geometry import Simplex
from .newton import newton_number
from .polyhedra import (
    NewtonRegion,
    SupportSet,
    _require_convenient,
    cone_over_visible_facets,
    gamma_minus,
    newton_diagram,
)

FAMILY_DIMENSION = 4


@dataclass(frozen=True)
class FamilyStep:
    """A four-variable support and one of its diagram vertices to drop.

    f1 carries the extra term; f0 is f1 without it.  The dropped point must
    be a genuine vertex of the richer diagram (otherwise removing it does
    not move the diagram at all) and both supports must stay convenient.
    """

    f1: SupportSet
    removed: tuple[int, ...]

    def __post_init__(self):
        removed = tuple(int(c) for c in self.removed)
        object.__setattr__(self, "removed", removed)
        if self.f1.n != FAMILY_DIMENSION:
            raise DomainError(
                f"family steps are defined in {FAMILY_DIMENSION} variables, got {self.f1.n}"
            )
        if removed not in self.f1.points:
            raise DomainError(f"removed point {removed} is not in the support")
        origin = tuple(0 for _ in range(FAMILY_DIMENSION))
        if origin in self.f1.points:
            raise DomainError("support contains the zero exponent (unit term)")
        rest = [p for p in self.f1.points if p != removed]
        if not rest:
            raise DomainError("removing the point empties the support")
        if removed not in newton_diagram(self.f1).vertices:
            raise DomainError(
                "removed point is not a diagram vertex; both members share one diagram"
            )
        self.f0  # force convenience validation of the truncated support

    @cached_property
    def f0(self) -> SupportSet:
        rest = tuple(p for p in self.f1.points if p != self.removed)
        sub = SupportSet(self.f1.variables, rest)
        _require_convenient(sub)  # the dropped point may have been an axis power
        return sub


def family_difference(step: FamilyStep) -> Simplex:
    """The region freed by dropping the vertex, required to be one simplex.

    Cones the dropped point over the strictly visible facets of the
    truncated diagram.  Anything other than exactly one 4-simplex raises a
    DecompositionError carrying the actual pieces.
    """
    cells = cone_over_visible_facets(step.f0, step.removed)
    if len(cells) != 1:
        raise DecompositionError(
            f"dropping the vertex frees {len(cells)} simplices, not one",
            [tuple(c.vertices) for c in cells],
        )
    return cells[0]


@dataclass(frozen=True)
class FamilyVerdict:
    case: str | None
    witness: tuple[int, ...] | None
    permutation: tuple[int, ...] | None
    predicted_equal: bool
    nu_f0: Fraction
    nu_f1: Fraction
    equal: bool
    delta: Simplex


def _pattern_case(z: int) -> str | None:
    return {1: "i", 2: "ii", 3: "iii"}.get(z)


def _witness_matches(v: tuple[int, ...], zeros: tuple[int, ...]) -> bool:
    vals = sorted(v[i] for i in zeros)
    if len(zeros) == 1:
        return vals == [1]
    if len(zeros) == 2:
        return vals == [0, 1]
    return vals == [0, 0, 1]


def negligible_truncation_check(step: FamilyStep) -> FamilyVerdict:
    """Decide nu(f0) == nu(f1) by the zero pattern of the dropped vertex.

    With z zero coordinates on the dropped vertex A (z in 1..3), equality
    holds exactly when some other vertex of the freed simplex shows the
    matching pattern on A's zero coordinates: a single 1 (case i), a 1 and
    a 0 (case ii), or one 1 and two 0s (case iii).  z = 0 never gives
    equality.  Both Newton numbers are computed anyway; a verdict that
    contradicts them raises instead of reporting quietly.
    """
    delta = family_difference(step)
    apex = step.removed
    others = sorted(v for v in delta.vertices if tuple(v) != apex)
    zeros = tuple(i for i, c in enumerate(apex) if c == 0)
    z = len(zeros)

    case = _pattern_case(z)
    witness = None
    permutation = None
    if case is not None:
        for v in others:
            if _witness_matches(v, zeros):
                witness = tuple(int(c) for c in v)
                break
        if witness is not None:
            rest = tuple(i for i in range(FAMILY_DIMENSION) if i not in zeros)
            permutation = zeros + rest
    predicted_equal = witness is not None

    nu0 = newton_number(gamma_minus(step.f0)).total
    nu1 = newton_number(gamma_minus(step.f1)).total
    nu_delta = newton_number(NewtonRegion(FAMILY_DIMENSION, (delta,))).total
    if nu0 - nu1 != nu_delta:
        raise FormulaMismatchError(
            "freed simplex does not account for the Newton-number drop",
            {"nu_f0": str(nu0), "nu_f1": str(nu1), "nu_delta": str(nu_delta)},
        )
    equal = nu0 == nu1
    if equal != predicted_equal:
        raise FormulaMismatchError(
            "pattern verdict contradicts the computed Newton numbers",
            {
                "case": case or "none",
                "predicted_equal": predicted_equal,
                "nu_f0": str(nu0),
                "nu_f1": str(nu1),
            },
        )
    return FamilyVerdict(case, witness, permutation, predicted_equal, nu0, nu1, equal, delta)
