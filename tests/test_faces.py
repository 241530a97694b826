"""The face table of `NewtonRegion` against the loops it replaced.

`subset_volumes`, `is_quasi_convenient`, the explicit branch of `restrict`
and the explicit axis screen of `check_axis_simplex_inside` all read
`NewtonRegion._faces()`.  The references in `face_reference.py` collect
the faces X^I per call and test axis vertices with `contains_point`.  On
every region the two must give the same volumes, verdicts, messages and
restrictions.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import face_reference as ref
from conftest import fan_union
from newton_mu.bounds import check_axis_simplex_inside
from newton_mu.errors import ContainmentError, DomainError
from newton_mu.geometry import Simplex
from newton_mu.higher import DegreeTuple, r_newton_number
from newton_mu.newton import newton_number
from newton_mu.polyhedra import (
    NewtonRegion,
    all_subsets,
    axis_simplex_region,
    gamma_minus,
    is_quasi_convenient,
    restrict,
    support,
)
from test_validation import random_region


KINDS = ("origin is not", "below 1", "not pure", "star-shaped", "disconnected")


def outcome(call, *args):
    try:
        result = call(*args)
    except (ContainmentError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return result


def axis_tops(x: NewtonRegion) -> list:
    """The largest coordinate on each axis among the vertices lying there."""
    return [
        max((v[i] for v in x.vertex_set if all(c == 0 for j, c in enumerate(v) if j != i)), default=0)
        for i in range(x.n)
    ]


def intercept_trials(rng: random.Random, x: NewtonRegion) -> list[tuple]:
    """Intercepts at, just below and just above each axis extent."""
    tops = axis_tops(x)
    trials = [tuple(tops), tuple(Fraction(1) for _ in tops)]
    for _ in range(4):
        trials.append(
            tuple(
                t + rng.choice([0, Fraction(-1, 2), Fraction(1, 3), 1]) for t in tops
            )
        )
    return trials


def assert_matches_reference(x: NewtonRegion, rng: random.Random) -> set:
    """Compare every face-table reader with its reference on x; return
    the kinds of verdict seen."""
    assert x.subset_volumes() == ref.subset_volumes(x)
    verdict = is_quasi_convenient(x)
    assert verdict == ref.is_quasi_convenient(x)
    ok, reason = verdict
    seen = {"quasi-convenient"} if ok else {k for k in KINDS if k in reason}
    for avec in intercept_trials(rng, x):
        got = outcome(check_axis_simplex_inside, x, avec)
        assert got == outcome(ref.check_axis_simplex_inside, x, avec), (x, avec)
        if verdict[0]:
            seen.add("inside" if got is None else "outside")
    for I in all_subsets(x.n):
        if I:
            assert outcome(restrict, x, I) == outcome(ref.restrict, x, I), (x, I)
    return seen


def explicit(region: NewtonRegion, cells=None) -> NewtonRegion:
    """The region's cells (or a subset of them) without the source support,
    so every reader takes its explicit branch."""
    return NewtonRegion(region.n, tuple(region.simplices if cells is None else cells))


def test_face_table_matches_reference_on_seeded_regions():
    rng = random.Random(20261020)
    seen = set()
    for n in (2, 3, 4, 5):
        for case in range(8):
            seen |= assert_matches_reference(random_region(rng, n, case < 2, case % 2 == 1), rng)
    for n, size in ((3, 1), (4, 2), (5, 3)):
        for _ in range(4):
            seen |= assert_matches_reference(fan_union(rng, n, size), rng)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            a = tuple(Fraction(rng.randint(2, 12), rng.randint(1, 3)) for _ in range(n))
            seen |= assert_matches_reference(axis_simplex_region(a), rng)
    for n in (2, 3, 4):
        for _ in range(6):
            pts = [tuple(rng.randint(1, 6) * (i == j) for i in range(n)) for j in range(n)]
            pts += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
            pts = [p for p in pts if any(p)]
            region = gamma_minus(support(pts))
            seen |= assert_matches_reference(explicit(region), rng)
            cells = list(region.simplices)
            if len(cells) > 1:
                del cells[rng.randrange(len(cells))]
                seen |= assert_matches_reference(explicit(region, cells), rng)
    for cells in (
        # an axis segment away from the origin
        [((0, 0), (3, 0), (0, 2)), ((3, 0), (5, 0), (3, 1))],
        # two cells meeting only at the origin
        [((0, 0), (3, 0), (1, 1)), ((0, 0), (0, 3), (1, 2))],
    ):
        seen |= assert_matches_reference(NewtonRegion(2, tuple(map(Simplex, cells))), rng)
    # qualifying regions inside and outside; failures of each kind
    assert {"quasi-convenient", "inside", "outside"} <= seen
    assert {"origin is not", "below 1", "not pure", "star-shaped", "disconnected"} <= seen


def draws(*more):
    """Hypothesis draws of a convenient support (pure powers plus extra
    points) and indices of cells to drop from its region."""
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(min_value=1, max_value=6)] * n),
            st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)] * n), max_size=3),
            st.lists(st.integers(min_value=0, max_value=30), max_size=3),
            *more,
        )
    )


def drawn_region(powers, extra, drops) -> tuple[NewtonRegion, list]:
    """gamma_minus of the drawn support and its cells less the drops."""
    n = len(powers)
    pts = [tuple(p * (i == j) for i in range(n)) for j, p in enumerate(powers)]
    region = gamma_minus(support(pts + [p for p in extra if any(p)]))
    cells = list(region.simplices)
    for k in drops:
        if len(cells) > 1:
            del cells[k % len(cells)]
    return region, cells


@settings(max_examples=60, deadline=None)
@given(
    draws(
        st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2)]),
        st.integers(min_value=0, max_value=2**16),
    )
)
def test_face_table_matches_reference_property(case):
    *drawn, scale, seed = case
    region, cells = drawn_region(*drawn)
    scaled = (Simplex(tuple(tuple(scale * c for c in v) for v in s.vertices)) for s in cells)
    assert_matches_reference(NewtonRegion(region.n, tuple(scaled)), random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(draws())
def test_newton_number_is_the_first_r_newton_number(case):
    # F(l, 1, (1)) = 1 for every l, and the empty-subset term (-1)^n [O in X]
    # is the origin correction epsilon (-1)^(n - 1 + 1)
    region, cells = drawn_region(*case)
    for x in (region, NewtonRegion(region.n, tuple(cells))):
        assert newton_number(x).total == r_newton_number(x, DegreeTuple(1, (1,))).total
