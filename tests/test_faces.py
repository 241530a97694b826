"""The face table of `NewtonRegion` against the loops it replaced.

`subset_volumes`, `is_quasi_convenient`, the explicit branch of `restrict`
and the explicit axis screen of `check_axis_simplex_inside` all read
`NewtonRegion._faces()`.  The references in `face_reference.py` collect
the faces X^I per call and test axis vertices with `contains_point`.  On
every region the two must give the same volumes, verdicts, messages and
restrictions.

Each cell's own table (`polyhedra._cell_faces`) serves the full-supporting
subsets, the grouping of `decompose_difference` and the factored routes,
and no face volume builds a `Simplex`.  Their references ask each cell
for its face in R^I again and project with `drop_coordinates`.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import face_reference as ref
import newton_mu.higher as higher_module
import newton_mu.newton as newton_module
from conftest import fan_union, random_nested_pair, random_offorigin_simplex
from newton_mu.bounds import check_axis_simplex_inside
from newton_mu.errors import ContainmentError, DomainError, InvalidRegionError
from newton_mu.geometry import Simplex
from newton_mu.higher import DegreeTuple, r_newton_factored, r_newton_number
from newton_mu.newton import (
    decompose_difference,
    full_supporting_subsets,
    minimal_full_supporting,
    newton_number,
    newton_number_factored,
)
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
    except (ContainmentError, DomainError, InvalidRegionError) as exc:
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


def count_simplices(monkeypatch) -> list:
    """Every `Simplex` built from now on."""
    built = []
    real = Simplex.__post_init__
    monkeypatch.setattr(Simplex, "__post_init__", lambda s: (built.append(s), real(s))[1])
    return built


def test_face_volumes_build_no_simplex(monkeypatch):
    regions = [
        gamma_minus(support(pts))
        for pts in (
            [(3, 0), (1, 1), (0, 2)],
            [(4, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)],
            [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 1, 0, 1)],
        )
    ]
    fans = [fan_union(random.Random(seed), 4, 2) for seed in (7, 8, 9)]
    built = count_simplices(monkeypatch)
    for region in regions:
        region.subset_volumes()
        assert is_quasi_convenient(region) == (True, "")
    assert built == []
    for fan in fans:
        fac = newton_number_factored(fan)
        assert fac.route == "factored"
        # the cells of the projected region X', and nothing for the face
        assert len(built) == len(fan.simplices)
        built.clear()


def scaled(region: NewtonRegion, scale) -> NewtonRegion:
    return NewtonRegion(
        region.n,
        tuple(
            Simplex(tuple(tuple(scale * c for c in v) for v in s.vertices))
            for s in region.simplices
        ),
    )


def fan_cases(rng: random.Random) -> list[NewtonRegion]:
    """Seeded fan unions, also on rational grids."""
    return [
        scaled(fan_union(rng, size + 2, size), scale)
        for size in (1, 2, 3)
        for scale in (1, Fraction(1, 2), Fraction(3, 2))
        for _ in range(2)
    ]


def test_full_supporting_subsets_match_reference():
    rng = random.Random(20261021)
    cells = [s for region in fan_cases(rng) for s in region.simplices]
    cells += [random_offorigin_simplex(rng, n).simplices[0] for n in (2, 3, 4) for _ in range(5)]
    for n in (1, 2, 3, 4):
        for _ in range(3):
            a = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(n))
            cells += axis_simplex_region(a).simplices
    cells += [Simplex(((0, 0), (1, 1), (2, 2))), Simplex(((1, 0, 0), (0, 2, 0)))]
    minimal = set()
    for s in cells:
        for call, reference in (
            (full_supporting_subsets, ref.full_supporting_subsets),
            (minimal_full_supporting, ref.minimal_full_supporting),
        ):
            assert outcome(call, s) == outcome(reference, s), s
        if not s.is_degenerate and s.dim == s.n:
            minimal.add(len(minimal_full_supporting(s)))
    assert {0, 1, 2, 3} <= minimal


def test_factored_projection_matches_reference(monkeypatch):
    rng = random.Random(20261022)
    regions = fan_cases(rng)
    regions += [random_offorigin_simplex(rng, n) for n in (2, 3, 4) for _ in range(4)]
    real = newton_module._factored_preamble

    def reference_preamble(z, direct):
        region, report, I, _, _ = real(z, direct)
        return (region, report, I, *ref.factored_parts(region, I))

    def results(region):
        out = [newton_number_factored(region)]
        for r in range(2, region.n):
            d = tuple(1 + (i * 7 + region.n) % 3 for i in range(r))
            out.append(r_newton_factored(region, DegreeTuple(r, d)))
        return out

    routes = set()
    for region in regions:
        _, _, I, face_volume, prime = real(region, newton_number)
        assert (face_volume, prime) == ref.factored_parts(region, I)
        got = results(region)
        with monkeypatch.context() as patch:
            patch.setattr(newton_module, "_factored_preamble", reference_preamble)
            patch.setattr(higher_module, "_factored_preamble", reference_preamble)
            assert got == results(NewtonRegion(region.n, region.simplices))
        routes |= {result.route for result in got}
    assert routes == {"factored", "direct"}


def test_decomposition_matches_reference_grouping():
    rng = random.Random(20261023)
    sizes = []
    for n in (2, 3, 4):
        for _ in range(5 if n < 4 else 2):
            outer, inner = random_nested_pair(rng, n)
            x, y = gamma_minus(outer), gamma_minus(inner)
            pieces = decompose_difference(x, y)
            groups = ref.decomposition_groups(newton_module._removal_shells(outer, inner))
            assert [(p.minimal_subset, p.base_face, p.region) for p in pieces] == [
                (I, face, NewtonRegion(n, tuple(cells))) for I, face, cells in groups
            ]
            sizes.append(len(pieces))
    assert max(sizes) >= 2
