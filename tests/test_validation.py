"""The overlap screen of `validate_region` against the screen it replaced.

The reference is the earlier implementation, kept verbatim: it drops the
cells that `Simplex.is_degenerate` flags, forms each centroid in Fraction
and tests it with `Simplex.contains_point`.  The screen now computes each
cell's barycentric rows once and tests the integer sum of a cell's
vertices against them.  On every region the two must agree: both pass, or
both raise the same first InvalidRegionError.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial

from hypothesis import given, settings, strategies as st

from newton_mu.errors import InvalidRegionError
from newton_mu.geometry import Simplex, _barycentric_rows, _covers
from newton_mu.oracles import ehrhart_volume
from newton_mu.polyhedra import NewtonRegion, gamma_minus, is_convenient, validate_region
from test_hull_kernel import seeded_supports


def reference_validate(x: NewtonRegion, rng_seed: int = 0) -> None:
    sims = [s for s in x.simplices if s.dim == x.n and not s.is_degenerate]
    k = len(sims)
    if k < 2:
        return
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if len(pairs) > 300:
        rng = random.Random(rng_seed)
        pairs = rng.sample(pairs, 300)
    for i, j in pairs:
        for a, b in ((sims[i], sims[j]), (sims[j], sims[i])):
            m = len(a.vertices)
            centroid = tuple(
                sum(Fraction(v[t]) for v in a.vertices) / m for t in range(x.n)
            )
            if b.contains_point(centroid):
                raise InvalidRegionError(
                    f"simplices overlap: centroid of {a.vertices} lies in {b.vertices}"
                )


def outcome(screen, region: NewtonRegion, rng_seed: int):
    try:
        screen(region, rng_seed)
    except InvalidRegionError as exc:
        return str(exc)
    return None


def kuhn_cells(n: int, corners) -> list[tuple]:
    """Kuhn triangulation of the unit cubes at the given corners: one cell
    per corner and axis order, stepping along one axis at a time."""
    cells = []
    for corner in corners:
        for order in permutations(range(n)):
            v = list(corner)
            verts = [tuple(v)]
            for i in order:
                v[i] += 1
                verts.append(tuple(v))
            cells.append(tuple(verts))
    return cells


def random_region(rng: random.Random, n: int, big: bool, rational: bool) -> NewtonRegion:
    """Cells of a Kuhn triangulation (interiors disjoint), some perturbed,
    with degenerate and lower-dimensional cells mixed in, mapped by a
    positive scale and a nonnegative shift."""
    want = rng.randint(26, 40) if big else rng.randint(2, 8)
    corners = set()
    while len(corners) * factorial(n) < want:
        corners.add(tuple(rng.randint(0, 5) for _ in range(n)))
    cells = rng.sample(kuhn_cells(n, sorted(corners)), want)
    extent = 7
    for _ in range(rng.choice([0, 1, 1, 2])):
        kind = rng.choice(["overlap", "nudge", "shift", "degenerate", "lower"])
        if kind == "overlap":
            cells.append(tuple(tuple(rng.randint(0, extent) for _ in range(n)) for _ in range(n + 1)))
        elif kind == "nudge":
            # a copy of a cell with one vertex moved one step along an axis
            verts = [list(v) for v in rng.choice(cells)]
            verts[rng.randrange(len(verts))][rng.randrange(n)] += 1
            cells.append(tuple(tuple(v) for v in verts))
        elif kind == "shift":
            i = rng.randrange(len(cells))
            verts = list(cells[i])
            verts[rng.randrange(len(verts))] = tuple(rng.randint(0, extent) for _ in range(n))
            cells[i] = tuple(verts)
        elif kind == "degenerate":
            start = tuple(rng.randint(0, 2) for _ in range(n))
            step = tuple(rng.randint(0, 1) for _ in range(n))
            if any(step):
                # n + 1 distinct points on one line
                cells.append(tuple(tuple(a + t * b for a, b in zip(start, step)) for t in range(n + 1)))
        else:
            cells.append(rng.choice(cells)[: rng.randint(1, n)])
    if rational:
        scale = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(5, 4)])
        shift = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n))
    else:
        scale = rng.choice([1, 2, 3])
        shift = tuple(rng.randint(0, 4) for _ in range(n))
    sims = set()
    for cell in cells:
        verts = {tuple(scale * c + s for c, s in zip(v, shift)) for v in cell}
        sims.add(Simplex(tuple(verts)))
    return NewtonRegion(n, tuple(sims))


def test_screen_matches_reference_on_seeded_regions():
    rng = random.Random(20261019)
    seen = set()
    for n in (2, 3, 4, 5):
        for case in range(12):
            big = case < 2
            rational = case % 2 == 1
            region = random_region(rng, n, big, rational)
            top = [s for s in region.simplices if s.dim == n and not s.is_degenerate]
            for rng_seed in (0, 1) if big else (case,):
                got = outcome(validate_region, region, rng_seed)
                assert got == outcome(reference_validate, region, rng_seed), region
                seen.add(("rejected" if got else "passed", n))
                if len(top) * (len(top) - 1) // 2 > 300:
                    seen.add(("sampled", rng_seed))
            if len(top) < sum(s.dim == n for s in region.simplices):
                seen.add("degenerate cell")
            if any(s.dim < n for s in region.simplices):
                seen.add("lower-dimensional cell")
            if rational and any(Fraction(c).denominator > 1 for v in region.vertex_set for c in v):
                seen.add("rational vertices")
    assert {(verdict, n) for verdict in ("passed", "rejected") for n in (2, 3, 4, 5)} <= seen
    assert {("sampled", 0), ("sampled", 1)} <= seen
    assert {"degenerate cell", "lower-dimensional cell", "rational vertices"} <= seen


def test_random_region_edits_short_cells():
    # seed 193 appends a lower-dimensional cell and then edits a vertex of
    # a picked cell, indexed by that cell's own length
    region = random_region(random.Random(193), 4, False, False)
    assert any(s.dim < 4 for s in region.simplices)
    assert outcome(validate_region, region, 0) == outcome(reference_validate, region, 0)


def test_screen_at_the_sampling_threshold():
    # 25 full-dimensional cells give exactly 300 pairs, all tested in order;
    # the two large cells overlap many others, so a sampled order would
    # meet a different overlap first
    cells = kuhn_cells(2, [(i, j) for i in range(4) for j in range(3)])[:23]
    cells += [((0, 0), (4, 1), (1, 3)), ((1, 0), (4, 3), (0, 2))]
    region = NewtonRegion(2, tuple(Simplex(c) for c in cells))
    assert len(region.simplices) == 25
    first = outcome(reference_validate, region, 0)
    assert first is not None
    for rng_seed in range(3):
        assert outcome(validate_region, region, rng_seed) == first


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=2 * factorial(n) - 1), max_size=8, unique=True),
            st.lists(
                st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * n), min_size=1, max_size=n + 1, unique=True),
                max_size=3,
            ),
            st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2)]),
            st.integers(min_value=0, max_value=3),
        )
    )
)
def test_screen_matches_reference_property(case):
    n, picks, extra, scale, rng_seed = case
    kuhn = kuhn_cells(n, [(0,) * n, (1,) + (0,) * (n - 1)])
    cells = [kuhn[i] for i in picks] + [tuple(c) for c in extra]
    sims = {Simplex(tuple(tuple(scale * c for c in v) for v in cell)) for cell in cells}
    if not sims:
        return
    region = NewtonRegion(n, tuple(sims))
    assert outcome(validate_region, region, rng_seed) == outcome(
        reference_validate, region, rng_seed
    )


def test_barycentric_rows_pinned():
    # 16 * (1 - x/4 - y/4), 16 * x/4, 16 * y/4
    assert _barycentric_rows(((0, 0), (4, 0), (0, 4))) == [[-4, -4, 16], [4, 0, 0], [0, 4, 0]]
    assert _barycentric_rows(((0, 0), (1, 1), (2, 2))) is None
    # on the grid of scale L = 2 the rows are L^2 = 4 times the weights' rows
    # [[-1, -1/2, 1/2], [1, 0, 0], [0, 1/2, 0]]
    half = _barycentric_rows(((0, 0), (Fraction(1, 2), 0), (0, 1)))
    assert half == [[-4, -2, 2], [4, 0, 0], [0, 2, 0]]
    # the centroid (sum 3, count 3) of the unit triangle is inside; (5, 0) / 1 is not
    rows = _barycentric_rows(((0, 0), (3, 0), (0, 3)))
    assert _covers(rows, (3, 3), 3)
    assert _covers(rows, (3, 0), 1)
    assert not _covers(rows, (5, 0), 1)


def test_gamma_minus_passes_an_unsampled_screen():
    """Every ordered pair of cells of gamma_minus on the hull-kernel test's
    convenient supports, not a sample: no centroid lies in another cell.
    For n <= 3 the top volume also matches lattice counting."""
    screened = 0
    for s in seeded_supports():
        if s.n < 2 or not is_convenient(s)[0] or (0,) * s.n in s.points:
            continue
        region = gamma_minus(s)
        cells = [(c.vertices, _barycentric_rows(c.vertices)) for c in region.simplices]
        assert all(c.dim == s.n for c in region.simplices)
        assert all(rows is not None for _, rows in cells)
        for a, _ in cells:
            total = tuple(map(sum, zip(*a)))
            assert not any(_covers(rows, total, s.n + 1) for b, rows in cells if b != a)
        screened += len(cells) > 1
        if s.n <= 3:
            top = region.subset_volumes()[frozenset(range(s.n))]
            assert ehrhart_volume(region) * factorial(s.n) == top
    assert screened >= 5
