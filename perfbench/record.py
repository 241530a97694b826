"""Regenerate the benchmark corpus and its expected values.

    python3 perfbench/record.py [workload ...]

Draws every workload's input pool from a fixed master seed, runs each
request once through the library to record its output, and checks the
recorded values by a route that avoids the main code where one exists:

  closed-form        (p-1)(q-1)... on Brieskorn-Pham supports
  milnor-colength    Jacobian colength of the random-coefficient series
                     (mu = nu for a convenient nondegenerate series)
  independent-sum    the alternating sum recomputed here from the stored
                     simplices with this file's own determinant and weights
  shuffled-pulling-x2  two seeded shuffled pulling orders give the same value
  frozen-family      the frozen 104/104/130 deformation-family values
  supporting-hyperplanes / planar-lower-hull  diagram facets checked here

A disagreement stops the recording with an error: the corpus never holds
a value its route did not confirm.  Each request records its route.
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import newton_mu  # noqa: E402
from newton_mu import (  # noqa: E402
    gamma_minus,
    milnor_colength,
    newton_diagram,
    newton_number,
    parse_series,
    r_newton_number,
    standard_modification,
    support,
)
from newton_mu.polyhedra import default_variables, is_convenient  # noqa: E402

import workloads  # noqa: E402

MASTER_SEED = 20260601
POOL = 12
SHUFFLE_SEEDS = (101, 102)
MAX_REQUEST_S = 3.0

# (n, points, degree scale D) for the nn-sweep ladder.  Request time grows
# with C(points, n) * points.  Rungs are close together so that request
# times are dense around the median and the 90th percentile.  The top rungs
# take about half a second, so that a 35-second run holds several whole
# cycles (over 100 requests); larger supports are left out for run length.
NN_RUNGS = (
    (2, 8, 12), (2, 12, 16), (2, 16, 20), (2, 20, 25), (2, 24, 30), (2, 28, 35),
    (2, 32, 40), (2, 36, 45),
    (3, 8, 10), (3, 10, 11), (3, 12, 12), (3, 14, 13), (3, 16, 14), (3, 18, 15),
    (4, 8, 10), (4, 9, 10), (4, 10, 11), (4, 11, 11), (4, 12, 12),
    (5, 8, 10), (5, 9, 10), (5, 10, 10),
    (6, 8, 10), (6, 9, 10), (6, 10, 10),
)

# Copied from the four-variable fixtures of the test suite:
# (points without the w^m term, dropped vertex, m values, case, frozen nu).
FAMILY_FIXTURES = (
    ([(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 5, 0), (1, 0, 0, 5), (0, 2, 1, 1)],
     (0, 2, 1, 1), range(8, 13), "i", 104),
    ([(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 5, 0), (1, 0, 0, 5), (0, 1, 0, 5), (0, 0, 1, 6)],
     (0, 0, 1, 6), range(8, 13), "ii", 104),
    ([(2, 0, 0, 0), (0, 5, 0, 0), (0, 0, 6, 0), (0, 1, 0, 6), (0, 0, 2, 5), (0, 0, 0, 8)],
     (0, 0, 0, 8), range(9, 13), "iii", 130),
)


class RouteMismatch(AssertionError):
    pass


class TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise TooSlow


def recorded_value(spec: dict, regions=None) -> dict:
    """Run a request once and normalize its output.  A request that takes
    more than MAX_REQUEST_S raises TooSlow: one such request would fill a
    tenth of a run (cli-mix draws a new series instead; it happens when
    the Jacobian-colength oracle climbs to its order cap)."""
    request = workloads.build_request(spec, regions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, MAX_REQUEST_S)
    try:
        output = request.call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return request.value(output)


def confirm(label: str, got, want) -> None:
    if got != want:
        raise RouteMismatch(f"{label}: recorded {got!r}, route gives {want!r}")


# ---------------------------------------------------------------------------
# input generators


def layer_support(rng: random.Random, n: int, count: int, scale: int) -> list[tuple[int, ...]]:
    """Pure powers near ``scale`` plus mixed points near the convex surface
    sum(sqrt(v_i / scale)) = 1, so that many points are diagram vertices.
    (Uniform draws leave most points above one facet.)"""
    pts = set()
    for i in range(n):
        v = [0] * n
        v[i] = scale + rng.randint(0, 2)
        pts.add(tuple(v))
    while len(pts) < count:
        w = [rng.random() for _ in range(n)]
        total = sum(w)
        v = tuple(int(round(scale * (x / total) ** 2 * (1 + 0.15 * rng.random()))) for x in w)
        if sum(1 for c in v if c) >= 2:
            pts.add(v)
    return sorted(pts)


def poly_text(points, coeffs) -> str:
    n = len(points[0])
    names = default_variables(n)
    text = ""
    for p, c in zip(points, coeffs):
        mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(p) if e)
        term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not text:
            text = term if c > 0 else f"-{term}"
        else:
            text += f" + {term}" if c > 0 else f" - {term}"
    parsed = parse_series(text)
    assert parsed.support() == support(points, names), text
    return text


def random_coeffs(rng: random.Random, k: int) -> list[int]:
    return [rng.choice((-1, 1)) * rng.randint(1, 7) for _ in range(k)]


def axis_powers(points, n: int) -> list[int]:
    """Pure power on each axis; 1 + the largest coordinate sum where an
    axis has none (the first modification degree stabilization tries)."""
    top = 1 + max(sum(p) for p in points)
    return [next((p[i] for p in points if p[i] and sum(1 for c in p if c) == 1), top)
            for i in range(n)]


def scaled_intercepts(points, axis_power) -> list[Fraction]:
    """Intercepts a_i = lam * p_i with the axis simplex under every support
    point: lam is the least value of sum(x_i / p_i), rounded down to
    twelfths."""
    lam = min(sum(Fraction(x, p) for x, p in zip(pt, axis_power)) for pt in points)
    lam = Fraction(math.floor(lam * 12), 12)
    return [lam * p for p in axis_power]


# ---------------------------------------------------------------------------
# independent routes


def _det(rows) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [list(r) for r in rows]
    k = len(m)
    if k == 0:
        return 1
    sign, prev = 1, 1
    for c in range(k - 1):
        pivot = next((r for r in range(c, k) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, k):
            for j in range(c + 1, k):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[k - 1][k - 1]


def own_f(l: int, k: int, d) -> int:
    """F(l, k, d): sum over weak compositions of l - k into k parts of
    prod d_j^(i_j + 1)."""
    total = 0
    for parts in product(range(l - k + 1), repeat=k):
        if sum(parts) == l - k:
            term = 1
            for dj, ij in zip(d, parts):
                term *= dj ** (ij + 1)
            total += term
    return total


def own_subset_volumes(simplices, n: int) -> dict:
    out = {}
    for size in range(n + 1):
        for members in combinations(range(n), size):
            faces = set()
            for s in simplices:
                face = tuple(sorted(v for v in s if all(v[i] == 0 for i in range(n) if i not in members)))
                if len(face) == size + 1:
                    faces.add(face)
            vol = 0
            for face in faces:
                base = face[0]
                vol += abs(_det([[v[i] - base[i] for i in members] for v in face[1:]]))
            out[frozenset(members)] = vol
    return out


def own_newton(simplices, n: int, d=None) -> Fraction:
    vols = own_subset_volumes(simplices, n)
    r = 1 if d is None else len(d)
    total = Fraction(0)
    for members, vol in vols.items():
        if d is None:
            total += (-1) ** (n - len(members)) * vol
        elif len(members) >= r:
            total += (-1) ** (n - len(members)) * own_f(len(members), r, d) * vol
    if d is not None:
        origin = tuple([0] * n)
        if any(origin in s for s in simplices):
            total += (-1) ** (n - r + 1)
    return total


def own_axis_closed_form(d, a) -> Fraction:
    n, r = len(a), len(d)
    total = Fraction((-1) ** (n - r + 1))
    for s in range(r, n + 1):
        sigma = sum(math.prod(c) for c in combinations(a, s))
        total += (-1) ** (n - s) * own_f(s, r, d) * sigma
    return total


def shuffled_values(s, value) -> list:
    out = []
    for seed in SHUFFLE_SEEDS:
        verts = sorted({v for f in newton_diagram(s).facets for v in f.vertices})
        random.Random(seed).shuffle(verts)
        order = {v: i for i, v in enumerate(verts)}
        out.append(value(gamma_minus(s, vertex_order=order)))
    return out


def nu_route(label, s, nu, parsed=None, brieskorn=False) -> str:
    """Confirm nu of a convenient support; returns the route used."""
    if brieskorn:
        confirm(label, Fraction(nu), Fraction(math.prod(max(p) - 1 for p in s.points)))
        return "closed-form"
    if parsed is not None and s.n <= 3 and parsed.polynomial().degree() <= 8:
        confirm(label, Fraction(nu), Fraction(milnor_colength(parsed.polynomial())))
        return "milnor-colength"
    for v in shuffled_values(s, lambda reg: newton_number(reg).total):
        confirm(label, Fraction(nu), v)
    return "shuffled-pulling-x2"


def check_diagram(label, s, expect) -> str:
    if s.n == 2:
        # lower-left hull of the support by a monotone chain
        pts = sorted(s.points)
        hull = []
        for p in pts:
            if hull and p[1] >= hull[-1][1]:
                continue
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        confirm(label, expect["vertices"], [[str(c) for c in v] for v in hull])
        return "planar-lower-hull"
    for normal, offset in expect["facets"]:
        c = Fraction(offset)
        values = [sum(w * x for w, x in zip(normal, p)) for p in s.points]
        confirm(label, all(w > 0 for w in normal) and min(values) == c
                and sum(1 for v in values if v == c) >= s.n, True)
    return "supporting-hyperplanes"


# ---------------------------------------------------------------------------
# workloads


def record_nn_sweep(_rng: random.Random) -> dict:
    groups = []
    for n, count, scale in NN_RUNGS:
        label = f"nn n={n} N={count}"
        # Each rung draws from its own seed, so that changing the ladder
        # leaves the other rungs' supports as they are.
        rng = random.Random(f"{MASTER_SEED} {label}")
        members, seen = [], set()
        while len(members) < POOL:
            pts = layer_support(rng, n, count, scale)
            if tuple(pts) in seen:
                continue
            seen.add(tuple(pts))
            spec = {"kind": "cli", "label": label,
                    "argv": ["nn", "--poly", poly_text(pts, [1] * len(pts))]}
            expect = recorded_value(spec)
            route = nu_route(label, support(pts), expect["nu"])
            members.append({"requests": [dict(spec, expect=expect, route=route)]})
        groups.append({"label": label, "members": members})
        print(label, "recorded", flush=True)
    return {"groups": groups}


def _explicit_region_member(rng, n, count, scale, regions) -> dict | None:
    pts = layer_support(rng, n, count, scale)
    region = gamma_minus(support(pts))
    if not 5 <= len(region.simplices) <= 20:
        return None
    sims = [[list(v) for v in s.vertices] for s in region.simplices]
    index = len(regions)
    regions.append(sims)
    tuples = [[2], [1, 2], [2, 1, 1]]
    a = scaled_intercepts(pts, axis_powers(pts, n))
    if any(v < 1 for v in a):
        regions.pop()
        return None
    label = f"region n={n} k={len(sims)}"
    specs = [{"call": "newton_number"}, {"call": "vanishing_check"},
             {"call": "bound_simplex", "a": [str(v) for v in a]}]
    specs += [{"call": "r_newton_number", "d": d} for d in tuples]
    out = []
    tup = [tuple(tuple(v) for v in s) for s in sims]
    nu = own_newton(tup, n)
    for spec in specs:
        spec = dict(spec, kind="lib", region=index, label=f"{spec['call']} {label}")
        expect = recorded_value(spec, regions)
        if spec["call"] == "r_newton_number":
            confirm(spec["label"], Fraction(expect["total"]), own_newton(tup, n, spec["d"]))
        elif spec["call"] == "bound_simplex":
            confirm(spec["label"], (Fraction(expect["nu"]), Fraction(expect["bound"]), expect["verdict"]),
                    (nu, math.prod(v - 1 for v in a), nu >= math.prod(v - 1 for v in a)))
        else:
            confirm(spec["label"], Fraction(expect["total"]), nu)
        out.append(dict(spec, expect=expect, route="independent-sum"))
    return {"requests": out}


def _offorigin_simplex(rng, n) -> list:
    while True:
        verts = {tuple(0 if rng.random() < 0.45 else rng.randint(1, 9) for _ in range(n))
                 for _ in range(n + 1)}
        if len(verts) != n + 1 or any(not any(v) for v in verts):
            continue
        s = newton_mu.Simplex(tuple(verts))
        if s.is_degenerate or s.contains_point((0,) * n):
            continue
        return [list(v) for v in s.vertices]


def _fan(rng, n) -> list:
    size = n - 2
    idx = sorted(rng.sample(range(n), size))
    comp = [i for i in range(n) if i not in idx]
    while True:
        base = []
        for _ in range(size + 1):
            v = [0] * n
            for i in idx:
                v[i] = rng.randint(1, 5)
            base.append(tuple(v))
        if len(set(base)) != size + 1:
            continue
        if not newton_mu.Simplex(tuple(tuple(b[i] for i in idx) for b in base)).is_degenerate:
            break
    pieces = rng.randint(2, 3)
    rays = []
    for k in range(1, pieces + 2):
        c = rng.randint(1, 3)
        v = [0] * n
        v[comp[0]] = c * k
        v[comp[1]] = c * (pieces + 2 - k)
        rays.append(tuple(v))
    return [[list(v) for v in sorted(base + [rays[t], rays[t + 1]])] for t in range(pieces)]


def _factored_member(sims, n, regions, label) -> dict | None:
    index = len(regions)
    regions.append(sims)
    try:
        newton_mu.newton_number_factored(workloads._region(sims))
    except newton_mu.NewtonMuError:
        regions.pop()
        return None  # outside the factored route's preconditions
    tup = [tuple(tuple(v) for v in s) for s in sims]
    specs = [{"call": "newton_number_factored"}]
    specs += [{"call": "r_newton_factored", "d": d} for d in ([1, 2], [2, 1, 1]) if len(d) <= n]
    out = []
    for spec in specs:
        spec = dict(spec, kind="lib", region=index, label=f"{spec['call']} {label}")
        expect = recorded_value(spec, regions)
        confirm(spec["label"], Fraction(expect["total"]), own_newton(tup, n, spec.get("d")))
        out.append(dict(spec, expect=expect, route="independent-sum"))
    return {"requests": out}


def record_regions_explicit(rng: random.Random) -> dict:
    regions: list = []
    groups = []
    for n, count, scale in ((3, 14, 12), (4, 10, 10), (5, 9, 9), (6, 9, 9)):
        members = []
        while len(members) < POOL:
            member = _explicit_region_member(rng, n, count, scale, regions)
            if member is not None:
                members.append(member)
        groups.append({"label": f"region n={n}", "members": members})
        print(f"region n={n} recorded", flush=True)
    for label, dims, draw in (("off-origin simplex", (3, 4, 5, 6), lambda n: [_offorigin_simplex(rng, n)]),
                              ("fan union", (4, 5, 6), lambda n: _fan(rng, n))):
        members = []
        while len(members) < POOL:
            n = dims[len(members) % len(dims)]
            member = _factored_member(draw(n), n, regions, f"{label} n={n}")
            if member is not None:
                members.append(member)
        groups.append({"label": label, "members": members})
    print("factored recorded", flush=True)
    return {"groups": groups, "regions": regions}


def _cli_support(rng, n, kind):
    """Points of a cli-mix series: convenient, Brieskorn-Pham, or missing
    one pure power replaced by x_i * x_j^k (isolated, not convenient)."""
    if kind == "brieskorn":
        pts = []
        for i in range(n):
            v = [0] * n
            v[i] = rng.randint(2, 7 if n == 2 else 5)
            pts.append(tuple(v))
        return pts
    scale = {2: 6, 3: 6, 4: 5}[n]
    pts = layer_support(rng, n, {2: 6, 3: 7, 4: 7}[n], scale)
    if kind == "non-convenient":
        j = rng.randrange(n)
        i = (j + 1) % n
        pts = [p for p in pts if not (p[j] and sum(1 for c in p if c) == 1)]
        v = [0] * n
        v[i], v[j] = 1, rng.randint(2, scale - 1)
        pts.append(tuple(v))
        pts = sorted(set(pts))
    return pts


def _cli_member(rng, n, kind, unit) -> dict | None:
    pts = _cli_support(rng, n, kind)
    text = poly_text(pts, random_coeffs(rng, len(pts)))
    parsed = parse_series(text)
    s = parsed.support()
    convenient = is_convenient(s)[0]
    powers = axis_powers(pts, n)
    a = scaled_intercepts(pts, powers)
    if any(v < 1 for v in a):
        return None
    a_text = ",".join(str(v) for v in a)
    # On a non-convenient support the weighted numbers with r > 1 or d != (1)
    # keep growing with the modification degree (stabilization gives up),
    # so those use d = (1), where nu^1 = nu settles.
    d = {2: [1, 2], 3: [1, 2], 4: [1, 1, 2]}[n] if convenient else [1]
    d_text = ",".join(str(v) for v in d)
    verbs = [["diagram"]]
    if convenient:
        inner = set(pts)
        while len(inner) < len(pts) + 3:
            inner.add(tuple(rng.randint(1, max(2, max(powers) // 2)) for _ in range(n)))
        inner = sorted(inner)
        verbs += [["nn", "--with-oracles"], ["rnn", "--d", d_text],
                  ["bound", "--a", a_text, "--with-oracles"],
                  ["sciv-bound", "--d", d_text, "--a", a_text], ["vanish"],
                  ["decompose", "--inner-poly", poly_text(inner, [1] * len(inner))]]
    else:
        verbs += [["bound", "--a", a_text, "--with-oracles"],
                  ["sciv-bound", "--d", d_text, "--a", a_text]]
    label = f"{kind} n={n}"
    out = []
    for verb in verbs:
        argv = [verb[0], "--poly", text] + verb[1:]
        spec = {"kind": "cli", "argv": argv, "label": f"{verb[0]} {label}", "unit": unit}
        try:
            expect = recorded_value(spec)
        except TooSlow:
            return None
        route = _cli_route(spec["label"], verb, s, parsed, expect, kind == "brieskorn", d, a)
        out.append(dict(spec, expect=expect, route=route))
    return {"requests": out}


def _cli_route(label, verb, s, parsed, expect, brieskorn, d, a) -> str:
    name = verb[0]
    if "exit" in expect:
        raise RouteMismatch(f"{label}: exit code {expect['exit']}")
    if name == "diagram":
        return check_diagram(label, s, expect)
    if name == "nn":
        confirm(label, (expect["shuffled_agree"], expect["ehrhart_agrees"] in (True, None)), (True, True))
        return nu_route(label, s, expect["nu"], parsed, brieskorn)
    if name == "vanish":
        return nu_route(label, s, expect["nu"], parsed, brieskorn)
    if name == "rnn":
        for v in shuffled_values(s, lambda reg: r_newton_number(reg, newton_mu.degree_tuple(d)).total):
            confirm(label, Fraction(expect["nu_r"]), v)
        return "shuffled-pulling-x2"
    m = expect.get("modification_m")
    g = s if m is None else standard_modification(s, m)
    if name == "bound":
        bound = math.prod(v - 1 for v in a)
        confirm(label, Fraction(expect["bound"]), bound)
        if m is None:
            route = nu_route(label, s, expect["nu"], parsed, brieskorn)
        else:
            for v in shuffled_values(g, lambda reg: newton_number(reg).total):
                confirm(label, Fraction(expect["nu"]), v)
            route = "shuffled-pulling-x2"
        nu, mu = Fraction(expect["nu"]), expect["mu"]
        confirm(label, expect["verdict"], (mu is None or mu >= nu) and nu >= bound >= 0)
        return "closed-form product; nu by " + route
    if name == "sciv-bound":
        bound = own_axis_closed_form(d, a)
        confirm(label, Fraction(expect["bound"]), bound)
        for v in shuffled_values(g, lambda reg: r_newton_number(reg, newton_mu.degree_tuple(d)).total):
            confirm(label, Fraction(expect["nu"]), v)
        confirm(label, expect["verdict"], Fraction(expect["nu"]) >= bound >= 0)
        return "independent closed form; nu_r by shuffled-pulling-x2"
    if name == "decompose":
        inner = parse_series(verb[2]).support()
        outer_v = shuffled_values(s, lambda reg: newton_number(reg).total)
        inner_v = shuffled_values(inner, lambda reg: newton_number(reg).total)
        for v in outer_v:
            confirm(label, Fraction(expect["nu_outer"]), v)
        for v in inner_v:
            confirm(label, Fraction(expect["nu_inner"]), v)
        confirm(label, sum(Fraction(p) for p in expect["pieces"]), outer_v[0] - inner_v[0])
        return "shuffled-pulling-x2; pieces sum to the difference"
    raise ValueError(name)


def _family_member(points, vertex, m, case, nu, unit) -> dict:
    pts = sorted(points + [(0, 0, 0, m)])
    argv = ["family-check", "--poly", poly_text(pts, [1] * len(pts)),
            "--vertex", ",".join(str(c) for c in vertex)]
    spec = {"kind": "cli", "argv": argv, "label": f"family-check case {case}", "unit": unit}
    expect = recorded_value(spec)
    confirm(spec["label"], expect, {"case": case, "nu_f0": str(nu), "nu_f1": str(nu), "equal": True})
    return {"requests": [dict(spec, expect=expect, route="frozen-family")]}


def record_cli_mix(rng: random.Random) -> dict:
    groups = []
    unit = 0
    for n, kind in ((2, "convenient"), (3, "convenient"), (4, "convenient"),
                    (2, "non-convenient"), (3, "non-convenient"),
                    (2, "brieskorn"), (3, "brieskorn")):
        members = []
        while len(members) < POOL:
            member = _cli_member(rng, n, kind, f"u{unit}")
            if member is not None:
                members.append(member)
                unit += 1
        groups.append({"label": f"{kind} n={n}", "members": members})
        print(f"{kind} n={n} recorded", flush=True)
    members = []
    for points, vertex, ms, case, nu in FAMILY_FIXTURES:
        for m in ms:
            members.append(_family_member(points, vertex, m, case, nu, f"u{unit}"))
            unit += 1
    groups.append({"label": "family-check", "members": members})
    return {"groups": groups, "keep_together": True}


RECORDERS = {
    "nn-sweep": record_nn_sweep,
    "regions-explicit": record_regions_explicit,
    "cli-mix": record_cli_mix,
}


def main(argv) -> int:
    names = argv or list(RECORDERS)
    for offset, name in enumerate(RECORDERS):
        if name not in names:
            continue
        corpus = RECORDERS[name](random.Random(MASTER_SEED + offset))
        corpus["master_seed"] = MASTER_SEED + offset
        path = workloads.CORPUS_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
