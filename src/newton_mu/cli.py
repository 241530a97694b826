"""Command-line interface.

Every invocation prints one JSON document tagged with the schema version.
Exit codes: 0 success, 1 usage problems (bad flags, unparsable input),
2 domain problems (valid input outside a precondition).  Batch mode runs
one invocation per line of a file and collects the envelopes into a list.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from functools import cache
from math import factorial

from .bounds import BoundCertificate, milnor_lower_bound
from .errors import NewtonMuError, UsageError
from .family import FamilyStep, negligible_truncation_check
from .higher import DegreeTuple, r_newton_number, sciv_milnor_bound
from .newton import decompose_difference, newton_number, vanishing_check
from .oracles import (
    ORACLE_MAX_DEGREE,
    ORACLE_MAX_DIMENSION,
    ehrhart_volume,
    milnor_colength,
    shuffled_newton_number,
)
from .parsing import (
    SCHEMA,
    frac_str,
    parse_ints,
    parse_point,
    parse_rationals,
    parse_series,
    point_json,
    subset_json,
    support_from_json,
)
from .polyhedra import SupportSet, gamma_minus, is_convenient, newton_diagram

SHUFFLE_SEEDS = (1, 2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newton-mu",
        description="Newton numbers of power-series supports and the Milnor-number"
        " lower bounds they certify.",
    )
    parser.add_argument(
        "--batch",
        metavar="FILE",
        help="run one invocation per line of FILE and emit a list of envelopes",
    )
    sub = parser.add_subparsers(dest="verb")

    def add_series_input(p):
        p.add_argument("--poly", help="power series as a sum of monomials")
        p.add_argument("--support", help="path to a support JSON file")

    p = sub.add_parser("diagram", help="Newton diagram: facets and vertices")
    add_series_input(p)

    p = sub.add_parser("nn", help="Newton number of the region under the diagram")
    add_series_input(p)
    p.add_argument("--with-oracles", action="store_true", dest="with_oracles")

    p = sub.add_parser("rnn", help="r-th Newton number")
    add_series_input(p)
    p.add_argument("--r", type=int, help="order (defaults to the length of --d)")
    p.add_argument("--d", required=True, help="comma-separated degrees d_1..d_r")

    p = sub.add_parser("bound", help="certified Milnor-number lower bound")
    add_series_input(p)
    p.add_argument("--a", required=True, help="comma-separated axis intercepts")
    p.add_argument("--with-oracles", action="store_true", dest="with_oracles")

    p = sub.add_parser("sciv-bound", help="certified bound through the r-th Newton number")
    add_series_input(p)
    p.add_argument("--d", required=True, help="comma-separated degrees d_1..d_r")
    p.add_argument("--a", required=True, help="comma-separated axis intercepts")

    p = sub.add_parser("vanish", help="vanishing criteria for the Newton number")
    add_series_input(p)

    p = sub.add_parser("decompose", help="difference decomposition of nested regions")
    add_series_input(p)
    p.add_argument("--inner", help="path to the inner support JSON file")
    p.add_argument("--inner-poly", dest="inner_poly", help="inner series as text")

    p = sub.add_parser("family-check", help="single-term deformation check (4 variables)")
    p.add_argument("--f1", help="path to the richer support JSON file")
    p.add_argument("--poly", help="richer series as text")
    p.add_argument("--vertex", required=True, help="dropped vertex, e.g. 1,1,1,0")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every `run` call shares, built on the first one (not
    at import).  Parsing leaves no state in it: each call returns a new
    namespace."""
    return build_parser()


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise UsageError(f"{path} is not valid JSON: {e}")


def _load_series(ns, text="poly", path="support"):
    """(SupportSet, ParsedSeries | None) from exactly one of two flags: the
    series text `text` or the support JSON file `path` (attribute names).
    An empty flag counts as absent."""
    given = [name for name in (text, path) if getattr(ns, name)]
    if len(given) != 1:
        # the messages name the two flags in sorted order
        a, b = sorted("--" + name.replace("_", "-") for name in (text, path))
        raise UsageError(f"give {a} or {b}, not both" if given else f"need {a} or {b}")
    if given[0] == text:
        parsed = parse_series(getattr(ns, text))
        return parsed.support(), parsed
    return support_from_json(_read_json(getattr(ns, path))), None


def _simplices_json(region) -> list:
    return [[point_json(v) for v in s.vertices] for s in region.simplices]


def _certificate_json(cert: BoundCertificate) -> dict:
    out = {
        "kind": cert.kind,
        "a": [frac_str(v) for v in cert.a],
        "bound": frac_str(cert.bound),
        "nu": frac_str(cert.nu_value),
        "modification_m": cert.modification_m,
        "chain": [
            {"lhs": link.lhs, "rel": link.rel, "rhs": link.rhs, "status": link.status}
            for link in cert.chain
        ],
        "verdict": cert.verdict,
    }
    if cert.r is not None:
        out["r"] = cert.r
        out["d"] = list(cert.d)
    return out


def _cmd_diagram(ns) -> dict:
    s, _ = _load_series(ns)
    diagram = newton_diagram(s)
    convenient, missing = is_convenient(s)
    return {
        "variables": list(s.variables),
        "n": s.n,
        "convenient": convenient,
        "missing_axes": [i + 1 for i in missing],
        "vertices": [point_json(v) for v in diagram.vertices],
        "facets": [
            {
                "vertices": [point_json(v) for v in f.vertices],
                "inner_normal": list(f.inner_normal),
                "offset": frac_str(f.offset),
            }
            for f in diagram.facets
        ],
    }


def _nn_oracles(s: SupportSet, region, report) -> dict:
    shuffled = [
        {"seed": seed, "nu": frac_str(shuffled_newton_number(s, seed))}
        for seed in SHUFFLE_SEEDS
    ]
    out = {
        "shuffled": shuffled,
        "shuffled_agree": all(
            entry["nu"] == frac_str(report.total) for entry in shuffled
        ),
    }
    if s.n <= ORACLE_MAX_DIMENSION:
        volume = ehrhart_volume(region)
        top = region.subset_volumes()[frozenset(range(s.n))]
        out["ehrhart_volume"] = frac_str(volume)
        out["ehrhart_agrees"] = factorial(s.n) * volume == top
    else:
        out["ehrhart_volume"] = None
        out["ehrhart_agrees"] = None
    return out


def _cmd_nn(ns) -> dict:
    s, _ = _load_series(ns)
    region = gamma_minus(s)
    report = newton_number(region)
    out = {
        "n": s.n,
        "nu": frac_str(report.total),
        "terms": [
            {
                "I": subset_json(t.subset),
                "sign": t.sign,
                "factorial_volume": frac_str(t.factorial_volume),
            }
            for t in report.terms
        ],
    }
    if ns.with_oracles:
        out["oracles"] = _nn_oracles(s, region, report)
    return out


def _cmd_rnn(ns) -> dict:
    s, _ = _load_series(ns)
    d = parse_ints(ns.d)
    r = ns.r if ns.r is not None else len(d)
    dt = DegreeTuple(r, d)
    region = gamma_minus(s)
    report = r_newton_number(region, dt)
    return {
        "n": s.n,
        "r": report.r,
        "d": list(report.d),
        "nu_r": frac_str(report.total),
        "epsilon": report.epsilon,
        "terms": [
            {
                "I": subset_json(t.subset),
                "sign": t.sign,
                "weight": t.weight,
                "factorial_volume": frac_str(t.factorial_volume),
            }
            for t in report.terms
        ],
    }


def _bound_oracle(parsed) -> dict:
    if parsed is None:
        return {"mu": None, "skipped": "oracle needs --poly input"}
    if parsed.has_symbolic:
        return {"mu": None, "skipped": "oracle needs numeric coefficients"}
    poly = parsed.polynomial()
    if poly.n > ORACLE_MAX_DIMENSION or poly.degree() > ORACLE_MAX_DEGREE:
        return {
            "mu": None,
            "skipped": f"oracle is capped at dimension {ORACLE_MAX_DIMENSION}"
            f" and degree {ORACLE_MAX_DEGREE}",
        }
    return {"mu": milnor_colength(poly), "skipped": None}


def _cmd_bound(ns) -> dict:
    s, parsed = _load_series(ns)
    a = parse_rationals(ns.a)
    oracle = _bound_oracle(parsed) if ns.with_oracles else None
    cert = milnor_lower_bound(s, a, oracle_mu=oracle["mu"] if oracle else None)
    out = {
        "n": s.n,
        "certificate": _certificate_json(cert),
    }
    if oracle is not None:
        out["oracles"] = oracle
    return out


def _cmd_sciv_bound(ns) -> dict:
    s, _ = _load_series(ns)
    d = parse_ints(ns.d)
    a = parse_rationals(ns.a)
    dt = DegreeTuple(len(d), d)
    cert = sciv_milnor_bound(s, dt, a)
    return {
        "n": s.n,
        "certificate": _certificate_json(cert),
    }


def _cmd_vanish(ns) -> dict:
    s, _ = _load_series(ns)
    region = gamma_minus(s)
    report = vanishing_check(region)
    return {
        "n": s.n,
        "nu": frac_str(report.total),
        "unit_axes": [j + 1 for j in report.unit_axes],
        "necessary_consistent": report.necessary_consistent,
        "sufficient_axis": None
        if report.sufficient_axis is None
        else report.sufficient_axis + 1,
        "sufficient_consistent": report.sufficient_consistent,
        "extremal_applicable": report.extremal_applicable,
        "extremal_consistent": report.extremal_consistent,
    }


def _cmd_decompose(ns) -> dict:
    outer, _ = _load_series(ns)
    inner, _ = _load_series(ns, text="inner_poly", path="inner")
    x = gamma_minus(outer)
    y = gamma_minus(inner)
    nu_x = newton_number(x).total
    nu_y = newton_number(y).total
    pieces = decompose_difference(x, y)
    return {
        "n": outer.n,
        "nu_outer": frac_str(nu_x),
        "nu_inner": frac_str(nu_y),
        "pieces": [
            {
                "I": subset_json(p.minimal_subset),
                "base_face": [point_json(v) for v in p.base_face],
                "nu": frac_str(p.total),
                "simplices": _simplices_json(p.region),
            }
            for p in pieces
        ],
    }


def _cmd_family_check(ns) -> dict:
    f1, _ = _load_series(ns, path="f1")
    vertex = parse_point(ns.vertex)
    step = FamilyStep(f1, vertex)
    verdict = negligible_truncation_check(step)
    return {
        "case": verdict.case,
        "witness": None if verdict.witness is None else point_json(verdict.witness),
        "permutation": None
        if verdict.permutation is None
        else [i + 1 for i in verdict.permutation],
        "predicted_equal": verdict.predicted_equal,
        "nu_f0": frac_str(verdict.nu_f0),
        "nu_f1": frac_str(verdict.nu_f1),
        "equal": verdict.equal,
        "delta": [point_json(v) for v in verdict.delta.vertices],
    }


_HANDLERS = {
    "diagram": _cmd_diagram,
    "nn": _cmd_nn,
    "rnn": _cmd_rnn,
    "bound": _cmd_bound,
    "sciv-bound": _cmd_sciv_bound,
    "vanish": _cmd_vanish,
    "decompose": _cmd_decompose,
    "family-check": _cmd_family_check,
}


def _run_line(line: str):
    """(exit code, envelope) of one batch line."""
    try:
        args = shlex.split(line)
    except ValueError as e:  # unbalanced quotes or a trailing backslash
        error = UsageError(f"cannot split the line: {e}")
    else:
        if "--batch" not in args:
            return run(args)
        error = UsageError("batch files cannot nest")
    return 1, {"schema": SCHEMA, "error": error.payload()}


def _run_batch(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")
    results = []
    codes = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        code, payload = _run_line(stripped)
        codes.append(code)
        results.append({"command": stripped, "exit": code, "output": payload})
    if not codes:
        exit_code = 0
    elif all(c == 0 for c in codes):
        exit_code = 0
    elif any(c == 2 for c in codes):
        exit_code = 2
    else:
        exit_code = 1
    return exit_code, {"schema": SCHEMA, "command": "batch", "results": results}


def run(argv) -> tuple[int, object]:
    """Library entry point: returns (exit code, JSON-serializable payload)."""
    try:
        ns = _parser().parse_args(argv)
        if ns.batch:
            if ns.verb:
                raise UsageError("--batch replaces the verb; put verbs in the file")
            return _run_batch(ns.batch)
        if not ns.verb:
            raise UsageError("missing verb (try diagram, nn, rnn, bound, ...)")
        return 0, {"schema": SCHEMA, "command": ns.verb, **_HANDLERS[ns.verb](ns)}
    except UsageError as e:
        return 1, {"schema": SCHEMA, "error": e.payload()}
    except NewtonMuError as e:
        return 2, {"schema": SCHEMA, "error": e.payload()}


def main(argv=None) -> int:
    code, payload = run(sys.argv[1:] if argv is None else argv)
    print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
