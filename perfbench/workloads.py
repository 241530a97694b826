"""Requests of the three benchmark workloads, built from the recorded corpus.

A corpus file (``corpus/<workload>.json``) holds request specs: generated
inputs plus the expected output recorded by ``record.py``.  This module
turns specs into requests (a zero-argument call into ``newton_mu``) and
normalizes each output into a small dict of exact values, so that checking
a request is one dict comparison made off the timed path.

Rationals are normalized to the canonical ``str(Fraction)`` form, which is
unique per value, so equal strings mean equal exact values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import newton_mu
from newton_mu import cli

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
WORKLOADS = ("nn-sweep", "regions-explicit", "cli-mix")


def _dumps(payload) -> str:
    """The JSON rendering ``cli.main`` does before printing."""
    return json.dumps(payload, indent=2)


def q(value) -> str:
    """Canonical exact form of a rational given as int, str or Fraction."""
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# normalizing outputs


def _certificate(cert: dict) -> dict:
    return {
        "bound": q(cert["bound"]),
        "nu": q(cert["nu"]),
        "verdict": cert["verdict"],
        "modification_m": cert["modification_m"],
    }


def _cli_value(verb: str, payload: dict) -> dict:
    if verb == "diagram":
        return {
            "vertices": [[q(c) for c in v] for v in payload["vertices"]],
            "facets": [
                [f["inner_normal"], q(f["offset"])] for f in payload["facets"]
            ],
        }
    if verb == "nn":
        out = {"nu": q(payload["nu"])}
        if "oracles" in payload:
            oracles = payload["oracles"]
            out["shuffled"] = [q(s["nu"]) for s in oracles["shuffled"]]
            out["shuffled_agree"] = oracles["shuffled_agree"]
            out["ehrhart_agrees"] = oracles["ehrhart_agrees"]
        return out
    if verb == "rnn":
        return {"nu_r": q(payload["nu_r"])}
    if verb in ("bound", "sciv-bound"):
        out = _certificate(payload["certificate"])
        if "oracles" in payload:
            out["mu"] = payload["oracles"]["mu"]
        return out
    if verb == "vanish":
        return {
            "nu": q(payload["nu"]),
            "unit_axes": payload["unit_axes"],
            "sufficient_axis": payload["sufficient_axis"],
            "consistent": [
                payload["necessary_consistent"],
                payload["sufficient_consistent"],
                payload["extremal_consistent"],
            ],
        }
    if verb == "decompose":
        return {
            "nu_outer": q(payload["nu_outer"]),
            "nu_inner": q(payload["nu_inner"]),
            "pieces": [q(p["nu"]) for p in payload["pieces"]],
        }
    if verb == "family-check":
        return {
            "case": payload["case"],
            "nu_f0": q(payload["nu_f0"]),
            "nu_f1": q(payload["nu_f1"]),
            "equal": payload["equal"],
        }
    raise ValueError(f"no normalizer for verb {verb!r}")


def _lib_value(call: str, result) -> dict:
    if call in ("newton_number", "r_newton_number"):
        return {"total": q(result.total)}
    if call == "vanishing_check":
        return {
            "total": q(result.total),
            "unit_axes": list(result.unit_axes),
            "sufficient_axis": result.sufficient_axis,
        }
    if call == "bound_simplex":
        return {
            "bound": q(result.bound),
            "nu": q(result.nu_value),
            "verdict": result.verdict,
        }
    if call == "newton_number_factored":
        return {"total": q(result.total), "route": result.route}
    if call == "r_newton_factored":
        return {"total": q(result.total), "route": result.route, "branch": result.branch}
    raise ValueError(f"no normalizer for call {call!r}")


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    """One closed-loop request: ``call()`` does the work that is timed and
    ``value(output)`` normalizes what it returned for the check."""

    label: str
    call: Callable[[], object]
    value: Callable[[object], dict]
    expect: dict | None

    def correct(self, output) -> bool:
        """Exit code 0 and the recorded exact values; never raises."""
        try:
            return self.value(output) == self.expect
        except (KeyError, TypeError, ValueError, AttributeError):
            return False


def _cli_request(spec: dict) -> Request:
    argv = list(spec["argv"])
    verb = argv[0]

    def call():
        code, payload = cli.run(argv)
        _dumps(payload)
        return code, payload

    def value(output):
        code, payload = output
        if code != 0:
            return {"exit": code}
        return _cli_value(verb, payload)

    return Request(spec["label"], call, value, spec.get("expect"))


def _region(simplices) -> newton_mu.NewtonRegion:
    sims = tuple(newton_mu.Simplex(tuple(tuple(v) for v in s)) for s in simplices)
    return newton_mu.NewtonRegion(sims[0].n, sims)


def _lib_request(spec: dict, regions: list) -> Request:
    name = spec["call"]
    simplices = regions[spec["region"]]
    d = spec.get("d")
    a = spec.get("a")

    def call():
        # Library names are looked up at call time so that the tracer's
        # wrappers on the package namespace take effect.
        region = _region(simplices)
        fn = getattr(newton_mu, name)
        if name in ("r_newton_number", "r_newton_factored"):
            return fn(region, newton_mu.degree_tuple(d))
        if name == "bound_simplex":
            return fn(region, [Fraction(v) for v in a])
        return fn(region)

    return Request(spec["label"], call, lambda out: _lib_value(name, out), spec.get("expect"))


def build_request(spec: dict, regions: list | None = None) -> Request:
    if spec["kind"] == "cli":
        return _cli_request(spec)
    return _lib_request(spec, regions or [])


# ---------------------------------------------------------------------------
# corpus and per-seed request order


def load_corpus(workload: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(CORPUS_DIR / f"{workload}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def request_order(corpus: dict, seed: int) -> list[list[dict]]:
    """Cycles of request specs for one seed.

    The corpus is a list of groups (one ladder rung, one region, one
    support with its verbs).  Every cycle takes one member of each group,
    walking each group through a seeded permutation, so one seed always
    gives the same inputs and members repeat only after every member of a
    group has been used.  Within a cycle the order is a seeded shuffle.
    """
    rng = random.Random(seed)
    groups = corpus["groups"]
    perms = []
    for group in groups:
        perm = list(range(len(group["members"])))
        rng.shuffle(perm)
        perms.append(perm)
    width = max(len(p) for p in perms)
    cycles = []
    for c in range(width):
        cycle = []
        for group, perm in zip(groups, perms):
            member = group["members"][perm[c % len(perm)]]
            cycle.extend(member["requests"])
        cycle = _shuffle_units(cycle, rng, corpus.get("keep_together", False))
        cycles.append(cycle)
    return cycles


def _shuffle_units(specs: list[dict], rng: random.Random, keep_together: bool) -> list[dict]:
    """Shuffle requests, keeping each member's requests in their given
    order when ``keep_together`` is set (a user issuing several verbs on
    one support in turn)."""
    if not keep_together:
        rng.shuffle(specs)
        return specs
    units: dict[str, list[dict]] = {}
    for spec in specs:
        units.setdefault(spec["unit"], []).append(spec)
    keys = list(units)
    rng.shuffle(keys)
    return [spec for key in keys for spec in units[key]]
