"""Text and JSON input/output.

Power series come in as sums of monomials over x, y, z, w (or z1, z2, ...
beyond four variables); names outside the active alphabet are symbolic
coefficients, assumed nonzero, so only the exponent set matters.  Supports
also round-trip through a small JSON shape.  All emitted JSON carries the
schema tag and renders exact rationals as strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .polyhedra import SupportSet, default_variables

SCHEMA = "newton-mu/1"

_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[\^*+\-])"
)

_ALPHABET = {"x": 0, "y": 1, "z": 2, "w": 3}
_NUMBERED = re.compile(r"^z(\d+)$")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


@dataclass
class _RawTerm:
    sign: int
    coeff: Fraction
    powers: dict
    position: int


def _parse_terms(text: str) -> list[_RawTerm]:
    tokens = _tokenize(text)
    terms: list[_RawTerm] = []
    i = 0
    size = len(tokens)

    def peek():
        return tokens[i] if i < size else (None, "", len(text))

    sign = 1
    kind, val, pos = peek()
    if kind == "op" and val in "+-":
        sign = -1 if val == "-" else 1
        i += 1
    while True:
        term_pos = tokens[i][2] if i < size else len(text)
        coeff = Fraction(1)
        powers: dict[str, int] = {}
        saw_factor = False
        pending_mul = False
        while True:
            kind, val, pos = peek()
            if kind == "number":
                coeff *= Fraction(val)
                i += 1
                saw_factor = True
                pending_mul = False
            elif kind == "name":
                i += 1
                exponent = 1
                nk, nv, npos = peek()
                if nk == "op" and nv == "^":
                    i += 1
                    ek, ev, epos = peek()
                    if ek != "number" or "/" in ev:
                        raise ParseError("exponent must be a nonnegative integer", epos)
                    exponent = int(ev)
                    i += 1
                powers[val] = powers.get(val, 0) + exponent
                saw_factor = True
                pending_mul = False
            elif kind == "op" and val == "*":
                if not saw_factor or pending_mul:
                    raise ParseError("'*' without a preceding factor", pos)
                i += 1
                pending_mul = True
                continue
            elif kind == "op" and val == "^":
                raise ParseError("exponent without a variable", pos)
            else:
                if pending_mul:
                    raise ParseError("dangling '*' without a factor", pos)
                break
        if not saw_factor:
            raise ParseError("expected a monomial", term_pos)
        terms.append(_RawTerm(sign, coeff, powers, term_pos))
        kind, val, pos = peek()
        if kind is None:
            break
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        else:
            raise ParseError(f"unexpected token {val!r}", pos)
    return terms


def _classify_names(terms, variables: tuple[str, ...] | None):
    names = sorted({name for t in terms for name in t.powers})
    if variables is not None:
        index = {v: j for j, v in enumerate(variables)}
        return index, [n for n in names if n not in index]
    alpha = [n for n in names if n in _ALPHABET]
    numbered = [n for n in names if _NUMBERED.match(n)]
    # A bare z fits both alphabets; treat it as numbered only when z<k> names appear.
    others = [n for n in names if n not in alpha and n not in numbered]
    pure_numbered = [n for n in numbered if n != "z"]
    if pure_numbered and any(n in ("x", "y", "w") for n in alpha):
        raise ParseError(
            "mixed variable styles: use x,y,z,w or z1,z2,... but not both", 0
        )
    if pure_numbered:
        top = max(int(_NUMBERED.match(n).group(1)) for n in pure_numbered)
        if "z" in alpha:
            raise ParseError("bare z cannot mix with numbered z variables", 0)
        index = {f"z{k+1}": k for k in range(top)}
        stray = next((n for n in pure_numbered if n not in index), None)  # z0, z01, ...
        if stray:
            message = f"numbered variables are z1, z2, ...; {stray} is not one of them"
            raise ParseError(message, next(t.position for t in terms if stray in t.powers))
        return index, others
    if alpha:
        top = max(_ALPHABET[n] for n in alpha)
        variables = default_variables(top + 1)
        index = {v: j for j, v in enumerate(variables)}
        return index, others
    return {}, others


@dataclass
class ParsedSeries:
    """Exponent set plus exact coefficients (None marks a symbolic one)."""

    variables: tuple[str, ...]
    coefficients: dict

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def has_symbolic(self) -> bool:
        return any(c is None for c in self.coefficients.values())

    def support(self) -> SupportSet:
        return SupportSet(self.variables, tuple(self.coefficients))

    def polynomial(self):
        if self.has_symbolic:
            return None
        from .oracles import Polynomial

        return Polynomial(self.n, dict(self.coefficients))


def parse_series(text: str, variables: tuple[str, ...] | None = None) -> ParsedSeries:
    """Parse a sum of monomials into exponent vectors and coefficients.

    Unknown names are symbolic nonzero coefficients; terms with numeric
    coefficients that cancel exactly drop out of the support.  An input
    whose support comes out empty is an error.
    """
    if not text.strip():
        raise ParseError("empty input", 0)
    terms = _parse_terms(text)
    index, symbol_names = _classify_names(terms, variables)
    symbolic_set = set(symbol_names)
    if variables is None and not index:
        raise ParseError("no variables found in the input", 0)
    n = len(index) if variables is None else len(variables)

    combined: dict[tuple[int, ...], Fraction | None] = {}
    for t in terms:
        exps = [0] * n
        symbolic = False
        for name, power in t.powers.items():
            if name in symbolic_set:
                symbolic = True
                continue
            exps[index[name]] += power
        key = tuple(exps)
        if symbolic:
            combined[key] = None
        elif key in combined:
            if combined[key] is not None:
                combined[key] += t.sign * t.coeff
        else:
            combined[key] = t.sign * t.coeff
    cleaned = {k: v for k, v in combined.items() if v is None or v != 0}
    if not cleaned:
        raise ParseError("every term cancelled; the support is empty", 0)
    if variables is None:
        variables = default_variables(n)
        if index and max(index.values()) + 1 == n and "z1" in index:
            variables = tuple(sorted(index, key=index.get))
    return ParsedSeries(tuple(variables), cleaned)


def parse_point(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"expected a comma-separated integer point, got {text!r}", 0)


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected comma-separated rationals, got {text!r}", 0)


def parse_ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}", 0)


def frac_str(value) -> str:
    return str(Fraction(value))


def coord_json(value):
    f = Fraction(value)
    return int(f) if f.denominator == 1 else str(f)


def point_json(point) -> list:
    return [coord_json(c) for c in point]


def subset_json(members) -> list[int]:
    return [i + 1 for i in sorted(members)]


def support_to_json(s: SupportSet) -> dict:
    return {
        "schema": SCHEMA,
        "variables": list(s.variables),
        "monomials": [list(p) for p in s.points],
    }


def support_from_json(data) -> SupportSet:
    if not isinstance(data, dict):
        raise ParseError("support JSON must be an object", 0)
    if "schema" in data and data["schema"] != SCHEMA:
        raise ParseError(f'support JSON "schema" is {data["schema"]!r}, expected {SCHEMA!r}', 0)
    monomials = data.get("monomials")
    if not isinstance(monomials, list) or not monomials:
        raise ParseError('support JSON needs a nonempty "monomials" list', 0)
    points = []
    for entry in monomials:
        if not isinstance(entry, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in entry
        ):
            raise ParseError(f"bad monomial entry {entry!r}", 0)
        if points and len(entry) != len(points[0]):
            raise ParseError(
                f"monomial {entry!r} has {len(entry)} coordinates,"
                f" earlier ones have {len(points[0])}",
                0,
            )
        points.append(tuple(entry))
    variables = data.get("variables")
    if variables is None:
        variables = default_variables(len(points[0]))
    elif not isinstance(variables, list) or not all(
        isinstance(v, str) for v in variables
    ):
        raise ParseError('support JSON "variables" must be a list of names', 0)
    elif "" in variables:
        raise ParseError('support JSON "variables" has an empty name', 0)
    elif len(set(variables)) != len(variables) or len(variables) != len(points[0]):
        raise ParseError(
            f'support JSON "variables" must name the {len(points[0])} coordinates once each', 0
        )
    return SupportSet(tuple(variables), tuple(points))
