"""Series text parsing and JSON (de)serialization."""

import json
from fractions import Fraction

import pytest

from newton_mu.cli import run
from newton_mu.errors import ParseError
from newton_mu.parsing import (
    coord_json,
    frac_str,
    parse_ints,
    parse_point,
    parse_rationals,
    parse_series,
    point_json,
    subset_json,
    support_from_json,
    support_to_json,
)


def test_parse_basic_sum():
    p = parse_series("x^3 + y^2")
    assert p.variables == ("x", "y")
    assert p.coefficients == {(3, 0): Fraction(1), (0, 2): Fraction(1)}
    assert not p.has_symbolic


def test_parse_coefficients_and_products():
    p = parse_series("3/2*x*y + 2*y^3")
    assert p.coefficients == {(1, 1): Fraction(3, 2), (0, 3): Fraction(2)}


def test_parse_minus_and_combining():
    p = parse_series("x^2 - x^2 + y^3 + y^3")
    assert p.coefficients == {(0, 3): Fraction(2)}


def test_symbolic_coefficient():
    p = parse_series("x^3 + t*y^2")
    assert p.has_symbolic
    assert p.coefficients[(0, 2)] is None
    assert set(p.support().points) == {(3, 0), (0, 2)}
    assert p.polynomial() is None  # a numeric polynomial needs numeric coefficients


def test_numbered_variables():
    p = parse_series("z1^2 + z2^3 + z5")
    assert p.variables == ("z1", "z2", "z3", "z4", "z5")
    assert (0, 0, 0, 0, 1) in p.coefficients


@pytest.mark.parametrize(
    "text, name, position",
    [("z0^2 + z1^2", "z0", 0), ("z1^2 + z01^3", "z01", 7), ("z0^2", "z0", 0)],
)
def test_numbered_variables_outside_the_index_rejected(text, name, position):
    # z<k> with k = 0 or a leading zero is numbered but names no coordinate
    message = f"numbered variables are z1, z2, ...; {name} is not one of them"
    with pytest.raises(ParseError, match=message) as exc:
        parse_series(text)
    assert exc.value.position == position
    code, out = run(["nn", "--poly", text])
    assert code == 1
    assert out["error"] == {"type": "parse", "message": message, "position": position}


def test_variable_style_mixing_rejected():
    with pytest.raises(ParseError):
        parse_series("x^2 + z3^2")


def test_dangling_star_rejected():
    with pytest.raises(ParseError):
        parse_series("2*-3*x")
    with pytest.raises(ParseError):
        parse_series("x*")
    with pytest.raises(ParseError):
        parse_series("x +* y")  # '*' with no factor before it
    with pytest.raises(ParseError):
        parse_series("x**2")  # python-style power must not misread as 2*x


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_series("x^1/2")


def test_empty_after_cancellation_rejected():
    with pytest.raises(ParseError):
        parse_series("x - x")
    with pytest.raises(ParseError):
        parse_series("")


def test_parse_point_and_lists():
    assert parse_point("1,0,2") == (1, 0, 2)
    assert parse_rationals("5/2,4") == (Fraction(5, 2), Fraction(4))
    assert parse_ints("1,2,3") == (1, 2, 3)
    with pytest.raises(ParseError):
        parse_point("1,a")
    with pytest.raises(ParseError):
        parse_ints("5/2")


def test_json_scalars():
    assert frac_str(Fraction(5, 2)) == "5/2"
    assert frac_str(Fraction(4)) == "4"
    assert coord_json(Fraction(3)) == 3
    assert coord_json(Fraction(1, 3)) == "1/3"
    assert point_json((Fraction(1), Fraction(1, 2))) == [1, "1/2"]
    assert subset_json(frozenset({0, 2})) == [1, 3]  # 1-based for output


def test_support_json_round_trip():
    s = parse_series("x^3 + x*y + y^2").support()
    data = support_to_json(s)
    assert data["schema"] == "newton-mu/1"
    back = support_from_json(data)
    assert back.points == s.points
    assert back.variables == s.variables


def test_support_json_validation():
    with pytest.raises(ParseError):
        support_from_json({"schema": "newton-mu/1"})
    with pytest.raises(ParseError):
        support_from_json({"monomials": [[1, 0], [0]]})
    with pytest.raises(ParseError):
        support_from_json([1, 2, 3])
    # JSON true/false are Python bools, which are ints: still no exponents
    with pytest.raises(ParseError, match="bad monomial entry"):
        support_from_json({"monomials": [[True, 0], [0, 2]]})
    # "variables" must name each coordinate once
    with pytest.raises(ParseError, match="name the 2 coordinates once each"):
        support_from_json({"variables": ["x"], "monomials": [[1, 2], [3, 0]]})
    with pytest.raises(ParseError, match="name the 2 coordinates once each"):
        support_from_json({"variables": ["x", "x"], "monomials": [[1, 2], [3, 0]]})


def test_support_json_schema_and_empty_names():
    monomials = [[1, 0], [0, 2]]
    assert support_from_json({"monomials": monomials}).variables == ("x", "y")
    with pytest.raises(ParseError, match="expected 'newton-mu/1'"):
        support_from_json({"schema": "newton-mu/7", "monomials": monomials})
    with pytest.raises(ParseError, match="expected 'newton-mu/1'"):
        support_from_json({"schema": None, "monomials": monomials})
    with pytest.raises(ParseError, match="empty name"):
        support_from_json({"variables": ["", "y"], "monomials": monomials})


@pytest.mark.parametrize(
    "data",
    [
        {"schema": "newton-mu/7", "variables": ["x", "y"], "monomials": [[1, 0], [0, 2]]},
        {"variables": ["", "y"], "monomials": [[1, 0], [0, 2]]},
    ],
)
def test_support_file_with_bad_schema_or_name_is_a_parse_error(tmp_path, data):
    path = tmp_path / "supp.json"
    path.write_text(json.dumps(data))
    code, out = run(["diagram", "--support", str(path)])
    assert code == 1
    assert out["error"]["type"] == "parse"


def test_support_file_with_bad_variables_is_a_parse_error(tmp_path):
    path = tmp_path / "supp.json"
    path.write_text(json.dumps({"variables": ["x"], "monomials": [[1, 2], [3, 0]]}))
    code, out = run(["diagram", "--support", str(path)])
    assert code == 1
    assert out["error"]["type"] == "parse"
