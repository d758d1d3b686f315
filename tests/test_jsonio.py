import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermicert.hermite import build_extended_hermite
from hermicert.jsonio import (
    canonical_dumps,
    exact_decimal_str,
    frac_str,
    hermite_from_json,
    hermite_to_json,
    matrix_from_json,
    matrix_to_json,
    roots_from_json,
    roots_to_json,
    system_from_json,
    system_to_json,
)
from hermicert.linalg import RatMatrix
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import MonomialBasis, PolySystem, parse_poly


def test_frac_str_forms():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(-3, 4)) == "-3/4"


def test_exact_decimal_str():
    assert exact_decimal_str(Fraction(1, 10**10)) == "0.0000000001"
    assert exact_decimal_str(Fraction(5, 4)) == "1.25"
    assert exact_decimal_str(Fraction(-3, 8)) == "-0.375"
    assert exact_decimal_str(Fraction(2)) == "2"
    assert exact_decimal_str(Fraction(1, 3)) == "1/3"
    for value in (Fraction(1, 10**10), Fraction(5, 4), Fraction(-3, 8), Fraction(1, 3)):
        assert Fraction(exact_decimal_str(value)) == value


def test_matrix_round_trip():
    m = RatMatrix.from_rows([[Fraction(1, 2), 3], [Fraction(-7, 5), 0]])
    data = matrix_to_json(m, labels=["1", "x"])
    assert data["labels"] == ["1", "x"]
    assert matrix_from_json(json.loads(json.dumps(data))) == m


def test_matrix_dimension_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [["1", "0"]]})


@pytest.mark.parametrize(
    "key, value",
    [("rows", True), ("cols", 1.0), ("entries", [[1]]), ("entries", [[True]]), ("entries", [[0.5]])],
    ids=["rows true", "cols 1.0", "entry 1", "entry true", "entry 0.5"],
)
def test_matrix_counts_are_json_integers_and_entries_json_strings(key, value):
    # true and 1.0 compare equal to 1, and Fraction would read the JSON
    # numbers 1, true and 0.5 without a word
    data = {"rows": 1, "cols": 1, "entries": [["1"]]}
    assert matrix_from_json(data) == RatMatrix.from_rows([[1]])
    with pytest.raises(TypeError):
        matrix_from_json({**data, key: value})


def test_system_round_trip():
    f = PolySystem(["x", "y"], [parse_poly("x^2+y^2-1", ["x", "y"])])
    again = system_from_json(json.loads(json.dumps(system_to_json(f))))
    assert again.variables == f.variables and again.polys == f.polys


def test_roots_round_trip_preserves_floats_exactly():
    pts = ApproxRootSet(
        points=((math.sqrt(2) + 0.25j,), (-1 / 3 + 0j,)),
        accuracy=Fraction(1, 10**10),
        coord_bound=2,
        radii=(1e-6, 2e-6),
    )
    again = roots_from_json(json.loads(json.dumps(roots_to_json(pts))))
    assert again.points == pts.points
    assert again.accuracy == pts.accuracy
    assert again.coord_bound == pts.coord_bound
    assert again.radii == pts.radii


def test_hermite_round_trip():
    pts = ApproxRootSet(
        points=((math.sqrt(2) + 0j,), (-math.sqrt(2) + 0j,)),
        accuracy=Fraction(1, 10**10),
        coord_bound=2,
    )
    hp = build_extended_hermite(pts, MonomialBasis([(0,), (1,)]))
    data = json.loads(json.dumps(hermite_to_json(hp, ["x"])))
    again = hermite_from_json(data)
    assert again.matrix == hp.matrix
    assert again.labels == hp.labels
    assert again.provenance.accuracy == hp.provenance.accuracy
    assert again.provenance.point_count == hp.provenance.point_count
    assert again.provenance.bounds == hp.provenance.bounds


def test_hermite_rejects_mismatched_labels():
    pts = ApproxRootSet(
        points=((0.5 + 0j,),), accuracy="1e-9", coord_bound=1
    )
    hp = build_extended_hermite(pts, MonomialBasis([(0,)]))
    data = hermite_to_json(hp, ["x"])
    data["labels"] = ["x", "1"]
    with pytest.raises(ValueError):
        hermite_from_json(data)


def test_hermite_refuses_a_string_where_a_list_belongs():
    # one point on the basis {1}: the labels ["1", "x"] and the variables
    # ["x"] are what the strings "1x" and "x" give one character per entry
    pts = ApproxRootSet(points=((0.5 + 0j,),), accuracy="1e-9", coord_bound=1)
    data = hermite_to_json(build_extended_hermite(pts, MonomialBasis([(0,)])), ["x"])
    assert data["labels"] == ["1", "x"]
    for key, value in [("labels", "1x"), ("variables", "x")]:
        with pytest.raises(TypeError):
            hermite_from_json({**data, key: value})


def test_canonical_dumps_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


TEXT = st.text(st.characters(exclude_categories=()))  # surrogates and controls too
# the writer's domain: every numeral hermicert writes is a string, and every
# key is one
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children)
    | st.lists(TEXT)  # the one-join path of canonical_dumps
    | st.lists(children).map(tuple)
    | st.dictionaries(TEXT, children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_dumps_matches_json_dumps(obj):
    assert canonical_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [object(), [Fraction(1, 2)], {(1, 2): "a"}, {"a": 1, 2: "b"}])
def test_canonical_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        canonical_dumps(obj)


@pytest.mark.parametrize(
    "obj", [0.5, [1.0], float("nan"), {"a": [-math.inf]}, {1: "a"}, {"a": {True: 1}}, {None: 1}]
)
def test_canonical_dumps_refuses_floats_and_non_string_keys(obj):
    # json writes these; hermicert writes every numeral and every key as a
    # string, so a float or another key reaching the writer is a fault
    json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        canonical_dumps(obj)
