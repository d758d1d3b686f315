import ast
import copy
import itertools
import operator
import pickle
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermicert
from hermicert.certificates import (
    BallCertificate,
    BallQuery,
    NonnegCertificate,
    NonnegQuery,
    ball_from_outcome,
)
from hermicert.certify import CertificationOutcome, certify_pipeline
from hermicert.hermite import HermitePlus, HermiteProvenance, PowerSums, build_extended_hermite
from hermicert.linalg import RatMatrix, char_poly, sign_variations
from hermicert.numroots import ApproxRootSet
from hermicert.polynomials import (
    ExtendedBasis,
    Frozen,
    MonomialBasis,
    MultiPoly,
    ParseError,
    PolySystem,
    is_connected_to_1,
    iter_monomials,
    monomial_mul,
    monomial_str,
    parse_monomial,
    parse_poly,
)

from conftest import (
    identity,
    is_zero_matrix,
    matrix_rows,
    matrix_trace,
    newton_girard_power_sums,
    univariate_from_roots,
)


# -- parsing ---------------------------------------------------------------


def test_parse_quadratic_minus_two():
    p = parse_poly("x1^2 - 2", ["x1"])
    assert p.terms == {(2,): Fraction(1), (0,): Fraction(-2)}


def test_parse_circle_embedded_in_three_vars():
    p = parse_poly("x^2+y^2-1", ["x", "y", "l"])
    assert p.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 0): -1}


def test_parse_fraction_coefficients():
    p = parse_poly("3/4*x1*x2 - x2^3", ["x1", "x2"])
    assert p.terms == {(1, 1): Fraction(3, 4), (0, 3): Fraction(-1)}


def test_parse_reports_position_of_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_poly("x + zz", ["x"])
    assert "zz" in str(err.value) and err.value.position == 4


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError):
        parse_poly("x + + y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("2x", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x^1/2", ["x"])


def test_print_parse_round_trip_canonicalizes():
    p = parse_poly("y^2 + x^2 + 2 - 1 - x^2", ["x", "y"])
    assert p.to_text() == "y^2 + 1"
    assert parse_poly(p.to_text(), ["x", "y"]) == p


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_parse_print_identity_on_random_polys(data):
    arity = data.draw(st.integers(min_value=1, max_value=3))
    variables = ["x", "y", "z"][:arity]
    n_terms = data.draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in range(arity))
        coeff = Fraction(
            data.draw(st.integers(min_value=-30, max_value=30)),
            data.draw(st.integers(min_value=1, max_value=12)),
        )
        terms[mono] = coeff
    p = MultiPoly(variables, terms)
    assert parse_poly(p.to_text(), variables) == p


_GAP = st.text(alphabet=" \t\n", max_size=3)


@st.composite
def grammar_texts(draw):
    """(text, poly): a text built from the grammar in x, y and x1, with
    whitespace around its tokens, and the polynomial its terms sum to."""
    variables = ["x", "y", "x1"]
    text, terms = [draw(_GAP)], {}
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        factors, coeff, expos = [], Fraction(1), [0, 0, 0]
        if draw(st.booleans()):
            p, q = draw(st.integers(0, 10**6)), draw(st.integers(1, 999))
            zeros = draw(st.sampled_from(["", "0", "00"]))
            if draw(st.booleans()):
                factors.append(f"{zeros}{p}/{zeros}{q}")
                coeff = Fraction(p, q)
            else:
                factors.append(f"{zeros}{p}")
                coeff = Fraction(p)
        # variables drawn with replacement, so a term may repeat one
        for _ in range(draw(st.integers(0 if factors else 1, 4))):
            v = draw(st.integers(0, 2))
            e = draw(st.sampled_from([None, "0", "1", "2", "10", "007", "123"]))
            expos[v] += 1 if e is None else int(e)
            factors.append(variables[v] if e is None else f"{variables[v]}{draw(_GAP)}^{draw(_GAP)}{e}")
        if sign:
            text += [sign, draw(_GAP)]
        text.append("".join(f + (draw(_GAP) + "*" + draw(_GAP)) * (j < len(factors) - 1) for j, f in enumerate(factors)))
        text.append(draw(_GAP))
        mono = tuple(expos)
        terms[mono] = terms.get(mono, 0) + (-coeff if sign == "-" else coeff)
    return "".join(text), MultiPoly(variables, terms)


@settings(max_examples=300, deadline=None)
@given(grammar_texts())
def test_parse_reads_every_text_of_the_grammar(case):
    text, poly = case
    assert parse_poly(text, poly.variables) == poly


@pytest.mark.parametrize(
    "text",
    [
        "2x", "2 x", "x y", "x^2y",  # a missing '*'
        "x^1/2", "x^ 3/4", "x^y", "x^-1", "x^1.5",  # '^' not followed by a non-negative integer
        "x**2", "2**x", "x * * y",  # '**'
        "x +", "x^2 -", "-", "x - \t",  # a trailing sign
        "", " \t\n",  # an empty text
        "(x)", "2*(x+y)", "x*y)",  # parentheses
        "x % 2", "x.5", "x+_y", "x;y", "1/2/3", "1 /2", "x*2",  # a stray character or token
        "x + zz", "zz", "2*x*X",  # an unknown variable
    ],
)
def test_parse_error_carries_a_position_within_the_text(text):
    with pytest.raises(ParseError) as err:
        parse_poly(text, ["x", "y"])
    assert 0 <= err.value.position <= len(text)


@pytest.mark.parametrize("text", [" " * 100_000 + "%", "x" + " *x" * 40_000])
def test_parse_takes_linear_time(text):
    start = time.perf_counter()
    try:
        parse_poly(text, ["x"])
    except ParseError:
        pass
    assert time.perf_counter() - start < 1.0


# -- calculus and evaluation ------------------------------------------------


def test_partial_derivatives():
    p = parse_poly("x^2 - 2", ["x"])
    assert p.partial_derivative(0) == parse_poly("2*x", ["x"])
    c = parse_poly("x^2 + y^2 - 1", ["x", "y"])
    assert c.partial_derivative(1) == parse_poly("2*y", ["x", "y"])
    assert not MultiPoly.constant(["x"], 3).partial_derivative(0).terms


def test_eval_complex_near_root_is_tiny():
    p = parse_poly("x^2 - 2", ["x"])
    value = p.eval_complex([1.41421356])
    assert value == 1.41421356**2 - 2
    assert abs(value) < 1e-8


def test_eval_complex_at_zero_gives_constant_term():
    p = parse_poly("x^2 + 3*x - 7", ["x"])
    assert p.eval_complex([0j]) == -7


def test_eval_complex_ignores_unused_variables():
    p = parse_poly("x+2", ["x", "y", "l"])
    assert p.eval_complex([1, 0, -0.5]) == 3


def test_eval_at_matrices_examples():
    p = parse_poly("x^2 - 2", ["x"])
    m = RatMatrix.from_rows([[0, 2], [1, 0]])
    assert is_zero_matrix(p.eval_at_matrices([m]))
    assert MultiPoly.constant(["x"], 1).eval_at_matrices([m]) == identity(2)
    cubic = parse_poly("x^3 - 3*x + 2", ["x"])  # (x-1)^2 (x+2)
    m2 = RatMatrix.from_rows([[0, 2], [1, -1]])
    assert is_zero_matrix(cubic.eval_at_matrices([m2]))


def test_eval_at_matrices_is_ring_homomorphism_on_commuting_family():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 3)
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)]
        )
        mats = [m, m @ m]  # powers of one matrix commute
        vs = ["a", "b"]
        p = MultiPoly(vs, {(1, 0): Fraction(2), (0, 1): Fraction(-1), (0, 0): Fraction(3)})
        q = MultiPoly(vs, {(1, 1): Fraction(1), (2, 0): Fraction(1, 2)})
        pm, qm = p.eval_at_matrices(mats), q.eval_at_matrices(mats)
        assert (p * q).eval_at_matrices(mats) == pm @ qm
        sums = [[a + b for a, b in zip(r, s)] for r, s in zip(matrix_rows(pm), matrix_rows(qm))]
        assert (p + q).eval_at_matrices(mats) == RatMatrix.from_rows(sums)


def test_eval_at_matrices_dimension_mismatch():
    p = parse_poly("x + y", ["x", "y"])
    with pytest.raises(ValueError):
        p.eval_at_matrices([identity(2)])
    with pytest.raises(ValueError):
        p.eval_at_matrices([identity(2), identity(3)])


# -- univariate helpers ------------------------------------------------------


def test_sign_variations_examples():
    assert sign_variations([1, -6, 8]) == 2
    assert sign_variations([1, 6, 8]) == 0
    assert sign_variations([1, 0, -4]) == 1


def test_newton_girard_examples():
    assert newton_girard_power_sums([1, 0, -2], 4) == [2, 0, 4, 0, 8]
    c = Fraction(5, 7)
    assert newton_girard_power_sums([1, -c], 2) == [1, c, c * c]
    assert newton_girard_power_sums([1, 1, -2], 2) == [2, -1, 5]


def test_newton_girard_equals_traces_of_matrix_powers():
    rng = random.Random(12)
    for _ in range(12):
        upper = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        m = RatMatrix.from_rows([[upper[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
        sums = newton_girard_power_sums(char_poly(m), 6)
        power = identity(3)
        for t in range(7):
            assert sums[t] == matrix_trace(power)
            power = power @ m


def test_descartes_on_all_real_factored_polynomials():
    rng = random.Random(9)
    for _ in range(25):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        poly = univariate_from_roots(roots, [])
        coeffs = [poly.terms.get((d,), Fraction(0)) for d in range(poly.total_degree(), -1, -1)]
        flipped = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
        positive = sum(1 for r in roots if r > 0)
        negative = sum(1 for r in roots if r < 0)
        assert sign_variations(coeffs) - sign_variations(flipped) == positive - negative


# -- bases -------------------------------------------------------------------


def test_monomial_basis_validation():
    MonomialBasis([(0,), (1,), (2,)])
    with pytest.raises(ValueError):
        MonomialBasis([(1,), (0,)])  # 1 must come first
    with pytest.raises(ValueError):
        MonomialBasis([(0,), (2,)])  # gap: x^2 without x
    with pytest.raises(ValueError):
        MonomialBasis([(0,), (1,), (1,)])  # duplicates


def test_connectedness_predicate():
    assert is_connected_to_1([(0, 0), (1, 0), (1, 1)])
    assert not is_connected_to_1([(0, 0), (1, 1)])


def test_extended_basis_univariate():
    ext = ExtendedBasis(MonomialBasis([(0,), (1,)]))
    assert ext.extension == ((0,), (1,), (2,))
    assert ext.index_of((2,)) == 2
    with pytest.raises(KeyError):
        ext.index_of((3,))  # a label product, not a label
    assert ext.products == ((0,), (1,), (2,), (3,), (4,))
    assert ext.product_index == (0, 1, 2, 1, 2, 3, 2, 3, 4)  # x^i * x^j = x^(i+j)
    assert ext.first_cells == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))
    assert ext.shifts == ((1, 2),)  # x * 1 = x is in the basis, x * x = x^2 is not


def test_extended_basis_multivariate_order_and_prefix():
    ext = ExtendedBasis(MonomialBasis([(0, 0, 0), (1, 0, 0)]))
    assert ext.extension[:2] == ((0, 0, 0), (1, 0, 0))
    assert ext.extension == (
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
    )
    assert len(ext.products) == 22
    assert ext.products[:4] == ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0))
    assert ext.products[-1] == (4, 0, 0)
    l = len(ext)
    assert ext.products[ext.product_index[5 * l + 6]] == (2, 1, 1)  # x*y * x*z
    assert ext.product_index[5 * l + 6] == ext.product_index[6 * l + 5]
    assert ext.shifts == ((1, 4), (2, 5), (3, 6))  # only x * 1 = x stays in the basis


def random_order_ideal(rng, arity):
    """A random order ideal (closed under division), 1 first, the rest shuffled."""
    ideal = {(0,) * arity}
    for _ in range(rng.randint(0, 4)):
        top = tuple(rng.randint(0, 3) for _ in range(arity))
        ideal |= set(itertools.product(*(range(e + 1) for e in top)))
    rest = sorted(ideal - {(0,) * arity})
    rng.shuffle(rest)
    return MonomialBasis([(0,) * arity] + rest)


def test_extended_basis_tables_match_brute_force_on_order_ideals():
    rng = random.Random(9)
    for trial in range(40):
        basis = random_order_ideal(rng, 1 + trial % 4)
        ext = ExtendedBasis(basis)
        labels, k, l = ext.extension, len(basis), len(ext)
        assert labels[:k] == basis.monomials and len(set(labels)) == l
        pairs = [monomial_mul(a, b) for a in labels for b in labels]
        assert ext.products == tuple(sorted(set(pairs)))
        assert [ext.products[p] for p in ext.product_index] == pairs
        assert ext.first_cells == tuple(divmod(pairs.index(alpha), l) for alpha in ext.products)
        for s in range(basis.arity):
            unit = tuple(int(t == s) for t in range(basis.arity))
            for i, mono in enumerate(basis.monomials):
                target = monomial_mul(mono, unit)
                assert labels[ext.shifts[s][i]] == target
                assert (ext.shifts[s][i] < k) == (target in basis.monomials)
        assert set(labels) == set(basis.monomials) | {
            labels[j] for row in ext.shifts for j in row
        }


def test_iter_monomials_scan_order():
    assert list(iter_monomials(2, 2)) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomial_strings_round_trip():
    vs = ["x", "y"]
    for mono in iter_monomials(2, 3):
        assert parse_monomial(monomial_str(mono, vs), vs) == mono


def test_poly_system_requires_shared_ring():
    with pytest.raises(ValueError):
        PolySystem(["x"], [parse_poly("x", ["x"]), parse_poly("y", ["y"])])


def test_ring_operations_require_one_ring():
    x, y = parse_poly("x", ["x"]), parse_poly("y", ["y"])
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError, match="different rings"):
            op(x, y)


# -- immutability ----------------------------------------------------------


def _sqrt2_hplus():
    pts = ApproxRootSet(points=((2**0.5 + 0j,), (-(2**0.5) + 0j,)), accuracy="1e-10", coord_bound=2)
    return build_extended_hermite(pts, MonomialBasis([(0,), (1,)]))


def _sqrt2_system():
    return PolySystem(["x"], [parse_poly("x^2-2", ["x"])])


def _sqrt2_outcome():
    return certify_pipeline(_sqrt2_system(), parse_poly("x", ["x"]), _sqrt2_hplus())


_FROZEN_VALUES = {
    MultiPoly: lambda: parse_poly("x^2-2", ["x"]),
    PolySystem: _sqrt2_system,
    MonomialBasis: lambda: MonomialBasis([(0,), (1,)]),
    ExtendedBasis: lambda: ExtendedBasis(MonomialBasis([(0,), (1,)])),
    ApproxRootSet: lambda: ApproxRootSet(points=((1 + 0j,),), accuracy="1e-10", coord_bound=2),
    HermiteProvenance: lambda: HermiteProvenance(Fraction(1, 10**10), Fraction(2), 1),
    PowerSums: lambda: PowerSums([1], [0], [0]),
    HermitePlus: _sqrt2_hplus,
    BallQuery: lambda: BallQuery(center=(Fraction(1),), radius_squared=Fraction(1, 4)),
    NonnegQuery: lambda: NonnegQuery(PolySystem(["x"], []), parse_poly("x^2", ["x"])),
    CertificationOutcome: _sqrt2_outcome,
    BallCertificate: lambda: ball_from_outcome(
        _sqrt2_outcome(), ["x"], BallQuery(center=(Fraction(1),), radius_squared=Fraction(1, 4))
    ),
    NonnegCertificate: lambda: NonnegCertificate("fail", None, None, _sqrt2_outcome(), PolySystem(["x"], [])),
}


@pytest.mark.parametrize("cls", list(_FROZEN_VALUES), ids=lambda cls: cls.__name__)
def test_value_and_result_classes_refuse_assignment(cls):
    value = _FROZEN_VALUES[cls]()
    assert type(value) is cls
    field = cls.__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        delattr(value, field)
    assert getattr(value, field) is before


def _tree(value):
    # value with every object that compares by identity opened up into its
    # type and fields, so that equal trees mean equal values
    if isinstance(value, Frozen):
        return type(value), [_tree(getattr(value, field)) for field in type(value).__slots__]
    if isinstance(value, (list, tuple)):
        return type(value), [_tree(x) for x in value]
    if isinstance(value, dict):
        return {key: _tree(x) for key, x in value.items()}
    if hasattr(value, "__dict__"):  # the outcome's normal-form table
        return type(value), _tree(vars(value))
    return value


@pytest.mark.parametrize("cls", list(_FROZEN_VALUES), ids=lambda cls: cls.__name__)
def test_value_and_result_classes_copy_and_pickle(cls):
    # copy, deepcopy and a pickle round trip rebuild the instance through
    # Frozen._set: the same fields, and still frozen
    value = _FROZEN_VALUES[cls]()
    shallow = copy.copy(value)
    assert all(getattr(shallow, field) is getattr(value, field) for field in cls.__slots__)
    for twin in (shallow, copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin is not value
        assert _tree(twin) == _tree(value)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(twin, cls.__slots__[0], None)


def _scoped_nodes(node, scope=""):
    # every node under node, with the dotted name of the class or function around it
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_only_frozen_defines_or_bypasses_setattr():
    # polynomials.Frozen is the package's one immutability mechanism: a second
    # object.__setattr__ or __setattr__ is a class writing its own guard
    found = []
    for path in sorted(Path(hermicert.__file__).parent.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__setattr__":
                found.append((path.name, scope, "def __setattr__"))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append((path.name, scope, "object.__setattr__"))
    assert sorted(found) == [
        ("polynomials.py", "Frozen.__setattr__", "def __setattr__"),
        ("polynomials.py", "Frozen._set", "object.__setattr__"),
    ]


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: MultiPoly(("x",), {(1, 0): 1}), r"bad monomial \(1, 0\) for 1 variables", id="arity"),
        pytest.param(lambda: MultiPoly(("x",), {(-1,): 1}), r"bad monomial \(-1,\)", id="negative exponent"),
        pytest.param(
            lambda: parse_poly("x", ["x"]).partial_derivative(1), "variable index out of range", id="derivative"
        ),
        pytest.param(
            lambda: parse_poly("x", ["x"]).eval_complex((1j, 2j)), "point arity does not match ring", id="evaluation"
        ),
        pytest.param(
            lambda: MultiPoly((), {(): 1}).eval_at_matrices([]), "need at least one matrix", id="no matrices"
        ),
        pytest.param(lambda: MonomialBasis([(0,), (1, 0)]), "mixed arities in basis", id="basis arities"),
    ],
)
def test_polynomials_guards(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
