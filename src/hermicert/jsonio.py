"""File formats: every numeral travels as a string.

Rationals serialize as "p/q" (or "p" when the denominator is 1); decimal
strings are accepted anywhere a rational is expected and parsed exactly.
Root coordinates are doubles and serialize as shortest round-trip decimal
strings.  Serialization is deterministic: same inputs, same bytes.  Every
list in a format must be a JSON list (json_list): a string in its place
would otherwise be read one character per entry.  Every numeral must be a
JSON string (json_numeral) and every count a JSON integer (json_count); a
bool is refused in both places, since float(True) and Fraction(True) read
it as 1, and a JSON number in place of a numeral would skip the exact
reading of its digits.  Each numeral is converted once: by the
constructor that keeps it (RatMatrix.from_rows for entries, ApproxRootSet
for E, M and radii), or here when none converts it (coordinates and the
provenance E and M).  The report writer (canonical_dumps) writes only
strings, ints, bools, None, lists and dicts with string keys; a float or a
non-string key raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .certify import CertificationOutcome
from .hermite import HermitePlus, HermiteProvenance
from .linalg import RatMatrix
from .numroots import ApproxRootSet
from .polynomials import (
    ExtendedBasis,
    MonomialBasis,
    PolySystem,
    monomial_str,
    parse_monomial,
    parse_poly,
)


def frac_str(value: Fraction) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def exact_decimal_str(value: Fraction) -> str:
    """Exact decimal form when the denominator divides a power of 10,
    otherwise the fraction form."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    d = f.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return frac_str(f)
    exp = max(twos, fives)
    scaled = f.numerator * 10**exp // f.denominator
    digits = str(abs(scaled)).rjust(exp + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


def canonical_dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte, for
    the values hermicert writes: dicts with string keys, lists and tuples,
    strings, ints, bools and None.  Any other value, a float or a key that
    is not a string included, raises TypeError: every numeral travels as a
    string.

    json's indent forces its pure-Python encoder; this writer makes the same
    text with one str.join per list of strings (the rows of every matrix).
    """
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, newline: str) -> str:
    """obj as json writes it, nested below the line break and indent
    newline."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(map(isinstance, obj, repeat(str))):
            items = map(_quote, obj)
        else:
            items = (_dumps(item, inner) for item in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = (_quote(key) + ": " + _dumps(value, inner) for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _scalar(obj)


def _scalar(obj) -> str:
    """A string, int, bool or None as json writes it."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_list(value, what: str, error: type[Exception] = TypeError) -> list:
    """value, when it is a JSON list; anything else raises error.  A string
    is refused too: iterated, it would give one entry per character."""
    if not isinstance(value, list):
        raise error(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def json_numeral(value, what: str) -> str:
    """value, when it is a JSON string; anything else, a number or a bool
    included, raises TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a JSON string, not {type(value).__name__}")
    return value


def json_count(value, what: str) -> int:
    """value, when it is a JSON integer; anything else, a bool or a float
    included, raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be a JSON integer, not {type(value).__name__}")
    return value


# -- polynomial systems ---------------------------------------------------


def system_to_json(system: PolySystem) -> dict:
    return {
        "variables": list(system.variables),
        "polynomials": [p.to_text() for p in system.polys],
    }


def system_from_json(data: dict) -> PolySystem:
    variables = data["variables"]
    polynomials = data["polynomials"]
    # every fault of the variable list is a ValueError, a string in its place
    # as well as an empty or a repeated list
    if not (json_list(variables, "variables", ValueError) and all(isinstance(v, str) for v in variables)):
        raise ValueError("variables must be a non-empty list of strings")
    if len(set(variables)) != len(variables):
        raise ValueError("variables must be distinct")
    if not all(isinstance(p, str) for p in json_list(polynomials, "polynomials")):
        raise TypeError("polynomials must be a list of strings")
    return PolySystem(variables, [parse_poly(p, variables) for p in polynomials])


# -- root sets ------------------------------------------------------------


def roots_to_json(roots: ApproxRootSet) -> dict:
    out = {
        "accuracy_E": exact_decimal_str(roots.accuracy),
        "bound_M": exact_decimal_str(roots.coord_bound),
        "points": [
            [[repr(z.real), repr(z.imag)] for z in point] for point in roots.points
        ],
    }
    if roots.radii is not None:
        out["radii"] = [repr(r) for r in roots.radii]
    return out


def roots_from_json(data: dict) -> ApproxRootSet:
    points = []
    for point in json_list(data["points"], "points"):
        pairs = [json_list(pair, "a coordinate [re, im]") for pair in json_list(point, "a point")]
        parts = [[float(json_numeral(x, "a coordinate")) for x in pair] for pair in pairs]
        points.append(tuple(complex(re, im) for re, im in parts))
    radii = (
        [json_numeral(r, "a radius") for r in json_list(data["radii"], "radii")] if "radii" in data else None
    )
    return ApproxRootSet(
        points=points,
        accuracy=json_numeral(data["accuracy_E"], "accuracy_E"),
        coord_bound=json_numeral(data["bound_M"], "bound_M"),
        radii=radii,
    )


# -- matrices -------------------------------------------------------------


def matrix_to_json(m: RatMatrix, labels: Sequence[str] | None = None) -> dict:
    """Entries are written from the stored pairs, reduced with positive
    denominators, exactly as frac_str writes them."""
    cells = [str(n) if d == 1 else f"{n}/{d}" for n, d in zip(*m.row_pairs())]
    out = {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [cells[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)],
    }
    if labels is not None:
        out["labels"] = list(labels)
    return out


def matrix_from_json(data: dict) -> RatMatrix:
    rows = [json_list(row, "a row of entries") for row in json_list(data["entries"], "entries")]
    m = RatMatrix.from_rows([[json_numeral(e, "an entry") for e in row] for row in rows])
    if (m.rows, m.cols) != (json_count(data["rows"], "rows"), json_count(data["cols"], "cols")):
        raise ValueError("matrix dimensions disagree with the entry grid")
    return m


# -- Hermite matrices -----------------------------------------------------


def hermite_to_json(hp: HermitePlus, variables: Sequence[str]) -> dict:
    """A reduced non-radical build (HermitePlus.reduced) also records its
    basis size as "kbar"."""
    vs = list(variables)
    out = matrix_to_json(hp.matrix, labels=hp.labels.strings(vs))
    out["variables"] = vs
    out["basis"] = hp.labels.base.strings(vs)
    out["provenance"] = {
        "E": frac_str(hp.provenance.accuracy),
        "M": frac_str(hp.provenance.coord_bound),
        "k": hp.provenance.point_count,
        "bounds": {
            monomial_str(alpha, vs): b
            for alpha, b in sorted(hp.provenance.bounds.items())
        },
    }
    if hp.reduced:
        out["kbar"] = hp.base_size()
    return out


def basis_from_json(monomials, variables: Sequence[str]) -> MonomialBasis:
    """A monomial basis from its list of monomial texts: the "basis" of a
    Hermite file, or the "monomials" of a --basis file."""
    return MonomialBasis([parse_monomial(s, variables) for s in json_list(monomials, "a basis")])


def hermite_from_json(data: dict, variables: Sequence[str] | None = None) -> HermitePlus:
    """The Hermite file data, read in the given variables (the system's) or
    in its own.  Variables the file lists must be those given: the basis and
    the labels are read in their order."""
    vs = list(variables) if variables is not None else json_list(data["variables"], "variables")
    if data.get("variables", vs) != vs:
        raise ValueError(f"the Hermite file's variables {data['variables']} differ from the system's {vs}")
    matrix = matrix_from_json(data)
    basis = basis_from_json(data["basis"], vs)
    ext = ExtendedBasis(basis)
    if data.get("labels") is not None and json_list(data["labels"], "labels") != ext.strings(vs):
        raise ValueError("labels do not match the extension of the basis")
    prov_in = data.get("provenance", {})
    if not isinstance(prov_in, dict) or not isinstance(prov_in.get("bounds", {}), dict):
        raise TypeError("provenance and its bounds must be JSON objects")
    # k picks the certification route, so a float or a bool is refused, not
    # truncated to an int
    k = prov_in.get("k", len(basis))
    if isinstance(k, bool) or not isinstance(k, (int, str)) or int(k) < 1:
        raise ValueError(f"provenance k must be a positive integer, got {k!r}")
    bounds_in = prov_in.get("bounds", {})
    bounds = {parse_monomial(s, vs): json_count(b, "a bound") for s, b in bounds_in.items()}
    # "x", "x^1" and "1*x" name one monomial: merged, all but one would be
    # dropped without a word
    if len(bounds) != len(bounds_in):
        raise ValueError("provenance bounds must name distinct monomials")
    prov = HermiteProvenance(
        accuracy=Fraction(json_numeral(prov_in.get("E", "1"), "provenance E")),
        coord_bound=Fraction(json_numeral(prov_in.get("M", "1"), "provenance M")),
        point_count=int(k),
        bounds=bounds,
    )
    return HermitePlus(matrix=matrix, labels=ext, provenance=prov)


# -- certification reports ------------------------------------------------


def report_to_json(outcome: CertificationOutcome, variables: Sequence[str]) -> dict:
    vs = list(variables)
    out: dict = {
        "status": outcome.status,
        "basis": outcome.basis.strings(vs),
        "diagnostics": outcome.diagnostics,
    }
    if outcome.certified:
        out["H1"] = matrix_to_json(outcome.h1)
        out["Hg"] = matrix_to_json(outcome.hg)
        out["mult_matrices"] = [matrix_to_json(m) for m in outcome.mult_matrices]
        out["signatures"] = {"H1": outcome.sigma_h1, "Hg": outcome.sigma_hg}
        if outcome.weighted_h1 is not None:
            out["weighted_H1"] = matrix_to_json(outcome.weighted_h1)
        if outcome.weighted_hg is not None:
            out["weighted_Hg"] = matrix_to_json(outcome.weighted_hg)
    else:
        out["failed_step"] = outcome.failed_step
        out["reason"] = outcome.reason
        if outcome.detail:
            out["detail"] = outcome.detail
    return out
