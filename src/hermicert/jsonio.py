"""File formats: every numeral travels as a string.

Rationals serialize as "p/q" (or "p" when the denominator is 1); decimal
strings are accepted anywhere a rational is expected and parsed exactly.
Root coordinates are doubles and serialize as shortest round-trip decimal
strings.  Serialization is deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
from .ratrecon import exact_fraction


def frac_str(value: Fraction) -> str:
    f = exact_fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def exact_decimal_str(value: Fraction) -> str:
    """Exact decimal form when the denominator divides a power of 10,
    otherwise the fraction form."""
    f = exact_fraction(value)
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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- polynomial systems ---------------------------------------------------


def system_to_json(system: PolySystem) -> dict:
    return {
        "variables": list(system.variables),
        "polynomials": [p.to_text() for p in system.polys],
    }


def system_from_json(data: dict) -> PolySystem:
    variables = data["variables"]
    return PolySystem(variables, [parse_poly(s, variables) for s in data["polynomials"]])


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
    points = tuple(
        tuple(complex(float(re), float(im)) for re, im in point) for point in data["points"]
    )
    radii = tuple(float(r) for r in data["radii"]) if "radii" in data else None
    return ApproxRootSet(
        points=points,
        accuracy=Fraction(data["accuracy_E"]),
        coord_bound=Fraction(data["bound_M"]),
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
    m = RatMatrix.from_rows([[Fraction(e) for e in row] for row in data["entries"]])
    if m.rows != data["rows"] or m.cols != data["cols"]:
        raise ValueError("matrix dimensions disagree with the entry grid")
    return m


# -- Hermite matrices -----------------------------------------------------


def hermite_to_json(hp: HermitePlus, variables: Sequence[str]) -> dict:
    """A matrix built from more points than its basis size (a reduced
    non-radical build) also records that size as "kbar"."""
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
    if hp.provenance.point_count > hp.base_size():
        out["kbar"] = hp.base_size()
    return out


def hermite_from_json(data: dict, variables: Sequence[str] | None = None) -> HermitePlus:
    vs = list(variables if variables is not None else data["variables"])
    matrix = matrix_from_json(data)
    basis = MonomialBasis([parse_monomial(s, vs) for s in data["basis"]])
    ext = ExtendedBasis(basis)
    expected = [monomial_str(m, vs) for m in ext.extension]
    if data.get("labels") is not None and list(data["labels"]) != expected:
        raise ValueError("labels do not match the extension of the basis")
    prov_in = data.get("provenance", {})
    bounds = {
        parse_monomial(s, vs): int(b) for s, b in prov_in.get("bounds", {}).items()
    }
    prov = HermiteProvenance(
        accuracy=Fraction(prov_in.get("E", 1)),
        coord_bound=Fraction(prov_in.get("M", 1)),
        point_count=int(prov_in.get("k", len(basis))),
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
