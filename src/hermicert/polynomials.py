"""Multivariate polynomials over the rationals.

Monomials are exponent tuples; polynomials map monomials to nonzero
Fraction coefficients.  The canonical term order is graded lexicographic
(degree first, then earlier variables heavier), which fixes printing and
every deterministic scan in the package.

parse_poly reads the package's one polynomial grammar, which is regular:
sign-joined terms, a sign before every term but the first; a term is a
coefficient "p" or "p/q" or a power, then "*"-joined powers; a power is a
variable name with an optional "^e", e a non-negative integer.  Whitespace
may stand around every token.  One compiled term pattern reads a term at a
time, each from the end of the previous one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .linalg import RatMatrix

Monomial = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Polynomial text that does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grlex_key(mono: Monomial):
    """Sort key: ascending degree, earlier variables first within a degree."""
    return (sum(mono), tuple(-e for e in mono))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_degree(mono: Monomial) -> int:
    return sum(mono)


def monomial_str(mono: Monomial, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def iter_monomials(arity: int, max_degree: int) -> Iterator[Monomial]:
    """All monomials of total degree <= max_degree in graded-lex scan order."""

    def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    for degree in range(max_degree + 1):
        yield from compositions(degree, arity)


def _rebuilt(cls: type, fields: dict) -> "Frozen":
    """A Frozen instance of cls with the given fields, written by _set."""
    obj = cls.__new__(cls)
    obj._set(**fields)
    return obj


class Frozen:
    """Base of the package's immutable classes: __init__ writes the fields
    once, through _set, and any later assignment or deletion raises
    AttributeError.  copy, deepcopy and pickle rebuild an instance from its
    slots through _set as well (__reduce__)."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        names = [name for cls in type(self).__mro__ for name in getattr(cls, "__slots__", ())]
        return _rebuilt, (type(self), {name: getattr(self, name) for name in names})


class MultiPoly(Frozen):
    """Immutable multivariate polynomial with exact coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict):
        vs = tuple(variables)
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            m = tuple(int(e) for e in mono)
            if len(m) != len(vs) or any(e < 0 for e in m):
                raise ValueError(f"bad monomial {m} for {len(vs)} variables")
            clean[m] = c
        self._set(variables=vs, terms=clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): Fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "MultiPoly":
        vs = tuple(variables)
        mono = tuple(1 if i == index else 0 for i in range(len(vs)))
        return cls(vs, {mono: Fraction(1)})

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return MultiPoly(self.variables, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        terms: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                terms[m] = terms.get(m, Fraction(0)) + ca * cb
        return MultiPoly(self.variables, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- queries --------------------------------------------------------

    def total_degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        # descending grlex with earlier variables heavier: x^2 before x*y before y^2
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def partial_derivative(self, var_index: int) -> "MultiPoly":
        if not 0 <= var_index < len(self.variables):
            raise ValueError("variable index out of range")
        terms: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[var_index]
            if e == 0:
                continue
            m = mono[:var_index] + (e - 1,) + mono[var_index + 1 :]
            terms[m] = terms.get(m, Fraction(0)) + c * e
        return MultiPoly(self.variables, terms)

    def eval_complex(self, point: Sequence[complex]) -> complex:
        if len(point) != len(self.variables):
            raise ValueError("point arity does not match ring")
        total = 0j
        for mono, c in self.terms.items():
            v = complex(float(c))
            for z, e in zip(point, mono):
                if e:
                    v *= complex(z) ** e
            total += v
        return total

    def eval_at_matrices(self, mats: Sequence[RatMatrix]) -> RatMatrix:
        """p(M_1, ..., M_n) with the constant term contributing c*I.

        The matrices must commute pairwise; this is a caller-owned
        precondition and is not re-checked here.  No command calls it:
        certification reads g(M) off certify.NormalForms without dense
        products.  perfbench/tracer.py still probes this name.
        """
        if len(mats) != len(self.variables):
            raise ValueError("matrix count does not match ring arity")
        if not mats:
            raise ValueError("need at least one matrix")
        k = mats[0].rows
        for m in mats:
            if m.rows != k or m.cols != k:
                raise ValueError("matrices must be square and of equal size")
        max_exp = [0] * len(mats)
        for mono in self.terms:
            for i, e in enumerate(mono):
                max_exp[i] = max(max_exp[i], e)
        eye = RatMatrix.from_rows([[int(i == j) for j in range(k)] for i in range(k)])
        powers: list[list[RatMatrix]] = []
        for i, m in enumerate(mats):
            cache = [eye]
            for _ in range(max_exp[i]):
                cache.append(cache[-1] @ m)
            powers.append(cache)
        total = [[Fraction(0)] * k for _ in range(k)]
        for mono, c in self.sorted_terms():
            acc = eye
            for i, e in enumerate(mono):
                if e:
                    acc = acc @ powers[i][e]
            for i, row in enumerate(total):
                for j in range(k):
                    row[j] += c * acc.entry(i, j)
        return RatMatrix.from_rows(total)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for idx, (mono, coeff) in enumerate(self.sorted_terms()):
            mono_s = monomial_str(mono, self.variables)
            mag = abs(coeff)
            if mono_s == "1":
                body = str(mag)
            elif mag == 1:
                body = mono_s
            else:
                body = f"{mag}*{mono_s}"
            if idx == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()!r})"


class PolySystem(Frozen):
    """A list of polynomials sharing one ring."""

    __slots__ = ("variables", "polys")

    def __init__(self, variables: Sequence[str], polys: Iterable[MultiPoly]):
        vs = tuple(variables)
        ps = tuple(polys)
        for p in ps:
            if p.variables != vs:
                raise ValueError("system polynomials must share the ring")
        self._set(variables=vs, polys=ps)

    def arity(self) -> int:
        return len(self.variables)

    def __repr__(self) -> str:
        return f"PolySystem({list(self.variables)}, {[p.to_text() for p in self.polys]})"


# -- parsing ------------------------------------------------------------


# No two quantifiers that match whitespace stand side by side (hence
# \s*(?:([+-])\s*)? and not \s*([+-]?)\s*), so a match takes time linear in
# the text, whatever follows it.
_POWER_RE = re.compile(rf"({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?")
_TERM_RE = re.compile(
    rf"\s*(?:(?P<sign>[+-])\s*)?(?:(?P<coeff>\d+(?:/\d+)?)|{_POWER_RE.pattern})"
    rf"(?:\s*\*\s*{_POWER_RE.pattern})*\s*"
)


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse the textual grammar (see the module docstring), e.g.
    "3/4*x1*x2 - x2^3".  Text outside it, or a name outside variables,
    raises ParseError at its position; a zero denominator raises
    ZeroDivisionError."""
    vs = tuple(variables)
    for name in vs:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
    index = {name: i for i, name in enumerate(vs)}
    terms: dict[Monomial, Fraction] = {}
    pos = 0
    while True:
        term = _TERM_RE.match(text, pos)
        if not term or (pos and not term["sign"]):
            raise ParseError("expected '+' or '-' and a term" if pos else "expected a term", pos)
        coeff = Fraction(term["coeff"] or 1)
        expos = [0] * len(vs)
        for power in _POWER_RE.finditer(text, term.start(), term.end()):
            if power[1] not in index:
                raise ParseError(f"unknown variable {power[1]!r}", power.start())
            expos[index[power[1]]] += int(power[2] or 1)
        mono = tuple(expos)
        terms[mono] = terms.get(mono, 0) + (-coeff if term["sign"] == "-" else coeff)
        pos = term.end()
        if pos == len(text):
            return MultiPoly(vs, terms)


def parse_monomial(text: str, variables: Sequence[str]) -> Monomial:
    poly = parse_poly(text, variables)
    if len(poly.terms) != 1:
        raise ParseError("expected a single monomial", 0)
    (mono, coeff), = poly.terms.items()
    if coeff != 1:
        raise ParseError("monomial coefficient must be 1", 0)
    return mono


# -- monomial bases -------------------------------------------------------


def linked(mono: Monomial, present) -> bool:
    """mono is 1, or one of its single-variable quotients is in present."""
    return not any(mono) or any(
        e and mono[:i] + (e - 1,) + mono[i + 1 :] in present for i, e in enumerate(mono)
    )


def is_connected_to_1(monomials: Sequence[Monomial]) -> bool:
    """The set holds 1, and every element of it is linked to the set."""
    present = set(tuple(m) for m in monomials)
    if (0,) * len(tuple(monomials[0])) not in present:
        return False
    return all(linked(mono, present) for mono in present)


class MonomialBasis(Frozen):
    """Ordered, distinct monomial set connected to 1 (1 comes first)."""

    __slots__ = ("arity", "monomials")

    def __init__(self, monomials: Sequence[Monomial]):
        monos = tuple(tuple(int(e) for e in m) for m in monomials)
        if not monos:
            raise ValueError("empty basis")
        arity = len(monos[0])
        if any(len(m) != arity for m in monos):
            raise ValueError("mixed arities in basis")
        if len(set(monos)) != len(monos):
            raise ValueError("duplicate monomials in basis")
        if monos[0] != (0,) * arity:
            raise ValueError("the first basis element must be 1")
        if not is_connected_to_1(monos):
            raise ValueError("basis is not connected to 1")
        self._set(arity=arity, monomials=monos)

    def __len__(self) -> int:
        return len(self.monomials)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialBasis):
            return NotImplemented
        return self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def strings(self, variables: Sequence[str]) -> list[str]:
        return [monomial_str(m, variables) for m in self.monomials]

    def __repr__(self) -> str:
        return f"MonomialBasis({self.monomials})"


class ExtendedBasis(Frozen):
    """A basis B together with its extension B+ = B u (x_i * B), base first.

    The extension list keeps the base as a prefix; appended products are
    deduplicated and ordered by the graded-lex scan order.  The label
    structure of the extended Hermite matrix is computed here once:

    - products: the distinct label products b_i * b_j, in ascending order;
      entry (i, j) of the matrix is a function of b_i * b_j alone;
    - position[m]: the position of the label m in the extension;
    - product_index[i * l + j]: the position of b_i * b_j in products;
    - shifts[s][i]: the position of x_s * b_i in the extension, below the
      base size exactly when x_s * b_i lies in the basis.
    """

    __slots__ = ("base", "extension", "position", "products", "product_index", "shifts")

    def __init__(self, base: MonomialBasis):
        units = [tuple(int(t == s) for t in range(base.arity)) for s in range(base.arity)]
        shifted = [[monomial_mul(mono, unit) for mono in base.monomials] for unit in units]
        added = set(m for row in shifted for m in row) - set(base.monomials)
        ext = base.monomials + tuple(sorted(added, key=grlex_key))
        position = {m: i for i, m in enumerate(ext)}
        # Each monomial as one integer in base `radix`, first variable most
        # significant: no exponent of a product reaches the radix, so a
        # product of monomials is the sum of their codes, and the order of
        # the codes is the ascending order of the exponent tuples.
        radix = 2 * max(max(m, default=0) for m in ext) + 1
        codes = []
        for mono in ext:
            code = 0
            for e in mono:
                code = code * radix + e
            codes.append(code)
        pairs = [a + b for a in codes for b in codes]
        distinct = sorted(set(pairs))
        products = []
        for code in distinct:
            digits = []
            for _ in range(base.arity):
                code, e = divmod(code, radix)
                digits.append(e)
            products.append(tuple(reversed(digits)))
        index = {code: p for p, code in enumerate(distinct)}
        self._set(
            base=base,
            extension=ext,
            position=position,
            products=tuple(products),
            product_index=tuple(map(index.__getitem__, pairs)),
            shifts=tuple(tuple(position[m] for m in row) for row in shifted),
        )

    def __len__(self) -> int:
        return len(self.extension)

    def index_of(self, mono: Monomial) -> int:
        """The position of mono in the extension; KeyError outside it."""
        return self.position[tuple(mono)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedBasis):
            return NotImplemented
        return self.base == other.base and self.extension == other.extension

    def strings(self, variables: Sequence[str]) -> list[str]:
        return [monomial_str(m, variables) for m in self.extension]

    def __repr__(self) -> str:
        return f"ExtendedBasis(base={self.base.monomials}, extension={self.extension})"

