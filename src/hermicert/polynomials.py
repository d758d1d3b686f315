"""Multivariate polynomials over the rationals, plus univariate helpers.

Monomials are exponent tuples; polynomials map monomials to nonzero
Fraction coefficients.  The canonical term order is graded lexicographic
(degree first, then earlier variables heavier), which fixes printing and
every deterministic scan in the package.
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


class MultiPoly:
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
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

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

    def scale(self, factor) -> "MultiPoly":
        f = Fraction(factor)
        return MultiPoly(self.variables, {m: c * f for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        powers: list[list[RatMatrix]] = []
        for i, m in enumerate(mats):
            cache = [RatMatrix.identity(k)]
            for _ in range(max_exp[i]):
                cache.append(cache[-1] @ m)
            powers.append(cache)
        total = RatMatrix.zeros(k, k)
        for mono, c in self.sorted_terms():
            acc = RatMatrix.identity(k)
            for i, e in enumerate(mono):
                if e:
                    acc = acc @ powers[i][e]
            total = total + acc.scale(c)
        return total

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


class PolySystem:
    """A list of polynomials sharing one ring."""

    __slots__ = ("variables", "polys")

    def __init__(self, variables: Sequence[str], polys: Iterable[MultiPoly]):
        vs = tuple(variables)
        ps = tuple(polys)
        for p in ps:
            if p.variables != vs:
                raise ValueError("system polynomials must share the ring")
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "polys", ps)

    def __setattr__(self, *_):
        raise AttributeError("PolySystem is immutable")

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def arity(self) -> int:
        return len(self.variables)

    def __repr__(self) -> str:
        return f"PolySystem({list(self.variables)}, {[p.to_text() for p in self.polys]})"


# -- parsing ------------------------------------------------------------


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("number"):
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse the textual grammar: sign-joined terms of rational coefficients
    and '*'-separated variable powers, e.g. "3/4*x1*x2 - x2^3"."""
    vs = tuple(variables)
    for name in vs:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
    index = {name: i for i, name in enumerate(vs)}
    tokens = _tokenize(text)
    it = 0

    def peek():
        return tokens[it]

    def advance():
        nonlocal it
        tok = tokens[it]
        it += 1
        return tok

    def parse_varpow() -> tuple[int, int]:
        kind, value, pos = advance()
        if kind != "name":
            raise ParseError("expected a variable name", pos)
        if value not in index:
            raise ParseError(f"unknown variable {value!r}", pos)
        exp = 1
        if peek()[:2] == ("op", "^"):
            advance()
            k2, v2, p2 = advance()
            if k2 != "number" or "/" in v2:
                raise ParseError("expected an integer exponent after '^'", p2)
            exp = int(v2)
        return index[value], exp

    def parse_term() -> tuple[Monomial, Fraction]:
        coeff = Fraction(1)
        expos = [0] * len(vs)
        kind, value, pos = peek()
        saw_factor = False
        if kind == "number":
            advance()
            coeff = Fraction(value)
            saw_factor = True
            if peek()[:2] == ("op", "*"):
                advance()
                vi, e = parse_varpow()
                expos[vi] += e
            elif peek()[0] == "name":
                raise ParseError("missing '*' between coefficient and variable", peek()[2])
        elif kind == "name":
            vi, e = parse_varpow()
            expos[vi] += e
            saw_factor = True
        else:
            raise ParseError("expected a term", pos)
        while peek()[:2] == ("op", "*"):
            advance()
            vi, e = parse_varpow()
            expos[vi] += e
        if not saw_factor:
            raise ParseError("empty term", pos)
        return tuple(expos), coeff

    terms: dict[Monomial, Fraction] = {}
    sign = Fraction(1)
    kind, value, pos = peek()
    if kind == "op" and value in "+-":
        advance()
        sign = Fraction(-1) if value == "-" else Fraction(1)
    while True:
        mono, coeff = parse_term()
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
        kind, value, pos = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            sign = Fraction(-1) if value == "-" else Fraction(1)
            continue
        raise ParseError(f"expected '+' or '-', got {value!r}", pos)
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


def is_connected_to_1(monomials: Sequence[Monomial]) -> bool:
    """Every non-constant element has a single-variable quotient in the set."""
    present = set(tuple(m) for m in monomials)
    if (0,) * len(tuple(monomials[0])) not in present:
        return False
    for mono in present:
        if sum(mono) == 0:
            continue
        if not any(
            mono[:i] + (e - 1,) + mono[i + 1 :] in present
            for i, e in enumerate(mono)
            if e
        ):
            return False
    return True


class MonomialBasis:
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
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "monomials", monos)

    def __setattr__(self, *_):
        raise AttributeError("MonomialBasis is immutable")

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

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


class ExtendedBasis:
    """A basis B together with its extension B+ = B u (x_i * B), base first.

    The extension list keeps the base as a prefix; appended products are
    deduplicated and ordered by the graded-lex scan order.
    """

    __slots__ = ("base", "extension")

    def __init__(self, base: MonomialBasis):
        object.__setattr__(self, "base", base)
        seen = set(base.monomials)
        added = []
        unit = [0] * base.arity
        for i in range(base.arity):
            unit[i] = 1
            shift = tuple(unit)
            for mono in base.monomials:
                prod = monomial_mul(mono, shift)
                if prod not in seen:
                    seen.add(prod)
                    added.append(prod)
            unit[i] = 0
        added.sort(key=grlex_key)
        object.__setattr__(self, "extension", base.monomials + tuple(added))

    def __setattr__(self, *_):
        raise AttributeError("ExtendedBasis is immutable")

    def __len__(self) -> int:
        return len(self.extension)

    def __iter__(self):
        return iter(self.extension)

    def index_of(self, mono: Monomial) -> int:
        try:
            return self.extension.index(tuple(mono))
        except ValueError:
            raise KeyError(f"monomial {mono} not in extended basis") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedBasis):
            return NotImplemented
        return self.base == other.base and self.extension == other.extension

    def strings(self, variables: Sequence[str]) -> list[str]:
        return [monomial_str(m, variables) for m in self.extension]

    def __repr__(self) -> str:
        return f"ExtendedBasis(base={self.base.monomials}, extension={self.extension})"


# -- univariate utilities (dense descending coefficient lists) ----------


def univ_normalize(coeffs: Sequence) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    i = 0
    while i < len(out) and out[i] == 0:
        i += 1
    return out[i:]


def univ_derivative(coeffs: Sequence) -> list[Fraction]:
    cs = univ_normalize(coeffs)
    n = len(cs) - 1
    return [c * (n - i) for i, c in enumerate(cs[:-1])]


def univ_gcd(p: Sequence, q: Sequence) -> list[Fraction]:
    """Monic gcd by the Euclidean remainder sequence over the rationals."""
    a = univ_normalize(p)
    b = univ_normalize(q)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, _univ_mod(a, b)
    lead = a[0]
    return [c / lead for c in a]


def _univ_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        if r[0] == 0:
            r.pop(0)
            continue
        factor = r[0] / b[0]
        for i in range(len(b)):
            r[i] -= factor * b[i]
        r.pop(0)
    return univ_normalize(r)

