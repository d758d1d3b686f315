"""Purely symbolic certification of candidate Hermite matrices.

A candidate extended matrix H+ labelled by a basis connected to 1 is pushed
through seven exact checks: block extraction, multiplication-matrix
construction with rank conditions, identity-column structure, squarefree
characteristic polynomial of a generic combination, pairwise commutation
plus ideal membership, the full trace grid, and the derivation of the
weighted matrix for an arbitrary polynomial g.  Passing them proves (by
Mourrain's border-basis criterion) that the candidate is the true Hermite
matrix of the input ideal; every failure is reported with the step that
caught it.

Orientation convention, pinned by unit tests on companion matrices: the
matrices M_s = H1^{-1} H1^{x_s} hold the expansion of x_s * b_t in their
t-th COLUMN, i.e. they are the transposes of the row-convention
multiplication matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .hermite import HermitePlus
from .linalg import (
    RatMatrix,
    SingularMatrixError,
    char_poly,
    inertia_ldl,
    inverse,
    rank,
    signature_descartes,
)
from .polynomials import (
    Monomial,
    MonomialBasis,
    MultiPoly,
    PolySystem,
    monomial_mul,
    univ_derivative,
    univ_gcd,
)

DEFAULT_SEED = 1729
DEFAULT_RETRIES = 3


class MissingLabelError(KeyError):
    """The extended labels do not cover some x_s * b column."""


class SignatureMethodMismatchError(AssertionError):
    """The two exact signature methods disagreed; this indicates a bug."""


@dataclass(frozen=True)
class StepFailure:
    step: int
    reason: str
    detail: str = ""

    def describe(self) -> str:
        msg = f"step {self.step}: {self.reason}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass
class CertificationOutcome:
    """Certified matrices or the first failing step.

    status is "certified" or "fail"; when certified, g, h1, hg,
    mult_matrices and the signatures sigma_h1, sigma_hg are all present, and
    every other H_g and its signature is derived from them by derive_hg.
    For the non-radical route h1/hg are the trace-based matrices of the
    radical and the multiplicity-weighted pair is exposed separately.
    """

    status: str
    basis: MonomialBasis
    failed_step: int | None = None
    reason: str | None = None
    detail: str = ""
    h1: RatMatrix | None = None
    hg: RatMatrix | None = None
    mult_matrices: list[RatMatrix] | None = None
    g: MultiPoly | None = None
    sigma_h1: int | None = None
    sigma_hg: int | None = None
    weighted_h1: RatMatrix | None = None
    weighted_hg: RatMatrix | None = None
    diagnostics: list[dict] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def signature(a: RatMatrix) -> int:
    """Signature via symmetric elimination, cross-checked by Descartes."""
    s_ldl = inertia_ldl(a).signature
    s_desc = signature_descartes(a)
    if s_ldl != s_desc:
        raise SignatureMethodMismatchError(
            f"inertia {s_ldl} vs Descartes {s_desc}: exact methods disagree"
        )
    return s_ldl


def extract_blocks(hplus: HermitePlus) -> tuple[RatMatrix, list[RatMatrix]]:
    """H1 (rows/cols B) and the n blocks with columns x_s * B."""
    base = hplus.labels.base
    k = len(base)
    h = hplus.matrix
    base_idx = list(range(k))
    blocks = []
    for s in range(base.arity):
        unit = tuple(1 if i == s else 0 for i in range(base.arity))
        try:
            cols = [hplus.labels.index_of(monomial_mul(m, unit)) for m in base.monomials]
        except KeyError as exc:
            raise MissingLabelError(str(exc)) from None
        blocks.append(h.submatrix(base_idx, cols))
    return h.submatrix(base_idx, base_idx), blocks


def mult_matrices(
    h1: RatMatrix, h_shifted: Sequence[RatMatrix], hplus_matrix: RatMatrix
) -> list[RatMatrix] | StepFailure:
    """M_s = H1^{-1} H1^{x_s}, guarded by rank H1 = rank H+ = k.

    H1 is eliminated once, by the inverse, and only when rank H+ = k; its
    rank is computed only on a failure, to word the message.
    """
    k = h1.rows
    rank_hplus = rank(hplus_matrix)
    h1_inv = None
    if rank_hplus == k:
        try:
            h1_inv = inverse(h1)
        except SingularMatrixError:
            pass
    if h1_inv is None:
        return StepFailure(
            2, "rank_deficient", f"rank H1 = {rank(h1)}, rank H+ = {rank_hplus}, expected {k}"
        )
    return [h1_inv @ hs for hs in h_shifted]


def check_identity_rows(ms: Sequence[RatMatrix], basis: MonomialBasis) -> StepFailure | None:
    """Whenever x_s * b_i lands in the basis at position j, column i of M_s
    must be the j-th unit vector."""
    index = {m: i for i, m in enumerate(basis.monomials)}
    k = len(basis)
    for s, m in enumerate(ms):
        unit = tuple(1 if t == s else 0 for t in range(basis.arity))
        for i, mono in enumerate(basis.monomials):
            j = index.get(monomial_mul(mono, unit))
            if j is None:
                continue
            for r in range(k):
                expected = Fraction(1 if r == j else 0)
                if m.entry(r, i) != expected:
                    return StepFailure(
                        3,
                        "identity_column",
                        f"variable {s}, basis element {i}: column is not e_{j}",
                    )
    return None


def check_squarefree(
    ms: Sequence[RatMatrix], seed: int = DEFAULT_SEED, retries: int = DEFAULT_RETRIES
) -> StepFailure | None:
    """gcd(p, p') = 1 for the characteristic polynomial of a generic
    combination sum c_s M_s; up to `retries` deterministic draws of c."""
    k = ms[0].rows
    rng = random.Random(seed)
    span = max(1, k * k)
    last = None
    for _ in range(max(1, retries)):
        cs = [rng.randint(-span, span) for _ in ms]
        combo = RatMatrix.zeros(k, k)
        for c, m in zip(cs, ms):
            if c:
                combo = combo + m.scale(c)
        p = char_poly(combo)
        g = univ_gcd(p, univ_derivative(p))
        if len(g) == 1:
            return None
        last = f"c = {cs}: gcd degree {len(g) - 1}"
    return StepFailure(4, "not_squarefree", last or "")


def check_commute_and_membership(
    ms: Sequence[RatMatrix], system: PolySystem
) -> StepFailure | None:
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if ms[i] @ ms[j] != ms[j] @ ms[i]:
                return StepFailure(5, "noncommuting", f"M_{i} and M_{j}")
    for idx, poly in enumerate(system.polys):
        if not poly.eval_at_matrices(list(ms)).is_zero():
            return StepFailure(5, "nonmember", f"input polynomial {idx} does not vanish")
    return None


def _trace_grid(
    ms: Sequence[RatMatrix], basis: Sequence[Monomial], monomials: Sequence[Monomial]
) -> list[list[Fraction]]:
    """Tr((b_i * b_j)(M)) for all label pairs b_i, b_j in monomials.

    No matrix product is formed.  The coordinate vectors v_gamma = M^gamma e_1
    are memoised, each from v_(gamma - e_s) by one product with M_s that
    visits only the non-zero entries of its columns, and
    Tr(M^alpha) = sum_i (v_(alpha + beta_i))_i over the basis exponents
    beta_i.  Precondition, established by steps 3 and 5 on both routes:

    - the basis starts with 1 and is connected to 1, and step 3 proved the
      identity columns, so M^(beta_i) e_1 = e_i by induction on deg beta_i;
    - step 5 proved that the M_s commute, so M^gamma is well defined and
      every path to gamma gives the same v_gamma.

    Then Tr(M^alpha) = sum_i e_i^T M^alpha M^(beta_i) e_1, the same exact
    rational as the trace of the matrix product.  Each M_s is scaled to
    integers by the lcm D_s of its denominators, so a vector is an integer
    list with one denominator, D^gamma.
    """
    k = ms[0].rows
    scales = []
    columns = []  # columns[s][t]: non-zero (row, integer entry) of D_s * M_s
    for m in ms:
        nums, dens = m.row_pairs()
        d = 1
        for x in dens:
            d = d * x // gcd(d, x)
        scales.append(d)
        columns.append(
            [
                [(r, nums[r * k + t] * (d // dens[r * k + t])) for r in range(k) if nums[r * k + t]]
                for t in range(k)
            ]
        )
    start = [0] * k
    start[0] = 1
    vectors: dict[Monomial, tuple[list[int], int]] = {(0,) * len(ms): (start, 1)}

    def vector(gamma: Monomial) -> tuple[list[int], int]:
        chain = []
        while gamma not in vectors:
            s = next(s for s, e in enumerate(gamma) if e)
            chain.append((gamma, s))
            gamma = gamma[:s] + (gamma[s] - 1,) + gamma[s + 1 :]
        w, d = vectors[gamma]
        for gamma, s in reversed(chain):
            out = [0] * k
            for t, x in enumerate(w):
                if x:
                    for r, c in columns[s][t]:
                        out[r] += c * x
            w, d = out, d * scales[s]
            vectors[gamma] = (w, d)
        return w, d

    traces: dict[Monomial, Fraction] = {}

    def trace_of(alpha: Monomial) -> Fraction:
        if alpha not in traces:
            num, den = 0, 1
            for i, beta in enumerate(basis):
                w, d = vector(monomial_mul(alpha, beta))
                x = w[i]
                if x:
                    if d == den:
                        num += x
                    else:
                        g = gcd(d, den)
                        num = num * (d // g) + x * (den // g)
                        den = den // g * d
            traces[alpha] = Fraction(num, den)
        return traces[alpha]

    return [[trace_of(monomial_mul(a, b)) for b in monomials] for a in monomials]


def check_traces(hplus: HermitePlus, ms: Sequence[RatMatrix]) -> StepFailure | None:
    """Every entry of the full extended matrix must equal the trace of the
    corresponding product of multiplication matrices.

    The ms must have passed steps 3 and 5 (see _trace_grid)."""
    ext = hplus.labels.extension
    grid = _trace_grid(ms, hplus.labels.base.monomials, ext)
    for i in range(len(ext)):
        for j in range(len(ext)):
            if hplus.matrix.entry(i, j) != grid[i][j]:
                return StepFailure(
                    6,
                    "trace_mismatch",
                    f"entry ({i}, {j}): H+ = {hplus.matrix.entry(i, j)}, trace = {grid[i][j]}",
                )
    return None


def hermite_for_g(
    h1: RatMatrix, ms: Sequence[RatMatrix], g: MultiPoly
) -> RatMatrix | StepFailure:
    """H_g = H1 * g(M_1, ..., M_n); must come out symmetric."""
    hg = h1 @ g.eval_at_matrices(list(ms))
    if not hg.is_symmetric():
        return StepFailure(7, "not_symmetric", "H1 * g(M) is not symmetric")
    return hg


def _log(diag: list[dict], step: int, name: str, failure: StepFailure | None):
    diag.append(
        {
            "step": step,
            "check": name,
            "status": "fail" if failure else "ok",
            **({"reason": failure.reason, "detail": failure.detail} if failure else {}),
        }
    )


def _fail(outcome_basis: MonomialBasis, diag: list[dict], failure: StepFailure) -> CertificationOutcome:
    return CertificationOutcome(
        status="fail",
        basis=outcome_basis,
        failed_step=failure.step,
        reason=failure.reason,
        detail=failure.detail,
        diagnostics=diag,
    )


def _run_steps_1_to_5(
    system: PolySystem,
    hplus: HermitePlus,
    seed: int,
    retries: int,
    diag: list[dict],
) -> tuple[RatMatrix, list[RatMatrix], list[RatMatrix]] | StepFailure:
    basis = hplus.labels.base
    if basis.arity != system.arity():
        raise ValueError("system arity does not match the basis")
    try:
        h1, shifted = extract_blocks(hplus)
    except MissingLabelError as exc:
        failure = StepFailure(1, "missing_label", str(exc))
        _log(diag, 1, "extract_blocks", failure)
        return failure
    _log(diag, 1, "extract_blocks", None)

    ms = mult_matrices(h1, shifted, hplus.matrix)
    if isinstance(ms, StepFailure):
        _log(diag, 2, "mult_matrices", ms)
        return ms
    _log(diag, 2, "mult_matrices", None)

    failure = check_identity_rows(ms, basis)
    _log(diag, 3, "identity_columns", failure)
    if failure:
        return failure

    failure = check_squarefree(ms, seed=seed, retries=retries)
    _log(diag, 4, "squarefree", failure)
    if failure:
        return failure

    failure = check_commute_and_membership(ms, system)
    _log(diag, 5, "commute_and_membership", failure)
    if failure:
        return failure
    return h1, shifted, ms


def certify_pipeline(
    system: PolySystem,
    g: MultiPoly,
    hplus: HermitePlus,
    seed: int = DEFAULT_SEED,
    retries: int = DEFAULT_RETRIES,
) -> CertificationOutcome:
    """Steps 1-7 for a radical zero-dimensional ideal candidate.

    Success certifies that the basis spans the quotient, the M_s are the
    (transposed) multiplication matrices, H1 is the Hermite matrix of the
    ideal and H_g = H1 * g(M).  The caller asserts that the point count is
    at least the quotient dimension; superfluous points make some step fail.
    A matrix built from more points than its basis size (a reduced
    non-radical build) goes to certify_nonradical instead.
    """
    basis = hplus.labels.base
    if hplus.provenance.point_count > len(basis):
        return certify_nonradical(system, g, hplus, seed=seed, retries=retries)
    diag: list[dict] = []
    res = _run_steps_1_to_5(system, hplus, seed, retries, diag)
    if isinstance(res, StepFailure):
        return _fail(basis, diag, res)
    h1, _, ms = res

    failure = check_traces(hplus, ms)
    _log(diag, 6, "trace_grid", failure)
    if failure:
        return _fail(basis, diag, failure)

    hg = hermite_for_g(h1, ms, g)
    if isinstance(hg, StepFailure):
        _log(diag, 7, "hermite_for_g", hg)
        return _fail(basis, diag, hg)
    _log(diag, 7, "hermite_for_g", None)

    sigma_h1 = signature(h1)
    return CertificationOutcome(
        status="certified",
        basis=basis,
        h1=h1,
        hg=hg,
        mult_matrices=list(ms),
        g=g,
        sigma_h1=sigma_h1,
        sigma_hg=_signature_of_hg(hg, h1, sigma_h1),
        diagnostics=diag,
    )


def _signature_of_hg(hg: RatMatrix, h1: RatMatrix, sigma_h1: int) -> int:
    """sigma(H_g), reusing sigma(H1) when g(M) = I makes the two equal."""
    return sigma_h1 if hg == h1 else signature(hg)


def derive_hg(outcome: CertificationOutcome, g: MultiPoly) -> tuple[RatMatrix, int] | StepFailure:
    """Step 7 for another g on a certified outcome: (H1 * g(M), its signature).

    The outcome's own g gives the stored pair.  Nothing is logged: the
    outcome's diagnostics describe its certification, not later derivations.
    """
    if g == outcome.g:
        return outcome.hg, outcome.sigma_hg
    hg = hermite_for_g(outcome.h1, outcome.mult_matrices, g)
    if isinstance(hg, StepFailure):
        return hg
    return hg, signature(hg)


def certify_nonradical(
    system: PolySystem,
    g: MultiPoly,
    hplus: HermitePlus,
    seed: int = DEFAULT_SEED,
    retries: int = DEFAULT_RETRIES,
) -> CertificationOutcome:
    """Certification through the radical of a non-radical ideal.

    hplus is the reduced extended matrix from build_nonradical: its base
    labels span the quotient by the radical, and its provenance keeps the
    total point count.  Steps 1-5 on it certify the multiplication
    matrices of the radical.  The literal trace comparison of step 6 cannot
    hold against multiplicity-weighted entries, so the Hermite matrices of
    the radical are instead built directly from traces, H1[i,j] =
    Tr((b_i b_j)(M)) and H_g = H1 * g(M), while the weighted input matrix is
    validated by exact consistency checks: H1bar * M_s = H1bar^{x_s}, the
    (1,1) entry equals the provenance point count, and the signatures of the
    weighted and trace-based g-matrices agree (positive weights preserve
    sign counts).  Any disagreement is a failure, never silently resolved.
    """
    basis = hplus.labels.base
    diag: list[dict] = []
    res = _run_steps_1_to_5(system, hplus, seed, retries, diag)
    if isinstance(res, StepFailure):
        return _fail(basis, diag, res)
    h1_weighted, shifted, ms = res

    failure = None
    points = hplus.provenance.point_count
    if h1_weighted.entry(0, 0) != points:
        failure = StepFailure(
            6,
            "weighted_inconsistent",
            f"H1[1,1] = {h1_weighted.entry(0, 0)} but {points} points were used",
        )
    if failure is None:
        for s, hs in enumerate(shifted):
            if h1_weighted @ ms[s] != hs:
                failure = StepFailure(6, "weighted_inconsistent", f"H1 * M_{s} != H1^(x_{s})")
                break
    _log(diag, 6, "weighted_consistency", failure)
    if failure:
        return _fail(basis, diag, failure)

    grid = _trace_grid(ms, basis.monomials, basis.monomials)
    h1_trace = RatMatrix.from_rows(grid)
    hg_trace = hermite_for_g(h1_trace, ms, g)
    if isinstance(hg_trace, StepFailure):
        _log(diag, 7, "hermite_for_g", hg_trace)
        return _fail(basis, diag, hg_trace)
    hg_weighted = hermite_for_g(h1_weighted, ms, g)
    if isinstance(hg_weighted, StepFailure):
        _log(diag, 7, "weighted_hermite_for_g", hg_weighted)
        return _fail(basis, diag, hg_weighted)
    sigma_h1 = signature(h1_trace)
    mismatch = None
    if signature(h1_weighted) != sigma_h1:
        mismatch = "1"
    else:  # both H1 agree, so sigma_h1 stands in for either H_g equal to its H1
        sigma_hg = _signature_of_hg(hg_trace, h1_trace, sigma_h1)
        if _signature_of_hg(hg_weighted, h1_weighted, sigma_h1) != sigma_hg:
            mismatch = "g"
    if mismatch:
        failure = StepFailure(
            7,
            "weighted_signature_mismatch",
            f"trace-based and weighted signatures differ for g = {mismatch}",
        )
        _log(diag, 7, "signature_agreement", failure)
        return _fail(basis, diag, failure)
    _log(diag, 7, "hermite_for_g", None)

    return CertificationOutcome(
        status="certified",
        basis=basis,
        h1=h1_trace,
        hg=hg_trace,
        mult_matrices=list(ms),
        g=g,
        sigma_h1=sigma_h1,
        sigma_hg=sigma_hg,
        weighted_h1=h1_weighted,
        weighted_hg=hg_weighted,
        diagnostics=diag,
    )
