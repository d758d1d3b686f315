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

No dense k x k product of multiplication matrices is formed.  Column i of
M_s is a unit vector whenever x_s * b_i lies in the basis, so step 2 solves
only the border columns (x_s * b_i outside the basis), all of them in one
elimination of H1.  After step 3 one NormalForms table of the vectors
v_gamma = M^gamma e_1 serves the remaining steps: step 5 checks commutation
column by column and membership as f(M) e_1 = 0, step 6 reads the trace
grid off it, and step 7 builds g(M) from it for the one product H1 * g(M).

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
    rank,
    signature_descartes,
    solve,
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


def _shift_targets(basis: MonomialBasis) -> list[list[int | None]]:
    """targets[s][i] = j when x_s * b_i = b_j lies in the basis, and None
    when x_s * b_i is outside it: column i of M_s is then a border column."""
    index = {m: i for i, m in enumerate(basis.monomials)}
    targets = []
    for s in range(basis.arity):
        unit = tuple(1 if t == s else 0 for t in range(basis.arity))
        targets.append([index.get(monomial_mul(mono, unit)) for mono in basis.monomials])
    return targets


def _border_columns(mats: Sequence[RatMatrix], targets: Sequence[Sequence[int | None]]) -> RatMatrix:
    """The k x m matrix of column i of mats[s] for every border pair (s, i),
    ordered by s, then i."""
    k = mats[0].rows
    picks = []
    for mat, row in zip(mats, targets):
        nums, dens = mat.row_pairs()
        picks += [(nums, dens, i) for i, j in enumerate(row) if j is None]
    return RatMatrix(
        k,
        len(picks),
        [nums[r * k + i] for r in range(k) for nums, _, i in picks],
        [dens[r * k + i] for r in range(k) for _, dens, i in picks],
    )


def mult_matrices(
    h1: RatMatrix, h_shifted: Sequence[RatMatrix], hplus_matrix: RatMatrix, basis: MonomialBasis
) -> list[RatMatrix] | StepFailure:
    """M_s = H1^{-1} H1^{x_s}, guarded by rank H1 = rank H+ = k.

    Column i of H1^{x_s} is the column of H+ labelled x_s * b_i.  When that
    label is a basis element b_j, extract_blocks read H1's own column j (the
    labels are unique and the base comes first), so column i of M_s is e_j
    by construction.  Only the border columns are solved: all of them, for
    every s, in one elimination of H1 by linalg.solve, which checks the
    exact residual H1 X = H1^{x_s} on them.  The rank of H+ is computed
    first; on the non-radical route it is the only check that sees the
    entries of H+ outside H1 and the blocks.  H1's own rank is computed
    only on a failure, to word the message.
    """
    k = h1.rows
    targets = _shift_targets(basis)
    rank_hplus = rank(hplus_matrix)
    x = None
    if rank_hplus == k:
        try:
            x = solve(h1, _border_columns(h_shifted, targets))
        except SingularMatrixError:
            pass
    if x is None:
        return StepFailure(
            2, "rank_deficient", f"rank H1 = {rank(h1)}, rank H+ = {rank_hplus}, expected {k}"
        )
    xn, xd = x.row_pairs()
    m = x.cols
    c = 0  # column of x holding the next border column
    ms = []
    for row in targets:
        nums, dens = [0] * (k * k), [1] * (k * k)
        for i, j in enumerate(row):
            if j is not None:
                nums[j * k + i] = 1
                continue
            for r in range(k):
                nums[r * k + i] = xn[r * m + c]
                dens[r * k + i] = xd[r * m + c]
            c += 1
        ms.append(RatMatrix(k, k, nums, dens))
    return ms


def check_identity_rows(ms: Sequence[RatMatrix], basis: MonomialBasis) -> StepFailure | None:
    """Whenever x_s * b_i lands in the basis at position j, column i of M_s
    must be the j-th unit vector."""
    k = len(basis)
    for s, (m, row) in enumerate(zip(ms, _shift_targets(basis))):
        for i, j in enumerate(row):
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


class NormalForms:
    """The normal-form table of one certification: v_gamma = M^gamma e_1.

    Each M_s is scaled to integers by the lcm D_s of its denominators and
    kept as its columns' non-zero entries, so a vector is an integer list
    with one denominator, D^gamma.  v_gamma is memoised, each from
    v_(gamma - e_s) by one product with D_s M_s that visits only the
    non-zero entries of its columns.  The table is built once per
    certification, after step 3, and shared by steps 5, 6 and 7.  Its
    vectors mean what they say under the precondition that steps 3 and 5
    establish on both routes:

    - the basis starts with 1 and is connected to 1, and step 3 proved the
      identity columns, so v_(beta_i) = M^(beta_i) e_1 = e_i by induction on
      deg beta_i;
    - step 5 proved that the M_s commute, so M^gamma is well defined and
      every path to gamma gives the same v_gamma.

    Step 5 itself uses only the columns until commutation is proved.
    """

    def __init__(self, ms: Sequence[RatMatrix], basis: Sequence[Monomial]):
        k = ms[0].rows
        self.k = k
        self.basis = tuple(basis)
        self.scales: list[int] = []
        # columns[s][t]: non-zero (row, integer entry) of D_s * M_s e_t
        self.columns: list[list[list[tuple[int, int]]]] = []
        for m in ms:
            nums, dens = m.row_pairs()
            d = 1
            for x in dens:
                d = d * x // gcd(d, x)
            self.scales.append(d)
            self.columns.append(
                [
                    [(r, nums[r * k + t] * (d // dens[r * k + t])) for r in range(k) if nums[r * k + t]]
                    for t in range(k)
                ]
            )
        start = [0] * k
        start[0] = 1
        self._vectors: dict[Monomial, tuple[list[int], int]] = {(0,) * len(ms): (start, 1)}

    def apply(self, s: int, w: Sequence[int]) -> list[int]:
        """D_s * M_s * w for an integer vector w."""
        out = [0] * self.k
        columns = self.columns[s]
        for t, x in enumerate(w):
            if x:
                for r, c in columns[t]:
                    out[r] += c * x
        return out

    def column(self, s: int, t: int) -> list[int]:
        """D_s * M_s e_t as a dense integer vector."""
        out = [0] * self.k
        for r, c in self.columns[s][t]:
            out[r] = c
        return out

    def vector(self, gamma: Monomial) -> tuple[list[int], int]:
        """(D^gamma * v_gamma, D^gamma)."""
        vectors = self._vectors
        chain = []
        while gamma not in vectors:
            s = next(s for s, e in enumerate(gamma) if e)
            chain.append((gamma, s))
            gamma = gamma[:s] + (gamma[s] - 1,) + gamma[s + 1 :]
        w, d = vectors[gamma]
        for gamma, s in reversed(chain):
            w, d = self.apply(s, w), d * self.scales[s]
            vectors[gamma] = (w, d)
        return w, d

    def image(self, g: MultiPoly, beta: Monomial) -> tuple[list[int], int]:
        """g(M) M^beta e_1 = sum_alpha g_alpha v_(alpha + beta), as an integer
        vector over one denominator."""
        if len(g.variables) != len(self.columns):
            raise ValueError("matrix count does not match ring arity")
        terms = []
        den = 1
        for alpha, coeff in g.terms.items():
            w, d = self.vector(monomial_mul(alpha, beta))
            q = coeff.denominator * d
            terms.append((coeff.numerator, q, w))
            den = den * q // gcd(den, q)
        out = [0] * self.k
        for p, q, w in terms:
            f = p * (den // q)
            for r, x in enumerate(w):
                if x:
                    out[r] += f * x
        return out, den

    def poly_matrix(self, g: MultiPoly) -> RatMatrix:
        """g(M_1, ..., M_n), column j being g(M) e_j = g(M) M^(beta_j) e_1."""
        k = self.k
        nums, dens = [0] * (k * k), [1] * (k * k)
        for j, beta in enumerate(self.basis):
            w, den = self.image(g, beta)
            for r, x in enumerate(w):
                if x:
                    common = gcd(x, den)
                    nums[r * k + j], dens[r * k + j] = x // common, den // common
        return RatMatrix(k, k, nums, dens)


def check_commute_and_membership(nf: NormalForms, system: PolySystem) -> StepFailure | None:
    """Step 5: the M_s commute pairwise and every input polynomial vanishes
    at them.

    Commutation is checked column by column in the integer-scaled form:
    D_a D_b M_a (M_b e_t) against D_b D_a M_b (M_a e_t).  Membership then
    needs one vector per polynomial: the M_s commute and step 3 gave
    M^(beta_j) e_1 = e_j, so f(M) e_j = M^(beta_j) f(M) e_1, and f(M) = 0
    exactly when f(M) e_1 = sum_alpha f_alpha v_alpha = 0.
    """
    n = len(nf.columns)
    for a in range(n):
        for b in range(a + 1, n):
            for t in range(nf.k):
                if nf.apply(a, nf.column(b, t)) != nf.apply(b, nf.column(a, t)):
                    return StepFailure(5, "noncommuting", f"M_{a} and M_{b}")
    origin = (0,) * n
    for idx, poly in enumerate(system.polys):
        if any(nf.image(poly, origin)[0]):
            return StepFailure(5, "nonmember", f"input polynomial {idx} does not vanish")
    return None


def _trace_grid(nf: NormalForms, monomials: Sequence[Monomial]) -> list[list[Fraction]]:
    """Tr((b_i * b_j)(M)) for all label pairs b_i, b_j in monomials.

    No matrix product is formed: Tr(M^alpha) = sum_i (v_(alpha + beta_i))_i
    over the basis exponents beta_i, read off the normal-form table.  With
    the table's precondition (steps 3 and 5), Tr(M^alpha) =
    sum_i e_i^T M^alpha M^(beta_i) e_1, the same exact rational as the
    trace of the matrix product.
    """
    traces: dict[Monomial, Fraction] = {}

    def trace_of(alpha: Monomial) -> Fraction:
        if alpha not in traces:
            num, den = 0, 1
            for i, beta in enumerate(nf.basis):
                w, d = nf.vector(monomial_mul(alpha, beta))
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


def check_traces(hplus: HermitePlus, nf: NormalForms) -> StepFailure | None:
    """Every entry of the full extended matrix must equal the trace of the
    corresponding product of multiplication matrices.

    The table's matrices must have passed steps 3 and 5 (see NormalForms)."""
    ext = hplus.labels.extension
    grid = _trace_grid(nf, ext)
    for i in range(len(ext)):
        for j in range(len(ext)):
            if hplus.matrix.entry(i, j) != grid[i][j]:
                return StepFailure(
                    6,
                    "trace_mismatch",
                    f"entry ({i}, {j}): H+ = {hplus.matrix.entry(i, j)}, trace = {grid[i][j]}",
                )
    return None


def hermite_for_g(h1: RatMatrix, nf: NormalForms, g: MultiPoly) -> RatMatrix | StepFailure:
    """H_g = H1 * g(M_1, ..., M_n); must come out symmetric.

    g(M) is read off the normal-form table, so the one product formed is
    H1 * g(M)."""
    hg = h1 @ nf.poly_matrix(g)
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
) -> tuple[RatMatrix, list[RatMatrix], list[RatMatrix], NormalForms] | StepFailure:
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

    ms = mult_matrices(h1, shifted, hplus.matrix, basis)
    if isinstance(ms, StepFailure):
        _log(diag, 2, "mult_matrices", ms)
        return ms
    _log(diag, 2, "mult_matrices", None)

    failure = check_identity_rows(ms, basis)
    _log(diag, 3, "identity_columns", failure)
    if failure:
        return failure
    nf = NormalForms(ms, basis.monomials)

    failure = check_squarefree(ms, seed=seed, retries=retries)
    _log(diag, 4, "squarefree", failure)
    if failure:
        return failure

    failure = check_commute_and_membership(nf, system)
    _log(diag, 5, "commute_and_membership", failure)
    if failure:
        return failure
    return h1, shifted, ms, nf


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
    h1, _, ms, nf = res

    failure = check_traces(hplus, nf)
    _log(diag, 6, "trace_grid", failure)
    if failure:
        return _fail(basis, diag, failure)

    hg = hermite_for_g(h1, nf, g)
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

    The outcome's own g gives the stored pair.  Any other g gets a fresh
    normal-form table of the outcome's multiplication matrices, so the
    outcome carries no cache that could go stale.  Nothing is logged: the
    outcome's diagnostics describe its certification, not later derivations.
    """
    if g == outcome.g:
        return outcome.hg, outcome.sigma_hg
    nf = NormalForms(outcome.mult_matrices, outcome.basis.monomials)
    hg = hermite_for_g(outcome.h1, nf, g)
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
    h1_weighted, shifted, ms, nf = res

    failure = None
    points = hplus.provenance.point_count
    if h1_weighted.entry(0, 0) != points:
        failure = StepFailure(
            6,
            "weighted_inconsistent",
            f"H1[1,1] = {h1_weighted.entry(0, 0)} but {points} points were used",
        )
    if failure is None:
        # the unit columns of M_s hold by construction (see mult_matrices)
        for s, row in enumerate(_shift_targets(basis)):
            if h1_weighted @ _border_columns([ms[s]], [row]) != _border_columns([shifted[s]], [row]):
                failure = StepFailure(6, "weighted_inconsistent", f"H1 * M_{s} != H1^(x_{s})")
                break
    _log(diag, 6, "weighted_consistency", failure)
    if failure:
        return _fail(basis, diag, failure)

    h1_trace = RatMatrix.from_rows(_trace_grid(nf, basis.monomials))
    hg_trace = hermite_for_g(h1_trace, nf, g)
    if isinstance(hg_trace, StepFailure):
        _log(diag, 7, "hermite_for_g", hg_trace)
        return _fail(basis, diag, hg_trace)
    hg_weighted = hermite_for_g(h1_weighted, nf, g)
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
