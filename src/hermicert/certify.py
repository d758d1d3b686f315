"""Purely symbolic certification of candidate Hermite matrices.

A candidate extended matrix H+ labelled by a basis connected to 1 is pushed
through seven exact checks:

1. block extraction;
2. multiplication-matrix construction with rank conditions;
3. identity-column structure, written by step 2;
4. the quotient algebra is reduced (its trace form is nonsingular);
5. pairwise commutation plus ideal membership;
6. the full trace grid;
7. the derivation of the weighted matrix for an arbitrary polynomial g.

Passing them proves (by Mourrain's border-basis criterion) that the
candidate is the true Hermite matrix of the input ideal; every failure is
reported with the step that caught it: a failing check raises
StepFailure, one runner, _step, writes every step's diagnostics entry ("ok",
or "fail" with the reason and detail), and each route catches the first
failure once.

Step 4 rests on Hermite's theorem: the rank of the trace form of
A = Q[x]/J counts the distinct roots, so in characteristic 0 a
k-dimensional A is reduced exactly when its trace form is nonsingular
(Pedersen-Roy-Szpirglas 1993; Cox-Little-O'Shea, Using Algebraic Geometry,
ch. 2 par. 5).  Step 2's unit columns and step 5 make A, with
J = {p : p(M) e_1 = 0}, a k-dimensional algebra on which x_s acts by M_s.
On the radical route step 2 proves H1 nonsingular and step 6 proves H1 the
trace form of A, so step 4 computes nothing and records step 2's result.
On the non-radical route H1bar is a weighted form, which can be nonsingular
on an algebra that is not reduced, so step 4 checks the rank of the trace
matrix itself.  Step 7 needs no check on the trace form H1 of A: column j
of g(M) holds the coordinates of g * b_j, so (H1 g(M))[i, j] =
Tr(b_i * g * b_j) and H_g is symmetric by construction; derive_hg cannot
fail.  Only the non-radical route's weighted H1bar and H1bar g(M), no trace
forms, are checked there.

The label structure comes from the ExtendedBasis: its shifts table gives
the position of every x_s * b_i, and its products table the distinct
products b_i * b_j that the entries depend on.  No dense k x k product of
multiplication matrices is formed.  Column i of M_s is the unit vector e_j
whenever x_s * b_i is the basis element b_j, so step 2 writes those
columns itself.  Every other column is read off Y = H1^{-1} H+[B, ext],
ext the extension labels outside the basis, each once: one fraction-free
elimination of H1 on integers, checking the exact residual
H1 Y = H+[B, ext].  On the non-radical route that residual is the
weighted identity H1bar M_s = H1bar^{x_s}.  With H1 nonsingular, the rank
condition rank H+ = k is the vanishing of the Schur complement,
H+[ext, ext] = H+[ext, B] Y (Guttman's rank identity), so one product
replaces a second elimination; the ranks themselves are computed only to
word a failure.  Step 3 therefore checks nothing: its
entry records that step 2 wrote the unit columns, as step 4 on the
radical route records step 2's result.  Step 2's matrices go into one
NormalForms table of the vectors v_gamma = M^gamma e_1, the only copy of
them that the certification keeps: step 4 on the non-radical route and
step 6 read one trace per distinct label product off it, step 5 checks
commutation column by column and membership as f(M) e_1 = 0, step 7
builds g(M) from it for the one product H1 * g(M), and the certified
outcome carries it so that derive_hg reads every later g(M) off it too.

Orientation convention, pinned by unit tests on companion matrices: the
matrices M_s = H1^{-1} H1^{x_s} hold the expansion of x_s * b_t in their
t-th COLUMN, i.e. they are the transposes of the row-convention
multiplication matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .hermite import HermitePlus
from .linalg import (
    RatMatrix,
    SingularMatrixError,
    inertia_ldl,
    rank,
    signature_descartes,
    solve,
)
from .polynomials import (
    ExtendedBasis,
    Monomial,
    MonomialBasis,
    MultiPoly,
    PolySystem,
    monomial_mul,
)


class SignatureMethodMismatchError(AssertionError):
    """The two exact signature methods disagreed; this indicates a bug."""


class StepFailure(Exception):
    """A failed check: its step, reason code and detail, and the name of its
    diagnostics entry when that is not the step's own."""

    def __init__(self, step: int, reason: str, detail: str = "", check: str | None = None):
        super().__init__(step, reason, detail)
        self.step, self.reason, self.detail, self.check = step, reason, detail, check


@dataclass
class CertificationOutcome:
    """Certified matrices or the first failing step.

    status is "certified" or "fail"; when certified, g, h1, hg, the
    normal-form table and the signatures sigma_h1, sigma_hg are all present,
    and every other H_g and its signature is derived from them by derive_hg.
    mult_matrices reads the M_s the table was built from, so the two cannot
    disagree; the table is neither compared nor serialized.  For the
    non-radical route h1/hg are the trace-based matrices of the radical and
    the multiplicity-weighted pair is exposed separately.
    """

    status: str
    basis: MonomialBasis
    failed_step: int | None = None
    reason: str | None = None
    detail: str = ""
    h1: RatMatrix | None = None
    hg: RatMatrix | None = None
    normal_forms: NormalForms | None = field(default=None, repr=False, compare=False)
    g: MultiPoly | None = None
    sigma_h1: int | None = None
    sigma_hg: int | None = None
    weighted_h1: RatMatrix | None = None
    weighted_hg: RatMatrix | None = None
    diagnostics: list[dict] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def mult_matrices(self) -> list[RatMatrix] | None:
        return None if self.normal_forms is None else self.normal_forms.matrices


def signature(a: RatMatrix) -> int:
    """Signature via symmetric elimination, cross-checked by Descartes."""
    s_ldl = inertia_ldl(a).signature
    s_desc = signature_descartes(a)
    if s_ldl != s_desc:
        raise SignatureMethodMismatchError(
            f"inertia {s_ldl} vs Descartes {s_desc}: exact methods disagree"
        )
    return s_ldl


def extract_blocks(hplus: HermitePlus) -> tuple[RatMatrix, RatMatrix]:
    """H1 (rows and columns B) and the k x (l - k) border block H+[B, ext]:
    the columns of the extension labels outside B, each once, in label
    order."""
    k, l = hplus.base_size(), len(hplus.labels)
    return hplus.matrix.submatrix(range(k), range(k)), hplus.matrix.submatrix(range(k), range(k, l))


def mult_matrices(h1: RatMatrix, border: RatMatrix, hplus: HermitePlus) -> list[RatMatrix]:
    """M_s = H1^{-1} H1^{x_s}, guarded by rank H1 = rank H+ = k.

    Column i of H1^{x_s} is the column of H+ labelled x_s * b_i.  When that
    label is a basis element b_j (shifts[s][i] = j < k), it is H1's own
    column j, so column i of M_s is e_j by construction.  Otherwise it is a
    border column, and column i of M_s is the matching column of
    Y = H1^{-1} H+[B, ext]: one elimination of H1 by linalg.solve, which
    proves H1 nonsingular and checks the exact residual H1 Y = H+[B, ext].
    On the non-radical route that residual is the weighted identity
    H1bar M_s = H1bar^{x_s} on the border columns.  With H1 nonsingular,
    rank H+ = k + rank(H+[ext, ext] - H+[ext, B] Y) (Guttman's rank identity
    for the Schur complement), so rank H+ = k exactly when
    H+[ext, ext] = H+[ext, B] Y; this product is the check that sees the
    entries of H+ outside its first k rows.  Both ranks are computed only
    on a failure, to word the message.
    """
    k, l = h1.rows, len(hplus.labels)
    ext = range(k, l)
    try:
        y = solve(h1, border)
    except SingularMatrixError:
        y = None
    hp = hplus.matrix
    if y is None or hp.submatrix(ext, ext) != hp.submatrix(ext, range(k)) @ y:
        raise StepFailure(
            2, "rank_deficient", f"rank H1 = {rank(h1)}, rank H+ = {rank(hp)}, expected {k}"
        )
    yn, yd = y.row_pairs()
    m = l - k
    ms = []
    for row in hplus.labels.shifts:
        nums, dens = [0] * (k * k), [1] * (k * k)
        for i, j in enumerate(row):
            if j < k:
                nums[j * k + i] = 1
            else:  # column i of M_s is column j - k of Y
                nums[i::k] = yn[j - k :: m]
                dens[i::k] = yd[j - k :: m]
        ms.append(RatMatrix(k, k, nums, dens))
    return ms


def check_squarefree(trace_h1: RatMatrix) -> None:
    """Step 4 on the non-radical route: the trace matrix
    H1[i, j] = Tr((b_i * b_j)(M)) is nonsingular.

    By Hermite's theorem its rank is the number of distinct roots of A, so
    rank k proves A reduced: J is radical, and a generic combination of the
    M_s has a squarefree characteristic polynomial.
    """
    k = trace_h1.rows
    r = rank(trace_h1)
    if r < k:
        raise StepFailure(4, "not_squarefree", f"rank of the trace form = {r}, expected {k}")


class NormalForms:
    """The normal-form table of one certification: v_gamma = M^gamma e_1.

    matrices holds the M_s the table was built from.  Each M_s is scaled to
    integers by the lcm D_s of its denominators and kept as its columns'
    non-zero entries, so a vector is an integer list with one denominator,
    D^gamma.  v_gamma is memoised, each from v_(gamma - e_s) by one product
    with D_s M_s that visits only the non-zero entries of its columns.  The
    table is built once per certification, right after step 2, shared by
    steps 4, 5, 6 and 7, and kept on the certified outcome for derive_hg.
    Its vectors mean what they say under the precondition that steps 2 and
    5 establish on both routes:

    - the basis starts with 1 and is connected to 1, and step 2 wrote e_j
      into column i of M_s whenever x_s * b_i = b_j, so
      v_(beta_i) = M^(beta_i) e_1 = e_i by induction on deg beta_i;
    - step 5 proved that the M_s commute, so M^gamma is well defined and
      every path to gamma gives the same v_gamma.

    Step 5 itself uses only the columns until commutation is proved.
    Step 4 on the non-radical route reads vectors before that: if step 5
    then fails, the certification fails whatever step 4 read; if it
    passes, every path gives the vectors step 4 memoised.
    """

    def __init__(self, ms: Sequence[RatMatrix], basis: Sequence[Monomial]):
        k = ms[0].rows
        self.k = k
        self.matrices = list(ms)
        self.basis = tuple(basis)
        self.scales: list[int] = []
        # columns[s][t]: non-zero (row, integer entry) of D_s * M_s e_t
        self.columns: list[list[list[tuple[int, int]]]] = []
        for m in ms:
            nums, dens = m.row_pairs()
            d = lcm(*dens)
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
            den = lcm(den, q)
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


def check_commute_and_membership(nf: NormalForms, system: PolySystem) -> None:
    """Step 5: the M_s commute pairwise and every input polynomial vanishes
    at them.

    Commutation is checked column by column in the integer-scaled form:
    D_a D_b M_a (M_b e_t) against D_b D_a M_b (M_a e_t).  Membership then
    needs one vector per polynomial: the M_s commute and step 2's unit
    columns give M^(beta_j) e_1 = e_j, so f(M) e_j = M^(beta_j) f(M) e_1,
    and f(M) = 0 exactly when f(M) e_1 = sum_alpha f_alpha v_alpha = 0.
    """
    n = len(nf.columns)
    for a in range(n):
        for b in range(a + 1, n):
            for t in range(nf.k):
                if nf.apply(a, nf.column(b, t)) != nf.apply(b, nf.column(a, t)):
                    raise StepFailure(5, "noncommuting", f"M_{a} and M_{b}")
    origin = (0,) * n
    for idx, poly in enumerate(system.polys):
        if any(nf.image(poly, origin)[0]):
            raise StepFailure(5, "nonmember", f"input polynomial {idx} does not vanish")


def _trace_grid(nf: NormalForms, monomials: Sequence[Monomial]) -> list[Fraction]:
    """Tr(alpha(M)) for each monomial alpha, in order.

    No matrix product is formed: Tr(M^alpha) = sum_i (v_(alpha + beta_i))_i
    over the basis exponents beta_i, read off the normal-form table.  With
    the table's precondition (steps 2 and 5), Tr(M^alpha) =
    sum_i e_i^T M^alpha M^(beta_i) e_1, the same exact rational as the
    trace of the matrix product.
    """
    traces = []
    for alpha in monomials:
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
        traces.append(Fraction(num, den))
    return traces


def check_traces(hplus: HermitePlus, nf: NormalForms) -> None:
    """Every entry of the full extended matrix must equal the trace of the
    corresponding product of multiplication matrices.

    One trace is computed per distinct label product; the entries are
    compared in row-major order.  The table's matrices must have passed
    steps 2 and 5 (see NormalForms)."""
    labels = hplus.labels
    traces = _trace_grid(nf, labels.products)
    nums, dens = hplus.matrix.row_pairs()
    for pos, p in enumerate(labels.product_index):
        t = traces[p]
        if nums[pos] * t.denominator != t.numerator * dens[pos]:
            i, j = divmod(pos, len(labels))
            raise StepFailure(
                6,
                "trace_mismatch",
                f"entry ({i}, {j}): H+ = {hplus.matrix.entry(i, j)}, trace = {t}",
            )


def _base_trace_matrix(labels: ExtendedBasis, nf: NormalForms) -> RatMatrix:
    """H1[i, j] = Tr((b_i * b_j)(M)) over the base labels, one trace per
    distinct product of the base block."""
    k, l = len(labels.base), len(labels)
    cells = [labels.product_index[i * l + j] for i in range(k) for j in range(k)]
    wanted = sorted(set(cells))
    traces = dict(zip(wanted, _trace_grid(nf, [labels.products[p] for p in wanted])))
    return RatMatrix(k, k, [traces[p].numerator for p in cells], [traces[p].denominator for p in cells])


def hermite_for_g(h1: RatMatrix, nf: NormalForms, g: MultiPoly) -> RatMatrix:
    """H_g = H1 * g(M_1, ..., M_n), g(M) read off the normal-form table, so
    the one product formed is H1 * g(M).

    Nothing is checked.  Every H1 passed here is a certified trace form:
    step 6 proves it on the radical route, and _base_trace_matrix builds it
    under steps 2 and 5 on the non-radical route.  Column j of g(M) holds
    the coordinates of g * b_j, so (H1 g(M))[i, j] = Tr(b_i * g * b_j) is
    symmetric in i and j.  The weighted H1bar * g(M) is no trace form:
    _weighted_step_7 checks it.
    """
    return h1 @ nf.poly_matrix(g)


def _step(diag: list[dict], step: int, name: str, check, *args):
    """check(*args), with its diagnostics entry: "ok", or "fail" with the
    failure's reason and detail, the failure being re-raised.  Every step of
    both routes passes through here."""
    try:
        result = check(*args)
    except StepFailure as failure:
        entry = {"status": "fail", "reason": failure.reason, "detail": failure.detail}
        diag.append({"step": step, "check": failure.check or name, **entry})
        raise
    diag.append({"step": step, "check": name, "status": "ok"})
    return result


def _recorded(*_) -> None:
    """A step that checks nothing: its entry records what an earlier step
    proved (module docstring)."""


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
    system: PolySystem, hplus: HermitePlus, diag: list[dict], *, radical: bool
) -> tuple[RatMatrix, NormalForms, RatMatrix | None]:
    """Steps 1-5: (H1, the table of the M_s, the trace matrix).

    The trace matrix is computed for step 4 on the non-radical route only;
    on the radical route it is None, and step 4 records that step 2 proved
    H1 nonsingular, which with step 6 proves A reduced (module docstring).
    """
    basis = hplus.labels.base
    if basis.arity != system.arity():
        raise ValueError("system arity does not match the basis")
    h1, border = _step(diag, 1, "extract_blocks", extract_blocks, hplus)
    ms = _step(diag, 2, "mult_matrices", mult_matrices, h1, border, hplus)
    _step(diag, 3, "identity_columns", _recorded)
    nf = NormalForms(ms, basis.monomials)
    trace_h1 = None if radical else _base_trace_matrix(hplus.labels, nf)
    _step(diag, 4, "squarefree", _recorded if radical else check_squarefree, trace_h1)
    _step(diag, 5, "commute_and_membership", check_commute_and_membership, nf, system)
    return h1, nf, trace_h1


def certify_pipeline(
    system: PolySystem, g: MultiPoly, hplus: HermitePlus
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
        return certify_nonradical(system, g, hplus)
    diag: list[dict] = []
    try:
        h1, nf, _ = _run_steps_1_to_5(system, hplus, diag, radical=True)
        _step(diag, 6, "trace_grid", check_traces, hplus, nf)
        hg = _step(diag, 7, "hermite_for_g", hermite_for_g, h1, nf, g)
    except StepFailure as failure:
        return _fail(basis, diag, failure)

    sigma_h1 = signature(h1)
    return CertificationOutcome(
        status="certified",
        basis=basis,
        h1=h1,
        hg=hg,
        normal_forms=nf,
        g=g,
        sigma_h1=sigma_h1,
        sigma_hg=_signature_of_hg(hg, h1, sigma_h1),
        diagnostics=diag,
    )


def _signature_of_hg(hg: RatMatrix, h1: RatMatrix, sigma_h1: int) -> int:
    """sigma(H_g), reusing sigma(H1) when g(M) = I makes the two equal."""
    return sigma_h1 if hg == h1 else signature(hg)


def derive_hg(outcome: CertificationOutcome, g: MultiPoly) -> tuple[RatMatrix, int]:
    """Step 7 for another g on a certified outcome: (H1 * g(M), its signature).

    The outcome's own g gives the stored pair.  Any other g reads g(M) off
    the outcome's normal-form table, the one its certification built, whose
    vectors are exact wherever they were first memoised.  It cannot fail:
    the outcome's H1 is a certified trace form, so H1 * g(M) is symmetric
    (hermite_for_g).  Nothing is logged: the outcome's diagnostics describe
    its certification, not later derivations.  An outcome that is not
    certified raises ValueError.
    """
    if not outcome.certified:
        raise ValueError("outcome is not certified")
    if g == outcome.g:
        return outcome.hg, outcome.sigma_hg
    hg = hermite_for_g(outcome.h1, outcome.normal_forms, g)
    return hg, signature(hg)


def _check_point_count(h1_weighted: RatMatrix, points: int) -> None:
    """Step 6 on the non-radical route: H1bar[1, 1], the total multiplicity,
    is the provenance point count."""
    if h1_weighted.entry(0, 0) != points:
        raise StepFailure(
            6,
            "weighted_inconsistent",
            f"H1[1,1] = {h1_weighted.entry(0, 0)} but {points} points were used",
        )


def _weighted_step_7(
    h1_trace: RatMatrix, h1_weighted: RatMatrix, nf: NormalForms, g: MultiPoly
) -> tuple[RatMatrix, RatMatrix, int, int]:
    """Step 7 on the non-radical route: (H_g, H1bar * g(M), sigma(H1),
    sigma(H_g)).

    H_g = H1 * g(M) needs no check (hermite_for_g).  The weighted pair does:
    H1bar * g(M), then H1bar, must be symmetric, and the weighted and
    trace-based signatures must agree for 1 and for g, positive weights
    preserving sign counts.
    """
    hg_trace = hermite_for_g(h1_trace, nf, g)
    hg_weighted = hermite_for_g(h1_weighted, nf, g)
    for m, name in ((hg_weighted, "H1 * g(M)"), (h1_weighted, "H1")):
        if not m.is_symmetric():
            raise StepFailure(7, "not_symmetric", f"{name} is not symmetric", "weighted_hermite_for_g")
    sigma_h1 = signature(h1_trace)
    mismatch = None
    if signature(h1_weighted) != sigma_h1:
        mismatch = "1"
    else:  # both H1 agree, so sigma_h1 stands in for either H_g equal to its H1
        sigma_hg = _signature_of_hg(hg_trace, h1_trace, sigma_h1)
        if _signature_of_hg(hg_weighted, h1_weighted, sigma_h1) != sigma_hg:
            mismatch = "g"
    if mismatch:
        raise StepFailure(
            7,
            "weighted_signature_mismatch",
            f"trace-based and weighted signatures differ for g = {mismatch}",
            "signature_agreement",
        )
    return hg_trace, hg_weighted, sigma_h1, sigma_hg


def certify_nonradical(
    system: PolySystem, g: MultiPoly, hplus: HermitePlus
) -> CertificationOutcome:
    """Certification through the radical of a non-radical ideal.

    hplus is the reduced extended matrix from build_nonradical: its base
    labels span the quotient by the radical, and its provenance keeps the
    total point count.  Steps 1-5 on it certify the multiplication
    matrices of the radical; step 4 proves with the nonsingular trace
    matrix H1[i,j] = Tr((b_i b_j)(M)) that they act on a reduced algebra.
    The literal trace comparison of step 6 cannot hold against
    multiplicity-weighted entries, so the Hermite matrices of the radical
    are that trace matrix and H_g = H1 * g(M), while the weighted input
    matrix is validated by exact consistency checks: H1bar * M_s =
    H1bar^{x_s} is step 2's residual (H1bar is step 2's H1), the (1,1)
    entry equals the provenance point count (step 6), and in step 7
    H1bar * g(M) and H1bar are symmetric and the signatures of the weighted
    and trace-based matrices agree (positive weights preserve sign counts).
    Any disagreement is a failure, never silently resolved.
    """
    basis = hplus.labels.base
    diag: list[dict] = []
    try:
        h1_weighted, nf, h1_trace = _run_steps_1_to_5(system, hplus, diag, radical=False)
        points = hplus.provenance.point_count
        _step(diag, 6, "weighted_consistency", _check_point_count, h1_weighted, points)
        hg_trace, hg_weighted, sigma_h1, sigma_hg = _step(
            diag, 7, "hermite_for_g", _weighted_step_7, h1_trace, h1_weighted, nf, g
        )
    except StepFailure as failure:
        return _fail(basis, diag, failure)

    return CertificationOutcome(
        status="certified",
        basis=basis,
        h1=h1_trace,
        hg=hg_trace,
        normal_forms=nf,
        g=g,
        sigma_h1=sigma_h1,
        sigma_hg=sigma_hg,
        weighted_h1=h1_weighted,
        weighted_hg=hg_weighted,
        diagnostics=diag,
    )
