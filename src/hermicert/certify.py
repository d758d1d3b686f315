"""Purely symbolic certification of candidate Hermite matrices.

A candidate extended matrix H+ labelled by a basis connected to 1 is pushed
through seven exact checks:

1. block extraction from a symmetric H+;
2. multiplication-matrix construction with rank conditions, which yields
   H1's inertia;
3. identity-column structure, written by step 2;
4. the quotient algebra is reduced (its trace form is nonsingular);
5. pairwise commutation plus ideal membership;
6. H1 is the trace form of A, which fixes the rest of H+;
7. the derivation of the weighted matrix for an arbitrary polynomial g.

Passing them proves (by Mourrain's border-basis criterion) that the
candidate is the true Hermite matrix of the input ideal; every failure is
reported with the step that caught it: a failing check raises
StepFailure, one runner, _step, writes every step's diagnostics entry ("ok",
or "fail" with the reason and detail), and one step sequence, _certify,
runs both routes and catches the first failure once.  The route is read at
steps 4, 6 and 7 only, and the outcome's h1 is the trace form T of A on
both: on the radical route step 6 proves the candidate's H1 equal to it.

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
Tr(b_i * g * b_j) and H_g is symmetric by construction.  Step 7 and
derive_hg share one derivation (_derive), which therefore cannot fail.
Only the non-radical route's weighted H1bar g(M), no trace form, is
checked there.

Step 6 compares H1 alone with T[i, j] = Tr(b_i * b_j), the one trace form
both routes compute; comparing all l^2 entries of H+ with the traces of
their label products accepts the same candidates and names the same first
mismatch.  Column e of Y = H1^{-1} H+[B, ext] holds the coordinates in A
of the label a_e = x_s * b_i (column i of M_s), and steps 1 and 2 proved
H+ a flat extension of H1: H+[B, ext] = H1 Y, H+[ext, ext] = Y^T H1 Y.
By bilinearity, Tr(b_i * a_e) = (T Y)[i, e] and Tr(a_e * a_f) =
(Y^T T Y)[e, f] (Curto-Fialkow's flat extensions; Laurent-Mourrain 2009),
so H1 = T makes every entry of H+ a trace.  If row r < k of H1 matches T,
so does its border row (H1 Y)[r, .] = (T Y)[r, .]: the first mismatch in
row-major order over H+ lies in H1, and step 6 names that entry.

Step 1 rejects an H+ that is not symmetric, as no true H+ is, so every
elimination here is linalg's one symmetric elimination, and each yields an
inertia: step 2's of H1 (H1bar), step 4's of the trace matrix.  Their
signatures reuse it and add only a polynomial for Descartes' rule, the
independent method that signature cross-checks.  The cross-check compares
the whole inertia, zero count included, so the certified outcome's inertia
of H_g gives its rank, the number of roots of A where g does not vanish
(Hermite's theorem again), which certificates.certify_nonneg reads.

That polynomial is the characteristic polynomial of the matrix itself
(Berkowitz, O(k^4)) for H1 and H1bar, and for every H_g when sigma(H1) < k.
When the certified inertia of H1 is (k, 0, 0), every root is real and H1
is positive definite, so H_g = H1 g(M) is congruent to the symmetric
H1^(1/2) g(M) H1^(-1/2), which is similar to g(M) (Hermite's theorem;
Pedersen-Roy-Szpirglas 1993): the inertia of H_g counts the signs of g at
the roots, the eigenvalues of g(M).  The integer characteristic polynomial
of D g(M), D > 0, then serves, from the power sums
Tr((D g(M))^j) = tau . (D g(M))^j e_1 and Newton's identities in O(k^3)
(_derive).  The same holds for any positive definite S with S g(M)
symmetric, so on the non-radical route one such polynomial serves
both H1 g(M) and H1bar g(M): step 7 checks H1bar g(M) symmetric and
sigma(H1bar) = sigma(H1) before reading it.

The label structure comes from the ExtendedBasis: its shifts table gives
the position of every x_s * b_i, and its products table the distinct
products b_i * b_j that the entries depend on.  No dense k x k product of
multiplication matrices is formed.  Column i of M_s is the unit vector e_j
whenever x_s * b_i is the basis element b_j, so step 2 writes those
columns itself.  Every other column is read off Y = H1^{-1} H+[B, ext],
ext the extension labels outside the basis, each once: one fraction-free
symmetric elimination of H1 on integers, checking the exact residual
H1 Y = H+[B, ext].  On the non-radical route that residual is the
weighted identity H1bar M_s = H1bar^{x_s}.  With H1 nonsingular, the rank
condition rank H+ = k is the vanishing of the Schur complement,
H+[ext, ext] = H+[ext, B] Y (Guttman's rank identity), so one product
replaces a second elimination; the ranks themselves are computed only to
word a failure.  Step 3 therefore checks nothing: its entry records that
step 2 wrote the unit columns, as step 4 on the radical route records
step 2's result.  Step 2's matrices go into one
NormalForms table of the vectors v_gamma = M^gamma e_1, the only copy of
them that the certification keeps: the trace form of steps 4 and 6 reads
one trace per distinct base product off it, step 5 checks commutation
column by column and membership as f(M) e_1 = 0, step 7
builds g(M) from it for the one product H1 * g(M), and the certified
outcome carries it so that derive_hg reads every later g(M) off it too.
Each trace of the trace form is a dot product, Tr(M^alpha) = tau . v_alpha:
in A, M^alpha = sum_j (v_alpha)_j M^(beta_j), so the trace functional
tau_j = Tr(M^(beta_j)), computed once per certification from the base
products v_(beta_i + beta_j) of the table, gives every trace from one
vector.  tau comes from the M_s, never from row 0 of H+: step 6 checks H1
against it, and a functional read off H+ would accept the moment matrix
of any functional.

Orientation convention, pinned by unit tests on companion matrices: the
matrices M_s = H1^{-1} H1^{x_s} hold the expansion of x_s * b_t in their
t-th COLUMN, i.e. they are the transposes of the row-convention
multiplication matrices.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from . import _kernels as kernels
from .hermite import HermitePlus
from .linalg import (
    Inertia,
    RatMatrix,
    SingularMatrixError,
    inertia_descartes,
    inertia_ldl,
    rank,
    root_signs,
    solve,
)
from .polynomials import (
    ExtendedBasis,
    Frozen,
    Monomial,
    MonomialBasis,
    MultiPoly,
    PolySystem,
    monomial_mul,
)


# the fields an outcome compares and prints: all but its normal-form table
_OUTCOME_FIELDS = (
    "status", "basis", "failed_step", "reason", "detail", "h1", "hg", "g",
    "h1_inertia", "hg_inertia", "weighted_h1", "weighted_hg", "diagnostics",
)
_outcome_value = attrgetter(*_OUTCOME_FIELDS)


class SignatureMethodMismatchError(AssertionError):
    """The two exact signature methods disagreed; this indicates a bug."""


class StepFailure(Exception):
    """A failed check: its step, reason code and detail, and the name of its
    diagnostics entry when that is not the step's own."""

    def __init__(self, step: int, reason: str, detail: str = "", check: str | None = None):
        super().__init__(step, reason, detail)
        self.step, self.reason, self.detail, self.check = step, reason, detail, check


class CertificationOutcome(Frozen):
    """Certified matrices or the first failing step.

    status is "certified" or "fail"; when certified, g, h1, hg, the
    normal-form table and the inertias of H1 and H_g (h1_inertia and
    hg_inertia, which give sigma_h1 and sigma_hg) are all present, and
    every other H_g and its signature is derived from them by derive_hg.
    Both exact methods of signature agree on each inertia, so the zero
    count of hg_inertia is the nullity of H_g, which Hermite's theorem
    makes the number of complex roots where g vanishes.
    mult_matrices reads the M_s the table was built from, so the two cannot
    disagree; the table is neither compared, printed nor serialized.  For
    the non-radical route h1/hg are the trace-based matrices of the radical
    and the multiplicity-weighted pair is exposed separately.  The outcome
    is frozen (polynomials.Frozen): derive_hg trusts its h1 and table, so
    no field can be reassigned after certification.
    """

    __slots__ = ("normal_forms",) + _OUTCOME_FIELDS

    def __init__(
        self,
        status: str,
        basis: MonomialBasis,
        failed_step: int | None = None,
        reason: str | None = None,
        detail: str = "",
        h1: RatMatrix | None = None,
        hg: RatMatrix | None = None,
        normal_forms: NormalForms | None = None,
        g: MultiPoly | None = None,
        h1_inertia: Inertia | None = None,
        hg_inertia: Inertia | None = None,
        weighted_h1: RatMatrix | None = None,
        weighted_hg: RatMatrix | None = None,
        diagnostics: list[dict] | None = None,
    ):
        self._set(
            status=status, basis=basis, failed_step=failed_step, reason=reason, detail=detail,
            h1=h1, hg=hg, normal_forms=normal_forms, g=g, h1_inertia=h1_inertia, hg_inertia=hg_inertia,
            weighted_h1=weighted_h1, weighted_hg=weighted_hg,
            diagnostics=[] if diagnostics is None else diagnostics,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _outcome_value(self) == _outcome_value(other)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, _OUTCOME_FIELDS, _outcome_value(self))
        return f"CertificationOutcome({', '.join(fields)})"

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def sigma_h1(self) -> int | None:
        return None if self.h1_inertia is None else self.h1_inertia.signature

    @property
    def sigma_hg(self) -> int | None:
        return None if self.hg_inertia is None else self.hg_inertia.signature

    @property
    def mult_matrices(self) -> list[RatMatrix] | None:
        return None if self.normal_forms is None else self.normal_forms.matrices


def signature(a: RatMatrix, inertia: Inertia | None = None, poly: list[int] | None = None) -> int:
    """Signature via symmetric elimination, cross-checked by Descartes; the
    inertia is given when a step already eliminated a, computed otherwise.

    The cross-check compares the full inertia (positive, negative, zero):
    the elimination's pivot counts against the sign variations of p(x) and
    p(-x) and the multiplicity of the root 0 of a real-rooted polynomial p
    whose roots have the signs of a's eigenvalues.  p is poly when given,
    the power-sum polynomial of g(M) for H_g = H1 g(M) with H1 positive
    definite (_derive); otherwise it is the characteristic polynomial of a
    itself (Berkowitz, linalg.inertia_descartes).  A given inertia that
    passes is thereby confirmed by both methods, its zero count included.
    """
    ldl = inertia_ldl(a) if inertia is None else inertia
    desc = inertia_descartes(a) if poly is None else root_signs(poly)
    if ldl != desc:
        raise SignatureMethodMismatchError(
            f"inertia {tuple(ldl)} vs Descartes {tuple(desc)}: exact methods disagree"
        )
    return ldl.signature


def extract_blocks(hplus: HermitePlus) -> tuple[RatMatrix, RatMatrix]:
    """Step 1: H1 (rows and columns B) and the k x (l - k) border block
    H+[B, ext], the columns of the extension labels outside B, each once, in
    label order.  H+ must be symmetric, as every true H+ (the trace form
    Tr(b_i b_j) or a positive-weighted sum of b_i(xi) b_j(xi)) is."""
    if not hplus.matrix.is_symmetric():
        raise StepFailure(1, "not_symmetric", "H+ is not symmetric")
    k, l = hplus.base_size(), len(hplus.labels)
    return hplus.matrix.submatrix(range(k), range(k)), hplus.matrix.submatrix(range(k), range(k, l))


def mult_matrices(
    h1: RatMatrix, border: RatMatrix, hplus: HermitePlus
) -> tuple[list[RatMatrix], Inertia]:
    """(the M_s = H1^{-1} H1^{x_s}, the inertia of H1), guarded by
    rank H1 = rank H+ = k.

    Column i of H1^{x_s} is the column of H+ labelled x_s * b_i.  When that
    label is a basis element b_j (shifts[s][i] = j < k), it is H1's own
    column j, so column i of M_s is e_j by construction.  Otherwise it is a
    border column, and column i of M_s is the matching column of
    Y = H1^{-1} H+[B, ext]: one symmetric elimination of H1 by linalg.solve,
    which proves H1 nonsingular, checks the exact residual H1 Y = H+[B, ext]
    and yields H1's inertia, the elimination half of sigma(H1).
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
        y, inertia = solve(h1, border)
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
    return ms, inertia


def check_squarefree(trace_h1: RatMatrix) -> Inertia:
    """Step 4 on the non-radical route: the trace matrix
    H1[i, j] = Tr((b_i * b_j)(M)) is nonsingular; returns its inertia, the
    elimination half of sigma(H1).

    By Hermite's theorem its rank is the number of distinct roots of A, so
    rank k proves A reduced: J is radical, and a generic combination of the
    M_s has a squarefree characteristic polynomial.
    """
    k = trace_h1.rows
    inertia = inertia_ldl(trace_h1)
    if inertia.zero:
        r = k - inertia.zero
        raise StepFailure(4, "not_squarefree", f"rank of the trace form = {r}, expected {k}")
    return inertia


class NormalForms:
    """The normal-form table of one certification: v_gamma = M^gamma e_1.

    matrices holds the M_s the table was built from.  Each M_s is scaled to
    integers by the lcm D_s of its denominators and kept as its columns'
    non-zero entries, so a vector is an integer list with one denominator,
    D^gamma.  The conversions are _kernels': scaled puts each M_s, and the
    terms of each image g(M) M^beta e_1, over one denominator, and reduced
    takes g(M) back to lowest terms.  v_gamma is memoised, each from
    v_(gamma - e_s) by one product with D_s M_s that visits only the
    non-zero entries of its columns.  The table is built once per
    certification, right after step 2, shared by steps 4 to 7, and kept on
    the certified outcome for derive_hg.  The trace form of steps 4 and 6
    (_base_trace_matrix) reads only the base products v_(beta_i + beta_j):
    once for the trace functional tau and once as the v_alpha of its traces
    (_trace_grid), Tr(M^alpha) = tau . v_alpha.  tau is memoised
    (trace_functional), so the power sums of every g(M) whose signature
    reads them (_derive) use the one tau of the certification.
    Its vectors mean what they say under the precondition that steps 2 and
    5 establish on both routes:

    - the basis starts with 1 and is connected to 1, and step 2 wrote e_j
      into column i of M_s whenever x_s * b_i = b_j, so
      v_(beta_i) = M^(beta_i) e_1 = e_i by induction on deg beta_i;
    - step 5 proved that the M_s commute, so M^gamma is well defined and
      every path to gamma gives the same v_gamma.

    Step 5 itself uses only the columns until commutation is proved.  The
    trace form is read off the table before that: if step 5 then fails,
    the certification fails whatever was read; if it passes, every path
    gives the vectors memoised for it.
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
            d, flat = kernels.scaled(*m.row_pairs())
            self.scales.append(d)
            self.columns.append([[(r, x) for r, x in enumerate(flat[t::k]) if x] for t in range(k)])
        start = [0] * k
        start[0] = 1
        self._vectors: dict[Monomial, tuple[list[int], int]] = {(0,) * len(ms): (start, 1)}
        self._tau: tuple[list[int], int] | None = None

    def apply(self, s: int, w: Sequence[int]) -> list[int]:
        """D_s * M_s * w for an integer vector w."""
        out = [0] * self.k
        columns = self.columns[s]
        for t, x in enumerate(w):
            if x:
                for r, c in columns[t]:
                    out[r] += c * x
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
        nums, dens, vectors = [], [], []
        for alpha, coeff in g.terms.items():
            w, d = self.vector(monomial_mul(alpha, beta))
            nums.append(coeff.numerator)
            dens.append(coeff.denominator * d)
            vectors.append(w)
        den, fs = kernels.scaled(nums, dens)
        out = [0] * self.k
        for f, w in zip(fs, vectors):
            for r, x in enumerate(w):
                if x:
                    out[r] += f * x
        return out, den

    def trace_functional(self) -> tuple[list[int], int]:
        """(T * tau, T): tau_j = Tr(M^(beta_j)) over one common denominator T,
        computed once per table and memoised.

        Tr(M^(beta_j)) = sum_i e_i^T M^(beta_j) M^(beta_i) e_1
        = sum_i (v_(beta_j + beta_i))_i, so tau reads only the base products
        beta_i + beta_j off the table: it comes from the M_s, never from the
        candidate matrix that step 6 checks.
        """
        if self._tau is None:
            k = self.k
            nums, dens = [], []  # (v_(beta_j + beta_i))_i, row j by row j
            for beta in self.basis:
                for i, other in enumerate(self.basis):
                    w, d = self.vector(monomial_mul(beta, other))
                    nums.append(w[i])
                    dens.append(d if w[i] else 1)  # a zero term leaves the lcm alone
            common, flat = kernels.scaled(nums, dens)
            self._tau = [sum(flat[j * k : (j + 1) * k]) for j in range(k)], common
        return self._tau

    def poly_matrix(self, g: MultiPoly) -> RatMatrix:
        """g(M_1, ..., M_n), column j being g(M) e_j = g(M) M^(beta_j) e_1.
        Most entries are zero, and only the others are reduced."""
        k = self.k
        at, xs, ds = [], [], []
        for j, beta in enumerate(self.basis):
            w, den = self.image(g, beta)
            for r, x in enumerate(w):
                if x:
                    at.append(r * k + j)
                    xs.append(x)
                    ds.append(den)
        nums, dens = [0] * (k * k), [1] * (k * k)
        for p, x, d in zip(at, *kernels.reduced(xs, ds)):
            nums[p], dens[p] = x, d
        return RatMatrix(k, k, nums, dens)


def check_commute_and_membership(nf: NormalForms, system: PolySystem) -> None:
    """Step 5: the M_s commute pairwise and every input polynomial vanishes
    at them.

    Commutation is checked column by column in the integer-scaled form:
    D_a D_b M_a (M_b e_t) against D_b D_a M_b (M_a e_t), each product read
    through NormalForms.apply on the unit vector e_t.  Membership then
    needs one vector per polynomial: the M_s commute and step 2's unit
    columns give M^(beta_j) e_1 = e_j, so f(M) e_j = M^(beta_j) f(M) e_1,
    and f(M) = 0 exactly when f(M) e_1 = sum_alpha f_alpha v_alpha = 0.
    """
    n = len(nf.columns)
    units = [[int(r == t) for r in range(nf.k)] for t in range(nf.k)]
    for a in range(n):
        for b in range(a + 1, n):
            for e in units:
                if nf.apply(a, nf.apply(b, e)) != nf.apply(b, nf.apply(a, e)):
                    raise StepFailure(5, "noncommuting", f"M_{a} and M_{b}")
    origin = (0,) * n
    for idx, poly in enumerate(system.polys):
        if any(nf.image(poly, origin)[0]):
            raise StepFailure(5, "nonmember", f"input polynomial {idx} does not vanish")


def _trace_grid(nf: NormalForms, monomials: Sequence[Monomial]) -> list[Fraction]:
    """Tr(alpha(M)) for each monomial alpha, in order: tau . v_alpha.

    No matrix product is formed, and each trace reads one vector of the
    normal-form table.  With c = v_alpha, M^alpha = sum_j c_j M^(beta_j):
    both sides commute with every M_s (step 5) and map e_1 to c, and
    e_i = M^(beta_i) e_1 (step 2), so both map e_i to M^(beta_i) c.  Hence
    Tr(M^alpha) = sum_j c_j Tr(M^(beta_j)) = tau . c, with the trace
    functional tau memoised on the table (NormalForms.trace_functional): the
    same exact rational as the trace of the matrix product, under the
    table's precondition (NormalForms).
    """
    tau, common = nf.trace_functional()
    traces = []
    for alpha in monomials:
        w, d = nf.vector(alpha)
        traces.append(Fraction(sum(t * x for t, x in zip(tau, w) if x), common * d))
    return traces


def check_traces(h1: RatMatrix, trace_h1: RatMatrix) -> None:
    """Step 6 on the radical route: H1 equals the trace form of A
    (_base_trace_matrix), entry by entry in row-major order; every other
    entry of H+ then equals its trace too (module docstring)."""
    if h1 != trace_h1:
        k = h1.rows
        i, j = next((i, j) for i in range(k) for j in range(k) if h1.entry(i, j) != trace_h1.entry(i, j))
        raise StepFailure(6, "trace_mismatch", f"entry ({i}, {j}): H+ = {h1.entry(i, j)}, trace = {trace_h1.entry(i, j)}")


def _base_trace_matrix(labels: ExtendedBasis, nf: NormalForms) -> RatMatrix:
    """The trace form of A on the basis, T[i, j] = Tr((b_i * b_j)(M)), the
    one trace form of both routes (steps 4 and 6): one trace per distinct
    product of the base block, each tau . v_alpha (_trace_grid); the trace
    functional tau reads the same base products off the table, so no other
    vector is built."""
    k, l = len(labels.base), len(labels)
    cells = [labels.product_index[i * l + j] for i in range(k) for j in range(k)]
    wanted = sorted(set(cells))
    traces = dict(zip(wanted, _trace_grid(nf, [labels.products[p] for p in wanted])))
    return RatMatrix(k, k, [traces[p].numerator for p in cells], [traces[p].denominator for p in cells])


def hermite_for_g(h1: RatMatrix, nf: NormalForms, g: MultiPoly) -> tuple[RatMatrix, RatMatrix]:
    """(H_g, g(M)): H_g = H1 * g(M_1, ..., M_n), g(M) read off the
    normal-form table, so the one product formed is H1 * g(M).  g(M) is
    returned for the Descartes half of H_g's signature (_derive) and for
    the weighted pair of the non-radical route, so it is formed once per
    polynomial.

    Nothing is checked.  Every H1 passed here is the certified trace form
    of A: _base_trace_matrix builds it under steps 2 and 5, and on the
    radical route step 6 proves the candidate's H1 equal to it.  Column j
    of g(M) holds the coordinates of g * b_j, so (H1 g(M))[i, j] =
    Tr(b_i * g * b_j) is symmetric in i and j.  The weighted H1bar * g(M)
    is no trace form: step 7 checks it (_hermite_step).
    """
    gm = nf.poly_matrix(g)
    return h1 @ gm, gm


def _derive(
    h1: RatMatrix, h1_inertia: Inertia, nf: NormalForms, g: MultiPoly
) -> tuple[RatMatrix, RatMatrix, list[int] | None, Inertia]:
    """The one derivation of step 7 and derive_hg: (H_g, g(M), the
    power-sum polynomial or None, the inertia of H_g), from the certified
    trace form H1 and its inertia, which both methods of signature confirmed.

    When H_g = H1, that is when g(M) = I, the inertia is H1's own.
    Otherwise the elimination's inertia of H_g is cross-checked (signature)
    against the integer characteristic polynomial of X = D g(M), D the lcm
    of g(M)'s denominators, when sigma(H1) = k: its O(k^3) power sums
    Tr(X^j) = tau . X^j e_1 (_kernels.power_sum_charpoly) give the signs of
    H_g's eigenvalues (module docstring).  Otherwise the polynomial is None,
    for Berkowitz on H_g itself.
    """
    hg, gm = hermite_for_g(h1, nf, g)
    if hg == h1:
        return hg, gm, None, h1_inertia
    poly = None
    if h1_inertia.signature == nf.k:
        poly = kernels.power_sum_charpoly(nf.k, *gm.row_pairs(), *nf.trace_functional())
    inertia = inertia_ldl(hg)
    signature(hg, inertia, poly)
    return hg, gm, poly, inertia


def _check_point_count(h1_weighted: RatMatrix, points: int) -> None:
    """Step 6 on the non-radical route: H1bar[1, 1], the total multiplicity,
    is the provenance point count."""
    if h1_weighted.entry(0, 0) != points:
        raise StepFailure(
            6,
            "weighted_inconsistent",
            f"H1[1,1] = {h1_weighted.entry(0, 0)} but {points} points were used",
        )


def _hermite_step(
    h1: RatMatrix, h1_inertia: Inertia, nf: NormalForms, g: MultiPoly,
    weighted: tuple[RatMatrix | None, Inertia | None],
) -> tuple[RatMatrix, Inertia, RatMatrix | None]:
    """Step 7: (H_g, its inertia, H1bar * g(M) or None), from the trace form
    H1 and its inertia, and (H1bar, its inertia) from step 2 on the
    non-radical route, (None, None) on the radical one.

    H1's inertia is confirmed by both methods (signature) and H_g derived
    (_derive), which needs no check (hermite_for_g).  H1bar * g(M), with the
    same g(M), does: it must be symmetric, and the weighted and trace-based
    signatures must agree for 1 and for g, positive weights preserving sign
    counts.  H1bar * g(M) = H1bar exactly when g(M) = I and H_g = H1, so the
    agreement for 1 covers g; otherwise the power-sum polynomial of g(M)
    serves both signatures for g (module docstring).
    """
    sigma_h1 = signature(h1, h1_inertia)
    hg, gm, poly, hg_inertia = _derive(h1, h1_inertia, nf, g)
    h1bar, h1bar_inertia = weighted
    if h1bar is None:
        return hg, hg_inertia, None
    hg_weighted = h1bar @ gm
    if not hg_weighted.is_symmetric():
        raise StepFailure(7, "not_symmetric", "H1 * g(M) is not symmetric", "weighted_hermite_for_g")
    if signature(h1bar, h1bar_inertia) != sigma_h1:
        mismatch = "1"
    elif hg_weighted != h1bar and signature(hg_weighted, None, poly) != hg_inertia.signature:
        mismatch = "g"
    else:
        return hg, hg_inertia, hg_weighted
    detail = f"trace-based and weighted signatures differ for g = {mismatch}"
    raise StepFailure(7, "weighted_signature_mismatch", detail, "signature_agreement")


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


def _certify(
    system: PolySystem, g: MultiPoly, hplus: HermitePlus, reduced: bool
) -> CertificationOutcome:
    """The one step sequence of both routes, reduced picking the non-radical
    one, which only steps 4, 6 and 7 read (module docstring).  On the
    radical route step 6 proves H1 = T, so step 2's inertia of H1 is T's;
    on the non-radical route step 2's H1 is the weighted H1bar and step 4
    yields T's inertia.  A g from another ring raises ValueError."""
    labels = hplus.labels
    basis = labels.base
    if basis.arity != system.arity():
        raise ValueError("system arity does not match the basis")
    if g.variables != system.variables:
        raise ValueError("g must live in the system's ring")
    diag: list[dict] = []
    try:
        h1, border = _step(diag, 1, "extract_blocks", extract_blocks, hplus)
        ms, h1_inertia = _step(diag, 2, "mult_matrices", mult_matrices, h1, border, hplus)
        _step(diag, 3, "identity_columns", _recorded)
        nf = NormalForms(ms, basis.monomials)
        trace = _base_trace_matrix(labels, nf)
        trace_inertia = _step(diag, 4, "squarefree", check_squarefree if reduced else _recorded, trace)
        _step(diag, 5, "commute_and_membership", check_commute_and_membership, nf, system)
        if reduced:
            _step(diag, 6, "weighted_consistency", _check_point_count, h1, hplus.provenance.point_count)
            weighted = h1, h1_inertia
        else:
            _step(diag, 6, "trace_grid", check_traces, h1, trace)
            trace_inertia, weighted = h1_inertia, (None, None)
        hg, hg_inertia, weighted_hg = _step(
            diag, 7, "hermite_for_g", _hermite_step, trace, trace_inertia, nf, g, weighted
        )
    except StepFailure as failure:
        return CertificationOutcome("fail", basis, failure.step, failure.reason, failure.detail, diagnostics=diag)
    return CertificationOutcome(
        "certified", basis, h1=trace, hg=hg, normal_forms=nf, g=g, h1_inertia=trace_inertia,
        hg_inertia=hg_inertia, weighted_h1=weighted[0], weighted_hg=weighted_hg, diagnostics=diag,
    )


def certify_pipeline(
    system: PolySystem, g: MultiPoly, hplus: HermitePlus
) -> CertificationOutcome:
    """Steps 1-7 on the build's route: the radical route, or the non-radical
    one (certify_nonradical) for a reduced build (HermitePlus.reduced,
    decided by hermite.build_hermite); both run one sequence (_certify).

    Success certifies that the basis spans the quotient, the M_s are the
    (transposed) multiplication matrices, H1 is the Hermite matrix of the
    ideal (of its radical on the non-radical route) and H_g = H1 * g(M).
    The caller asserts that the point count is at least the quotient
    dimension; superfluous points make some step fail.

    The points are assumed to cover V(I): steps 2-5 prove V(J) within V(I)
    for the ideal J that the M_s define, not the converse, so a candidate
    built from a subset of the roots can certify.  A real-root count is a
    lower bound, and a ball "false" or a non-negativity "true" holds only
    under that assumption.
    """
    return _certify(system, g, hplus, hplus.reduced)


def derive_hg(outcome: CertificationOutcome, g: MultiPoly) -> tuple[RatMatrix, int]:
    """Step 7 for another g on a certified outcome: (H1 * g(M), its
    signature).

    The outcome's own g gives the stored pair.  Any other g goes through
    step 7's one derivation (_derive) from the outcome's H1, its confirmed
    inertia (h1_inertia) and the normal-form table its certification built,
    whose vectors are exact wherever they were first memoised.  It cannot
    fail: H1 is a certified trace form, so H1 * g(M) is symmetric
    (hermite_for_g).  Nothing is logged: the outcome's diagnostics describe
    its certification, not later derivations.  An outcome that is not
    certified, or a g from another ring than its own, raises ValueError.
    """
    if not outcome.certified:
        raise ValueError("outcome is not certified")
    if g.variables != outcome.g.variables:
        raise ValueError("g must live in the system's ring")
    if g == outcome.g:
        return outcome.hg, outcome.sigma_hg
    hg, _, _, inertia = _derive(outcome.h1, outcome.h1_inertia, outcome.normal_forms, g)
    return hg, inertia.signature


def certify_nonradical(
    system: PolySystem, g: MultiPoly, hplus: HermitePlus
) -> CertificationOutcome:
    """Certification through the radical of a non-radical ideal: the one
    sequence (_certify) on its non-radical route, on any build.

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
    H1bar * g(M) is symmetric and the signatures of the weighted and
    trace-based matrices agree (positive weights preserve sign counts).
    Any disagreement is a failure, never silently resolved.  On a radical
    build every weight is 1: H1bar is the trace form, weighted_h1 = h1.
    """
    return _certify(system, g, hplus, True)
