"""Dense exact-rational matrix kernels: the package's exact-arithmetic core.

A matrix is a flat row-major pair of lists (nums, dens) of Python ints with
every entry stored reduced and dens[i] > 0.  These functions are the inner
loops of the whole package; ``hermicert.linalg`` wraps them for RatMatrix.
The module also holds the package's two exact conversions, and no other
module does them: scaled takes (num, den) pairs to integers over one
denominator, their lcm, and reduced takes integers over denominators back
to lowest terms.  Every kernel first scales its input to integers (one lcm
per matrix, or per row or column for the product) and then runs on plain
ints: one fraction-free symmetric elimination, which gives every inertia
and rank, solves and runs hermite's connected scan; the characteristic
polynomial of a symmetric matrix, division-free (Berkowitz) on each
connected block of its non-zero pattern; the characteristic polynomial of
a multiplication matrix D g(M) from its power sums, read off a trace
functional, and Newton's identities, whose divisions are exact and checked
(InexactDivisionError); and the product as integer dot products.  A
rational result is reduced once per entry.
"""

from itertools import accumulate, repeat
from math import gcd, lcm
from operator import floordiv, mul


def scaled(nums, dens):
    """(L, [L * n / d for each entry]): L > 0 the lcm of the denominators
    (1 for no entries), each d > 0.  A zero entry costs no division."""
    l = lcm(*dens)
    return l, [n * (l // d) if n else 0 for n, d in zip(nums, dens)]


def reduced(nums, dens):
    """(nums, dens) of the entries nums[i] / dens[i], dens[i] > 0, in lowest
    terms; a zero entry becomes 0 / 1."""
    gs = list(map(gcd, nums, dens))
    return list(map(floordiv, nums, gs)), list(map(floordiv, dens, gs))


def mat_mul(ar, ac, bc, an, ad, bn, bd):
    """(ar x ac) @ (ac x bc) on flat pair lists.

    Row i of A is scaled to integers by its lcm r_i and column j of B by its
    lcm c_j; entry (i, j) is their integer dot product over r_i * c_j,
    reduced once."""
    rows = [scaled(an[i * ac : (i + 1) * ac], ad[i * ac : (i + 1) * ac]) for i in range(ar)]
    cols = [scaled(bn[j::bc], bd[j::bc]) for j in range(bc)]
    return reduced(
        [sum(map(mul, row, col)) for _, row in rows for _, col in cols],
        [r * c for r, _ in rows for c, _ in cols],
    )


def integer_rows(k, nums, dens):
    """(L, B): L the lcm of the denominators and B = L * A as k rows of ints.

    L > 0, so B has the inertia and the sign pattern of A, and
    c_i(A) = c_i(B) / L^i for the characteristic polynomial."""
    l, flat = scaled(nums, dens)
    return l, [flat[i * k : (i + 1) * k] for i in range(k)]


def _components(k, a):
    """The connected components of the graph on 0..k-1 with an edge i - j
    wherever a[i][j] != 0, each as a list of indices.

    a is symmetric, so row i lists every neighbour of i: one walk over the
    rows, each read only at the indices not yet reached, O(k^2)."""
    left = list(range(k))
    comps = []
    while left:
        comp = [left.pop(0)]
        for i in comp:  # grows as the walk reaches new indices
            if not left:
                break
            row = a[i]
            comp += [j for j in left if row[j]]
            left = [j for j in left if not row[j]]
        comps.append(comp)
    return comps


def _berkowitz(k, a):
    """Integer coefficients [1, c1, ..., ck] of det(lambda I - A), A a
    symmetric k x k integer matrix as rows, k >= 1 (Berkowitz 1984)."""
    # grow the trailing principal submatrix A_r = a[r:, r:] one row and
    # column at a time: with A_r = [[a_rr, S^T], [S, A_(r+1)]],
    # p_r = T p_(r+1) where T is lower-triangular Toeplitz with first column
    # (1, -a_rr, -S^T S, -S^T A_(r+1) S, ..., -S^T A_(r+1)^(k-r-2) S)
    # S^T A^j S = w[h] . w[j - h] with w[m] = A_(r+1)^m S memoised and
    # h = floor(j/2).  j - h grows by at most one per step, so each step
    # adds at most one w[m].
    p = [1, -a[k - 1][k - 1]]
    for r in range(k - 2, -1, -1):
        rows = [row[r + 1 :] for row in a[r + 1 :]]
        v = [row[r] for row in a[r + 1 :]]
        w = [v]
        t = [1, -a[r][r]]
        for j in range(k - 1 - r):
            h = j // 2
            if j - h == len(w):
                v = [sum(map(mul, row, v)) for row in rows]
                w.append(v)
            t.append(-sum(map(mul, w[h], w[j - h])))
        p = [sum(map(mul, t[i::-1], p)) for i in range(len(t))]
    return p


def charpoly(k, nums, dens):
    """Monic characteristic polynomial of a symmetric matrix: Berkowitz's
    division-free algorithm on each connected block of its non-zero pattern.

    Returns descending coefficient pair lists ([1, c1, ..., ck] for
    lambda^k + c1 lambda^(k-1) + ... + ck).  Everything runs on plain ints
    (no gcd, no division) over the integer matrix B = L * A, and
    c_i(A) = c_i(B) / L^i is reduced once per coefficient at the end.

    The pattern of B is symmetric, so its rows give the graph with an edge
    i - j wherever b_ij != 0 (_components).  Listing the indices component
    by component is a permutation P with P^T B P = diag(B_1, ..., B_m), so
    det(lambda I - B) = prod_i det(lambda I - B_i) exactly: the polynomial
    of each principal block B_i (Berkowitz, on B itself when m = 1) and
    their product, an integer convolution; a connected B is a product of
    one polynomial.  A point set symmetric under x -> -x makes moment
    matrices whose odd moments vanish, which split this way.
    B_i is symmetric, so the row R of each Berkowitz step is S^T and
    R A^j S = (A^floor(j/2) S) . (A^ceil(j/2) S) needs only half of the
    matrix-vector products.  The caller checks the symmetry
    (linalg.char_poly); the result for any other matrix is wrong.
    """
    if k == 0:
        return [1], [1]
    l, a = integer_rows(k, nums, dens)
    polys = [
        _berkowitz(len(c), a if len(c) == k else [[a[i][j] for j in c] for i in c])
        for c in _components(k, a)
    ]
    p = polys.pop()
    for q in polys:
        prod = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                prod[i + j] += x * y
        p = prod
    return reduced(p, list(accumulate(repeat(l, k), mul, initial=1)))


class InexactDivisionError(AssertionError):
    """A division that is exact by construction left a remainder; this
    indicates a bug."""


def _exact(n, d, what):
    """n / d for integers that d divides; raises InexactDivisionError (which
    survives -O) otherwise."""
    q, r = divmod(n, d)
    if r:
        raise InexactDivisionError(f"{what}: {n} / {d} is not an integer")
    return q


def newton_charpoly(p):
    """Integer coefficients [1, c1, ..., ck] of det(lambda I - X) from the
    power sums p = [Tr(X), ..., Tr(X^k)] of a k x k integer matrix X, by
    Newton's identities: j c_j = -(p_j + c_1 p_(j-1) + ... + c_(j-1) p_1).

    Every c_j of an integer matrix is an integer, so a division by j that
    leaves a remainder raises InexactDivisionError.  O(k^2) operations.
    """
    c = [1]
    for j in range(1, len(p) + 1):
        c.append(_exact(-sum(map(mul, c, reversed(p[:j]))), j, "Newton's identity"))
    return c


def power_sum_charpoly(k, nums, dens, tau, t):
    """Integer coefficients [1, c1, ..., ck] of det(lambda I - X), X = D * G
    for a k x k matrix G of an algebra with trace functional tau (given as
    integers t * tau over t > 0), D the lcm of G's denominators.

    G is the matrix of multiplication by some element g of a k-dimensional
    algebra A in a basis starting with 1 (column j holds the coordinates of
    g * b_j, b_1 = 1), so X^j is the matrix of (D g)^j and
    Tr(X^j) = tau . X^j e_1: the power sums take k sparse products X w from
    w = e_1 and one dot product each, and newton_charpoly turns them into
    coefficients.  X is an integer matrix, so every Tr(X^j) is an integer:
    a division by t that leaves a remainder raises InexactDivisionError.
    O(k * nnz(X)) for the products, against Berkowitz's O(k^4); G need not
    be symmetric.
    """
    _, flat = scaled(nums, dens)
    rows = []  # the columns and the entries of the non-zero part of each row
    for r in range(k):
        row = flat[r * k : (r + 1) * k]
        cols = [c for c, x in enumerate(row) if x]
        rows.append((cols, [row[c] for c in cols]))
    w = [1] + [0] * (k - 1)
    p = []
    for _ in range(k):
        w = [sum(map(mul, xs, [w[c] for c in cols])) for cols, xs in rows]
        p.append(_exact(sum(map(mul, tau, w)), t, "power sum"))
    return newton_charpoly(p)


def _catch_up(u, lev, s, d):
    """Bring the rows from position s on to the current level d."""
    for i in range(s, len(lev)):
        li = lev[i]
        if li != d:
            u[i] = [x * d // li for x in u[i]]
            lev[i] = d


def _swap(u, label, p, q):
    """Exchange positions p <= q of the remainder, whose rows u[i] hold the
    entries (i, j), j >= i, and then the right-hand side, every row from p
    on being current; the rows above p exchange their columns p and q."""
    if p == q:
        return
    up, uq = u[p], u[q]
    up[0], uq[0] = uq[0], up[0]
    for j in range(p + 1, q):  # (p, j) and (j, q)
        uj = u[j]
        up[j - p], uj[q - j] = uj[q - j], up[j - p]
    up[q + 1 - p :], uq[1:] = uq[1:], up[q + 1 - p :]
    for i in range(p):
        ui = u[i]
        ui[p - i], ui[q - i] = ui[q - i], ui[p - i]
    label[p], label[q] = label[q], label[p]


def eliminate(k, nums, dens, rhs=None, linked=None):
    """Fraction-free symmetric elimination of a symmetric k x k matrix A
    (Bareiss 1968; Bunch-Kaufman 1977): the one elimination of the package.

    Returns (pos, neg, zero, picked, x): the inertia of A; the labels the
    linked rule took, in order; and, when rhs = (m, bn, bd) holds a k x m
    matrix C, X with A X = C as reduced pairs (None when A is singular or
    no rhs is given).

    It runs on B = L * A and C' = L_C * C, L and L_C the lcms of the
    denominators, keeping the upper triangle of the remainder and C'.
    After a block P of pivots, each remaining entry is the minor of
    [B | C'] on P bordered by its row and column and d = det B[P, P], so
    every division below is exact (Sylvester's identity):
    - a non-zero diagonal b_vv is a 1x1 pivot of sign sign(b_vv) sign(d):
      b_ij <- (b_vv b_ij - b_iv b_vj) / d, then d <- b_vv;
    - on a zero diagonal, b = b_pq != 0 is a 2x2 pivot [[0, b], [b, 0]] of
      inertia (1, 1, 0): b_ij <- b (b_ip b_qj + b_iq b_pj - b b_ij) / d^2,
      then d <- -b^2 / d (exact arithmetic permits no perturbation);
    - an all-zero remainder counts as zero eigenvalues.
    A row that a pivot would only rescale by the new d over the old is left
    as it is, lev recording the d it was last brought up to.  Pivots are
    moved to the front of the remainder by symmetric exchanges (_swap).
    With linked(t, picked), each label t is first offered once, in order,
    and taken as a 1x1 pivot when its entry is non-zero and it is linked to
    the labels picked so far (hermite's connected scan); the remainder is
    then eliminated as above, so the inertia is always all of A's.

    Each pivot row, as taken, is an equation of the reduced system in the
    positions after it.  With A nonsingular the final d is det B, so
    Y = d B^(-1) C' is an integer matrix (Cramer's rule), found by exact
    back-substitution: a 1x1 row gives b_vv Y_v, and rows p and q of a
    block give b Y_q and b Y_p.  X_ij = L Y_ij / (L_C d), reduced once.
    """
    l, flat = scaled(nums, dens)
    # u[i]: the entries (i, j), j >= i, of row i, then its right-hand side
    u = [flat[i * k + i : (i + 1) * k] for i in range(k)]
    if rhs is not None:
        m, bn, bd = rhs
        lc, flat = scaled(bn, bd)
        for i, row in enumerate(u):
            row += flat[i * m : (i + 1) * m]
    label = list(range(k))  # the label at each position
    lev = [1] * k  # the true entries of u[i] are u[i] * d / lev[i]
    steps = []  # (position solved for, pivot row, first later column, divisor)
    picked = []
    offered = iter(range(k) if linked else ())
    neg = 0
    d = 1
    s = 0  # positions s.. are the remainder
    while s < k:
        for t in offered:
            v = label.index(t)
            if u[v][0] and linked(t, picked):
                picked.append(t)
                break
        else:
            v = next((p for p in range(s, k) if u[p][0]), -1)
        if v >= 0:
            if v != s:
                _catch_up(u, lev, s, d)
                _swap(u, label, s, v)
            row_s = u[s]
            if lev[s] != d:
                ls = lev[s]
                row_s = u[s] = [x * d // ls for x in row_s]
            pv = row_s[0]
            neg += (pv > 0) != (d > 0)
            for i, f in enumerate(row_s[1 : k - s], s + 1):
                if f:  # a row with b_is = 0 only changes level
                    li = lev[i]
                    xs = u[i] if li == d else [x * d // li for x in u[i]]
                    u[i] = [(pv * x - f * y) // d for x, y in zip(xs, row_s[i - s :])]
                    lev[i] = pv
            steps.append((s, s, 1, pv))
            d = pv
            s += 1
            continue
        off = next(((p, q) for p in range(s, k) for q in range(p + 1, k) if u[p][q - p]), None)
        if off is None:
            break
        _catch_up(u, lev, s, d)
        _swap(u, label, s, off[0])
        _swap(u, label, s + 1, off[1])
        neg += 1
        row_p, row_q = u[s], u[s + 1]
        b = row_p[1]
        dd = d * d
        new_d = -b * b // d
        for i in range(s + 2, k):
            fp, fq = row_p[i - s], row_q[i - s - 1]
            if fp or fq:
                li = lev[i]
                zs = u[i] if li == d else [z * d // li for z in u[i]]
                u[i] = [
                    b * (fp * y + fq * x - b * z) // dd
                    for x, y, z in zip(row_p[i - s :], row_q[i - s - 1 :], zs)
                ]
                lev[i] = new_d
        steps += [(s + 1, s, 2, b), (s, s + 1, 1, b)]
        d = new_d
        s += 2
    pos, zero = s - neg, k - s
    if rhs is None or zero:
        return pos, neg, zero, picked, None
    y = [None] * k  # y[p]: row p of Y = d B^(-1) C, by position
    for target, r, skip, div in reversed(steps):
        row = u[r]
        n = k - r
        acc = [d * c for c in row[n:]]
        for f, w in zip(row[skip:n], y[r + skip :]):
            if f:
                acc = [x - f * z for x, z in zip(acc, w)]
        y[target] = [x // div for x in acc]
    den = lc * d
    f = l if den > 0 else -l
    xs = [x for p in sorted(range(k), key=label.__getitem__) for x in y[p]]
    if f != 1:
        xs = [f * x for x in xs]
    return pos, neg, zero, picked, reduced(xs, [abs(den)] * len(xs))
