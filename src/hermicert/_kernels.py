"""Dense exact-rational matrix kernels: the package's exact-arithmetic core.

A matrix is a flat row-major pair of lists (nums, dens) of Python ints with
every entry stored reduced and dens[i] > 0.  These functions are the inner
loops of the whole package; ``hermicert.linalg`` wraps them for RatMatrix.
Every kernel first scales its input to integers with _scaled, one lcm for
the whole matrix (inertia, charpoly) or one per row or column (rank, solve,
product), and then runs on plain ints: rank, solve and inertia by
fraction-free (Bareiss) elimination, the characteristic polynomial of a
symmetric matrix division-free (Berkowitz), the product as integer dot
products.  A rational result is reduced once per entry at the end.
"""

from math import gcd, lcm
from operator import mul


def _scaled(nums, dens):
    """(L, [L * n / d for each entry]): L the lcm of the denominators."""
    l = lcm(*dens)
    return l, [n * (l // d) for n, d in zip(nums, dens)]


def mat_mul(ar, ac, bc, an, ad, bn, bd):
    """(ar x ac) @ (ac x bc) on flat pair lists.

    Row i of A is scaled to integers by its lcm r_i and column j of B by its
    lcm c_j; entry (i, j) is their integer dot product over r_i * c_j,
    reduced once."""
    rows = [_scaled(an[i * ac : (i + 1) * ac], ad[i * ac : (i + 1) * ac]) for i in range(ar)]
    cols = [_scaled(bn[j::bc], bd[j::bc]) for j in range(bc)]
    cn, cd = [], []
    for r, row in rows:
        for c, col in cols:
            s = sum(map(mul, row, col))
            d = r * c
            g = gcd(s, d)
            cn.append(s // g)
            cd.append(d // g)
    return cn, cd


def _eliminate(m, pivot_cols):
    """Fraction-free (Bareiss) forward elimination of the integer rows m, in
    place; returns the number of pivots.

    Pivots are sought in the first pivot_cols columns, in order, and a
    column without one is skipped.  After p pivots every remaining entry is
    the minor of the rows and columns pivoted so far bordered by its own row
    and column, so each division by the previous pivot is exact, and the
    p-th pivot is that p x p minor.  A row whose entry in the pivot column
    is zero would only be rescaled by pivot / previous pivot; it is left as
    it is, and lev[i] records the pivot it was last brought up to, so that
    its true entries are row * prev / lev[i].  The rows that become pivot
    rows end up as the true rows of the triangular form; the others do not.
    """
    r = len(m)
    lev = [1] * r
    prev = 1
    pr = 0
    for pc in range(pivot_cols):
        if pr >= r:
            break
        for piv in range(pr, r):
            if m[piv][pc]:
                break
        else:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        lev[pr], lev[piv] = lev[piv], lev[pr]
        row_p = m[pr]
        d = lev[pr]
        if d != prev:
            row_p[:] = [x * prev // d for x in row_p]
        pv = row_p[pc]
        for i in range(pr + 1, r):
            row = m[i]
            f = row[pc]
            if not f:
                continue
            d = lev[i]
            if d != prev:
                row[:] = [x * prev // d for x in row]
                f = row[pc]
            row[pc] = 0
            for j in range(pc + 1, len(row)):
                row[j] = (pv * row[j] - f * row_p[j]) // prev
            lev[i] = pv
        prev = pv
        pr += 1
    return pr


def mat_rank(r, c, nums, dens):
    """Exact rank by fraction-free (Bareiss) elimination.

    Each row is first scaled to integers by its own denominator lcm, which
    preserves rank.
    """
    m = [_scaled(nums[i * c : (i + 1) * c], dens[i * c : (i + 1) * c])[1] for i in range(r)]
    return _eliminate(m, c)


def mat_solve(k, m, an, ad, bn, bd):
    """X with A X = B for A (k x k) and B (k x m), as reduced pairs; None
    when A is singular.  B = I gives the inverse.

    Row i of [A | B] is scaled to integers by its own lcm, which keeps X.
    Fraction-free forward elimination of the integer rows makes [A | B]
    upper triangular [U | C] with U's last pivot d = +-det of the scaled A,
    so d X is an integer matrix (Cramer's rule); it is found by exact
    integer back-substitution, d X_i = (d C_i - sum_(t > i) U_it d X_t) / U_ii,
    and each entry of X is reduced once."""
    rows = []
    for i in range(k):
        a, b = slice(i * k, (i + 1) * k), slice(i * m, (i + 1) * m)
        rows.append(_scaled(an[a] + bn[b], ad[a] + bd[b])[1])
    if _eliminate(rows, k) < k:
        return None
    if k == 0:
        return [], []
    det = rows[k - 1][k - 1]
    x = [None] * k  # x[i]: row i of d X
    for i in range(k - 1, -1, -1):
        row = rows[i]
        acc = [det * c for c in row[k:]]
        for t in range(i + 1, k):
            f = row[t]
            if f:
                acc = [a - f * v for a, v in zip(acc, x[t])]
        p = row[i]
        x[i] = [a // p for a in acc]
    sign = -1 if det < 0 else 1
    xn, xd = [], []
    for row in x:
        for v in row:
            g = gcd(v, det) * sign
            xn.append(v // g)
            xd.append(det // g)
    return xn, xd


def integer_rows(k, nums, dens):
    """(L, B): L the lcm of the denominators and B = L * A as k rows of ints.

    L > 0, so B has the inertia and the sign pattern of A, and
    c_i(A) = c_i(B) / L^i for the characteristic polynomial."""
    l, flat = _scaled(nums, dens)
    return l, [flat[i * k : (i + 1) * k] for i in range(k)]


def charpoly(k, nums, dens):
    """Monic characteristic polynomial of a symmetric matrix by Berkowitz's
    division-free algorithm.

    Returns descending coefficient pair lists ([1, c1, ..., ck] for
    lambda^k + c1 lambda^(k-1) + ... + ck).  The recurrence runs on plain
    ints (no gcd, no division) over the integer matrix B = L * A, and
    c_i(A) = c_i(B) / L^i is reduced once per coefficient at the end.  B is
    symmetric, so the row R of each step is S^T and
    R A^j S = (A^floor(j/2) S) . (A^ceil(j/2) S) needs only half of the
    matrix-vector products.  The caller checks the symmetry
    (linalg.char_poly); the result for any other matrix is wrong.
    """
    if k == 0:
        return [1], [1]
    l, a = integer_rows(k, nums, dens)
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
    cn, cd = [], []
    li = 1
    for c in p:
        g = gcd(c, li)
        cn.append(c // g)
        cd.append(li // g)
        li *= l
    return cn, cd


def inertia(k, nums, dens):
    """Inertia (pos, neg, zero) of a symmetric matrix by fraction-free
    symmetric elimination with diagonal pivoting (Bareiss 1968).

    It runs on the integer matrix B = L * A.  After a block P of pivots is
    eliminated, each remaining entry is the minor of B on P bordered by its
    row and column, and d = det P; the Schur complement of P is that
    remainder divided by d, so Sylvester's identity makes every division
    below exact.
    - A non-zero diagonal entry b_vv is a 1x1 pivot of sign
      sign(b_vv) * sign(d); b_ij <- (b_vv b_ij - b_iv b_vj) / d, then
      d <- b_vv.
    - A zero remaining diagonal with an off-diagonal b = b_pq != 0 is a 2x2
      pivot [[0, b], [b, 0]], contributing (+1, -1);
      b_ij <- b (b_ip b_qj + b_iq b_pj - b b_ij) / d^2, then d <- -b^2 / d.
      Exact arithmetic permits no perturbation, so this block step is
      required for correctness, not merely stability.
    - An all-zero remainder counts as zero eigenvalues.
    """
    _, a = integer_rows(k, nums, dens)
    pos = neg = 0
    d = 1
    while a:
        n = len(a)
        v = next((i for i in range(n) if a[i][i]), -1)
        if v >= 0:
            pv = a[v][v]
            if (pv > 0) == (d > 0):
                pos += 1
            else:
                neg += 1
            row_v = a.pop(v)
            del row_v[v]
            rest = []
            for i, row in enumerate(a):
                f = row.pop(v)
                if f:
                    upper = [(pv * x - f * y) // d for x, y in zip(row[i:], row_v[i:])]
                else:  # b_iv = 0: the row is only rescaled
                    upper = [pv * x // d for x in row[i:]]
                # the remainder stays symmetric: its lower triangle is copied
                # from the rows already built
                rest.append([r[i] for r in rest] + upper)
            a = rest
            d = pv
            continue
        off = next(((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j]), None)
        if off is None:
            return pos, neg, n
        pos += 1
        neg += 1
        p, q = off
        b = a[p][q]
        row_q = a.pop(q)
        row_p = a.pop(p)
        for row in (row_p, row_q):
            del row[q]
            del row[p]
        dd = d * d
        rest = []
        for row in a:
            fq = row.pop(q)
            fp = row.pop(p)
            rest.append(
                [b * (fp * y + fq * x - b * z) // dd for x, y, z in zip(row_p, row_q, row)]
            )
        a = rest
        d = -b * b // d
    return pos, neg, 0
