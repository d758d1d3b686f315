"""Dense exact-rational matrix kernels: the package's exact-arithmetic core.

A matrix is a flat row-major pair of lists (nums, dens) of Python ints with
every entry stored reduced and dens[i] > 0.  These functions are the inner
loops of the whole package; ``hermicert.linalg`` wraps them for RatMatrix.
Rank, inertia and the characteristic polynomial scale the matrix to integers
once and run on plain ints: rank and inertia by fraction-free (Bareiss)
elimination, the characteristic polynomial division-free (Berkowitz).  Only
the product and the solve carry reduced rational pairs.
"""

from math import gcd
from operator import mul


def q_add(an, ad, bn, bd):
    """Reduced sum of an/ad + bn/bd (Henrici's gcd-saving scheme)."""
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    n = an * (bd // g) + bn * s
    g2 = gcd(n, g)
    if g2 == 1:
        return n, s * bd
    return n // g2, s * (bd // g2)


def q_sub(an, ad, bn, bd):
    return q_add(an, ad, -bn, bd)


def q_mul(an, ad, bn, bd):
    g1 = gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def q_div(an, ad, bn, bd):
    if bn == 0:
        raise ZeroDivisionError("rational division by zero")
    n, d = q_mul(an, ad, bd, bn)
    if d < 0:
        return -n, -d
    return n, d


def mat_mul(ar, ac, bc, an, ad, bn, bd):
    """(ar x ac) @ (ac x bc) on flat pair lists."""
    cn = [0] * (ar * bc)
    cd = [1] * (ar * bc)
    for i in range(ar):
        ra = i * ac
        rc = i * bc
        for j in range(bc):
            sn, sd = 0, 1
            for t in range(ac):
                x = an[ra + t]
                if x == 0:
                    continue
                y = bn[t * bc + j]
                if y == 0:
                    continue
                pn, pd = q_mul(x, ad[ra + t], y, bd[t * bc + j])
                sn, sd = q_add(sn, sd, pn, pd)
            cn[rc + j] = sn
            cd[rc + j] = sd
    return cn, cd


def mat_rank(r, c, nums, dens):
    """Exact rank by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers by their denominator lcm, which
    preserves rank.
    """
    m = []
    for i in range(r):
        base = i * c
        l = 1
        for j in range(c):
            d = dens[base + j]
            l = l * d // gcd(l, d)
        m.append([nums[base + j] * (l // dens[base + j]) for j in range(c)])
    rank = 0
    prev = 1
    pr = 0
    for pc in range(c):
        if pr >= r:
            break
        piv = -1
        for i in range(pr, r):
            if m[i][pc]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pv = m[pr][pc]
        row_p = m[pr]
        for i in range(pr + 1, r):
            row = m[i]
            f = row[pc]
            for j in range(pc + 1, c):
                row[j] = (pv * row[j] - f * row_p[j]) // prev
            row[pc] = 0
        prev = pv
        pr += 1
        rank += 1
    return rank


def mat_solve(k, m, an, ad, bn, bd):
    """Gauss-Jordan solution X of A X = B for A (k x k) and B (k x m);
    returns None when A is singular.  B = I gives the inverse."""
    a_n = list(an)
    a_d = list(ad)
    b_n = list(bn)
    b_d = list(bd)
    for col in range(k):
        piv = -1
        for i in range(col, k):
            if a_n[i * k + col]:
                piv = i
                break
        if piv < 0:
            return None
        if piv != col:
            pa, ca = piv * k, col * k
            a_n[pa : pa + k], a_n[ca : ca + k] = a_n[ca : ca + k], a_n[pa : pa + k]
            a_d[pa : pa + k], a_d[ca : ca + k] = a_d[ca : ca + k], a_d[pa : pa + k]
            pb, cb = piv * m, col * m
            b_n[pb : pb + m], b_n[cb : cb + m] = b_n[cb : cb + m], b_n[pb : pb + m]
            b_d[pb : pb + m], b_d[cb : cb + m] = b_d[cb : cb + m], b_d[pb : pb + m]
        base_a, base_b = col * k, col * m
        pn, pd = a_n[base_a + col], a_d[base_a + col]
        for j in range(base_a, base_a + k):
            a_n[j], a_d[j] = q_div(a_n[j], a_d[j], pn, pd)
        for j in range(base_b, base_b + m):
            b_n[j], b_d[j] = q_div(b_n[j], b_d[j], pn, pd)
        for i in range(k):
            if i == col:
                continue
            ri, rb = i * k, i * m
            fn, fd = a_n[ri + col], a_d[ri + col]
            if fn == 0:
                continue
            for j in range(k):
                if a_n[base_a + j]:
                    tn, td = q_mul(fn, fd, a_n[base_a + j], a_d[base_a + j])
                    a_n[ri + j], a_d[ri + j] = q_sub(a_n[ri + j], a_d[ri + j], tn, td)
            for j in range(m):
                if b_n[base_b + j]:
                    tn, td = q_mul(fn, fd, b_n[base_b + j], b_d[base_b + j])
                    b_n[rb + j], b_d[rb + j] = q_sub(b_n[rb + j], b_d[rb + j], tn, td)
    return b_n, b_d


def integer_rows(k, nums, dens):
    """(L, B): L the lcm of the denominators and B = L * A as k rows of ints.

    L > 0, so B has the inertia and the sign pattern of A, and
    c_i(A) = c_i(B) / L^i for the characteristic polynomial."""
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    return l, [[nums[i * k + j] * (l // dens[i * k + j]) for j in range(k)] for i in range(k)]


def charpoly(k, nums, dens):
    """Monic characteristic polynomial by Berkowitz's division-free algorithm.

    Returns descending coefficient pair lists ([1, c1, ..., ck] for
    lambda^k + c1 lambda^(k-1) + ... + ck).  The recurrence runs on plain
    ints (no gcd, no division) over the integer matrix B = L * A, and
    c_i(A) = c_i(B) / L^i is reduced once per coefficient at the end.  For a
    symmetric B the row R of each step is S^T, so
    R A^j S = (A^floor(j/2) S) . (A^ceil(j/2) S) needs only half of the
    matrix-vector products.
    """
    if k == 0:
        return [1], [1]
    l, a = integer_rows(k, nums, dens)
    sym = all(a[i][j] == a[j][i] for i in range(k) for j in range(i))
    # grow the trailing principal submatrix A_r = a[r:, r:] one row and
    # column at a time: with A_r = [[a_rr, R], [S, A_(r+1)]],
    # p_r = T p_(r+1) where T is lower-triangular Toeplitz with first column
    # (1, -a_rr, -R S, -R A_(r+1) S, ..., -R A_(r+1)^(k-r-2) S)
    # R A^j S = left[h] . w[j - h] with w[m] = A_(r+1)^m S memoised; when B
    # (hence A_r) is symmetric, left[h] = w[h] = (R A^h)^T and h = floor(j/2),
    # otherwise left = [R] and h = 0.  j - h grows by at most one per step,
    # so each step adds at most one w[m].
    splits = [(j // 2, j - j // 2) if sym else (0, j) for j in range(k)]
    p = [1, -a[k - 1][k - 1]]
    for r in range(k - 2, -1, -1):
        rows = [row[r + 1 :] for row in a[r + 1 :]]
        v = [row[r] for row in a[r + 1 :]]
        w = [v]
        left = w if sym else [a[r][r + 1 :]]
        t = [1, -a[r][r]]
        for h, m in splits[: k - 1 - r]:
            if m == len(w):
                v = [sum(map(mul, row, v)) for row in rows]
                w.append(v)
            t.append(-sum(map(mul, left[h], w[m])))
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
