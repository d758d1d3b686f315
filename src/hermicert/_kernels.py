"""Dense exact-rational matrix kernels: the package's exact-arithmetic core.

A matrix is a flat row-major pair of lists (nums, dens) of Python ints with
every entry stored reduced and dens[i] > 0.  These functions are the inner
loops of the whole package; ``hermicert.linalg`` wraps them for RatMatrix.
The characteristic polynomial is the exception to rational entries: it
scales the matrix to integers once and runs division-free on plain ints.
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


def charpoly(k, nums, dens):
    """Monic characteristic polynomial by Berkowitz's division-free algorithm.

    Returns descending coefficient pair lists ([1, c1, ..., ck] for
    lambda^k + c1 lambda^(k-1) + ... + ck).  The matrix is scaled to the
    integer matrix B = L * A, L the lcm of the denominators; Berkowitz's
    recurrence runs on plain ints (no gcd, no division), and
    c_i(A) = c_i(B) / L^i is reduced once per coefficient at the end.
    """
    if k == 0:
        return [1], [1]
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    a = [[nums[i * k + j] * (l // dens[i * k + j]) for j in range(k)] for i in range(k)]
    # grow the trailing principal submatrix A_r = a[r:, r:] one row and
    # column at a time: with A_r = [[a_rr, R], [S, A_(r+1)]],
    # p_r = T p_(r+1) where T is lower-triangular Toeplitz with first column
    # (1, -a_rr, -R S, -R A_(r+1) S, ..., -R A_(r+1)^(k-r-2) S)
    p = [1, -a[k - 1][k - 1]]
    for r in range(k - 2, -1, -1):
        rows = [row[r + 1 :] for row in a[r + 1 :]]
        top = a[r][r + 1 :]
        v = [row[r] for row in a[r + 1 :]]
        t = [1, -a[r][r], -sum(map(mul, top, v))]
        for _ in range(k - 2 - r):
            v = [sum(map(mul, row, v)) for row in rows]
            t.append(-sum(map(mul, top, v)))
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
    """Inertia (pos, neg, zero) of a symmetric matrix by congruence.

    Diagonal pivots are eliminated one at a time; if the remaining diagonal
    is entirely zero but an off-diagonal entry b survives, the antidiagonal
    2x2 block [[0,b],[b,0]] contributes (+1,-1) and its exact Schur
    complement is taken.  Exact arithmetic permits no perturbation, so this
    block step is required for correctness, not merely stability.
    """
    s_n = list(nums)
    s_d = list(dens)
    pos = neg = zero = 0
    i = 0

    def swap(p, q):
        for j in range(k):
            s_n[p * k + j], s_n[q * k + j] = s_n[q * k + j], s_n[p * k + j]
            s_d[p * k + j], s_d[q * k + j] = s_d[q * k + j], s_d[p * k + j]
        for j in range(k):
            s_n[j * k + p], s_n[j * k + q] = s_n[j * k + q], s_n[j * k + p]
            s_d[j * k + p], s_d[j * k + q] = s_d[j * k + q], s_d[j * k + p]

    while i < k:
        piv = -1
        for j in range(i, k):
            if s_n[j * k + j]:
                piv = j
                break
        if piv >= 0:
            if piv != i:
                swap(i, piv)
            dn, dd = s_n[i * k + i], s_d[i * k + i]
            if dn > 0:
                pos += 1
            else:
                neg += 1
            col_n = [s_n[r * k + i] for r in range(i + 1, k)]
            col_d = [s_d[r * k + i] for r in range(i + 1, k)]
            for r in range(i + 1, k):
                un, ud = col_n[r - i - 1], col_d[r - i - 1]
                if un == 0:
                    continue
                fn, fd = q_div(un, ud, dn, dd)
                for c in range(i + 1, k):
                    vn = col_n[c - i - 1]
                    if vn == 0:
                        continue
                    tn, td = q_mul(fn, fd, vn, col_d[c - i - 1])
                    p = r * k + c
                    s_n[p], s_d[p] = q_sub(s_n[p], s_d[p], tn, td)
            i += 1
            continue
        off = None
        for r in range(i, k):
            for c in range(r + 1, k):
                if s_n[r * k + c]:
                    off = (r, c)
                    break
            if off:
                break
        if off is None:
            zero += k - i
            break
        r0, c0 = off
        # c0 > r0 >= i, so the two swaps below cannot collide
        if r0 != i:
            swap(i, r0)
        if c0 != i + 1:
            swap(i + 1, c0)
        bn, bd = s_n[i * k + i + 1], s_d[i * k + i + 1]
        pos += 1
        neg += 1
        u_n = [s_n[r * k + i] for r in range(i + 2, k)]
        u_d = [s_d[r * k + i] for r in range(i + 2, k)]
        v_n = [s_n[r * k + i + 1] for r in range(i + 2, k)]
        v_d = [s_d[r * k + i + 1] for r in range(i + 2, k)]
        for r in range(i + 2, k):
            ur_n, ur_d = u_n[r - i - 2], u_d[r - i - 2]
            vr_n, vr_d = v_n[r - i - 2], v_d[r - i - 2]
            for c in range(i + 2, k):
                uc_n, uc_d = u_n[c - i - 2], u_d[c - i - 2]
                vc_n, vc_d = v_n[c - i - 2], v_d[c - i - 2]
                t1n, t1d = q_mul(ur_n, ur_d, vc_n, vc_d)
                t2n, t2d = q_mul(vr_n, vr_d, uc_n, uc_d)
                tn, td = q_add(t1n, t1d, t2n, t2d)
                if tn == 0:
                    continue
                tn, td = q_div(tn, td, bn, bd)
                p = r * k + c
                s_n[p], s_d[p] = q_sub(s_n[p], s_d[p], tn, td)
        i += 2
    return pos, neg, zero
