# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of hermicert._kernels.pure.

Same algorithms on the same flat (nums, dens) pair lists; loop and call
overhead is compiled away while the arbitrary-precision integer values stay
ordinary Python ints.  Results are bit-identical to the pure backend.
"""

from math import gcd
from operator import mul

BACKEND = "compiled"


cdef inline tuple _q_add(an, ad, bn, bd):
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    s = ad // g
    n = an * (bd // g) + bn * s
    g2 = gcd(n, g)
    if g2 == 1:
        return n, s * bd
    return n // g2, s * (bd // g2)


cdef inline tuple _q_mul(an, ad, bn, bd):
    g1 = gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def q_add(an, ad, bn, bd):
    return _q_add(an, ad, bn, bd)


def q_sub(an, ad, bn, bd):
    return _q_add(an, ad, -bn, bd)


def q_mul(an, ad, bn, bd):
    return _q_mul(an, ad, bn, bd)


def q_div(an, ad, bn, bd):
    if bn == 0:
        raise ZeroDivisionError("rational division by zero")
    n, d = _q_mul(an, ad, bd, bn)
    if d < 0:
        return -n, -d
    return n, d


def mat_mul(Py_ssize_t ar, Py_ssize_t ac, Py_ssize_t bc, list an, list ad, list bn, list bd):
    cdef Py_ssize_t i, j, t, ra, rc
    cdef list cn = [0] * (ar * bc)
    cdef list cd = [1] * (ar * bc)
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
                pn, pd = _q_mul(x, ad[ra + t], y, bd[t * bc + j])
                sn, sd = _q_add(sn, sd, pn, pd)
            cn[rc + j] = sn
            cd[rc + j] = sd
    return cn, cd


def mat_rank(Py_ssize_t r, Py_ssize_t c, list nums, list dens):
    cdef Py_ssize_t i, j, pr, pc, piv, base, rank
    cdef list m = []
    cdef list row, row_p
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
        row_p = m[pr]
        pv = row_p[pc]
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


def mat_inverse(Py_ssize_t k, list nums, list dens):
    cdef Py_ssize_t i, j, col, piv, base, ri, pr, cr
    cdef list a_n = list(nums)
    cdef list a_d = list(dens)
    cdef list b_n = [0] * (k * k)
    cdef list b_d = [1] * (k * k)
    for i in range(k):
        b_n[i * k + i] = 1
    for col in range(k):
        piv = -1
        for i in range(col, k):
            if a_n[i * k + col]:
                piv = i
                break
        if piv < 0:
            return None
        if piv != col:
            pr, cr = piv * k, col * k
            for j in range(k):
                a_n[pr + j], a_n[cr + j] = a_n[cr + j], a_n[pr + j]
                a_d[pr + j], a_d[cr + j] = a_d[cr + j], a_d[pr + j]
                b_n[pr + j], b_n[cr + j] = b_n[cr + j], b_n[pr + j]
                b_d[pr + j], b_d[cr + j] = b_d[cr + j], b_d[pr + j]
        base = col * k
        pn, pd = a_n[base + col], a_d[base + col]
        for j in range(k):
            n, d = _q_mul(a_n[base + j], a_d[base + j], pd, pn)
            if d < 0:
                n, d = -n, -d
            a_n[base + j], a_d[base + j] = n, d
            n, d = _q_mul(b_n[base + j], b_d[base + j], pd, pn)
            if d < 0:
                n, d = -n, -d
            b_n[base + j], b_d[base + j] = n, d
        for i in range(k):
            if i == col:
                continue
            ri = i * k
            fn, fd = a_n[ri + col], a_d[ri + col]
            if fn == 0:
                continue
            for j in range(k):
                if a_n[base + j]:
                    tn, td = _q_mul(fn, fd, a_n[base + j], a_d[base + j])
                    a_n[ri + j], a_d[ri + j] = _q_add(a_n[ri + j], a_d[ri + j], -tn, td)
                if b_n[base + j]:
                    tn, td = _q_mul(fn, fd, b_n[base + j], b_d[base + j])
                    b_n[ri + j], b_d[ri + j] = _q_add(b_n[ri + j], b_d[ri + j], -tn, td)
    return b_n, b_d


def charpoly(k, nums, dens):
    """Berkowitz on the integer-scaled matrix; plain Python, as in pure.py."""
    if k == 0:
        return [1], [1]
    l = 1
    for d in dens:
        l = l * d // gcd(l, d)
    a = [[nums[i * k + j] * (l // dens[i * k + j]) for j in range(k)] for i in range(k)]
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


cdef void _sym_swap(list s_n, list s_d, Py_ssize_t k, Py_ssize_t p_, Py_ssize_t q_):
    cdef Py_ssize_t jj
    for jj in range(k):
        s_n[p_ * k + jj], s_n[q_ * k + jj] = s_n[q_ * k + jj], s_n[p_ * k + jj]
        s_d[p_ * k + jj], s_d[q_ * k + jj] = s_d[q_ * k + jj], s_d[p_ * k + jj]
    for jj in range(k):
        s_n[jj * k + p_], s_n[jj * k + q_] = s_n[jj * k + q_], s_n[jj * k + p_]
        s_d[jj * k + p_], s_d[jj * k + q_] = s_d[jj * k + q_], s_d[jj * k + p_]


def inertia(Py_ssize_t k, list nums, list dens):
    cdef Py_ssize_t i, j, r, c, piv, r0, c0, p
    cdef Py_ssize_t pos = 0, neg = 0, zero = 0
    cdef list s_n = list(nums)
    cdef list s_d = list(dens)
    cdef list col_n, col_d, u_n, u_d, v_n, v_d
    cdef bint found

    i = 0
    while i < k:
        piv = -1
        for j in range(i, k):
            if s_n[j * k + j]:
                piv = j
                break
        if piv >= 0:
            if piv != i:
                _sym_swap(s_n, s_d, k, i, piv)
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
                fn, fd = _q_mul(un, ud, dd, dn)
                if fd < 0:
                    fn, fd = -fn, -fd
                for c in range(i + 1, k):
                    vn = col_n[c - i - 1]
                    if vn == 0:
                        continue
                    tn, td = _q_mul(fn, fd, vn, col_d[c - i - 1])
                    p = r * k + c
                    s_n[p], s_d[p] = _q_add(s_n[p], s_d[p], -tn, td)
            i += 1
            continue
        found = False
        r0 = c0 = 0
        for r in range(i, k):
            for c in range(r + 1, k):
                if s_n[r * k + c]:
                    r0, c0 = r, c
                    found = True
                    break
            if found:
                break
        if not found:
            zero += k - i
            break
        # c0 > r0 >= i, so the two swaps below cannot collide
        if r0 != i:
            _sym_swap(s_n, s_d, k, i, r0)
        if c0 != i + 1:
            _sym_swap(s_n, s_d, k, i + 1, c0)
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
                t1n, t1d = _q_mul(ur_n, ur_d, v_n[c - i - 2], v_d[c - i - 2])
                t2n, t2d = _q_mul(vr_n, vr_d, u_n[c - i - 2], u_d[c - i - 2])
                tn, td = _q_add(t1n, t1d, t2n, t2d)
                if tn == 0:
                    continue
                tn, td = _q_mul(tn, td, bd, bn)
                if td < 0:
                    tn, td = -tn, -td
                p = r * k + c
                s_n[p], s_d[p] = _q_add(s_n[p], s_d[p], -tn, td)
        i += 2
    return pos, neg, zero
