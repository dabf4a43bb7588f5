"""Shared fixture builders and independent oracles for the test suite.

Everything here is deliberately implemented by a different route than
the library code it checks: cofactor determinants, Sylvester matrices,
Gauss-Jordan elimination and long division over Fractions, schoolbook
number-field products, Kronecker interpolation factoring, Schreier-style
breadth-first kernel generators, and plain brute-force enumeration.
Some are the library's own earlier algorithms: eliminations that the
library now reads off one it has already done, graph weights from sums of
component kernels, a conductor folded by intersections, Zassenhaus
factoring with no rational-root step, Yun's squarefree decomposition,
Euclid's gcd on Fraction remainders, Euclid over a number field that
inverts the divisor's lead at every division, and shifts over a number
field by whole-polynomial products and sums.
"""

import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import strategies as st

from ordroots.linalg import IntMatrix, Lattice, RatMatrix, clear_vector
from ordroots.ordercore import Order
from ordroots.qalgebra import AlgebraError, cell_coords
from ordroots.polyfactor import qp, qp_add, qp_divmod, qp_monic, qp_mul, qp_scale, qp_xgcd


def matrix_of_rows(rows):
    """The IntMatrix with the given rows, all of one length."""
    return IntMatrix(len(rows), zip(*rows))


# ---------------------------------------------------------------------------
# determinants and resultants, the slow classical way

def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def bareiss_det_int(m):
    """Determinant of a square IntMatrix by its own fraction-free (Bareiss)
    forward elimination, apart from the one of linalg."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - aik * rowk[j]) // prev
            row[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def sylvester_rows(f, g):
    """The rows of the Sylvester matrix of nonzero f and g: deg g shifts of
    f, then deg f shifts of g, highest coefficient first."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(reversed(f)) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(reversed(g)) + [0] * (size - n - 1 - i))
    return rows


def sylvester_resultant(f, g):
    """Resultant via the Sylvester matrix and cofactor expansion."""
    return cofactor_det(sylvester_rows(f, g))


# ---------------------------------------------------------------------------
# the library's rational coordinates

def is_canonical(v):
    """Every entry is an int exactly when it is integral, and a Fraction
    otherwise (a bool, a float or an integral Fraction is not canonical)."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in v)


def coordinate_forms(data, v):
    """v in Fraction form, in int form and in a mix of the two drawn from
    the Hypothesis ``data``."""
    fractions = tuple(Fraction(c) for c in v)
    ints = tuple(c.numerator if c.denominator == 1 else c for c in fractions)
    mixed = tuple(data.draw(st.sampled_from([a, b])) for a, b in zip(fractions, ints))
    return fractions, ints, mixed


# ---------------------------------------------------------------------------
# number-field products, the schoolbook way

def schoolbook_field_mul(K, x, y):
    """x * y in K = Q[X]/(m): the product polynomial in Fractions, reduced
    by long division by the monic minimal polynomial m."""
    d = K.deg
    prod = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += Fraction(a) * b
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        for j, t in enumerate(K.min_poly):
            prod[k - d + j] -= c * t
    return tuple(prod[:d])


# ---------------------------------------------------------------------------
# number-field norms and inverses, the Fraction way

def lagrange_norm_poly(f, K):
    """Norm of monic f in K[X] down to Q[X]: the resultants of the minimal
    polynomial with f(x) at the integer points 0, 1, -1, 2, -2, ..., each
    the determinant of their Sylvester matrix cleared to integers
    (``bareiss_det_int``), then Lagrange interpolation in Fractions, one
    basis polynomial per point (O(N^3) Fraction work for N points)."""
    d = K.deg
    npoints = d * (len(f) - 1) + 1
    xs = []
    k = 0
    while len(xs) < npoints:
        xs.append(k)
        if k > 0 and len(xs) < npoints:
            xs.append(-k)
        k += 1
    big_m, mu = clear_vector(K.min_poly)
    ys = []
    for x0 in xs:
        p = [Fraction(0)] * d
        xp = Fraction(1)
        for c in f:
            for j in range(d):
                p[j] += c[j] * xp
            xp *= x0
        # Res(M / mu, P / pi) = Res(M, P) / (mu^deg P pi^deg M)
        big_p, pi = clear_vector(qp(p))
        if not big_p:
            ys.append(0)
            continue
        det = bareiss_det_int(matrix_of_rows(sylvester_rows(big_m, big_p)))
        ys.append(Fraction(det, mu ** (len(big_p) - 1) * pi ** d))
    out = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = [Fraction(yi)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i != j:
                num = qp_mul(num, [Fraction(-xj), Fraction(1)])
                den *= xi - xj
        out = qp_add(out, qp_scale(num, 1 / den))
    return out


def xgcd_field_inverse(K, x):
    """x^-1 in K = Q[X]/(m): s from the extended Euclidean algorithm
    s*x + t*m = 1 on Fraction polynomials."""
    fx = qp(x)
    g, s, _ = qp_xgcd(fx, list(K.min_poly))
    assert len(g) == 1, "element not invertible"
    return K.from_poly(s)


# ---------------------------------------------------------------------------
# roots over a number field, every Trager step in full

def nfp_add(f, g, K):
    from ordroots.numfield import nfp_strip

    out = [K.zero()] * max(len(f), len(g))
    for h in (f, g):
        for i, c in enumerate(h):
            out[i] = K.add(out[i], c)
    return nfp_strip(out)


def nfp_mul(f, g, K):
    """Schoolbook product in K[X]."""
    from ordroots.numfield import nfp_strip

    if not f or not g:
        return []
    out = [K.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return nfp_strip(out)


def product_sum_shift(f, s, K):
    """f(X - s*gen) by Horner on whole polynomials: acc <- acc * shift +
    coeff, one product and one sum in K[X] per coefficient."""
    shift = [K.neg(K.mul(K.gen(), K.from_rational(s))), K.one()]
    acc = []
    for c in reversed(f):
        acc = nfp_add(nfp_mul(acc, shift, K), [c], K)
    return acc


def inverting_divmod(f, g, K):
    """Long division in K[X] that multiplies by the inverse of lc(g),
    even when lc(g) is 1."""
    from ordroots.numfield import nfp_strip

    inv = K.inv(g[-1])
    f = list(f)
    q = [K.zero()] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and f:
        c = K.mul(f[-1], inv)
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = K.sub(f[k + i], K.mul(c, b))
        nfp_strip(f)
    return nfp_strip(q), f


def inverting_monic(f, K):
    inv = K.inv(f[-1])
    return [K.mul(c, inv) for c in f]


def _inverting_gcd(f, g, K):
    while g:
        f, g = g, inverting_divmod(f, g, K)[1]
    return inverting_monic(f, K)


def full_trager_roots(f, K):
    """Roots in K of nonzero f in K[X], sorted: the separability gcd
    first, then every shift from s = 0 until the norm of the squarefree
    part is squarefree, and each norm factor pulled back by its own gcd
    with the whole shifted polynomial."""
    from ordroots.numfield import (
        _norm_poly, nfp_degree, nfp_deriv, nfp_eval, nfp_from_qp, nfp_strip)
    from ordroots.polyfactor import factor_q, qp_degree, qp_deriv

    f = nfp_strip(list(f))
    if nfp_degree(f) == 0:
        return []
    fm = inverting_monic(f, K)
    g0 = _inverting_gcd(fm, nfp_deriv(fm, K), K)
    fs = inverting_monic(inverting_divmod(fm, g0, K)[0], K)
    s = 0
    while True:
        g = product_sum_shift(fs, s, K)
        norm = _norm_poly(g, K)
        if qp_degree(fraction_gcd(norm, qp_deriv(norm))) == 0:
            break
        s += 1
    roots = []
    for fac, _ in factor_q(norm)[1]:
        piece = _inverting_gcd(g, nfp_from_qp(fac, K), K)
        assert nfp_degree(piece) >= 1, "norm factor does not pull back"
        if nfp_degree(piece) == 1:
            roots.append(K.sub(K.neg(piece[0]), K.mul(K.gen(), K.from_rational(s))))
    for r in roots:
        assert not any(nfp_eval(f, r, K)), "root does not verify"
    return sorted(roots)


# ---------------------------------------------------------------------------
# polynomial division, gcds and idempotents, the Fraction way

def fraction_gcd(f, g):
    """The monic gcd over Q by Euclid's algorithm on Fraction remainders,
    the library's earlier route."""
    while g:
        f, g = g, qp_divmod(f, g)[1]
    return qp_monic(f)


def fraction_divides(g, f):
    """Exact quotient f/g over Z, or None: long division over Q in
    Fractions, then a check that the remainder is zero and the quotient
    integral."""
    if not g:
        return None
    q, r = qp_divmod(qp(f), qp(g))
    if r:
        return None
    if any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def divisor_idempotent(f, g):
    """The idempotent of Z[X]/(f) vanishing mod g and 1 mod f/g, as an
    integer coordinate vector on the power basis: s*g mod f for the
    Bezout cofactor s of s*g + t*(f/g) = 1."""
    f = qp(f)
    g = qp(g)
    h = qp_divmod(f, g)[0]
    d, s, _ = qp_xgcd(g, h)
    if d != [Fraction(1)]:
        raise AssertionError("divisor and cofactor are not coprime")
    e = qp_divmod(qp_mul(s, g), f)[1]
    n = len(f) - 1
    out = []
    for k in range(n):
        c = e[k] if k < len(e) else Fraction(0)
        if c.denominator != 1:
            raise AssertionError("divisor does not give an integral idempotent")
        out.append(int(c))
    return out


# ---------------------------------------------------------------------------
# rational linear systems by Gauss-Jordan elimination over Fractions

def fraction_gauss_jordan(rows, ncols):
    """(rows, pivot columns): Gauss-Jordan over Q on the first ``ncols``
    columns, pivoting on the first row from the current one down with a
    nonzero entry; pivot rows are scaled to 1."""
    a = [[Fraction(e) for e in r] for r in rows]
    nr = len(a)
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [e / p for e in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [e - f * g for e, g in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    return a, piv_cols


def fraction_echelon(rows, ncols):
    """Forward elimination over Q on the first ``ncols`` columns, with the
    pivots of ``fraction_gauss_jordan``: each pivot row is subtracted
    from the rows below it only, and no row is scaled."""
    a = [[Fraction(e) for e in r] for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [e - f * g for e, g in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return a


def fraction_solve(rows, vec):
    """The solution of rows * x = vec with the unknowns off the pivot
    columns zero, or None."""
    nc = len(rows[0])
    a, piv_cols = fraction_gauss_jordan([list(r) + [v] for r, v in zip(rows, vec)], nc)
    if any(r[nc] != 0 for r in a[len(piv_cols):]):
        return None
    x = [Fraction(0)] * nc
    for r, c in zip(a, piv_cols):
        x[c] = r[nc]
    return x


def fraction_inverse(rows):
    """Inverse as Fraction rows; ValueError if singular."""
    n = len(rows)
    a, piv_cols = fraction_gauss_jordan(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)], n)
    if len(piv_cols) < n:
        raise ValueError("matrix is singular")
    return [r[n:] for r in a]


def split_projections(dec):
    """(pi1, pi2) of a decomposition, formed from its record: section
    times projection, onto the subalgebra without nilpotents, and N times
    nil_coords, onto the nilradical."""
    return (dec.section.mul(dec.projection),
            RatMatrix(dec.algebra.dim, dec.nil_basis).mul(dec.nil_coords))


def two_inverse_maps(dec):
    """(projection, section, nil_coords) of a decomposition by two
    fraction-free inverses: that of [1, alpha, ..., alpha^(q-1) | N], whose
    rows :q give the coordinates along the powers of alpha and rows q:
    those along N, and that of phi, whose column j stacks the powers a^j
    of the components' generators (a polynomial of degree < q in alpha to
    its component coordinates)."""
    E, nil = dec.algebra, dec.nil_basis
    n = E.dim
    q = n - len(nil)
    powers = [E.one]
    for _ in range(q - 1):
        powers.append(E.mul(powers[-1], dec.alpha))
    power_mat = RatMatrix(n, powers)
    full_inv = RatMatrix(n, powers + nil).inverse()
    top = full_inv.row_block(0, q)
    blocks = [[] for _ in range(q)]
    for K in dec.components:
        cur, a = K.one(), K.gen()
        for col in blocks:
            col.extend(cur)
            cur = K.mul(cur, a)
    phi = RatMatrix(q, blocks)
    return phi.mul(top), power_mat.mul(phi.inverse()), full_inv.row_block(q, n)


def incremental_minimal_polynomial(alg, x):
    """Monic minimal polynomial of x in a Q-algebra: one solve of the
    powers 1, x, ..., x^(k-1) against x^k over Fractions for k = 1, 2, ...
    until one has a solution."""
    n = alg.dim
    powers = [alg.one]
    cur = alg.one
    for _ in range(n + 1):
        cur = alg.mul(cur, x)
        sol = fraction_solve([[p[i] for p in powers] for i in range(n)], cur)
        if sol is not None:
            return qp([-c for c in sol] + [1])
        powers.append(cur)
    raise AssertionError("no dependence among the first dim + 1 powers")


# ---------------------------------------------------------------------------
# Kronecker factorization (independent of Zassenhaus)

def _int_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _divisors_signed(n):
    n = abs(n)
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out.extend([d, -d])
    return out


def kronecker_factor(f):
    """Irreducible factors of a primitive squarefree integer polynomial,
    by interpolation through divisors of sample values.  Exponential;
    keep the degree small."""
    from itertools import product

    f = list(f)
    n = len(f) - 1
    if n <= 1:
        return [f]
    half = n // 2
    for d in range(1, half + 1):
        xs = list(range(d + 1))
        vals = [_int_eval(f, x) for x in xs]
        if any(v == 0 for v in vals):
            # integer root: split off the linear factor
            r = next(x for x, v in zip(xs, vals) if v == 0)
            quo = qp_divmod(qp(f), qp([-r, 1]))[0]
            assert all(c.denominator == 1 for c in quo)
            return sorted(
                kronecker_factor([-r, 1]) + kronecker_factor([int(c) for c in quo]),
                key=lambda h: (len(h), tuple(h)),
            )
        for choice in product(*[_divisors_signed(v) for v in vals]):
            cand = _lagrange_int(xs, choice)
            if cand is None or len(cand) - 1 != d:
                continue
            quo, rem = qp_divmod(qp(f), qp(cand))
            if rem or any(c.denominator != 1 for c in quo):
                continue
            return sorted(
                kronecker_factor(cand) + kronecker_factor([int(c) for c in quo]),
                key=lambda h: (len(h), tuple(h)),
            )
    return [f]


def _lagrange_int(xs, ys):
    out = [Fraction(0)]
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(yi)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i != j:
                num = _poly_mul_frac(num, [Fraction(-xj), Fraction(1)])
                den *= xi - xj
        scaled = [c / den for c in num]
        out = _poly_add_frac(out, scaled)
    while out and not out[-1]:
        out.pop()
    if not out or any(c.denominator != 1 for c in out):
        return None
    return [int(c) for c in out]


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add_frac(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


# ---------------------------------------------------------------------------
# Zassenhaus on every input (no rational-root step)

def zassenhaus_factor_squarefree_z(f):
    """Irreducible factors of a primitive squarefree f in Z[X], deg >= 1,
    by the library's earlier route: Berlekamp mod the least good prime on
    all of f, Hensel lift past twice a Mignotte-style bound, then subset
    recombination by increasing subset size, with no rational-root step.
    Primitive factors with positive leading coefficient, sorted."""
    from itertools import combinations
    from math import isqrt

    from ordroots.polyfactor import (
        _good_primes, fp_factor_squarefree, hensel_lift, ip_divmod, ip_primitive,
        ip_trunc_sym)

    n = len(f) - 1
    if n == 1:
        return [ip_primitive(f)[1]]
    p = next(_good_primes(f))
    modular = fp_factor_squarefree(f, p)
    if len(modular) == 1:
        return [ip_primitive(f)[1]]
    maxc = max(abs(c) for c in f)
    bound = (isqrt(n + 1) + 1) * (1 << n) * maxc * abs(f[-1])
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    lifted = hensel_lift(p, f, modular, k)
    pk = p ** k
    remaining = list(range(len(lifted)))
    cur = list(f)
    out = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for subset in combinations(remaining, size):
            prod = ip_trunc_sym([cur[-1]], pk)
            for i in subset:
                prod = ip_trunc_sym(qp_mul(prod, lifted[i]), pk)
            cand = ip_primitive(prod)[1]
            qr = ip_divmod(cur, cand)
            if qr is not None and not qr[1]:
                out.append(cand)
                cur = qr[0]
                remaining = [i for i in remaining if i not in subset]
                hit = True
                break
        if not hit:
            size += 1
    if len(cur) > 1:
        out.append(ip_primitive(cur)[1])
    return sorted(out, key=lambda h: (len(h), tuple(h)))


# ---------------------------------------------------------------------------
# Yun's squarefree decomposition

def yun_squarefree(f):
    """Yun decomposition of monic f over Q, the library's earlier route
    to multiplicities: [(g_i, i)] with f = prod g_i^i, the g_i monic,
    squarefree and pairwise coprime."""
    from ordroots.polyfactor import qp_degree, qp_deriv, qp_sub

    out = []
    df = qp_deriv(f)
    u = fraction_gcd(f, df)
    v = qp_divmod(f, u)[0]
    w = qp_divmod(df, u)[0]
    i = 1
    while qp_degree(v) > 0:
        h = qp_sub(w, qp_deriv(v))
        a = fraction_gcd(v, h)
        if qp_degree(a) > 0:
            out.append((a, i))
        v = qp_divmod(v, a)[0]
        w = qp_divmod(h, a)[0]
        i += 1
    return out


# ---------------------------------------------------------------------------
# dense structure tables: the reference for the library's sparse cells

def dense_table(table):
    """The dense form t[i][j][k] of a ring's sparse table."""
    n = len(table)
    return [[cell_coords(cell, n) for cell in row] for row in table]


def dense_table_mul(table, x, y):
    """x * y on a dense table, walking every entry of every cell."""
    out = [0] * len(table)
    for i, a in enumerate(x):
        if a:
            ti = table[i]
            for j, b in enumerate(y):
                if b:
                    ab = a * b
                    for k, c in enumerate(ti[j]):
                        if c:
                            out[k] += ab * c
    return out


def dense_table_mul_basis(table, x, j):
    """x * e_j on a dense table."""
    out = [0] * len(table)
    for i, a in enumerate(x):
        if a:
            for k, c in enumerate(table[i][j]):
                if c:
                    out[k] += a * c
    return out


def dense_check_table(table, normalize=lambda v: v):
    """Raise AlgebraError unless a dense table is commutative and
    associative on basis elements, normalizing only products that differ
    raw."""
    n = len(table)
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise AlgebraError(
                    f"multiplication not commutative at basis pair ({i}, {j})"
                )
    for i in range(n):
        for j in range(n):
            for k in range(i, n):
                left = dense_table_mul_basis(table, table[i][j], k)
                right = dense_table_mul_basis(table, table[j][k], i)
                if left != right and normalize(left) != normalize(right):
                    raise AlgebraError(
                        f"multiplication not associative at triple ({i}, {j}, {k})"
                    )


# ---------------------------------------------------------------------------
# product orders and suborders

def product_order(tables):
    """Order structure of a direct product, from the factors' tables."""
    sizes = [len(t) for t in tables]
    n = sum(sizes)
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for t_idx, t in enumerate(tables):
        o = offs[t_idx]
        s = sizes[t_idx]
        for i in range(s):
            for j in range(s):
                for k in range(s):
                    table[o + i][o + j][o + k] = int(t[i][j][k])
    return Order(table)


def group_ring(*ns):
    """Z[C_n1 x ... x C_nk] from its table e_g e_h = e_(g+h)."""
    from itertools import product

    elems = list(product(*(range(n) for n in ns)))
    index = {g: i for i, g in enumerate(elems)}
    table = [[[0] * len(elems) for _ in elems] for _ in elems]
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            table[i][j][index[tuple((a + b) % n for a, b, n in zip(g, h, ns))]] = 1
    return Order(table)


def split_poly(roots):
    """prod (X - a) over the roots, lowest coefficient first."""
    f = [1]
    for a in roots:
        f = qp_mul(f, [-a, 1])
    return f


def split_root_images(ctx):
    """The image a_i of X in each component of Z[X]/prod (X - a_k), in the
    components' order."""
    x = [0] * ctx.order.rank
    x[1] = 1
    return list(ctx.to_ambient(x))


def suborder(big: Order, lattice_cols) -> Order:
    """Order on a full-rank multiplicatively closed sublattice containing 1."""
    n = big.rank
    lat = Lattice(n, [list(c) for c in lattice_cols])
    assert lat.rank == n, "suborder lattice must have full rank"
    assert lat.contains(list(big.one)), "suborder must contain 1"
    basis = [lat.basis.col(j) for j in range(n)]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = big.mul(basis[i], basis[j])
            coords = lat.coords([int(c) for c in prod])
            assert coords is not None, "sublattice not multiplicatively closed"
            row.append(coords)
        table.append(row)
    return Order(table)


def scalar_suborder(big: Order, m: int) -> Order:
    """Z*1 + m*big."""
    cols = [list(big.one)] + [
        [m * int(i == j) for i in range(big.rank)] for j in range(big.rank)
    ]
    return suborder(big, cols)


def diagonal_congruence_suborder(big: Order, copies: int, m: int) -> Order:
    """{(x_1..x_k) in big^k : x_i = x_j mod m}."""
    prod = product_order([dense_table(big.algebra.table)] * copies)
    n = big.rank
    cols = []
    for j in range(n):
        col = []
        for _ in range(copies):
            col.extend(int(i == j) for i in range(n))
        cols.append(col)
    for c in range(copies):
        for j in range(n):
            col = [0] * (n * copies)
            col[c * n + j] = m
            cols.append(col)
    return suborder(prod, cols)


# ---------------------------------------------------------------------------
# randomly presented finite abelian groups

def quotient_group(rel_cols):
    """Presentation of Z^k / <rel_cols> with identity-map dlog."""
    from ordroots.abgroup import EffPresentation, GroupOps

    k = len(rel_cols[0]) if rel_cols else 1
    lat = Lattice(k, rel_cols)
    assert lat.rank == k

    def mul(a, b):
        return tuple(lat.reduce([x + y for x, y in zip(a, b)]))

    def power(a, e):
        return tuple(lat.reduce([e * x for x in a]))

    zero = tuple(lat.reduce([0] * k))
    ops = GroupOps(mul=mul, power=power, identity=zero)
    gens = tuple(tuple(lat.reduce([int(i == j) for i in range(k)])) for j in range(k))

    def dlog(g):
        if len(g) != k:
            return None
        return list(g)

    rels = tuple(tuple(c) for c in lat.basis.cols)
    return EffPresentation(ops=ops, gens=gens, rels=rels, dlog=dlog), lat


def random_presented_group(rng, max_order=2000):
    k = rng.randint(1, 4)
    diag = []
    left = max_order
    for _ in range(k):
        d = rng.randint(1, min(12, max(1, left)))
        diag.append(d)
        left //= max(1, d)
    cols = [[diag[j] if i == j else 0 for i in range(k)] for j in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = rng.randint(-2, 2)
            cols[i] = [a + c * b for a, b in zip(cols[i], cols[j])]
    return quotient_group(cols)


def fold_product(ops, elems, exps):
    """prod x^e as the left fold from the identity: one product per
    factor, exponent zero included."""
    acc = ops.identity
    for x, e in zip(elems, exps):
        acc = ops.mul(acc, ops.power(x, e))
    return acc


def product_inv(ring, u):
    """u^-1 in a product of number fields, one NumberField.inv per block."""
    return ring.from_blocks([K.inv(ring.block(u, i)) for i, K in enumerate(ring.fields)])


def product_power(ring, u, e):
    """u^e in a product of number fields by square-and-multiply, a
    negative e through the blockwise inverse."""
    from ordroots.abgroup import power

    return power(ring.mul, lambda x: product_inv(ring, x), ring.one(), u, e)


# ---------------------------------------------------------------------------
# brute-force group machinery

def cyclic_dlog(mul, one, gen, order, x):
    """Least a in [0, order) with one * gen^a == x, or None."""
    acc = one
    for a in range(order):
        if acc == x:
            return a
        acc = mul(acc, gen)
    return None


def cyclic_order(mul, one, x, bound):
    """Multiplicative order of x if at most bound, else None."""
    a = cyclic_dlog(mul, x, x, bound, one)
    return None if a is None else a + 1


def cyclic_powers(mul, one, gen):
    """[1, gen, gen^2, ...] up to the first power equal to 1."""
    out = [one]
    acc = gen
    while acc != one:
        out.append(acc)
        acc = mul(acc, gen)
    return out


def brute_closure(mul, identity, gens):
    """All products of the generators (and their powers), as a set."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def schreier_kernel(mul, identity, targets, normalize=None):
    """(reachable set, preimage dict, kernel lattice) of the map
    Z^targets -> G by breadth-first search with Schreier relations.

    ``normalize`` maps an element to a coset label; with the default
    identity map the kernel is that of the plain evaluation map, with a
    coset normalizer it is the kernel modulo the normalizing subgroup.
    """
    if normalize is None:
        normalize = lambda x: x
    k = len(targets)
    start = normalize(identity)
    pre = {start: [0] * k}
    frontier = [(identity, start)]
    rels = []
    reach = {start}
    while frontier:
        nxt = []
        for elem, label in frontier:
            base = pre[label]
            for i, t in enumerate(targets):
                y = mul(elem, t)
                ylabel = normalize(y)
                word = list(base)
                word[i] += 1
                if ylabel in pre:
                    rels.append([a - b for a, b in zip(word, pre[ylabel])])
                else:
                    pre[ylabel] = word
                    reach.add(ylabel)
                    nxt.append((y, ylabel))
        frontier = nxt
    return reach, pre, Lattice(k, rels)


def brute_force_torsion_in_order(ctx):
    """Enumerate the residue-product torsion and keep what lies in the order."""
    from itertools import product as iproduct

    lists = []
    for i, K in enumerate(ctx.dec.components):
        # the residue group's order v, generated by zeta^(w / v)
        v = len(ctx.residue_torsion(i))
        zeta, w = K.torsion_generator()
        theta = K.pow(zeta, w // v)
        elems = []
        acc = K.one()
        for _ in range(v):
            elems.append(acc)
            acc = K.mul(acc, theta)
        lists.append(elems)
    out = set()
    for combo in iproduct(*lists):
        v = ctx.ambient.from_blocks(list(combo))
        coords = ctx.from_ambient(v)
        if coords is not None:
            out.add(tuple(coords))
    return out


def sweep_torsion_generator(K):
    """(zeta, w) by the cyclotomic sweep: search K for roots of Phi_d for
    every d <= 2 deg^2 with phi(d) <= deg.  w is the largest d with a root
    and zeta the least root of Phi_w.  Slow beyond degree 4."""
    from ordroots.numfield import nfp_from_qp
    from ordroots.polyfactor import cyclotomic, euler_phi

    n = K.deg
    found = {1: [K.one()]}
    for d in range(2, 2 * n * n + 1):
        if euler_phi(d) > n:
            continue
        roots = full_trager_roots(nfp_from_qp(cyclotomic(d), K), K)
        if roots:
            found[d] = roots
    w = max(found)
    # the orders present are exactly the divisors of w
    assert sorted(found) == [d for d in range(1, w + 1) if w % d == 0]
    assert sum(len(found[d]) for d in found) == w
    return min(found[w]), w


def all_pairs_mu_c_p(ctx, p):
    """Sorted element list of the p-power torsion of the image of C in the
    product over each component of the graph mod p, by enumerating all
    pairs: the group over vertices m_1 < ... < m_j is every pair of an
    element over m_1 ... m_(j-1) and a p-power root of unity of residue
    m_j whose concatenation lies in the image of C."""
    from ordroots.ordercore import build_saturation, graph_mod_p

    c_order = build_saturation(ctx, p).c_order
    out = []
    for comp in graph_mod_p(ctx, p).components:
        comp = sorted(comp)
        elems = [()]
        for j, m in enumerate(comp):
            K = ctx.dec.components[m]
            # the residue torsion has order v, generated by zeta^(w / v);
            # its p-part has order p^k, generated by zeta^(w / p^k)
            v = len(ctx.residue_torsion(m))
            pk = 1
            while v % (pk * p) == 0:
                pk *= p
            zeta, w = K.torsion_generator()
            theta = K.pow(zeta, w // pk)
            image = c_order.image_in(comp[:j + 1])
            elems = [a + b for a in elems for b in cyclic_powers(K.mul, K.one(), theta)
                     if image.contains(a + b)]
        out.append(sorted(elems))
    return out


def quotient_coset_normalizer(rel_lattice, modulo_vectors):
    """Coset labels in Z^k/(rel + <modulo>) for groups presented as
    Z^k modulo a relation lattice, via canonical lattice reduction."""
    big = Lattice(
        rel_lattice.dim,
        [list(c) for c in rel_lattice.basis.cols] + [list(v) for v in modulo_vectors],
    )

    def norm(x):
        return tuple(big.reduce(list(x)))

    return norm


# ---------------------------------------------------------------------------
# references that redo the linear algebra on every call


def rescan_pivot(col):
    """Pivot row of a nonzero HNF column, by scanning it."""
    return next(i for i, e in enumerate(col) if e)


def rescan_reduce(lat, vec):
    """Lattice.reduce, rescanning every basis column for its pivot."""
    v = list(vec)
    for c in lat.basis.cols:
        r = rescan_pivot(c)
        q = v[r] // c[r]
        v = [a - q * b for a, b in zip(v, c)]
    return v


def rescan_coords(lat, vec):
    """Lattice.coords, rescanning every basis column for its pivot."""
    v = list(vec)
    out = []
    for c in lat.basis.cols:
        r = rescan_pivot(c)
        if v[r] % c[r]:
            return None
        q = v[r] // c[r]
        out.append(q)
        v = [a - q * b for a, b in zip(v, c)]
    return out if not any(v) else None


def rescan_solve_int(m, vec):
    """One integer solution of m*x = vec from a fresh Hermite form h = m*u,
    rescanning its columns for pivots; None if there is none."""
    from ordroots.linalg import hnf

    h, u = hnf(m)
    v = list(vec)
    x = [0] * m.ncols
    for c, uc in zip(h.cols, u.cols):
        if not any(c):
            break
        r = rescan_pivot(c)
        if v[r] % c[r]:
            return None
        q = v[r] // c[r]
        v = [a - q * b for a, b in zip(v, c)]
        x = [a + q * b for a, b in zip(x, uc)]
    return x if not any(v) else None


def unit_inverse(ring, a):
    """b with a*b = 1 in a finite ring, or None if a is not a unit: one
    integer solve of a*y = 1 modulo the relation lattice."""
    from ordroots.linalg import IntMatrix, solve_int

    table = dense_table(ring.table)
    cols = [dense_table_mul_basis(table, a, j) for j in range(ring.ngens)]
    sol = solve_int(IntMatrix(ring.ngens, cols).hstack(ring.rel.basis), list(ring.one))
    return None if sol is None else ring.reduce(sol[: ring.ngens])


def ring_power(ring, a, e):
    """a^e in a finite ring by square-and-multiply, a negative e through
    the general unit inverse."""
    from ordroots.abgroup import power

    def inv(x):
        y = unit_inverse(ring, x)
        if y is None:
            raise ArithmeticError("element is not a unit")
        return y

    return power(ring.mul, inv, ring.one, a, e)


def resolving_unipotent_dlog(filtration, x, start_level=0):
    """unipotent_dlog that builds and solves each level's matrix afresh and
    divides off (1+b)^m by square-and-multiply through the general unit
    inverse."""
    from ordroots.linalg import IntMatrix, solve_int

    ring = filtration.ring
    levels = filtration.levels[start_level:]
    out = []
    cur = tuple(x)
    for li, (_, bs) in enumerate(levels):
        nxt = levels[li + 1][0].lattice if li + 1 < len(levels) else ring.rel
        bmat = IntMatrix(ring.ngens, [list(b) for b in bs])
        ms = solve_int(bmat.hstack(nxt.basis), list(cur))[: len(bs)]
        out.extend(ms)
        unit = ring.add(ring.one, cur)
        for b, m in zip(bs, ms):
            unit = ring.mul(unit, ring_power(ring, ring.add(ring.one, b), -m))
        cur = ring.sub(unit, ring.one)
    assert cur == ring.zero()
    return out


def solver_layer_generators(ring, big, small):
    """Lift a Smith-form generating set of big/small into the ring, each
    lift u^-1 e_t solved against a Hermite form of the Smith transform u."""
    from ordroots.linalg import IntMatrix, IntSolver, snf

    coords = []
    for c in small.lattice.basis.cols:
        x = big.lattice.coords(c)
        if x is None:
            raise AssertionError("small ideal is not inside the big one")
        coords.append(x)
    m = IntMatrix(big.lattice.rank, coords)
    d, u, _ = snf(m)
    u_solver = IntSolver(u)
    out = []
    for t in range(big.lattice.rank):
        dt = d.entry(t, t) if t < min(d.nrows, d.ncols) else 0
        if dt == 1:
            continue
        x = u_solver.solve([int(i == t) for i in range(big.lattice.rank)])
        if x is None:
            raise AssertionError("Smith transform is not unimodular")
        out.append(ring.reduce(big.lattice.element(x)))
    return out


def preimage_unipotent_relations(filtration):
    """unipotent_relations with each level's additive relations taken as
    a stacked preimage of the next ideal, a Hermite form of its own."""
    from ordroots.finitering import RingIdeal, unipotent_dlog
    from ordroots.linalg import IntMatrix, preimage_lattice

    ring = filtration.ring
    levels = filtration.levels
    nlev = len(levels)
    rels_tail = []  # relations over generators of levels >= j
    for j in range(nlev - 1, -1, -1):
        ideal, bs = levels[j]
        nxt = levels[j + 1][0] if j + 1 < nlev else RingIdeal.zero(ring)
        bmat = IntMatrix(ring.ngens, [list(b) for b in bs])
        addrel = preimage_lattice(bmat, nxt.lattice)
        tail_len = sum(len(levels[t][1]) for t in range(j + 1, nlev))
        new_rels = []
        for n in addrel.basis.cols:
            z = ring.sub(filtration.layer_product(j, n, ring.one), ring.one)
            if not tail_len and z != ring.zero():
                raise AssertionError("last-level relation does not multiply to 1")
            ms = unipotent_dlog(filtration, z, start_level=j + 1) if tail_len else []
            new_rels.append(list(n) + [-m for m in ms])
        for r in rels_tail:
            new_rels.append([0] * len(bs) + r)
        rels_tail = new_rels
    return rels_tail


def check_layers_against_references(ring, ideal):
    """Assert that each level's generators and the relations of 1 + I
    equal those of the earlier eliminations: a solve against the Smith
    transform u, and a stacked preimage of the next ideal."""
    from ordroots.finitering import (
        RingIdeal, _layer_generators, filtration_generators, unipotent_relations)

    filt = filtration_generators(ring, ideal, Lattice.zero(ring.ngens))
    smaller = [big for big, _ in filt.levels[1:]] + [RingIdeal.zero(ring)]
    for (big, bs), small in zip(filt.levels, smaller):
        assert bs == _layer_generators(ring, big.lattice, small.lattice) == solver_layer_generators(
            ring, big, small)
    assert unipotent_relations(filt) == preimage_unipotent_relations(filt)


# ---------------------------------------------------------------------------
# the component graph as sums of component kernels


def component_kernel(emb, i):
    """{x in Z^rank : component i of (basis * x) = 0}, in basis coords."""
    from ordroots.linalg import kernel_int

    lo, hi = emb.ambient.offsets[i], emb.ambient.offsets[i + 1]
    return kernel_int(RatMatrix(hi - lo, [b[lo:hi] for b in emb.basis]).num)


def kernel_sum_weights(emb):
    """Graph weights as the index [D : ker_i + ker_j] in D's own
    coordinates, the pivot product of a rank-n Hermite form of the two
    component kernels' bases, checked lower triangular with positive
    pivots."""
    from ordroots.linalg import sum_lattices

    ncomp = len(emb.ambient.fields)
    kers = [component_kernel(emb, i) for i in range(ncomp)]
    weights = {}
    for i in range(ncomp):
        for j in range(i + 1, ncomp):
            s = sum_lattices(kers[i], kers[j])
            assert s.pivots == list(range(emb.rank)) and s.pivot_product > 0
            weights[(i, j)] = s.pivot_product
    return weights


# ---------------------------------------------------------------------------
# references for the conductor descent


def stacked_conductor(ctx, mu_c):
    """(conductor in C coordinates, conductor in separable-part
    coordinates) as one stacked congruence: x is in the conductor iff
    x * b_j lies in the separable part for every basis element b_j of C,
    written as the preimage of a d^2-dimensional block lattice under the
    d^2 x d matrix that stacks the multiplication-by-b_j matrices.  The
    separable-part coordinates go through the ambient Fraction vectors."""
    from ordroots.linalg import IntMatrix, preimage_lattice

    c_order = mu_c.tower.c_order
    sep = ctx.sep_order
    d = c_order.rank
    a_in_c = Lattice(d, [c_order.coords(b) for b in sep.basis])
    table = c_order.mult_table()
    stacked_cols = []
    for i in range(d):
        col = []
        for j in range(d):
            col.extend(table[i][j])
        stacked_cols.append(col)
    block_cols = []
    for j in range(d):
        for c in a_in_c.basis.cols:
            col = [0] * (d * d)
            col[j * d:(j + 1) * d] = c
            block_cols.append(col)
    ff = preimage_lattice(IntMatrix(d * d, stacked_cols), Lattice(d * d, block_cols))
    ff_in_a = Lattice(d, [sep.coords(c_order.element(c)) for c in ff.basis.cols])
    return ff, ff_in_a


def intersected_conductor(ctx, mu_c):
    """The conductor in C coordinates as A cut by the intersection of
    the preimages of A under multiplication by each b_r whose row
    carries a Hermite pivot of A above 1: one preimage of A per such b_r
    and one intersection folding each in."""
    from functools import reduce

    from ordroots.linalg import IntMatrix, intersect_lattices, preimage_lattice

    c_order = mu_c.tower.c_order
    d = c_order.rank
    a_in_c = Lattice(d, [c_order.coords(b) for b in ctx.sep_order.basis])
    table = c_order.mult_table()
    return reduce(intersect_lattices, (
        preimage_lattice(IntMatrix(d, [table[i][r] for i in range(d)]), a_in_c)
        for c, r in zip(a_in_c.basis.cols, a_in_c.pivots) if c[r] > 1), a_in_c)


def subgroup_psi_kernel(cond):
    """psi_kernel through a presentation of all of 1 + I: the units of a
    filtration of I' of its own, each dlogged in 1 + I, and the kernel
    of Z^M -> 1+I modulo their subgroup, from every relation among the
    zetas and those units projected onto the zetas."""
    from ordroots.abgroup import kernel_mod_subgroup
    from ordroots.finitering import filtration_generators, unipotent_presentation

    ring = cond.ring_c
    pres = unipotent_presentation(ring, cond.ideal_i)
    sub = filtration_generators(ring, cond.ideal_i_sub, Lattice.zero(ring.ngens))
    return kernel_mod_subgroup(pres, cond.zetas, [u for units in sub.units for u in units])


def two_ring_psi_kernel(ctx, mu_c):
    """psi_kernel through a second finite ring: A/ff built in A's
    coordinates, I' = I meet A/ff as the preimage of I under the
    embedding of A into C, a full unipotent presentation of 1 + I' in
    A/ff, and its generators mapped back into C/ff."""
    from ordroots.abgroup import kernel_mod_subgroup
    from ordroots.finitering import RingIdeal, unipotent_presentation
    from ordroots.linalg import IntMatrix, preimage_lattice
    from ordroots.rou import conductor

    cond = conductor(ctx, mu_c)
    c_order = mu_c.tower.c_order
    embed = IntMatrix(c_order.rank, [c_order.coords(b) for b in ctx.sep_order.basis])
    ring_a = ctx.sep_order.finite_quotient(preimage_lattice(embed, cond.conductor_in_c))
    ideal_i_sub = RingIdeal(ring_a, preimage_lattice(embed, cond.ideal_i.lattice))
    ring_c = cond.ring_c
    pres = unipotent_presentation(ring_c, cond.ideal_i)
    sub_pres = unipotent_presentation(ring_a, ideal_i_sub)
    modulo = [ring_c.reduce(embed.apply(list(g))) for g in sub_pres.gens]
    return kernel_mod_subgroup(pres, cond.zetas, modulo)


def full_descent_generators(ctx, p):
    """mu_a_p_generators with the whole descent at every prime: C rebuilt
    as t B + A_sep (t = [B : A_sep] over its p-part) with its table from
    ambient products, even where it is the separable part, and the
    kernel of Z^M -> (1+I)/(1+I') from psi_kernel(conductor(...)), even
    where the conductor is C and the finite ring has one element."""
    from dataclasses import replace

    from ordroots.ordercore import EmbeddedOrder, mu_c_p_presentation
    from ordroots.rou import conductor, psi_kernel

    mu_c = mu_c_p_presentation(ctx, p)
    if all(rel[k] == 1 for k, rel in enumerate(mu_c.pres.rels)):
        return []
    t = ctx.index_b_over_sep
    while t % p == 0:
        t //= p
    c_order = EmbeddedOrder(ctx.ambient, [[e * t for e in b] for b in ctx.b_order.basis]
                            + [list(b) for b in ctx.sep_order.basis])
    c_order.mult_table()
    assert c_order.basis == mu_c.tower.c_order.basis
    mu_c = replace(mu_c, tower=replace(mu_c.tower, c_order=c_order))
    out = []
    for u in psi_kernel(conductor(ctx, mu_c)):
        coords = ctx.from_ambient(mu_c.pres.evaluate(u))
        assert coords is not None
        out.append(tuple(coords))
    return out


def fixpoint_ideal(ring, elems):
    """Lattice of the ideal generated by ``elems`` in a finite ring: start
    from the relations and the elements, and add the products with the
    ring's generators that fall outside until none does."""
    table = dense_table(ring.table)
    lat = Lattice(ring.ngens, [list(c) for c in ring.rel.basis.cols] + [list(e) for e in elems])
    while True:
        extra = [v for b in lat.basis.cols for j in range(ring.ngens)
                 for v in [dense_table_mul_basis(table, b, j)] if not lat.contains(v)]
        if not extra:
            return lat
        lat = Lattice(ring.ngens, [list(c) for c in lat.basis.cols] + extra)


# ---------------------------------------------------------------------------
# references for the normal-form kernels and the lattice operations: Hermite
# and Smith forms that update separate transform matrices beside the
# matrix, and lattice operations that take a kernel, project it and
# rebuild a lattice, each a Hermite form of its own


def _reference_submul(dst, src, q, start):
    # dst -= q * src, from index `start` on
    for i in range(start, len(dst)):
        s = src[i]
        if s:
            dst[i] -= q * s


def reference_hnf_cols(cols, nrows):
    """Column-style Hermite normal form.

    Returns (h, u) as column lists with h = m*u, u unimodular.  Pivot
    rows strictly increase left to right, pivots are positive, entries
    left of a pivot in its row lie in [0, pivot), and zero columns are
    trailing.
    """
    ncols = len(cols)
    m = [list(c) for c in cols]
    u = [[0] * ncols for _ in range(ncols)]
    for j in range(ncols):
        u[j][j] = 1
    c = 0
    for r in range(nrows):
        if c == ncols:
            break
        placed = False
        while True:
            piv = -1
            best = 0
            for j in range(c, ncols):
                v = m[j][r]
                if v:
                    av = -v if v < 0 else v
                    if piv < 0 or av < best:
                        piv = j
                        best = av
            if piv < 0:
                break
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                u[c], u[piv] = u[piv], u[c]
            a = m[c][r]
            clear = True
            for j in range(c + 1, ncols):
                v = m[j][r]
                if v:
                    q = v // a
                    if q:
                        _reference_submul(m[j], m[c], q, r)
                        _reference_submul(u[j], u[c], q, 0)
                    if m[j][r]:
                        clear = False
            if clear:
                placed = True
                break
        if not placed:
            continue
        if m[c][r] < 0:
            col = m[c]
            for i in range(r, nrows):
                col[i] = -col[i]
            col = u[c]
            for i in range(ncols):
                col[i] = -col[i]
        p = m[c][r]
        for j in range(c):
            v = m[j][r]
            if v:
                q = v // p
                if q:
                    _reference_submul(m[j], m[c], q, r)
                    _reference_submul(u[j], u[c], q, 0)
        c += 1
    return m, u


def _reference_snf_clear_at(m, u, v, t, nrows, ncols):
    # Euclidean cross reduction: repeatedly move the smallest entry of
    # row t / column t to the diagonal and reduce the rest modulo it.
    while True:
        pj = -1
        pi = -1
        best = 0
        for j in range(t, ncols):
            val = m[j][t]
            if val:
                av = -val if val < 0 else val
                if pj < 0 or av < best:
                    pj, pi, best = j, t, av
        for i in range(t + 1, nrows):
            val = m[t][i]
            if val:
                av = -val if val < 0 else val
                if pj < 0 or av < best:
                    pj, pi, best = t, i, av
        if pj < 0:
            return
        if pj != t:
            m[t], m[pj] = m[pj], m[t]
            v[t], v[pj] = v[pj], v[t]
        elif pi != t:
            for j in range(ncols):
                col = m[j]
                col[t], col[pi] = col[pi], col[t]
            for j in range(nrows):
                col = u[j]
                col[t], col[pi] = col[pi], col[t]
        a = m[t][t]
        clear = True
        for j in range(t + 1, ncols):
            val = m[j][t]
            if val:
                q = val // a
                if q:
                    _reference_submul(m[j], m[t], q, t)
                    _reference_submul(v[j], v[t], q, 0)
                if m[j][t]:
                    clear = False
        for i in range(t + 1, nrows):
            val = m[t][i]
            if val:
                q = val // a
                if q:
                    for j in range(t, ncols):
                        s = m[j][t]
                        if s:
                            m[j][i] -= q * s
                    for j in range(nrows):
                        s = u[j][t]
                        if s:
                            u[j][i] -= q * s
                if m[t][i]:
                    clear = False
        if clear:
            return


def reference_snf_cols(cols, nrows):
    """Smith normal form: returns (d, u, v) with d = u*m*v diagonal,
    nonnegative, each diagonal entry dividing the next; u, v unimodular.

    All three are column lists; u is nrows x nrows, v is ncols x ncols.
    """
    ncols = len(cols)
    m = [list(c) for c in cols]
    u = [[0] * nrows for _ in range(nrows)]
    for j in range(nrows):
        u[j][j] = 1
    v = [[0] * ncols for _ in range(ncols)]
    for j in range(ncols):
        v[j][j] = 1
    rank = 0
    for t in range(min(nrows, ncols)):
        found = False
        for j in range(t, ncols):
            for i in range(t, nrows):
                if m[j][i] != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        if j != t:
            m[t], m[j] = m[j], m[t]
            v[t], v[j] = v[j], v[t]
        if i != t:
            for j2 in range(ncols):
                col = m[j2]
                col[t], col[i] = col[i], col[t]
            for j2 in range(nrows):
                col = u[j2]
                col[t], col[i] = col[i], col[t]
        # clearing the cross may refill entries below/right through row
        # operations, so iterate until the cross stays clear
        _reference_snf_clear_at(m, u, v, t, nrows, ncols)
        if m[t][t] < 0:
            col = m[t]
            for i2 in range(nrows):
                col[i2] = -col[i2]
            col = v[t]
            for i2 in range(ncols):
                col[i2] = -col[i2]
        rank = t + 1
    # enforce the divisibility chain with adjacent gcd/lcm repairs
    guard = rank * rank + 10
    changed = True
    while changed:
        changed = False
        guard -= 1
        if guard < 0:
            raise AssertionError("smith divisibility repair failed to converge")
        for i in range(rank - 1):
            a = m[i][i]
            b = m[i + 1][i + 1]
            if b % a != 0:
                # col_i += col_{i+1}, then re-clear the 2x2 block
                _reference_submul(m[i], m[i + 1], -1, 0)
                _reference_submul(v[i], v[i + 1], -1, 0)
                _reference_snf_clear_at(m, u, v, i, nrows, ncols)
                if m[i][i] < 0:
                    col = m[i]
                    for r2 in range(nrows):
                        col[r2] = -col[r2]
                    col = v[i]
                    for r2 in range(ncols):
                        col[r2] = -col[r2]
                if m[i + 1][i + 1] < 0:
                    col = m[i + 1]
                    for r2 in range(nrows):
                        col[r2] = -col[r2]
                    col = v[i + 1]
                    for r2 in range(ncols):
                        col[r2] = -col[r2]
                changed = True
    return m, u, v


def reference_lattice(dim, gens):
    """The lattice spanned by ``gens``, through the reference Hermite form."""
    h, _ = reference_hnf_cols([list(g) for g in gens], dim)
    return Lattice._from_hnf(dim, [c for c in h if any(c)])


def reference_kernel_int(m):
    """Saturated integer kernel {x in Z^ncols : m*x = 0}."""
    h, u = reference_hnf_cols(m.cols, m.nrows)
    gens = [u[j] for j in range(len(h)) if not any(h[j])]
    return reference_lattice(m.ncols, gens)


def reference_intersect_lattices(a, b):
    """Intersection, via the kernel of the stacked-basis matrix."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    stacked = a.basis.hstack(b.basis.scaled(-1))
    ker = reference_kernel_int(stacked)
    ra = a.rank
    gens = [a.basis.apply(c[:ra]) for c in ker.basis.cols]
    return reference_lattice(a.dim, gens)


def reference_preimage_lattice(m, lat):
    """{x in Z^ncols : m*x in lat}."""
    from ordroots.linalg import IntMatrix

    if m.nrows != lat.dim:
        raise ValueError("shape mismatch")
    # reducing the columns of m modulo lat keeps entries small and does
    # not change the preimage
    red = IntMatrix(m.nrows, [lat.reduce(c) for c in m.cols])
    stacked = red.hstack(lat.basis.scaled(-1))
    ker = reference_kernel_int(stacked)
    gens = [c[: m.ncols] for c in ker.basis.cols]
    return reference_lattice(m.ncols, gens)


def reference_subgroup_relations(pres, logs):
    """Generators of all relations among targets with the dlogs ``logs``:
    the projection of the kernel of [h | -rho], where h writes each target
    over the presentation's generators and rho spans its relations."""
    from ordroots.linalg import IntMatrix

    nt = len(logs)
    h = IntMatrix(len(pres.gens), logs)
    rho = IntMatrix(len(pres.gens), [[-e for e in r] for r in pres.rels])
    ker = reference_kernel_int(h.hstack(rho))
    proj = [c[:nt] for c in ker.basis.cols]
    return [list(c) for c in reference_lattice(nt, proj).basis.cols]


@st.composite
def int_matrices(draw, max_dim=7, span=999, nrows=None):
    """(nrows, cols): integer matrices of 0 to max_dim rows (unless nrows
    is given) and columns, so wide and tall ones, with entries up to span
    in size: dense, zero, mostly zero, or of low rank (a product through
    an inner dimension below both sides)."""
    if nrows is None:
        nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["dense", "zero", "sparse", "low-rank"]))
    if kind == "zero":
        return nrows, [[0] * nrows for _ in range(ncols)]
    if kind == "low-rank":
        inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        small = st.integers(-9, 9)
        a = draw(st.lists(st.lists(small, min_size=nrows, max_size=nrows),
                          min_size=inner, max_size=inner))
        b = draw(st.lists(st.lists(small, min_size=inner, max_size=inner),
                          min_size=ncols, max_size=ncols))
        return nrows, [[sum(x * ak[i] for x, ak in zip(bj, a)) for i in range(nrows)]
                       for bj in b]
    entry = st.integers(-span, span)
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), entry)
    return nrows, draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows),
                                min_size=ncols, max_size=ncols))


# ---------------------------------------------------------------------------
# observing the library from outside


def spy_everywhere(monkeypatch, name):
    """Replace the ``ordroots.linalg`` function ``name`` in every ordroots
    module that binds it by a wrapper that records its calls; returns the
    list of recorded argument tuples."""
    import ordroots

    calls = []
    real = getattr(sys.modules["ordroots.linalg"], name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith(ordroots.__name__) and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


def run_python(flags, code):
    """Run ``code`` in a fresh interpreter with ``flags`` (["-O"] strips
    assert statements) and the package on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + flags + ["-c", code],
                          capture_output=True, text=True, env=env)
