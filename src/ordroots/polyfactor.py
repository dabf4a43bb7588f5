"""Univariate polynomial arithmetic and factorization over Q.

Polynomials are coefficient lists, lowest degree first, with no trailing
zeros.  ``qp_*`` functions work over Q (Fraction coefficients), ``ip_*``
over Z, ``fp_*`` over Z/p.  Factorization over Q is Zassenhaus: Yun
squarefree decomposition, deterministic Berlekamp factorization modulo a
good small prime, quadratic Hensel lifting past a Mignotte-style
coefficient bound, and subset recombination in increasing subset size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from .abgroup import power


# ---------------------------------------------------------------------------
# polynomials over Q

def _strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def qp(f):
    """Normalize a coefficient sequence into a Fraction list."""
    return _strip([Fraction(c) for c in f])


def qp_degree(f):
    return len(f) - 1


def qp_add(f, g):
    n = max(len(f), len(g))
    out = [Fraction(0)] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return _strip(out)


def qp_neg(f):
    return [-c for c in f]


def qp_sub(f, g):
    return qp_add(f, qp_neg(g))


def qp_mul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _strip(out)


def qp_scale(f, c):
    c = Fraction(c)
    if not c:
        return []
    return [a * c for a in f]


def qp_divmod(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    inv = 1 / g[-1]
    while len(f) >= len(g) and f:
        c = f[-1] * inv
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] -= c * b
        _strip(f)
    return _strip(q), f


def qp_monic(f):
    if not f:
        return []
    return [c / f[-1] for c in f]


def qp_gcd(f, g):
    while g:
        f, g = g, qp_divmod(f, g)[1]
    return qp_monic(f)


def qp_xgcd(f, g):
    """(d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = qp_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, qp_sub(s0, qp_mul(q, s1))
        t0, t1 = t1, qp_sub(t0, qp_mul(q, t1))
    if not r0:
        return [], s0, t0
    lc = r0[-1]
    return qp_monic(r0), qp_scale(s0, Fraction(1) / lc), qp_scale(t0, Fraction(1) / lc)


def qp_deriv(f):
    return _strip([i * c for i, c in enumerate(f)][1:])


def squarefree_part(f):
    """Monic radical f / gcd(f, f')."""
    f = qp(f)
    if not f:
        raise ValueError("zero polynomial")
    g = qp_gcd(f, qp_deriv(f))
    return qp_monic(qp_divmod(f, g)[0])


def _yun_squarefree(f):
    """Yun decomposition of monic f: [(g_i, i)] with f = prod g_i^i,
    the g_i monic, squarefree, pairwise coprime."""
    out = []
    df = qp_deriv(f)
    u = qp_gcd(f, df)
    v = qp_divmod(f, u)[0]
    w = qp_divmod(df, u)[0]
    i = 1
    while qp_degree(v) > 0:
        h = qp_sub(w, qp_deriv(v))
        a = qp_gcd(v, h)
        if qp_degree(a) > 0:
            out.append((a, i))
        v = qp_divmod(v, a)[0]
        w = qp_divmod(h, a)[0]
        i += 1
    return out


# ---------------------------------------------------------------------------
# integer polynomials

def ip_content(f):
    g = 0
    for c in f:
        g = gcd(g, c)
    return g


def ip_primitive(f):
    """(content, primitive part with positive leading coefficient)."""
    if not f:
        return 0, []
    g = ip_content(f)
    if f[-1] < 0:
        g = -g
    return g, [c // g for c in f]


def ip_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _strip(out)


def ip_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def ip_trunc_sym(f, m):
    """Coefficients reduced into the symmetric range (-m/2, m/2]."""
    out = []
    half = m // 2
    for c in f:
        r = c % m
        if r > half:
            r -= m
        out.append(r)
    return _strip(out)


def ip_divides(g, f):
    """Exact quotient f/g over Z, or None."""
    if not g:
        return None
    q, r = qp_divmod(qp(f), qp(g))
    if r:
        return None
    if any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def qp_clear_denoms(f):
    """(integer poly, den) with f = poly/den."""
    den = 1
    for c in f:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in f], den


# ---------------------------------------------------------------------------
# polynomials over Z/p

def fp_norm(f, p):
    return _strip([c % p for c in f])


def fp_sub_const(f, c, p):
    out = list(f) if f else [0]
    out[0] = (out[0] - c) % p
    return _strip(out)


def fp_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _strip([c % p for c in out])


def fp_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError
    f = [c % p for c in f]
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g) and _strip(f):
        c = f[-1] * inv % p
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - c * b) % p
        _strip(f)
    return _strip(q), _strip(f)


def fp_gcd(f, g, p):
    f, g = fp_norm(f, p), fp_norm(g, p)
    while g:
        f, g = g, fp_divmod(f, g, p)[1]
    return fp_monic(f, p)


def fp_monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def fp_deriv(f, p):
    return _strip([i * c % p for i, c in enumerate(f)][1:])


def fp_pow_mod(f, e, m, p):
    def mul_mod(a, b):
        return fp_divmod(fp_mul(a, b, p), m, p)[1]

    return power(mul_mod, None, [1], fp_divmod(f, m, p)[1], e)


def _fp_nullspace(mat, n, p):
    """Basis of the right nullspace of an n x n row-major matrix over F_p."""
    a = [[x % p for x in row] for row in mat]
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for pc, pr in pivots.items():
            v[pc] = (-a[pr][c]) % p
        basis.append(v)
    return basis


def fp_factor_squarefree(f, p):
    """Deterministic Berlekamp factorization of squarefree monic f mod p.

    Splits with gcd(h, v - c) over all c in F_p, so it is only meant for
    the small primes the Zassenhaus driver picks.  Returns the monic
    irreducible factors, sorted by (degree, coefficients).
    """
    f = fp_monic(fp_norm(f, p), p)
    n = qp_degree(f)
    if n <= 1:
        return [f] if n == 1 else []
    xp = fp_pow_mod([0, 1], p, f, p)
    # frob[i] = x^{p*i} mod f, as column i of the Frobenius matrix
    frob_cols = []
    cur = [1]
    for i in range(n):
        col = list(cur) + [0] * (n - len(cur))
        frob_cols.append(col)
        cur = fp_divmod(fp_mul(cur, xp, p), f, p)[1]
    mat = [[(frob_cols[j][i] - (1 if i == j else 0)) % p for j in range(n)]
           for i in range(n)]
    basis = _fp_nullspace(mat, n, p)
    r = len(basis)  # number of irreducible factors
    factors = [f]
    for v in basis:
        if len(factors) >= r:
            break
        poly = _strip([x % p for x in v])
        if qp_degree(poly) < 1:
            continue
        nxt = []
        for h in factors:
            if qp_degree(h) <= 1:
                nxt.append(h)
                continue
            rem = h
            for c in range(p):
                if qp_degree(rem) < 1:
                    break
                g = fp_gcd(rem, fp_sub_const(poly, c, p), p)
                if qp_degree(g) >= 1:
                    nxt.append(g)
                    rem = fp_divmod(rem, g, p)[0]
            if qp_degree(rem) >= 1:
                nxt.append(rem)
        factors = nxt
    if len(factors) != r:
        raise AssertionError("berlekamp split inconsistency")
    return sorted(factors, key=lambda h: (len(h), tuple(h)))


# ---------------------------------------------------------------------------
# Hensel lifting

def _ip_add(f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return _strip(out)


def _ip_sub(f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] -= c
    return _strip(out)


def _ip_divmod_monic(f, g):
    """Integer polynomial division by monic g."""
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and f:
        c = f[-1]
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] -= c * b
        _strip(f)
    return _strip(q), f


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step.

    Given f = g*h (mod m) and s*g + t*h = 1 (mod m) with h monic,
    deg s < deg h, deg t < deg g, returns (G, H, S, T) satisfying the
    same relations mod m**2 with G = g and H = h (mod m), H monic.
    """
    mm = m * m
    e = ip_trunc_sym(_ip_sub(f, ip_mul(g, h)), mm)
    q, r = _ip_divmod_monic(ip_mul(s, e), h)
    q = ip_trunc_sym(q, mm)
    r = ip_trunc_sym(r, mm)
    G = ip_trunc_sym(_ip_add(g, _ip_add(ip_mul(t, e), ip_mul(q, g))), mm)
    H = ip_trunc_sym(_ip_add(h, r), mm)
    b = ip_trunc_sym(_ip_sub(_ip_add(ip_mul(s, G), ip_mul(t, H)), [1]), mm)
    c2, d = _ip_divmod_monic(ip_mul(s, b), H)
    c2 = ip_trunc_sym(c2, mm)
    d = ip_trunc_sym(d, mm)
    S = ip_trunc_sym(_ip_sub(s, d), mm)
    T = ip_trunc_sym(_ip_sub(_ip_sub(t, ip_mul(t, b)), ip_mul(c2, G)), mm)
    return G, H, S, T


def _fp_xgcd(f, g, p):
    r0, r1 = fp_norm(f, p), fp_norm(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _strip([(a - b) % p for a, b in
                             _zip_pad(s0, fp_mul(q, s1, p))])
        t0, t1 = t1, _strip([(a - b) % p for a, b in
                             _zip_pad(t0, fp_mul(q, t1, p))])
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in r0],
            [c * inv % p for c in s0],
            [c * inv % p for c in t0])


def _zip_pad(f, g):
    n = max(len(f), len(g))
    return zip(f + [0] * (n - len(f)), g + [0] * (n - len(g)))


def hensel_lift(p, f, modular_factors, k):
    """Lift monic-ish factorization f = lc(f) * prod(modular_factors) (mod p)
    to the same shape mod p**k.  modular_factors are monic mod p and
    pairwise coprime; f has lc(f) not divisible by p.

    Returns monic integer polynomials mod p**k (symmetric range).
    """
    r = len(modular_factors)
    target = p ** k
    lc = f[-1]
    if r == 1:
        inv = pow(lc % target, -1, target)
        return [ip_trunc_sym([c * inv % target for c in f], target)]
    half = r // 2
    g = [lc % p]
    for fac in modular_factors[:half]:
        g = fp_mul(g, fac, p)
    h = [1]
    for fac in modular_factors[half:]:
        h = fp_mul(h, fac, p)
    _, s, t = _fp_xgcd(g, h, p)
    g = ip_trunc_sym(g, p)
    h = ip_trunc_sym(h, p)
    s = ip_trunc_sym(s, p)
    t = ip_trunc_sym(t, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    g = ip_trunc_sym(g, target)
    h = ip_trunc_sym(h, target)
    return (hensel_lift(p, g, modular_factors[:half], k)
            + hensel_lift(p, h, modular_factors[half:], k))


# ---------------------------------------------------------------------------
# Zassenhaus factorization over Z

def _good_prime(f):
    """Smallest prime p with p not dividing lc(f) and f squarefree mod p."""
    p = 2
    while True:
        if f[-1] % p:
            fp = fp_norm(f, p)
            if qp_degree(fp) == qp_degree(f):
                if qp_degree(fp_gcd(fp, fp_deriv(fp, p), p)) == 0:
                    return p
        p = _next_prime(p)


def _next_prime(p):
    q = p + 1
    while not _is_prime(q):
        q += 1
    return q


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_squarefree_z(f):
    """Irreducible factors of a primitive squarefree f in Z[X], deg >= 1.

    Zassenhaus: Berlekamp mod a good prime, Hensel lift past twice the
    factor coefficient bound, then subset recombination by increasing
    subset size.  Returned factors are primitive with positive leading
    coefficient, sorted.
    """
    n = qp_degree(f)
    if n == 1:
        return [ip_primitive(f)[1]]
    p = _good_prime(f)
    modular = fp_factor_squarefree(f, p)
    if len(modular) == 1:
        return [ip_primitive(f)[1]]
    # bound > max |coefficient| of any factor of f times lc(f)
    # (Mignotte-style: sqrt(n+1) * 2^n * max|f_i| * |lc(f)|)
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
                prod = ip_trunc_sym(ip_mul(prod, lifted[i]), pk)
            cand = ip_primitive(prod)[1]
            quo = ip_divides(cand, cur)
            if quo is not None:
                out.append(cand)
                cur = quo
                remaining = [i for i in remaining if i not in subset]
                hit = True
                break
        if not hit:
            size += 1
    if qp_degree(cur) >= 1:
        out.append(ip_primitive(cur)[1])
    return sorted(out, key=lambda h: (len(h), tuple(h)))


def factor_q(f):
    """Factor f over Q.

    Returns (constant, [(monic irreducible factor, multiplicity), ...])
    with constant * prod(factor^multiplicity) = f, factors sorted by
    (degree, coefficient tuple).
    """
    f = qp(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    const = f[-1]
    monic = qp_monic(f)
    out = []
    for part, mult in _yun_squarefree(monic):
        ipart, _ = qp_clear_denoms(part)
        ipart = ip_primitive(ipart)[1]
        for fac in factor_squarefree_z(ipart):
            out.append((qp_monic(qp(fac)), mult))
    out.sort(key=lambda fm: (qp_degree(fm[0]), tuple(fm[0]), fm[1]))
    check = [Fraction(1)]
    for fac, mult in out:
        for _ in range(mult):
            check = qp_mul(check, fac)
    if qp_scale(check, const) != f:
        raise AssertionError("factorization does not multiply back")
    return const, out


def is_irreducible_q(f):
    f = qp(f)
    if qp_degree(f) < 1:
        return False
    _, factors = factor_q(f)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# cyclotomic polynomials

_cyclotomic_cache = {}


def euler_phi(n):
    if n < 1:
        raise ValueError("phi of nonpositive argument")
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


def cyclotomic(d):
    """The d-th cyclotomic polynomial as a monic Fraction list."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    if d in _cyclotomic_cache:
        return [Fraction(c) for c in _cyclotomic_cache[d]]
    num = [-1] + [0] * (d - 1) + [1]  # X^d - 1
    acc = qp(num)
    for e in range(1, d):
        if d % e == 0:
            acc = qp_divmod(acc, cyclotomic(e))[0]
    _cyclotomic_cache[d] = [int(c) for c in acc]
    return acc


# ---------------------------------------------------------------------------
# resultants

def ip_resultant(f, g):
    """Resultant of integer polynomials by the subresultant PRS."""
    f = _strip([int(c) for c in f])
    g = _strip([int(c) for c in g])
    if not f or not g:
        return 0
    m, n = qp_degree(f), qp_degree(g)
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    s = 1
    if m < n:
        f, g = g, f
        m, n = n, m
        if m % 2 == 1 and n % 2 == 1:
            s = -s
    ca, a = ip_primitive(f)
    cb, b = ip_primitive(g)
    t = ca ** n * cb ** m
    gg = 1
    h = 1
    while True:
        da, db = qp_degree(a), qp_degree(b)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _ip_prem(a, b)
        if not r:
            return 0  # deg(b) >= 1 here, so a common factor exists
        a, b = b, [c // (gg * h ** delta) for c in r]
        gg = a[-1]
        if delta > 0:
            h = gg ** delta // h ** (delta - 1)
        elif delta == 0:
            pass
        if qp_degree(b) == 0:
            break
    da = qp_degree(a)
    res_pp = b[0] ** da // h ** (da - 1)
    return s * t * res_pp


def _ip_prem(f, g):
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g over Z."""
    df, dg = qp_degree(f), qp_degree(g)
    r = list(f)
    lg = g[-1]
    steps = df - dg + 1
    while r and qp_degree(r) >= dg:
        lr = r[-1]
        k = qp_degree(r) - dg
        r = [c * lg for c in r]
        for i, c in enumerate(g):
            r[k + i] -= lr * c
        _strip(r)
        steps -= 1
    if steps > 0 and r:
        mult = lg ** steps
        r = [c * mult for c in r]
    return r


def resultant(f, g):
    """Resultant of rational polynomials (exact Fraction)."""
    f, g = qp(f), qp(g)
    if not f or not g:
        return Fraction(0)
    fi, fd = qp_clear_denoms(f)
    gi, gd = qp_clear_denoms(g)
    r = ip_resultant(fi, gi)
    return Fraction(r, fd ** qp_degree(g) * gd ** qp_degree(f))
