"""Univariate polynomial arithmetic and factorization over Q.

Polynomials are coefficient lists, lowest degree first, with no trailing
zeros, whose coefficients are the library's rational coordinates
(``linalg.ratio``), so an integer polynomial is an int list.  Z[X] and
Q[X] share one dense arithmetic: ``qp_add``, ``qp_sub``, ``qp_mul`` and
``qp_deriv`` keep integer input integer, and ``fp_*`` reduces their
results mod p.  Division over Q runs on integer numerators, so a monic
integer divisor keeps integer input integer; ``ip_divmod`` divides over
Z.  Factorization over Q runs on the primitive part of the input in
Z[X], end to end.  Rational roots come first: each root of f modulo the
least good small prime is Newton-lifted past twice the Cauchy root
bound and kept when its linear factor divides exactly over Z (von zur
Gathen and Gerhard, *Modern Computer Algebra*, 9.4 and 15).  Zassenhaus
(Cohen, *A Course in Computational Algebraic Number Theory*, 3.5) then
runs on the cofactor only: Berlekamp factorization of the part with no
root modulo that prime, quadratic Hensel lifting past a Mignotte-style
coefficient bound, and subset recombination in increasing subset size
with exact integer trial division.  A polynomial that splits over Q
takes no Berlekamp and no Hensel lift.

A gcd over Q has one implementation, Brown's modular gcd of the integer
numerators (``_ip_gcd``): images mod large primes, combined by CRT and
accepted only when they divide both inputs exactly over Z.
Squarefreeness has one analysis, ``squarefree_part``: f divided exactly
by its gcd with the derivative, in integers, so one constant image at
the first prime proves f squarefree.  ``factor_q`` factors the radical
and reads each multiplicity off exact divisions of the primitive part.

Multiplication by g on Q[X]/(f), f monic, has one implementation,
``qp_mul_columns``: the columns g X^j mod f, shifted on integer
numerators.  The number-field products, inverses and norms and the
tables of Z[X]/(f) read it, and a resultant is lc(f)^deg g times its
determinant, one fraction-free elimination (``linalg.det_int``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, isqrt, prod

from .abgroup import power
from .linalg import RatMatrix, _num, clear_vector, det_int, ratio


# ---------------------------------------------------------------------------
# polynomials over Q

def _strip(f):
    while f and not f[-1]:
        f.pop()
    return f


def _canonical(f):
    """f with each integral Fraction made an int and no trailing zeros."""
    return _strip([c if type(c) is int else _num(c) for c in f])


def qp(f):
    """A sequence of ints and Fractions as a polynomial over Q, in
    canonical coefficients; TypeError for any other coefficient."""
    if not all(isinstance(c, (int, Fraction)) for c in f):
        raise TypeError("polynomial coefficients must be ints or Fractions")
    return _canonical(f)


def qp_degree(f):
    return len(f) - 1


def qp_add(f, g):
    return _canonical([a + b for a, b in zip_longest(f, g, fillvalue=0)])


def qp_sub(f, g):
    return _canonical([a - b for a, b in zip_longest(f, g, fillvalue=0)])


def qp_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _canonical(out)


def qp_scale(f, c):
    if not c:
        return []
    return [_num(a * c) for a in f]


def qp_divmod(f, g):
    """(q, r) with f = q*g + r and deg r < deg g over Q: lc(G)^e F = Q G + R
    divides exactly in integers, F = df*f and G = dg*g the numerators and
    e = len(q), and each coefficient is one ``ratio``."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    F, df = clear_vector(f)
    G, dg = clear_vector(g)
    m, lc = len(G) - 1, G[-1]
    e = max(0, len(F) - m)
    scale = lc ** e
    F = [c * scale for c in F]
    q = [0] * e
    for k in reversed(range(e)):
        c = F[k + m] // lc
        if c:
            q[k] = c
            for i, b in enumerate(G):
                F[k + i] -= c * b
    den = df * scale
    return _strip([ratio(c * dg, den) for c in q]), _strip([ratio(c, den) for c in F[:m]])


def qp_monic(f):
    """f / lc(f) in canonical coefficients."""
    if not f:
        return []
    nums, _ = clear_vector(f)
    return [ratio(c, nums[-1]) for c in nums]


def qp_gcd(f, g):
    """The monic gcd over Q, [] when f and g are both zero: the modular
    gcd of their integer numerators (``_ip_gcd``), made monic."""
    if not f or not g:
        return qp_monic(f or g)
    return qp_monic(_ip_gcd(clear_vector(f)[0], clear_vector(g)[0])[0])


def qp_xgcd(f, g):
    """(d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = qp_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, qp_sub(s0, qp_mul(q, s1))
        t0, t1 = t1, qp_sub(t0, qp_mul(q, t1))
    if not r0:
        return [], s0, t0
    inv = ratio(r0[-1].denominator, r0[-1].numerator)
    return qp_monic(r0), qp_scale(s0, inv), qp_scale(t0, inv)


def qp_deriv(f):
    return _strip([i * c for i, c in enumerate(f)][1:])


def squarefree_part(f):
    """Monic radical f / gcd(f, f') of the nonzero f over Q, divided
    exactly on the integer numerators of f."""
    f = clear_vector(qp(f))[0]
    if not f:
        raise ValueError("zero polynomial")
    return qp_monic(_ip_gcd(f, qp_deriv(f))[1]) if len(f) > 1 else [1]


# ---------------------------------------------------------------------------
# integer polynomials

def ip_primitive(f):
    """(content, primitive part with positive leading coefficient)."""
    if not f:
        return 0, []
    g = gcd(*f)
    if f[-1] < 0:
        g = -g
    return g, [c // g for c in f]


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


def ip_divmod(f, g):
    """(q, r) with f = q*g + r and deg r < deg g over Z, or None when the
    quotient over Q is not integral: lc(g) fails to divide the leading
    coefficient of some partial remainder.  Never None for a monic g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    lc = g[-1]
    while len(f) >= len(g) and f:
        c, rem = divmod(f[-1], lc)
        if rem:
            return None
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] -= c * b
        _strip(f)
    return _strip(q), f


# ---------------------------------------------------------------------------
# polynomials over Z/p

def fp_norm(f, p):
    return _strip([c % p for c in f])


def fp_mul(f, g, p):
    return fp_norm(qp_mul(f, g), p)


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
    small primes: those the Zassenhaus driver picks and the residue
    primes of ``NumberField.residue_bound``.  Returns the monic
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
                g = fp_gcd(rem, qp_sub(poly, [c]), p)
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

def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step.

    Given f = g*h (mod m) and s*g + t*h = 1 (mod m) with h monic,
    deg s < deg h, deg t < deg g, returns (G, H, S, T) satisfying the
    same relations mod m**2 with G = g and H = h (mod m), H monic.
    """
    mm = m * m
    e = ip_trunc_sym(qp_sub(f, qp_mul(g, h)), mm)
    q, r = ip_divmod(qp_mul(s, e), h)
    q = ip_trunc_sym(q, mm)
    r = ip_trunc_sym(r, mm)
    G = ip_trunc_sym(qp_add(g, qp_add(qp_mul(t, e), qp_mul(q, g))), mm)
    H = ip_trunc_sym(qp_add(h, r), mm)
    b = ip_trunc_sym(qp_sub(qp_add(qp_mul(s, G), qp_mul(t, H)), [1]), mm)
    c2, d = ip_divmod(qp_mul(s, b), H)
    c2 = ip_trunc_sym(c2, mm)
    d = ip_trunc_sym(d, mm)
    S = ip_trunc_sym(qp_sub(s, d), mm)
    T = ip_trunc_sym(qp_sub(qp_sub(t, qp_mul(t, b)), qp_mul(c2, G)), mm)
    return G, H, S, T


def _fp_xgcd(f, g, p):
    r0, r1 = fp_norm(f, p), fp_norm(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_norm(qp_sub(s0, qp_mul(q, s1)), p)
        t0, t1 = t1, fp_norm(qp_sub(t0, qp_mul(q, t1)), p)
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in r0],
            [c * inv % p for c in s0],
            [c * inv % p for c in t0])


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
# modular gcd and Zassenhaus factorization over Z

# the first prime of the modular gcd, large so that it seldom divides a resultant
_GCD_PRIME = 2 ** 31 - 1


def _ip_gcd(f, g):
    """(h, f / h, g / h) for nonzero integer polynomials f and g, h their
    primitive gcd with lc h > 0 (Brown 1971).

    For p not dividing b = gcd(lc f, lc g), h mod p keeps its degree (lc h
    divides b) and divides gcd(f, g) mod p, so an image of higher degree
    than the least seen is unlucky.  The images of least degree, scaled to
    leading coefficient b, are combined by CRT, and the primitive part of
    the combination in the symmetric range is accepted when it divides f
    and g exactly: a common divisor of the least modular degree is h.  A
    constant image ends the search at once.
    """
    b = gcd(f[-1], g[-1])
    p, image, m = _GCD_PRIME, None, 1
    while True:
        if b % p:
            v = fp_gcd(f, g, p)
            if len(v) == 1:
                return [1], f, g
            v = [c * b % p for c in v]
            if image is None or len(v) < len(image):
                image, m = v, p
            elif len(v) == len(image):
                u = pow(m, -1, p)
                image = [a + m * ((c - a) * u % p) for a, c in zip(image, v)]
                m *= p
            if len(v) == len(image):  # p's image was kept
                h = ip_primitive(ip_trunc_sym(image, m))[1]
                qf, qg = ip_divmod(f, h), ip_divmod(g, h)
                if qf and qg and not qf[1] and not qg[1]:
                    return h, qf[0], qg[0]
        p = _next_prime(p)


def _good_primes(f):
    """The primes p with p not dividing lc(f) and f squarefree mod p, in
    increasing order."""
    p = 2
    while True:
        if f[-1] % p and qp_degree(fp_gcd(f, qp_deriv(f), p)) == 0:
            yield p
        p = _next_prime(p)


def _next_prime(p):
    q = p + 1
    while not _is_prime(q):
        q += 1
    return q


# Miller-Rabin on these bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _eval_mod(f, x, m):
    """(f(x) mod m, f'(x) mod m) in one Horner pass."""
    v = d = 0
    for c in reversed(f):
        d = (d * x + v) % m
        v = (v * x + c) % m
    return v, d


def _lift_root(f, r, p, bound):
    """(root, m): the simple root r of f mod p lifted by Newton's
    iteration r <- r - f(r)/f'(r) to a root mod m = p^(2^i) > bound."""
    m = p
    while m <= bound:
        m *= m
        v, d = _eval_mod(f, r, m)
        r = (r - v * pow(d, -1, m)) % m
    return r, m


def _recombine(p, f, modular):
    """Irreducible factors of f, squarefree mod p with the monic modular
    factors ``modular``: Hensel lift past twice the factor coefficient
    bound, then subset recombination by increasing subset size."""
    n = qp_degree(f)
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
    if qp_degree(cur) >= 1:
        out.append(ip_primitive(cur)[1])
    return out


def factor_squarefree_z(f):
    """Irreducible factors of a primitive squarefree f in Z[X], deg >= 1.

    Rational roots first: each root r of f modulo the least good prime p
    is simple, so Newton's iteration lifts it to a p-adic root of f mod
    m = p^(2^i) > 2(|lc f| + max_{i<n} |f_i|).  A rational root a/b has
    b | lc f, and Cauchy's bound |a/b| < 1 + max_{i<n} |f_i / lc f|
    gives |lc f * a/b| < |lc f| + max_{i<n} |f_i|, so lc f * a/b is
    lc f * r in the symmetric range mod m, and the candidate is the
    primitive part of lc f * X - that integer.  It is a factor only when
    it divides the cofactor exactly over Z.  A root whose candidate fails
    lifts to an irrational p-adic root and stays the modular factor X - r.
    Berlekamp then splits only the part of f mod p with no root in F_p,
    and with two or more modular factors left, Zassenhaus (Hensel lift and
    subset recombination) runs on the cofactor.  So a polynomial that
    splits over Q takes no Berlekamp and no Hensel lift.  Returned factors
    are primitive with positive leading coefficient, sorted.
    """
    if qp_degree(f) == 1:
        return [ip_primitive(f)[1]]
    p = next(_good_primes(f))
    lc = f[-1]
    bound = 2 * (abs(lc) + max(abs(c) for c in f[:-1]))
    fp = fp_norm(f, p)
    roots = [r for r in range(p) if not _eval_mod(fp, r, p)[0]]
    cur = list(f)
    out = []
    modular = []
    for r in roots:
        root, m = _lift_root(f, r, p, bound)
        a = lc * root % m
        cand = ip_primitive([m - a if 2 * a > m else -a, lc])[1]
        qr = ip_divmod(cur, cand)
        if qr is not None and not qr[1]:
            out.append(cand)
            cur = qr[0]
        else:
            modular.append([-r % p, 1])
    if len(roots) < qp_degree(f):  # the part of f mod p with no root
        linear = [1]
        for r in roots:
            linear = fp_mul(linear, [-r, 1], p)
        modular += fp_factor_squarefree(fp_divmod(fp, linear, p)[0], p)
    if len(modular) > 1:
        out += _recombine(p, cur, modular)
    elif qp_degree(cur) >= 1:
        out.append(ip_primitive(cur)[1])
    return sorted(out, key=lambda h: (len(h), tuple(h)))


def _multiplicity(f, g):
    """The number of exact divisions of f by g over Z."""
    e = 0
    qr = ip_divmod(f, g)
    while qr is not None and not qr[1]:
        e += 1
        qr = ip_divmod(qr[0], g)
    return e


def factor_q(f):
    """Factor f over Q.

    Returns (constant, [(monic irreducible factor, multiplicity), ...])
    with constant * prod(factor^multiplicity) = f, factors sorted by
    (degree, coefficient tuple).  The work runs on the primitive part of
    f in Z[X]: its radical (``squarefree_part``) is factored, and when
    the radical has lower degree, a factor's multiplicity is the number
    of its exact divisions of the primitive part.  The primitive
    irreducible factors, raised to their multiplicities, must multiply
    back to the primitive part, which checks the multiplicities too.
    """
    f = qp(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    prim = ip_primitive(clear_vector(f)[0])[1]
    rad = ip_primitive(clear_vector(squarefree_part(prim))[0])[1]
    facs = factor_squarefree_z(rad) if qp_degree(rad) > 0 else []
    facs = [(fac, 1 if len(rad) == len(prim) else _multiplicity(prim, fac)) for fac in facs]
    check = [1]
    for fac, mult in facs:
        for _ in range(mult):
            check = qp_mul(check, fac)
    if check != prim:
        raise AssertionError("factorization does not multiply back")
    out = sorted(((qp_monic(fac), mult) for fac, mult in facs),
                 key=lambda fm: (qp_degree(fm[0]), tuple(fm[0]), fm[1]))
    return f[-1], out


def is_irreducible_q(f):
    f = qp(f)
    if qp_degree(f) < 1:
        return False
    if qp_degree(f) == 1:
        return True
    _, factors = factor_q(f)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# cyclotomic polynomials

_cyclotomic_cache = {}


def _valuation(n, ell):
    """The exponent of the prime ell in the nonzero integer n."""
    k = 0
    while n % ell == 0:
        n //= ell
        k += 1
    return k


def _factor_small(n):
    """{p: k} with n the product of the p^k, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            out[p] = _valuation(n, p)
            n //= p ** out[p]
        p += 1
    if n > 1:
        out[n] = 1
    return out


def euler_phi(n):
    if n < 1:
        raise ValueError("phi of nonpositive argument")
    return prod((p - 1) * p ** (k - 1) for p, k in _factor_small(n).items())


def cyclotomic(d):
    """The d-th cyclotomic polynomial, a copy of one cached int list."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    if d not in _cyclotomic_cache:
        acc = [-1] + [0] * (d - 1) + [1]  # X^d - 1
        for e in range(1, d):
            if d % e == 0:
                acc = qp_divmod(acc, cyclotomic(e))[0]
        _cyclotomic_cache[d] = acc
    return list(_cyclotomic_cache[d])


# ---------------------------------------------------------------------------
# multiplication matrices and resultants

def qp_mul_columns(g, f, k):
    """The k columns g X^j mod f, j < k, of a monic f of degree d, each d
    canonical coordinates; for k = d, the matrix of multiplication by g
    on Q[X]/(f) in the power basis.  The shifts run on integer
    numerators: with f = F / phi, a column N / D times X is
    (phi X N - N_(d-1) F) / (phi D), X^d reduced by F's lower terms."""
    F, phi = clear_vector(f)
    d = len(F) - 1
    r = qp_divmod(g, f)[1]
    nums, den = clear_vector(r + [0] * (d - len(r)))
    cols = []
    for j in range(k):
        if j:
            top = nums[-1]
            nums = [phi * a - top * t for a, t in zip([0] + nums[:-1], F)]
            den *= phi
        cols.append([ratio(c, den) for c in nums])
    return cols


def resultant(f, g):
    """Resultant of rational polynomials, as a coordinate (``ratio``):
    lc(f)^deg g times the determinant of multiplication by g on
    Q[X]/(f), taken with ``det_int`` on its integer numerators over one
    denominator."""
    f, g = qp(f), qp(g)
    if not f or not g:
        return 0
    d, e = qp_degree(f), qp_degree(g)
    m = RatMatrix(d, qp_mul_columns(g, qp_monic(f), d))
    lc = Fraction(f[-1])
    return ratio(lc.numerator ** e * det_int(m.num), lc.denominator ** e * m.den ** d)
