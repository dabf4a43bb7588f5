"""Number fields Q[X]/(m) and polynomial arithmetic over them.

Field elements are coordinate tuples of Fractions in the power basis
1, a, ..., a^(d-1) of the generator a.  Polynomials over a field K are
lists of such tuples, lowest degree first.

Root finding over K goes through the classical norm trick: shift the
argument by an integer multiple of the generator until the norm (a
resultant with the minimal polynomial) is squarefree, factor the norm
over Q, and pull each factor back with a gcd over K.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroup import power
from .polyfactor import (
    cyclotomic,
    euler_phi,
    factor_q,
    is_irreducible_q,
    qp,
    qp_add,
    qp_degree,
    qp_deriv,
    qp_divmod,
    qp_gcd,
    qp_monic,
    qp_mul,
    qp_scale,
    qp_xgcd,
    resultant,
)


class NumberField:
    """Q[X]/(min_poly) with min_poly monic irreducible over Q."""

    def __init__(self, min_poly):
        m = qp_monic(qp(min_poly))
        if qp_degree(m) < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        if not is_irreducible_q(m):
            raise ValueError("minimal polynomial is reducible")
        self.min_poly = tuple(m)
        self.deg = qp_degree(m)
        # powers a^deg .. a^(2*deg-2) reduced, for fast products
        table = []
        cur = list(m[:-1])
        cur = [-c for c in cur]  # a^deg = -(lower terms)
        table.append(tuple(cur))
        for _ in range(self.deg - 2):
            cur = [Fraction(0)] + cur
            lead = cur[self.deg] if len(cur) > self.deg else Fraction(0)
            cur = cur[: self.deg]
            if lead:
                cur = [c + lead * t for c, t in zip(cur, table[0])]
            table.append(tuple(cur))
        self._high_powers = table
        self._torsion = None

    # -- element constructors ------------------------------------------------

    def zero(self):
        return (Fraction(0),) * self.deg

    def one(self):
        return self.from_rational(1)

    def gen(self):
        if self.deg == 1:
            # Q[X]/(X - c): the generator is the rational c
            return (-self.min_poly[0],)
        return tuple(Fraction(int(i == 1)) for i in range(self.deg))

    def from_rational(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.deg - 1)

    def from_poly(self, coeffs):
        """Element from a rational polynomial in the generator (any degree)."""
        r = qp_divmod(qp(coeffs), list(self.min_poly))[1]
        out = [Fraction(0)] * self.deg
        for i, c in enumerate(r):
            out[i] = c
        return tuple(out)

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def mul(self, x, y):
        d = self.deg
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                hp = self._high_powers[k - d]
                for j, t in enumerate(hp):
                    out[j] += c * t
        return tuple(out)

    def inv(self, x):
        fx = list(x)
        while fx and not fx[-1]:
            fx.pop()
        if not fx:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = qp_xgcd(fx, list(self.min_poly))
        if qp_degree(g) != 0:
            raise ArithmeticError("element not invertible (reducible modulus?)")
        return self.from_poly(s)

    def pow(self, x, e):
        return power(self.mul, self.inv, self.one(), x, e)

    def torsion_generator(self):
        """(zeta, w): a generator of the group of roots of unity and its
        order w.  Deterministic: the lexicographically smallest root of
        the w-th cyclotomic polynomial."""
        if self._torsion is None:
            n = self.deg
            found = {1: [self.one()]}
            for d in range(2, 2 * n * n + 1):
                if euler_phi(d) > n:
                    continue
                roots = roots_in_field(nfp_from_qp(cyclotomic(d), self), self)
                if roots:
                    found[d] = roots
            w = max(found)
            # the orders present must be exactly the divisors of w
            assert sorted(found) == [d for d in range(1, w + 1) if w % d == 0]
            assert sum(len(found[d]) for d in found) == w
            zeta = min(found[w])
            self._torsion = (zeta, w)
        return self._torsion

    def __repr__(self):
        return f"NumberField(deg={self.deg}, min_poly={[str(c) for c in self.min_poly]})"


# ---------------------------------------------------------------------------
# polynomials over a number field

def nfp_strip(f):
    while f and not any(f[-1]):
        f.pop()
    return f


def nfp_degree(f):
    return len(f) - 1


def nfp_from_qp(f, K: NumberField):
    return nfp_strip([K.from_rational(c) for c in qp(f)])


def nfp_add(f, g, K):
    n = max(len(f), len(g))
    out = [K.zero()] * n
    for i, c in enumerate(f):
        out[i] = K.add(out[i], c)
    for i, c in enumerate(g):
        out[i] = K.add(out[i], c)
    return nfp_strip(out)


def nfp_mul(f, g, K):
    if not f or not g:
        return []
    out = [K.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if any(a):
            for j, b in enumerate(g):
                if any(b):
                    out[i + j] = K.add(out[i + j], K.mul(a, b))
    return nfp_strip(out)


def nfp_divmod(f, g, K):
    if not g:
        raise ZeroDivisionError
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


def nfp_monic(f, K):
    if not f:
        return []
    inv = K.inv(f[-1])
    return [K.mul(c, inv) for c in f]


def nfp_gcd(f, g, K):
    while g:
        f, g = g, nfp_divmod(f, g, K)[1]
    return nfp_monic(f, K)


def nfp_deriv(f, K):
    return nfp_strip([K.mul(c, K.from_rational(i)) for i, c in enumerate(f)][1:])


def nfp_eval(f, x, K):
    acc = K.zero()
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


def nfp_compose_shift(f, s, K):
    """f(X - s*gen) by Horner."""
    shift = [K.neg(K.mul(K.gen(), K.from_rational(s))), K.one()]
    acc = []
    for c in reversed(f):
        acc = nfp_add(nfp_mul(acc, shift, K), [c], K)
    return acc


def _norm_poly(f, K):
    """Norm of monic f in K[X] down to Q[X]: the resultant of the minimal
    polynomial with f viewed as a bivariate polynomial, computed by
    evaluation at integer points and Lagrange interpolation."""
    d = K.deg
    r = nfp_degree(f)
    npoints = d * r + 1
    xs = []
    k = 0
    while len(xs) < npoints:
        xs.append(k)
        if k > 0 and len(xs) < npoints:
            xs.append(-k)
        k += 1
    m = list(K.min_poly)
    ys = []
    for x0 in xs:
        # f(x0) in K, written as a rational polynomial in the generator
        p = [Fraction(0)] * d
        xp = Fraction(1)
        for c in f:
            for j in range(d):
                p[j] += c[j] * xp
            xp *= x0
        # the minimal polynomial is monic, so the resultant specializes
        ys.append(resultant(m, qp(p)))
    out = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = [Fraction(yi)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = qp_mul(num, [Fraction(-xj), Fraction(1)])
            den *= xi - xj
        out = qp_add(out, qp_scale(num, 1 / den))
    return out


def roots_in_field(f, K: NumberField):
    """All roots in K of a nonzero f in K[X], sorted by coordinates.

    Every returned root is re-verified exactly; for separable f the root
    count is checked against deg f.
    """
    f = nfp_strip(list(f))
    if not f:
        raise ValueError("zero polynomial has no well-defined root set")
    if nfp_degree(f) == 0:
        return []
    fm = nfp_monic(f, K)
    g0 = nfp_gcd(fm, nfp_deriv(fm, K), K)
    separable = nfp_degree(g0) == 0
    fs = nfp_monic(nfp_divmod(fm, g0, K)[0], K)
    if K.deg == 1:
        # ground field: roots come straight from the rational factorization
        roots = []
        _, factors = factor_q([c[0] for c in fs])
        for fac, _ in factors:
            if qp_degree(fac) == 1:
                roots.append((-fac[0],))
    else:
        shift = None
        norm = None
        for s in range(32 * K.deg * nfp_degree(fs) + 8):
            g = nfp_compose_shift(fs, s, K)
            norm = _norm_poly(g, K)
            if qp_degree(qp_gcd(norm, qp_deriv(norm))) == 0:
                shift = s
                break
        assert shift is not None, "no squarefree shift found"
        g = nfp_compose_shift(fs, shift, K)
        _, factors = factor_q(norm)
        roots = []
        for fac, _ in factors:
            piece = nfp_gcd(g, nfp_from_qp(fac, K), K)
            assert nfp_degree(piece) >= 1
            if nfp_degree(piece) == 1:
                r_shifted = K.neg(piece[0])
                root = K.sub(r_shifted, K.mul(K.gen(), K.from_rational(shift)))
                roots.append(root)
    for r in roots:
        assert all(c == 0 for c in nfp_eval(f, r, K)), "root does not verify"
    if separable:
        assert len(roots) <= nfp_degree(f)
    return sorted(roots)
