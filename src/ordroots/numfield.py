"""Number fields Q[X]/(m), their finite products, and polynomial
arithmetic over them.

Field elements are coordinate tuples in the power basis 1, a, ...,
a^(d-1) of the generator a; a coordinate is an int where it is integral
and a Fraction otherwise (``linalg.ratio``).  Products compute on integer
numerators over one denominator: each operand's denominators are cleared
once, the convolution and the reduction by the minimal polynomial run in
integers (the reduced powers a^d, ..., a^(2d-2) are a ``RatMatrix``,
integer columns over one denominator), and each output numerator over
the common denominator becomes one coordinate.  Those powers, field
inverses and norms all read one matrix, the columns x a^j of
multiplication by x (``polyfactor.qp_mul_columns``).  Polynomials over a
field K are lists of such tuples, lowest degree first.  An element of a
product of fields is the concatenation of its components; a product of cyclic
torsion groups is presented there (``ProductRing.cyclic_presentation``),
each factor by its power list 1, g, ..., g^(w-1), checked once and keyed
on the element tuples themselves, so a discrete log is a projection and
one dictionary lookup per factor.  A product of members given by their
logs, a power among them, is one entry per factor at the exponent sum
modulo w, with no field product; a non-member has no power there.

Root finding over K goes through the classical norm trick (Trager
1976): shift the argument by an integer multiple of the generator until
the norm (a resultant with the minimal polynomial) is squarefree, factor
the norm over Q, and pull each factor back with a gcd over K.  Each step
runs once (``roots_in_field``): the shifts of a rational f start at 1,
since its unshifted norm is f^deg K; a squarefree norm proves f
separable, so gcd(f, f') runs only after a norm that is not squarefree;
the norm factors are pairwise coprime, so each but the last is pulled
back by a gcd with the cofactor the earlier pieces leave, and the last
piece is that cofactor; and the pieces are monic, so dividing by them
takes no field inverse.  The norm is interpolated from its values at
integer points on integer numerators over one common denominator, each
value the determinant of the multiplication matrix of f at that point.
A shift is accepted when the norm's radical (``squarefree_part``, one
modular gcd with the derivative) keeps its degree, an exact test, so
the chosen shift is the least squarefree one.  Field inverses solve
x * y = 1 against the multiplication matrix of x with the library's
fraction-free elimination.

The roots of unity of K are found one prime power at a time: a root of
Phi_ell is climbed through roots of X^ell - zeta_(ell^k).  Primes ell are
skipped, and climbs cut short, by a bound read off the residue fields:
the degrees of the factors of the minimal polynomial modulo a few small
primes.

A field is fixed by its monic minimal polynomial, and everything it
builds lazily (the torsion climb and its power table, the residue
bounds) is a function of that polynomial alone.  So the residue fields
that ``decompose`` hands out (``NumberField._of_factor``) come from one
process-wide table keyed on the canonical coefficient tuple of the
factor, least recently used first out beyond ``FIELD_TABLE_SIZE``
fields: each field's torsion is climbed and checked once, when it is
first asked for, and every later order with that field reads it.  The
public constructor builds a fresh field that shares nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm, prod
from typing import List

from .abgroup import EffPresentation, GroupOps, cyclic_relations, power
from .linalg import RatMatrix, _num, clear_vector, ratio, solve_rat
from .polyfactor import (
    _good_primes,
    _next_prime,
    _valuation,
    cyclotomic,
    euler_phi,
    factor_q,
    fp_factor_squarefree,
    is_irreducible_q,
    qp,
    qp_degree,
    qp_divmod,
    qp_monic,
    qp_mul_columns,
    resultant,
    squarefree_part,
)

# residue primes per torsion bound: a few suffice in practice, and each
# costs one Berlekamp factorization of the minimal polynomial
_RESIDUE_PRIMES = 4

# residue fields kept by ``NumberField._of_factor``; a workload of orders
# over a few dozen distinct fields fits with room to spare
FIELD_TABLE_SIZE = 256


class NumberField:
    """Q[X]/(min_poly) with min_poly monic irreducible over Q."""

    def __init__(self, min_poly):
        m = qp_monic(qp(min_poly))
        if qp_degree(m) < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        if not is_irreducible_q(m):
            raise ValueError("minimal polynomial is reducible")
        self._setup(m)

    @staticmethod
    def _of_factor(factor):
        """The field of a monic irreducible factor that ``factor_q`` has
        just returned, with no second factorization.  One field per
        factor, shared by every caller: the factor's coefficients are
        canonical, so equal factors give equal keys, and the field's
        torsion and residue bounds are built and checked once for all
        of them."""
        return _shared_field(tuple(factor))

    def _setup(self, m):
        self.min_poly = tuple(m)
        self.deg = qp_degree(m)
        # a^deg .. a^(2*deg-2) reduced, as integer columns over one
        # denominator, for products on integer numerators
        high = RatMatrix(self.deg, qp_mul_columns([0] * self.deg + [1], m, self.deg - 1))
        self._high_cols, self._high_den = high.num.cols, high.den
        self._torsion_powers = None
        self._residues = None

    # -- element constructors ------------------------------------------------

    def zero(self):
        return (0,) * self.deg

    def one(self):
        return self.from_rational(1)

    def gen(self):
        if self.deg == 1:
            # Q[X]/(X - c): the generator is the rational c
            return (-self.min_poly[0],)
        return tuple(int(i == 1) for i in range(self.deg))

    def from_rational(self, q):
        return (_num(q),) + (0,) * (self.deg - 1)

    def from_poly(self, coeffs):
        """Element from a rational polynomial in the generator (any degree)."""
        r = qp_divmod(qp(coeffs), self.min_poly)[1]
        return tuple(r) + (0,) * (self.deg - len(r))

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y):
        return tuple(_num(a + b) for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(_num(a - b) for a, b in zip(x, y))

    def neg(self, x):
        return tuple(_num(-a) for a in x)

    def mul(self, x, y):
        """x * y on integer numerators: one common denominator per operand,
        integer convolution and reduction, and one ``ratio`` per coordinate."""
        d = self.deg
        if d == 1:
            return (_num(x[0] * y[0]),)
        xn, dx = clear_vector(x)
        yn, dy = clear_vector(y)
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(xn):
            if a:
                for j, b in enumerate(yn):
                    if b:
                        prod[i + j] += a * b
        hd = self._high_den
        out = [c * hd for c in prod[:d]]
        for c, row in zip(prod[d:], self._high_cols):
            if c:
                for j, t in enumerate(row):
                    if t:
                        out[j] += c * t
        den = dx * dy * hd
        return tuple(ratio(c, den) for c in out)

    def inv(self, x):
        """The y with x * y = 1: one fraction-free solve against the
        matrix of multiplication by x, whose columns are x * a^j."""
        if not any(x):
            raise ZeroDivisionError("inverse of zero")
        y = solve_rat(RatMatrix(self.deg, qp_mul_columns(x, self.min_poly, self.deg)),
                      self.one())
        if y is None:
            raise ArithmeticError("element not invertible (reducible modulus?)")
        return tuple(y)

    def pow(self, x, e):
        return power(self.mul, self.inv, self.one(), x, e)

    def residue_bound(self, ell):
        """An upper bound for v_ell(w), w the number of roots of unity in K.

        At a prime p that divides no denominator of the minimal polynomial
        m and keeps m squarefree, the roots of unity of order prime to p
        embed in every residue field F_(p^f) above p, f running over the
        degrees of the irreducible factors of m mod p.  So the prime-to-p
        part of w divides gcd_f(p^f - 1).  The bound is the least ell-adic
        valuation of that gcd over the first few such primes p != ell.
        """
        if self._residues is None:
            ipart, _ = clear_vector(self.min_poly)
            self._residues = [
                (p, _residue_gcd(ipart, p))
                for p in islice(_good_primes(ipart), _RESIDUE_PRIMES + 1)
            ]
        gcds = [g for p, g in self._residues if p != ell][:_RESIDUE_PRIMES]
        return min(_valuation(g, ell) for g in gcds)

    def torsion_generator(self):
        """(zeta, w): a generator of the group of roots of unity and its
        order w.  Deterministic: the lexicographically smallest root of
        the w-th cyclotomic polynomial.

        w is found one prime at a time.  For each prime ell with
        ell - 1 | deg and a nonzero residue bound, a root of Phi_ell is
        climbed through roots of X^ell - zeta_(ell^k) until there is none,
        the degree of Q(zeta_(ell^(k+1))) does not divide deg, or the
        bound is reached.  The product z of the climbed roots has its
        powers 1, z, ..., z^(w-1) multiplied out once and checked: one
        closing product gives z^w = 1, z^(w/ell) != 1 is read off the list
        for every ell | w, and the powers are distinct.  zeta is the least
        primitive power z^j0, and its powers are the same list reindexed,
        zeta^i = z^(i*j0 mod w) (``torsion_powers``).  That list is all
        the field keeps: zeta is its entry 1 and w its length.
        """
        if self._torsion_powers is None:
            n = self.deg
            one = self.one()
            z, w = one, 1
            primes = []  # the primes dividing w
            ell = 2
            while ell <= n + 1:
                if n % (ell - 1) == 0:
                    bound = self.residue_bound(ell)
                    root, k, stop = _climb(self, ell, bound)
                    if k > bound:
                        raise AssertionError("climb passed its residue bound")
                    if stop not in ("no root", "degree") and k != bound:
                        raise AssertionError("climb stopped early without a reason")
                    if k:
                        primes.append(ell)
                        z, w = self.mul(z, root), w * ell ** k
                ell = _next_prime(ell)
            # prime-to-p part of w divides every residue gcd
            for p, g in self._residues:
                if g % (w // p ** _valuation(w, p)):
                    raise AssertionError("torsion order does not divide a residue gcd")
            # Q(zeta_w) is a subfield of K
            if n % euler_phi(w):
                raise AssertionError("Q(zeta_w) is not a subfield")
            # implied by phi(w) | deg, since phi(w) >= sqrt(w/2)
            if w > 2 * n * n:
                raise AssertionError("torsion order exceeds 2 deg^2")
            powers = [one]
            for _ in range(w - 1):
                powers.append(self.mul(powers[-1], z))
            if self.mul(powers[-1], z) != one:
                raise AssertionError("torsion generator power w is not 1")
            # z has exact order w
            for ell in primes:
                if powers[w // ell] == one:
                    raise AssertionError("torsion generator order is too small")
            if len(set(powers)) != w:
                raise AssertionError("torsion powers are not distinct")
            j0 = min((j for j in range(1, w + 1) if gcd(j, w) == 1),
                     key=lambda j: powers[j % w])
            self._torsion_powers = tuple(powers[i * j0 % w] for i in range(w))
        w = len(self._torsion_powers)
        return self._torsion_powers[1 % w], w

    def torsion_powers(self):
        """zeta^0, ..., zeta^(w-1) for (zeta, w) the torsion generator."""
        self.torsion_generator()
        return self._torsion_powers

    def __repr__(self):
        return f"NumberField(deg={self.deg}, min_poly={[str(c) for c in self.min_poly]})"


@lru_cache(maxsize=FIELD_TABLE_SIZE)
def _shared_field(min_poly):
    K = NumberField.__new__(NumberField)
    K._setup(min_poly)
    return K


class ProductRing:
    """Product of number fields; elements are the concatenated coordinate
    tuples of their components."""

    def __init__(self, fields: List[NumberField]):
        self.fields = list(fields)
        self.offsets = [0]
        for K in self.fields:
            self.offsets.append(self.offsets[-1] + K.deg)
        self.dim = self.offsets[-1]

    def block(self, v, i):
        return tuple(v[self.offsets[i]:self.offsets[i + 1]])

    def from_blocks(self, blocks):
        out = []
        for b in blocks:
            out.extend(b)
        return tuple(out)

    def one(self):
        return self.from_blocks([K.one() for K in self.fields])

    def mul(self, u, v):
        return self.from_blocks(
            [K.mul(self.block(u, i), self.block(v, i)) for i, K in enumerate(self.fields)]
        )

    def sub_ring(self, comps) -> "ProductRing":
        return ProductRing([self.fields[i] for i in comps])

    def project(self, v, comps):
        out = []
        for i in comps:
            out.extend(self.block(v, i))
        return tuple(out)

    def cyclic_presentation(self, factors):
        """Presentation of a product of cyclic groups, one per factor.

        A factor is (components, powers 1, g, ..., g^(w-1) of its
        generator in the sub-product ring over those components); the
        factors' component lists partition the components.  The
        generator is 1 on the other components and the relations are the
        cyclic orders.  Each list is checked with w products: it starts
        at 1, its entries are distinct, and each times g = powers[1 % w]
        is the next, the last times g being 1, so w is the exact order.
        The lists are keyed on the power tuples; an int and an equal
        Fraction compare and hash alike, so a coordinate in either form
        finds its entry.  The discrete log projects onto each factor and
        looks the projection up in its list.  A product prod t_j^(u_j)
        of elements with logs a_j (``log_product``) is, per factor, the
        entry powers[sum_j a_j*u_j mod w], with no field product and no
        further dlog: the check gives powers[a]*g = powers[(a+1) mod w],
        so powers[a]*powers[b] = powers[(a+b) mod w].  The power x^e of
        a member is that product of one element; the power raises
        ValueError for a non-member, and the dlog and the power raise it
        for an element of the wrong length.
        """
        covered = sorted(i for comps, _ in factors for i in comps)
        if covered != list(range(len(self.fields))):
            raise ValueError("the factors do not partition the components")
        gens = []
        tables = []  # (components, sub-ring, powers, exponent of each power's key)
        for comps, powers in factors:
            sub = self.sub_ring(comps)
            w = len(powers)
            gen = powers[1 % w]
            if powers[0] != sub.one():
                raise AssertionError("power list does not start at 1")
            index = {x: a for a, x in enumerate(powers)}
            if len(index) != w:
                raise AssertionError("powers are not distinct")
            for a, x in enumerate(powers):
                if sub.mul(x, gen) != powers[(a + 1) % w]:
                    raise AssertionError("powers are not the generator's")
            blocks = [K.one() for K in self.fields]
            for pos, i in enumerate(comps):
                blocks[i] = sub.block(gen, pos)
            gens.append(self.from_blocks(blocks))
            tables.append((comps, sub, powers, index))

        def dlog(gamma):
            if len(gamma) != self.dim:
                raise ValueError("element has the wrong length")
            out = []
            for comps, _, _, index in tables:
                a = index.get(self.project(gamma, comps))
                if a is None:
                    return None
                out.append(a)
            return out

        def log_product(logs, exps):
            blocks = [None] * len(self.fields)
            for k, (comps, sub, powers, _) in enumerate(tables):
                acc = powers[sum(log[k] * e for log, e in zip(logs, exps)) % len(powers)]
                for pos, i in enumerate(comps):
                    blocks[i] = sub.block(acc, pos)
            return self.from_blocks(blocks)

        def group_power(x, e):
            exps = dlog(x)
            if exps is None:
                raise ValueError("element outside the torsion group")
            return log_product([exps], [e])

        ops = GroupOps(mul=self.mul, power=group_power, identity=self.one())
        rels = cyclic_relations([len(powers) for _, powers in factors])
        pres = EffPresentation(ops=ops, gens=tuple(gens), rels=rels, dlog=dlog,
                               log_product=log_product)
        pres.verify_exact()
        return pres


def _residue_gcd(f, p):
    """gcd_f(p^f - 1) over the degrees f of the irreducible factors of the
    squarefree f mod p."""
    return gcd(*(p ** qp_degree(h) - 1 for h in fp_factor_squarefree(f, p)))


def _climb(K, ell, bound):
    """(z, k, stop): z of exact order ell^k in K, climbed from a root of
    Phi_ell through roots of X^ell - z.  stop says why the climb ended:
    "no root" (none of the ell^(k+1)-th roots of unity is in K), "degree"
    (phi(ell^(k+1)) does not divide deg K) or "bound" (k reached it)."""
    z, k = K.one(), 0
    while k < bound:
        if K.deg % euler_phi(ell ** (k + 1)):
            return z, k, "degree"
        if k == 0 and ell == 2:
            roots = [K.from_rational(-1)]
        elif k == 0:
            roots = roots_in_field(nfp_from_qp(cyclotomic(ell), K), K)
        else:
            roots = roots_in_field([K.neg(z)] + [K.zero()] * (ell - 1) + [K.one()], K)
        if not roots:
            return z, k, "no root"
        z, k = roots[0], k + 1
    return z, k, "bound"


# ---------------------------------------------------------------------------
# polynomials over a number field

def nfp_strip(f):
    while f and not any(f[-1]):
        f.pop()
    return f


def nfp_degree(f):
    return len(f) - 1


def nfp_from_qp(f, K: NumberField):
    return [K.from_rational(c) for c in f]


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
    """(q, r) with f = q*g + r and deg r < deg g; a monic g needs no
    field inverse."""
    if not g:
        raise ZeroDivisionError
    inv = None if g[-1] == K.one() else K.inv(g[-1])
    f = list(f)
    q = [K.zero()] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and f:
        c = f[-1] if inv is None else K.mul(f[-1], inv)
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = K.sub(f[k + i], K.mul(c, b))
        nfp_strip(f)
    return nfp_strip(q), f


def nfp_monic(f, K):
    if not f:
        return []
    if f[-1] == K.one():
        return list(f)
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
    evaluation at N = deg K * deg f + 1 integer points x_i and Lagrange
    interpolation on integers.

    With P = prod_j (X - x_j) and w_i = prod_(j != i) (x_i - x_j), the
    interpolant is sum_i (y_i / w_i) * P / (X - x_i).  Each y_i is the
    norm of f(x_i) in K, the determinant of multiplication by it
    (``resultant`` with the monic minimal polynomial), each quotient one
    synthetic division of P in integers, the weights y_i / w_i are
    brought to one common denominator, and each coefficient is one
    ``ratio``: O(N^2) integer operations besides the N determinants.
    The interpolant is unique, so this is the norm exactly.
    """
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
    nums, delta = clear_vector([c for coeff in f for c in coeff])
    rows = [nums[k:k + d] for k in range(0, len(nums), d)]
    big_p = [1]
    for xj in xs:
        big_p = [a - xj * b for a, b in zip([0] + big_p, big_p + [0])]
    weights = []  # (x_i, y_i / w_i)
    for i, xi in enumerate(xs):
        # f(x_i) in K by Horner on the integer numerators over delta
        p = [0] * d
        for row in reversed(rows):
            p = [a * xi + b for a, b in zip(p, row)]
        y = resultant(K.min_poly, [ratio(c, delta) for c in p])
        if y:
            w = prod(xi - xj for j, xj in enumerate(xs) if j != i)
            weights.append((xi, Fraction(y, w)))
    den = lcm(*(c.denominator for _, c in weights))
    acc = [0] * npoints
    for xi, c in weights:
        s = c.numerator * (den // c.denominator)
        q = 0  # the coefficients of P / (X - x_i), from the top
        for k in range(npoints, 0, -1):
            q = big_p[k] + xi * q
            acc[k - 1] += s * q
    return [ratio(a, den) for a in acc]


def roots_in_field(f, K: NumberField):
    """All roots in K of a nonzero f in K[X], sorted by coordinates.

    Trager's method, each step once.  With f monic and a the generator:

    1. Shift: g = f(X - s*a) for s = 0, 1, ... until the norm N(g) in
       Q[X] is squarefree.  N(g) is the product of the conjugates of g,
       so for f with rational coefficients N(f) = f^deg K, never
       squarefree when deg K > 1: then the search starts at s = 1.
    2. Separability: a squarefree N(g) proves g, hence f, separable, so
       gcd(f, f') runs only after a norm that is not squarefree, and the
       search goes on with f / gcd(f, f'), which has the same roots.
    3. Pullback: for N(g) squarefree, its monic irreducible factors h_i
       over Q and the irreducible factors p_i of g over K correspond one
       to one, p_i = gcd(g, h_i) with N(p_i) = h_i, so deg p_i * deg K =
       deg h_i.  The h_i are pairwise coprime, so gcd(g, h_i) is also
       the gcd with the cofactor g / (p_1 ... p_(i-1)): each factor but
       the last is pulled back by a gcd with the cofactor, which is then
       divided by it exactly, and the last piece is the cofactor itself.
    4. The pieces are monic, so every division by them needs no field
       inverse (``nfp_divmod``, ``nfp_monic``).

    A linear piece X - r gives the root r - s*a of f.  One path serves
    every degree: over a field of degree 1 the norm of g is g itself.
    Every returned root is re-evaluated exactly, every piece must have
    the degree its norm factor predicts, and for separable f the root
    count is checked against deg f.
    """
    f = nfp_strip(list(f))
    if not f:
        raise ValueError("zero polynomial has no well-defined root set")
    if nfp_degree(f) == 0:
        return []
    fm = nfp_monic(f, K)
    rational = not any(any(c[1:]) for c in fm)
    start = 1 if rational and K.deg > 1 else 0
    fs, separable = fm, None  # None until a squarefree norm or gcd(f, f') decides
    for s in range(start, 32 * K.deg * nfp_degree(fm) + 8):
        g = nfp_compose_shift(fs, s, K)
        norm = _norm_poly(g, K)
        if qp_degree(squarefree_part(norm)) == qp_degree(norm):
            break
        if separable is None:
            g0 = nfp_gcd(fm, nfp_deriv(fm, K), K)
            separable = nfp_degree(g0) == 0
            if not separable:
                fs = nfp_divmod(fm, g0, K)[0]
    else:
        raise AssertionError("no squarefree shift found")
    shift = K.mul(K.gen(), K.from_rational(s))
    _, factors = factor_q(norm)
    pieces = []
    rest = g
    for fac, _ in factors[:-1]:
        piece = nfp_gcd(rest, nfp_from_qp(fac, K), K)
        rest, rem = nfp_divmod(rest, piece, K)
        if rem:
            raise AssertionError("pulled-back piece does not divide the cofactor")
        pieces.append(piece)
    pieces.append(rest)
    roots = []
    for (fac, _), piece in zip(factors, pieces):
        if nfp_degree(piece) * K.deg != qp_degree(fac):
            raise AssertionError("norm factor does not pull back")
        if nfp_degree(piece) == 1:
            roots.append(K.sub(K.neg(piece[0]), shift))
    for r in roots:
        if any(nfp_eval(f, r, K)):
            raise AssertionError("root does not verify")
    if separable is not False and len(roots) > nfp_degree(f):
        raise AssertionError("more roots than the degree")
    return sorted(roots)
