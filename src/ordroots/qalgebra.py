"""Finite-dimensional commutative Q-algebras from structure constants.

An algebra of dimension n is given by rational constants c[i][j] (the
coordinate vector of e_i * e_j).  The decomposition machinery splits the
algebra into its nilradical and a maximal subalgebra without nilpotents,
and splits the latter into number fields; on top of that sit the
generators, relations, and discrete logarithms of the group of roots of
unity.

Elements are coordinate tuples; entries are ints or Fractions (exact
either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .abgroup import EffPresentation, GroupOps, cyclic_dlog, cyclic_relations, power
from .linalg import RatMatrix, kernel_int, solve_rat
from .numfield import NumberField
from .polyfactor import factor_q, qp, qp_degree, qp_deriv, qp_gcd
from . import polyfactor


class AlgebraError(ValueError):
    """Structure constants do not describe a commutative unital algebra."""


def _num(c):
    f = Fraction(c)
    return int(f) if f.denominator == 1 else f


# -- structure tables ---------------------------------------------------------
# A table t of dimension n has t[i][j] = coordinates of e_i * e_j.  The
# products below are unnormalized coordinate lists; each ring applies its
# own normal form (exact rationals over Q, coset representatives over Z/L).


def tensor_table(n, flat):
    """Structure table from the row-major (i, j, k) flattening."""
    if len(flat) != n * n * n:
        raise AlgebraError("tensor has wrong size")
    return [
        [[flat[(i * n + j) * n + k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def table_mul(table, x, y):
    """x * y."""
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


def table_mul_basis(table, x, j):
    """x * e_j."""
    out = [0] * len(table)
    for i, a in enumerate(x):
        if a:
            for k, c in enumerate(table[i][j]):
                if c:
                    out[k] += a * c
    return out


def check_table(table, normalize=lambda v: v):
    """Raise AlgebraError unless the table is commutative and associative
    on basis elements, comparing products after ``normalize``."""
    n = len(table)
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise AlgebraError(
                    f"multiplication not commutative at basis pair ({i}, {j})"
                )
    for i in range(n):
        for j in range(n):
            vij = table[i][j]
            for k in range(i, n):  # (e_i e_j) e_k == (e_j e_k) e_i; symmetric in i, k
                left = normalize(table_mul_basis(table, vij, k))
                right = normalize(table_mul_basis(table, table[j][k], i))
                if left != right:
                    raise AlgebraError(
                        f"multiplication not associative at triple ({i}, {j}, {k})"
                    )


class QAlgebra:
    """Commutative Q-algebra with identity, from structure constants."""

    def __init__(self, table):
        n = len(table)
        self.dim = n
        self.table = tuple(
            tuple(tuple(_num(c) for c in cell) for cell in row) for row in table
        )
        for i in range(n):
            if len(self.table[i]) != n:
                raise AlgebraError("structure table is not cubic")
            for j in range(n):
                if len(self.table[i][j]) != n:
                    raise AlgebraError("structure table is not cubic")
        check_table(self.table)
        self.one = self._find_identity()

    @classmethod
    def from_tensor(cls, n, flat):
        return cls(tensor_table(n, flat))

    # -- arithmetic ----------------------------------------------------------

    def zero(self):
        return (0,) * self.dim

    def basis_vec(self, i):
        return tuple(int(k == i) for k in range(self.dim))

    def mul(self, x, y):
        return tuple(_num(v) for v in table_mul(self.table, x, y))

    def mul_basis(self, x, j):
        """x * e_j."""
        return tuple(_num(v) for v in table_mul_basis(self.table, x, j))

    def mult_matrix(self, x) -> RatMatrix:
        """Matrix of multiplication by x."""
        return RatMatrix(self.dim, [list(self.mul_basis(x, j)) for j in range(self.dim)])

    def inv(self, x):
        sol = solve_rat(self.mult_matrix(x), list(self.one))
        if sol is None:
            raise ArithmeticError("element is not invertible")
        return tuple(_num(c) for c in sol)

    def power(self, x, e):
        return power(self.mul, self.inv, self.one, x, e)

    def eval_poly(self, f, x):
        """f(x) for a rational polynomial f (lowest degree first)."""
        acc = self.zero()
        for c in reversed(list(f)):
            acc = self.mul(acc, x)
            if c:
                acc = tuple(_num(a + c * o) for a, o in zip(acc, self.one))
        return acc

    # -- identity ------------------------------------------------------------

    def _find_identity(self):
        n = self.dim
        if n == 0:
            return ()
        cols = []
        for j in range(n):
            col = []
            for i in range(n):
                col.extend(self.table[j][i])
            cols.append(col)
        rhs = []
        for i in range(n):
            rhs.extend(self.basis_vec(i))
        sol = solve_rat(RatMatrix(n * n, cols), rhs)
        if sol is None:
            raise AlgebraError("algebra has no identity element")
        return tuple(_num(c) for c in sol)

    # -- trace form ----------------------------------------------------------

    def trace_vector(self):
        """tau with trace(mult by x) = tau . x."""
        n = self.dim
        return [sum(Fraction(self.table[t][k][k]) for k in range(n)) for t in range(n)]

    def trace_gram(self) -> RatMatrix:
        """Gram matrix of (x, y) -> trace(mult by x*y)."""
        n = self.dim
        tau = self.trace_vector()
        cols = []
        for j in range(n):
            col = []
            for i in range(n):
                col.append(sum(t * c for t, c in zip(tau, self.table[i][j])))
            cols.append(col)
        return RatMatrix(n, cols)


@dataclass
class SpecDecomposition:
    """Splitting data of a commutative Q-algebra.

    ``components`` are the residue number fields; ``projections[i]``
    maps algebra coordinates onto component i; ``section`` maps stacked
    component coordinates back into the algebra (landing in the maximal
    subalgebra without nilpotents, whose basis is ``power_basis``).
    """

    algebra: QAlgebra
    nil_basis: List[List[int]]
    power_basis: RatMatrix
    min_poly: Tuple[Fraction, ...]
    alpha: tuple
    components: List[NumberField]
    factors: List[Tuple[Fraction, ...]]
    projections: List[RatMatrix]
    section: RatMatrix
    pi1: RatMatrix
    pi2: RatMatrix

    @property
    def sep_dim(self) -> int:
        return self.power_basis.ncols

    @property
    def offsets(self) -> List[int]:
        out = [0]
        for K in self.components:
            out.append(out[-1] + K.deg)
        return out

    def component_of(self, x, i):
        return tuple(_num(c) for c in self.projections[i].apply(list(x)))

    def to_components(self, x):
        out = []
        for i in range(len(self.components)):
            out.extend(self.component_of(x, i))
        return tuple(out)

    def from_components(self, v):
        return tuple(_num(c) for c in self.section.apply(list(v)))

    def separable_projection(self, x):
        return tuple(_num(c) for c in self.pi1.apply(list(x)))

    def nil_projection(self, x):
        return tuple(_num(c) for c in self.pi2.apply(list(x)))

    def is_separable_element(self, x) -> bool:
        return all(c == 0 for c in self.nil_projection(x))


def _quotient_by_nil(E: QAlgebra, nil_cols):
    """Structure table of E modulo its nilradical, with the complement
    basis (unit vectors away from the pivot rows of the nilradical)."""
    n = E.dim
    k = len(nil_cols)
    pivot_rows = set()
    for c in nil_cols:
        pivot_rows.add(next(i for i, e in enumerate(c) if e))
    comp_rows = [i for i in range(n) if i not in pivot_rows]
    q = len(comp_rows)
    assert q == n - k
    cols = [[Fraction(int(i == r)) for i in range(n)] for r in comp_rows]
    cols += [[Fraction(e) for e in c] for c in nil_cols]
    mfull = RatMatrix(n, cols)
    minv = mfull.inverse()

    def quot_coords(x):
        y = minv.apply(list(x))
        return [_num(c) for c in y[:q]]

    table = []
    for a in range(q):
        row = []
        for b in range(q):
            prod = E.table[comp_rows[a]][comp_rows[b]]
            row.append(quot_coords(prod))
        table.append(row)
    return table, comp_rows


def minimal_polynomial(alg: QAlgebra, x):
    """Monic minimal polynomial of x (equivalently, of multiplication by
    x), by linear dependence of successive powers."""
    n = alg.dim
    powers = [alg.one]
    cur = alg.one
    for k in range(1, n + 2):
        cur = alg.mul(cur, x)
        m = RatMatrix(n, [list(p) for p in powers])
        sol = solve_rat(m, list(cur))
        if sol is not None:
            return qp([-c for c in sol] + [1])
        powers.append(cur)
    raise AssertionError("minimal polynomial search exceeded the dimension")


def _primitive_element(alg: QAlgebra):
    """Element whose minimal polynomial has degree = dim, by the
    deterministic search over t -> sum_i t^(i-1) e_i."""
    n = alg.dim
    for t in range(n * n * n + n + 2):
        x = tuple(_num(Fraction(t) ** i) for i in range(n))
        m = minimal_polynomial(alg, x)
        if qp_degree(m) == n:
            return x, m
    raise AssertionError("primitive element search failed")


def decompose(E: QAlgebra) -> SpecDecomposition:
    """Split E into nilradical and number-field components.

    The nilradical is the kernel of the trace form.  A primitive element
    of the quotient is Newton-lifted into E until its squarefree minimal
    polynomial vanishes exactly; its powers span a complement of the
    nilradical, and factoring the minimal polynomial yields the
    components with their projection and section matrices.
    """
    n = E.dim
    if n == 0:
        ident = RatMatrix(0, [])
        return SpecDecomposition(
            algebra=E, nil_basis=[], power_basis=ident, min_poly=(),
            alpha=(), components=[], factors=[], projections=[],
            section=ident, pi1=ident, pi2=ident,
        )
    gram_int, _ = E.trace_gram().clear_denominators()
    nil = kernel_int(gram_int)
    nil_cols = [list(c) for c in nil.basis.cols]
    k = len(nil_cols)
    q = n - k

    if k == 0:
        alpha_bar, mbar = _primitive_element(E)
        alpha = alpha_bar
        m = mbar
    else:
        qtable, comp_rows = _quotient_by_nil(E, nil_cols)
        qalg = QAlgebra(qtable)
        alpha_bar, m = _primitive_element(qalg)
        # lift the quotient element into E along the complement rows
        alpha = [Fraction(0)] * n
        for idx, r in enumerate(comp_rows):
            alpha[r] = Fraction(alpha_bar[idx])
        alpha = tuple(_num(c) for c in alpha)
        dm = qp_deriv(m)
        for _ in range(n.bit_length() + 2):
            val = E.eval_poly(m, alpha)
            if all(c == 0 for c in val):
                break
            dval = E.eval_poly(dm, alpha)
            alpha = tuple(
                _num(a - b)
                for a, b in zip(alpha, E.mul(val, E.inv(dval)))
            )
        else:
            raise AssertionError("newton lift did not converge")
        if not all(c == 0 for c in E.eval_poly(m, alpha)):
            raise AssertionError("newton lift did not reach an exact root")

    assert qp_degree(qp_gcd(m, qp_deriv(m))) == 0, "minimal polynomial not squarefree"

    powers = []
    cur = E.one
    for _ in range(q):
        powers.append(list(cur))
        cur = E.mul(cur, alpha)
    power_mat = RatMatrix(n, powers)

    full = RatMatrix(n, powers + [[Fraction(e) for e in c] for c in nil_cols])
    full_inv = full.inverse()
    top = RatMatrix.from_rows(full_inv.to_rows()[:q])
    bottom = RatMatrix.from_rows(full_inv.to_rows()[q:])

    const, facs = factor_q(list(m))
    assert all(mult == 1 for _, mult in facs)
    factors = [tuple(f) for f, _ in facs]
    components = [NumberField(list(f)) for f in factors]

    projections = []
    for K in components:
        cols = []
        for t in range(n):
            p = [top.entry(i, t) for i in range(q)]
            cols.append(list(K.from_poly(p)))
        projections.append(RatMatrix(K.deg, cols))

    # section: stacked component coordinates -> algebra coordinates
    blocks = []
    for j in range(q):
        xj = [Fraction(0)] * q
        xj[j] = Fraction(1)
        col = []
        for K in components:
            col.extend(K.from_poly(xj))
        blocks.append(col)
    phi = RatMatrix(q, blocks)
    section = power_mat.mul(phi.inverse())

    nil_mat = RatMatrix(n, [[Fraction(e) for e in c] for c in nil_cols])
    pi1 = power_mat.mul(top)
    pi2 = nil_mat.mul(bottom) if k else RatMatrix(n, [[Fraction(0)] * n for _ in range(n)])
    ident = RatMatrix.identity(n)
    got = RatMatrix(n, [[a + b for a, b in zip(ca, cb)] for ca, cb in zip(pi1.cols, pi2.cols)])
    assert got == ident, "projections do not sum to the identity"
    zero = pi1.mul(pi2)
    assert all(all(e == 0 for e in c) for c in zero.cols), "projections not orthogonal"

    dec = SpecDecomposition(
        algebra=E, nil_basis=nil_cols, power_basis=power_mat, min_poly=tuple(m),
        alpha=alpha, components=components, factors=factors,
        projections=projections, section=section, pi1=pi1, pi2=pi2,
    )
    _check_projections_multiplicative(dec)
    return dec


def _check_projections_multiplicative(dec: SpecDecomposition):
    E = dec.algebra
    for i, K in enumerate(dec.components):
        for a in range(E.dim):
            for b in range(a, E.dim):
                x = E.basis_vec(a)
                y = E.basis_vec(b)
                lhs = dec.component_of(E.mul(x, y), i)
                rhs = K.mul(dec.component_of(x, i), dec.component_of(y, i))
                if tuple(lhs) != tuple(rhs):
                    raise AssertionError("component projection is not a ring map")


# ---------------------------------------------------------------------------
# roots of unity of the algebra


@dataclass
class TorsionData:
    """Roots-of-unity presentation of an algebra, one generator per
    component (the component's torsion generator routed through the
    section), with cyclic relations."""

    dec: SpecDecomposition
    pres: EffPresentation
    component_roots: List[tuple]  # torsion generator of each component
    component_orders: List[int]


def mu_dlog_explain(tor: TorsionData, gamma):
    """(exponent vector, None) or (None, failure reason)."""
    dec = tor.dec
    gamma = tuple(_num(c) for c in gamma)
    if not dec.is_separable_element(gamma):
        return None, "not-separable"
    out = []
    for i, K in enumerate(dec.components):
        img = dec.component_of(gamma, i)
        a = cyclic_dlog(K.mul, K.one(), tor.component_roots[i], tor.component_orders[i], img)
        if a is None:
            return None, "component-not-root-of-unity"
        out.append(a)
    return out, None


def mu_presentation(E: QAlgebra, dec: Optional[SpecDecomposition] = None) -> TorsionData:
    """Generators, relations, and discrete log for the roots of unity.

    One generator per component: the element mapping to the component's
    torsion generator there and to 1 elsewhere.  Relations are the
    cyclic orders; the discrete log is componentwise exponent search.
    """
    if dec is None:
        dec = decompose(E)
    roots = []
    orders = []
    for K in dec.components:
        z, w = K.torsion_generator()
        assert polyfactor.euler_phi(w) <= K.deg
        assert w <= 2 * K.deg * K.deg  # sanity ceiling for the order search
        roots.append(z)
        orders.append(w)
    gens = []
    ncomp = len(dec.components)
    for i in range(ncomp):
        v = []
        for j, K in enumerate(dec.components):
            v.extend(roots[i] if j == i else K.one())
        gens.append(dec.from_components(v))
    rels = cyclic_relations(orders)

    ops = GroupOps(mul=E.mul, inv=E.inv, identity=E.one)
    holder = {}

    def dlog(gamma):
        return mu_dlog_explain(holder["tor"], gamma)[0]

    pres = EffPresentation(ops=ops, gens=tuple(gens), rels=rels, dlog=dlog)
    tor = TorsionData(dec=dec, pres=pres, component_roots=roots, component_orders=orders)
    holder["tor"] = tor
    for g, w in zip(gens, orders):
        assert E.power(g, w) == E.one
    return tor


def mu_dlog(tor: TorsionData, gamma):
    """Exponent vector over the torsion generators, or None."""
    return mu_dlog_explain(tor, gamma)[0]
