"""Finite-dimensional commutative Q-algebras from structure constants.

An algebra of dimension n is given by rational constants c[i][j] (the
coordinate vector of e_i * e_j).  The decomposition machinery splits the
algebra into its nilradical and a maximal subalgebra without nilpotents,
and splits the latter into number fields; on top of that sit the
generators, relations, and discrete logarithms of the group of roots of
unity.

Elements are coordinate tuples; entries are ints or Fractions (exact
either way).  The roots of unity are presented in component coordinates,
on the product of the number fields, where a product costs one field
multiplication per component; ``to_components`` and ``from_components``
convert at the boundary, as integer matrices over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .abgroup import EffPresentation, power
from .linalg import IntMatrix, RatMatrix, clear_vector, kernel_int, solve_rat
from .numfield import NumberField, ProductRing
from .polyfactor import factor_q, qp, qp_degree, qp_deriv, qp_gcd


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


# a rational linear map N/d: integer matrix N, denominator d > 0
IntMap = Tuple[IntMatrix, int]


def _apply(m: IntMap, x):
    """N x / d for m = (N, d), on integer numerators; coordinates as
    ``_num`` gives them (int where integral)."""
    mat, d = m
    xn, dx = clear_vector(x)
    den = d * dx
    return tuple(c // den if c % den == 0 else Fraction(c, den) for c in mat.apply(xn))


@dataclass
class SpecDecomposition:
    """Splitting data of a commutative Q-algebra.

    ``components`` are the residue number fields; ``projections[i]``
    maps algebra coordinates onto component i; ``section`` maps stacked
    component coordinates back into the algebra (landing in the maximal
    subalgebra without nilpotents, whose basis is ``power_basis``);
    ``pi1`` and ``pi2`` project onto that subalgebra and onto the
    nilradical.  Each map is held as integer rows over one denominator,
    a pair (IntMatrix N, int d) for the map N/d.
    """

    algebra: QAlgebra
    nil_basis: List[List[int]]
    power_basis: RatMatrix
    min_poly: Tuple[Fraction, ...]
    alpha: tuple
    components: List[NumberField]
    factors: List[Tuple[Fraction, ...]]
    projections: List[IntMap]
    section: IntMap
    pi1: IntMap
    pi2: IntMap

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
        return _apply(self.projections[i], x)

    def to_components(self, x):
        out = []
        for i in range(len(self.components)):
            out.extend(self.component_of(x, i))
        return tuple(out)

    def from_components(self, v):
        return _apply(self.section, v)

    def separable_projection(self, x):
        return _apply(self.pi1, x)

    def nil_projection(self, x):
        return _apply(self.pi2, x)

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
    if q != n - k:
        raise AssertionError("nilradical pivots are not distinct rows")
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
        empty = (IntMatrix(0, []), 1)
        return SpecDecomposition(
            algebra=E, nil_basis=[], power_basis=RatMatrix(0, []), min_poly=(),
            alpha=(), components=[], factors=[], projections=[],
            section=empty, pi1=empty, pi2=empty,
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

    if qp_degree(qp_gcd(m, qp_deriv(m))) != 0:
        raise AssertionError("minimal polynomial not squarefree")

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
    if any(mult != 1 for _, mult in facs):
        raise AssertionError("squarefree minimal polynomial has a repeated factor")
    factors = [tuple(f) for f, _ in facs]
    components = [NumberField(list(f)) for f in factors]

    projections = []
    for K in components:
        cols = []
        for t in range(n):
            p = [top.entry(i, t) for i in range(q)]
            cols.append(list(K.from_poly(p)))
        projections.append(RatMatrix(K.deg, cols).clear_denominators())

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
    pi1 = power_mat.mul(top).clear_denominators()
    pi2 = nil_mat.mul(bottom).clear_denominators() if k else (IntMatrix.zeros(n, n), 1)

    dec = SpecDecomposition(
        algebra=E, nil_basis=nil_cols, power_basis=power_mat, min_poly=tuple(m),
        alpha=alpha, components=components, factors=factors,
        projections=projections, section=section.clear_denominators(),
        pi1=pi1, pi2=pi2,
    )
    _check_maps(dec)
    return dec


def _check_maps(dec: SpecDecomposition):
    """The stored maps split the algebra: pi1 + pi2 is the identity,
    pi1 pi2 = 0, and each component projection is a ring map,
    pi_i(e_a e_b) = pi_i(e_a) pi_i(e_b) for every basis pair (e_a e_b is
    a table cell)."""
    E = dec.algebra
    n = E.dim
    (p1, d1), (p2, d2) = dec.pi1, dec.pi2
    for j, (c1, c2) in enumerate(zip(p1.cols, p2.cols)):
        for i, (a, b) in enumerate(zip(c1, c2)):
            if a * d2 + b * d1 != d1 * d2 * (i == j):
                raise AssertionError("projections do not sum to the identity")
    if any(any(c) for c in p1.mul(p2).cols):
        raise AssertionError("projections not orthogonal")
    for i, K in enumerate(dec.components):
        cols = [dec.component_of(E.basis_vec(a), i) for a in range(n)]
        for a in range(n):
            for b in range(a, n):
                if dec.component_of(E.table[a][b], i) != K.mul(cols[a], cols[b]):
                    raise AssertionError("component projection is not a ring map")


# ---------------------------------------------------------------------------
# roots of unity of the algebra


@dataclass
class TorsionData:
    """Roots of unity of an algebra: a product of cyclic groups, one per
    residue field, generated by that field's torsion generator.

    ``pres`` lives in component coordinates, on the product of
    ``dec.components``; ``generators`` are its generators in algebra
    coordinates.  ``mu_dlog_explain`` converts between the two."""

    dec: SpecDecomposition
    pres: EffPresentation
    generators: List[tuple]
    component_roots: List[tuple]  # torsion generator of each component
    component_orders: List[int]


def mu_dlog_explain(tor: TorsionData, gamma):
    """(exponent vector, None) or (None, failure reason) for an element in
    algebra coordinates."""
    dec = tor.dec
    gamma = tuple(_num(c) for c in gamma)
    if not dec.is_separable_element(gamma):
        return None, "not-separable"
    out = tor.pres.dlog(dec.to_components(gamma))
    if out is None:
        return None, "component-not-root-of-unity"
    return out, None


def mu_presentation(E: QAlgebra, dec: Optional[SpecDecomposition] = None) -> TorsionData:
    """Generators, relations, and discrete log for the roots of unity.

    One generator per component: the component's torsion generator
    there and 1 elsewhere.  The presentation is built on the product of
    the components; only ``generators`` are carried back to the algebra.
    """
    if dec is None:
        dec = decompose(E)
    tors = [K.torsion_generator() for K in dec.components]
    factors = [([i], z, w) for i, (z, w) in enumerate(tors)]
    pres, _ = ProductRing(dec.components).cyclic_presentation(factors)
    return TorsionData(
        dec=dec, pres=pres, generators=[dec.from_components(g) for g in pres.gens],
        component_roots=[z for z, _ in tors], component_orders=[w for _, w in tors],
    )
