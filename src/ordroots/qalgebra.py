"""Finite-dimensional commutative Q-algebras from structure constants.

An algebra of dimension n is given by rational constants c[i][j] (the
coordinate vector of e_i * e_j).  The decomposition machinery splits the
algebra into its nilradical and a maximal subalgebra without nilpotents,
and splits the latter into number fields; on top of that sit the
generators, relations, and discrete logarithms of the group of roots of
unity.  The splitting works in the algebra itself: its primitive element
is searched and Newton-lifted there, on the rows that hold no pivot of
the nilradical, so no quotient algebra is built.

Elements are coordinate tuples; a coordinate is an int where it is
integral and a Fraction otherwise (``linalg.ratio``).  The roots of
unity are presented in component coordinates, on the product of the
number fields, where a product costs one field multiplication per
component; ``to_components`` and ``from_components`` convert at the
boundary.  These and ``nil_coords``, the coordinates along the
nilradical, are ``RatMatrix`` maps: integer numerators over one
denominator, applied as one integer matrix-vector product and one
``ratio`` per coordinate; the projection and ``nil_coords`` are the row
blocks of the one inverse of [section | N], N the nilradical's basis.
The section's columns are e_i X^j mod m, e_i the Chinese-remainder
idempotents of the primitive element's radical m: the multiplication
columns of e_i (``polyfactor.qp_mul_columns``), read at that element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .abgroup import EffPresentation, power
from .linalg import (
    IntMatrix, RatMatrix, _back_substitute, _echelon, _num, kernel_int, ratio, solve_rat)
from .numfield import NumberField, ProductRing
from .polyfactor import (
    factor_q, qp_degree, qp_deriv, qp_divmod, qp_mul, qp_mul_columns, squarefree_part)


class AlgebraError(ValueError):
    """Structure constants do not describe a commutative unital algebra."""


# -- structure tables ---------------------------------------------------------
# Callers pass a dense table, d[i][j][k] = coordinate k of e_i * e_j.  A ring
# keeps only its sparse form t, built and checked by ``sparse_table``: t[i][j]
# and t[j][i] are one tuple of the nonzero (k, c) pairs of e_i * e_j, so a
# product walks only the entries it meets, not n per cell.  ``cell_coords``
# gives a reader a cell's full vector.  The products are unnormalized
# coordinate lists; each ring applies its own normal form (exact rationals
# over Q, coset representatives over Z/L).


def tensor_table(n, flat):
    """Dense structure table from the row-major (i, j, k) flattening."""
    if len(flat) != n * n * n:
        raise AlgebraError("tensor has wrong size")
    return [
        [[flat[(i * n + j) * n + k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def sparse_table(dense, n, normalize=lambda v: v):
    """The sparse cells of a dense table of dimension n, in canonical
    coordinates.  Raises AlgebraError unless the table is cubic, and
    commutative and associative on basis elements; associativity compares
    (e_i e_j) e_k = sum c t[m][k] over the pairs (m, c) of t[i][j] with
    (e_j e_k) e_i, normalizing only products that differ raw.  Each
    product (e_a e_b) e_c is formed once, for a <= b."""
    if len(dense) != n or any(len(row) != n or any(len(c) != n for c in row) for row in dense):
        raise AlgebraError("structure table is not cubic")
    rows = [[tuple((k, c) for k, c in enumerate(map(_num, cell)) if c) for cell in row]
            for row in dense]
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AlgebraError(
                    f"multiplication not commutative at basis pair ({i}, {j})"
                )
            rows[j][i] = rows[i][j]
    table = tuple(tuple(row) for row in rows)

    def times_basis(cell, k):
        out = [0] * n
        for m, c in cell:
            for t, d in table[m][k]:
                out[t] += c * d
        return out

    prods = [[None] * n for _ in range(n)]  # prods[a][b][c] = (e_a e_b) e_c
    for a in range(n):
        for b in range(a, n):
            prods[a][b] = prods[b][a] = [times_basis(table[a][b], c) for c in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(i, n):  # (e_i e_j) e_k == (e_j e_k) e_i; symmetric in i, k
                left = prods[i][j][k]
                right = prods[j][k][i]
                if left != right and normalize(left) != normalize(right):
                    raise AlgebraError(
                        f"multiplication not associative at triple ({i}, {j}, {k})"
                    )
    return table


def cell_coords(cell, n):
    """The full coordinate vector of a sparse cell of dimension n."""
    out = [0] * n
    for k, c in cell:
        out[k] = c
    return out


def table_mul(table, x, y):
    """x * y."""
    out = [0] * len(table)
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            ti = table[i]
            for j, b in ys:
                ab = a * b
                for k, c in ti[j]:
                    out[k] += ab * c
    return out


def table_mul_basis(table, x, j):
    """x * e_j."""
    out = [0] * len(table)
    for i, a in enumerate(x):
        if a:
            for k, c in table[i][j]:
                out[k] += a * c
    return out


class QAlgebra:
    """Commutative Q-algebra with identity, from structure constants."""

    def __init__(self, table):
        self.dim = len(table)
        self.table = sparse_table(table, self.dim)
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
        return tuple(sol)

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
        # column j stacks the products e_j e_i; the identity solves them for e_i
        cols = [[c for cell in row for c in cell_coords(cell, n)] for row in self.table]
        rhs = [int(k == i) for i in range(n) for k in range(n)]
        sol = solve_rat(RatMatrix(n * n, cols), rhs)
        if sol is None:
            raise AlgebraError("algebra has no identity element")
        return tuple(sol)

    # -- trace form ----------------------------------------------------------

    def trace_vector(self):
        """tau with trace(mult by x) = tau . x."""
        return [sum(c for k, cell in enumerate(row) for m, c in cell if m == k)
                for row in self.table]

    def trace_gram(self) -> RatMatrix:
        """Gram matrix of (x, y) -> trace(mult by x*y); the table is
        symmetric, so column j is row j of the table."""
        tau = self.trace_vector()
        return RatMatrix(self.dim, [[sum(tau[k] * c for k, c in cell) for cell in row]
                                    for row in self.table])


@dataclass
class SpecDecomposition:
    """Splitting data of a commutative Q-algebra.

    ``components`` are the residue number fields; ``projection`` maps
    algebra coordinates onto the stacked component coordinates;
    ``section`` maps them back onto the maximal subalgebra without
    nilpotents, sending a^j in component i to e_i a^j, e_i its idempotent;
    ``nil_coords`` maps algebra coordinates to coordinates along
    ``nil_basis``; it and ``projection`` are the row blocks of the inverse
    of [section | N].
    """

    algebra: QAlgebra
    nil_basis: List[List[int]]
    min_poly: Tuple[int | Fraction, ...]
    alpha: tuple
    components: List[NumberField]
    projection: RatMatrix
    section: RatMatrix
    nil_coords: RatMatrix

    def to_components(self, x):
        return self.projection.apply(x)

    def from_components(self, v):
        return self.section.apply(v)

    def is_separable_element(self, x) -> bool:
        return not any(self.nil_coords.apply(x))


def _krylov_powers(alg: QAlgebra, x):
    """The powers 1, x, ..., x^n of x, n the dimension."""
    powers = [alg.one]
    for _ in range(alg.dim):
        powers.append(alg.mul(powers[-1], x))
    return powers


def minimal_polynomial(alg: QAlgebra, x, powers=None):
    """Monic minimal polynomial of x (equivalently, of multiplication by
    x), from one fraction-free forward elimination of the Krylov columns
    1, x, ..., x^n (``powers``, when the caller has them).  The first k
    columns are independent and span every later power, so the pivots
    are columns 0, ..., k - 1, and back substitution of column k writes
    x^k over the lower powers, one ``ratio`` per coefficient."""
    n = alg.dim
    if powers is None:
        powers = _krylov_powers(alg, x)
    rows = RatMatrix(n, powers).num.to_rows()
    pivots, d, _ = _echelon(rows, n + 1)
    k = len(pivots)
    if pivots != list(range(k)):
        raise AssertionError("Krylov pivots are not a prefix of the powers")
    return [ratio(-y, d) for (y,) in _back_substitute(rows, pivots, d, k, k + 1)] + [1]


def _primitive_element(alg: QAlgebra, rows):
    """(x, m, powers): the first x = sum_i t^i e_(rows[i]), t = 0, 1, ...,
    whose minimal polynomial has a radical m of degree len(rows), and
    its Krylov powers."""
    q = len(rows)
    for t in range(q * q * q + q + 2):
        x = [0] * alg.dim
        for i, r in enumerate(rows):
            x[r] = t ** i
        powers = _krylov_powers(alg, x)
        m = squarefree_part(minimal_polynomial(alg, x, powers))
        if qp_degree(m) == q:
            return tuple(x), m, powers
    raise AssertionError("primitive element search failed")


def decompose(E: QAlgebra) -> SpecDecomposition:
    """Split E into nilradical and number-field components.

    The nilradical N is the kernel of the trace form.  The minimal
    polynomial of an element of E and that of its image in the reduced
    algebra E/N have the same radical, so a primitive element of E/N is
    searched in E itself, on the rows that hold no pivot of N's basis,
    and Newton-lifted until the radical m vanishes exactly; unless the
    lift moved it, its Krylov powers serve the section too.  The factors
    of m give the components (each the process's one field of its
    factor, ``NumberField._of_factor``) and their Chinese-remainder
    idempotents (one field inverse each) the section, whose columns span a complement of N;
    one inverse of [section | N] gives the projection and the part in N.
    """
    n = E.dim
    nil = kernel_int(E.trace_gram().num)
    nil_cols = [list(c) for c in nil.basis.cols]
    q = n - len(nil_cols)
    rows = [i for i in range(n) if i not in nil.pivots]
    if len(rows) != q:
        raise AssertionError("nilradical pivots are not distinct rows")

    alpha, m, powers = _primitive_element(E, rows)
    dm = qp_deriv(m)
    for _ in range(n.bit_length() + 2):
        val = E.eval_poly(m, alpha)
        if not any(val):
            break
        dval = E.eval_poly(dm, alpha)
        alpha = tuple(_num(a - b) for a, b in zip(alpha, E.mul(val, E.inv(dval))))
        powers = None  # the lift moved alpha off the candidate
    else:
        raise AssertionError("newton lift did not converge")
    if powers is None:
        powers = _krylov_powers(E, alpha)
    powers = powers[:q]

    const, facs = factor_q(list(m))
    if any(mult != 1 for _, mult in facs):
        raise AssertionError("squarefree minimal polynomial has a repeated factor")
    components = [NumberField._of_factor(f) for f, _ in facs]

    # section column (i, j): e_i X^j mod m at alpha, for the idempotent
    # e_i = c_i (c_i mod f_i)^-1, c_i = m / f_i, of the factor f_i of K_i
    crt = []
    for K in components:
        c = qp_divmod(m, K.min_poly)[0]
        crt += qp_mul_columns(qp_mul(c, K.inv(K.from_poly(c))), m, K.deg)
    section = RatMatrix(n, powers).mul(RatMatrix(q, crt))
    # rows :q of [section | N]^-1 give component coordinates, rows q: those along N
    full_inv = _split_matrix(section, nil_cols).inverse()
    dec = SpecDecomposition(
        algebra=E, nil_basis=nil_cols, min_poly=tuple(m), alpha=alpha,
        components=components, projection=full_inv.row_block(0, q), section=section,
        nil_coords=full_inv.row_block(q, n),
    )
    _check_maps(dec)
    return dec


def _split_matrix(section: RatMatrix, nil_basis) -> RatMatrix:
    """[section | N]: the section's columns, then the nilradical's basis."""
    return RatMatrix.over(
        section.num.hstack(IntMatrix(section.nrows, nil_basis).scaled(section.den)), section.den)


def _check_maps(dec: SpecDecomposition):
    """The stored maps split the algebra: [section | N] times the
    projection stacked on ``nil_coords`` is the identity, so (a right
    inverse of a square matrix is a left one) section projection and
    N nil_coords sum to 1 and annihilate each other; and the projection
    is a ring map onto the product of the components, pi(e_a e_b) =
    pi(e_a) pi(e_b) for every basis pair (e_a e_b is a table cell)."""
    E = dec.algebra
    n = E.dim
    p, c = dec.projection, dec.nil_coords
    stacked = IntMatrix(n, [[e * c.den for e in a] + [e * p.den for e in b]
                            for a, b in zip(p.num.cols, c.num.cols)])
    split_inv = RatMatrix.over(stacked, p.den * c.den)
    if _split_matrix(dec.section, dec.nil_basis).mul(split_inv) != RatMatrix.identity(n):
        raise AssertionError("split inverse does not invert [section | N]")
    ring = ProductRing(dec.components)
    cols = [dec.to_components(E.basis_vec(a)) for a in range(n)]
    for a in range(n):
        for b in range(a, n):
            if dec.to_components(cell_coords(E.table[a][b], n)) != ring.mul(cols[a], cols[b]):
                raise AssertionError("component projection is not a ring map")


# ---------------------------------------------------------------------------
# roots of unity of the algebra


def mu_dlog_explain(dec: SpecDecomposition, pres: EffPresentation, gamma):
    """(exponent vector, None) or (None, failure reason) for an element in
    algebra coordinates, against ``pres`` from ``mu_presentation(dec)``."""
    if not dec.is_separable_element(gamma):
        return None, "not-separable"
    out = pres.dlog(dec.to_components(gamma))
    if out is None:
        return None, "component-not-root-of-unity"
    return out, None


def mu_presentation(dec: SpecDecomposition) -> EffPresentation:
    """Generators, relations, and discrete log for the roots of unity.

    One generator per component: the component's torsion generator
    there and 1 elsewhere.  The presentation lives in component
    coordinates, on the product of ``dec.components``; ``from_components``
    and ``to_components`` carry an element to and from the algebra.
    """
    factors = [([i], K.torsion_powers()) for i, K in enumerate(dec.components)]
    return ProductRing(dec.components).cyclic_presentation(factors)
