"""Exact integer and rational linear algebra.

Everything here is arbitrary precision: integer matrices hold Python
ints, and a rational matrix is an integer matrix of numerators over one
denominator.  No floating point anywhere.  A rational coordinate is an
int where it is integral and a Fraction otherwise (``ratio``); every
rational vector returned here has that form.  Determinants are read off
one fraction-free forward elimination of integer rows, and solves and
inverses back-substitute from it.  Matrices are immutable by convention
(constructors copy their input, methods return new objects) and may
therefore be shared freely.

Lattices are stored through a canonical column-style Hermite normal
form, so two equal lattices compare equal as matrices.  Every index is
read from those bases: the index of a lattice of full rank in Z^dim is
the product of its Hermite pivots, and the index of sub in sup of equal
rank is the quotient of their pivot products.  A kernel, preimage or
intersection is {x : (0, x) in L} for a lattice L of stacked columns,
read off one Hermite form of L; a transform u of h = m*u is the identity
carried below m's rows, and its columns under the zero columns of h are
a basis of the kernel of m.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from . import kernels


class IntMatrix:
    """Dense integer matrix, stored column-major."""

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols):
        cols = [list(c) for c in cols]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("ragged matrix")
        self.nrows = nrows
        self.cols = cols

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, [[1 if i == j else 0 for i in range(n)] for j in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, [[0] * nrows for _ in range(ncols)])

    def col(self, j: int):
        return list(self.cols[j])

    def row(self, i: int):
        return [c[i] for c in self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def entry(self, i: int, j: int):
        return self.cols[j][i]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return IntMatrix(self.nrows, [self.apply(c) for c in other.cols])

    def apply(self, vec):
        """Matrix-vector product m*x."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        out = [0] * self.nrows
        for x, col in zip(vec, self.cols):
            if x:
                for i, e in enumerate(col):
                    if e:
                        out[i] += x * e
        return out

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError("shape mismatch")
        return IntMatrix(self.nrows, self.cols + other.cols)

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix(self.nrows, [[k * e for e in c] for c in self.cols])

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, rows={self.to_rows()!r})"


class RatMatrix:
    """Dense matrix over Q: an IntMatrix ``num`` of numerators over one
    denominator ``den > 0``, in lowest terms, so that equal matrices have
    equal numerators and denominators."""

    __slots__ = ("num", "den")

    def __init__(self, nrows: int, cols):
        """Columns of ints or Fractions."""
        cols = [list(c) for c in cols]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("ragged matrix")
        nums, self.den = clear_vector([e for c in cols for e in c])
        self.num = IntMatrix(nrows, [nums[j * nrows:(j + 1) * nrows] for j in range(len(cols))])

    @classmethod
    def over(cls, num: IntMatrix, den: int) -> "RatMatrix":
        """num / den for a nonzero integer den, brought to lowest terms."""
        g = gcd(den, *(e for c in num.cols for e in c))
        if den < 0:
            g = -g
        if g != 1:
            num = IntMatrix(num.nrows, [[e // g for e in c] for c in num.cols])
        m = cls.__new__(cls)
        m.num, m.den = num, den // g
        return m

    @property
    def nrows(self) -> int:
        return self.num.nrows

    @property
    def ncols(self) -> int:
        return self.num.ncols

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.over(IntMatrix.identity(n), 1)

    def row_block(self, lo: int, hi: int) -> "RatMatrix":
        """Rows lo, ..., hi - 1."""
        return RatMatrix.over(IntMatrix(hi - lo, [c[lo:hi] for c in self.num.cols]), self.den)

    def apply(self, vec):
        """self * vec on integer numerators, as a tuple of coordinates."""
        xn, dx = clear_vector(vec)
        den = self.den * dx
        return tuple(ratio(c, den) for c in self.num.apply(xn))

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix.over(self.num.mul(other.num), self.den * other.den)

    def inverse(self) -> "RatMatrix":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        rows = [r + [int(i == j) for j in range(n)] for i, r in enumerate(self.num.to_rows())]
        pivots, d, _ = _echelon(rows, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        # num^-1 = Y / d for the rows Y of d num^-1, so (num / den)^-1 = den Y / d
        ys = _back_substitute(rows, pivots, d, n, 2 * n)
        return RatMatrix.over(IntMatrix(n, ([self.den * e for e in c] for c in zip(*ys))), d)

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.den == other.den and self.num == other.num

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols}, den={self.den})"


def ratio(num: int, den: int):
    """num / den for integers num and den != 0 as a coordinate: an int
    where it is integral, a Fraction in lowest terms otherwise."""
    return num // den if num % den == 0 else Fraction(num, den)


def _num(c):
    """One int or Fraction as a coordinate: ``ratio`` of its numerator and
    denominator.  A Fraction is already in lowest terms, so only an
    integral one changes."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def clear_vector(vec):
    """(numerators, d): integers with vec = numerators / d, d > 0 the least
    common denominator.  Entries may be ints or Fractions."""
    if Fraction not in map(type, vec):
        return list(vec), 1
    dens = [e.denominator for e in vec]
    d = lcm(*dens)
    if d == 1:
        return [e.numerator for e in vec], 1
    return [e.numerator * (d // f) for e, f in zip(vec, dens)], d


def _echelon(rows, ncols):
    """Fraction-free forward elimination of integer rows on their first
    ``ncols`` columns, in place; later columns are carried along.

    Column by column, the pivot is the first row from the current one down
    with a nonzero entry there.  Each step replaces every row below the
    pivot row by (p * row - f * pivot row) / q, p the new pivot, f the
    row's entry in the pivot column and q the previous pivot.  The division
    is exact: the entries stay minors of the input (Bareiss 1968; Cohen,
    *A Course in Computational Algebraic Number Theory*, 2.2).  Each row
    stays a nonzero multiple of the row that forward elimination over Q
    with the same pivots holds, and the rows from len(pivots) down vanish
    on the first ``ncols`` columns.  Returns (pivot columns, d, sign): d is
    the last pivot and sign the parity of the row swaps.  d is a minor of
    the rows as swapped, so with a pivot in every column of a square
    matrix it is sign times the determinant.
    """
    nr = len(rows)
    pivots = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * e - f * g) // prev for e, g in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * e // prev for e in row]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


def _back_substitute(rows, pivots, d, lo, hi):
    """d * x, one row per pivot, for rows eliminated by ``_echelon`` with
    (pivots, d): x solves the pivot rows for the right-hand columns
    lo, ..., hi - 1, with the unknowns off the pivot columns zero.  By
    Cramer's rule d * x is integral, so each row divides exactly by its
    pivot (Nakos, Turner & Williams 1997)."""
    ys = [None] * len(pivots)
    for k in reversed(range(len(pivots))):
        row = rows[k]
        acc = [d * e for e in row[lo:hi]]
        for c, y in zip(pivots[k + 1:], ys[k + 1:]):
            if row[c]:
                acc = [a - row[c] * b for a, b in zip(acc, y)]
        ys[k] = [a // row[pivots[k]] for a in acc]
    return ys


def solve_rat(m: RatMatrix, vec):
    """A particular rational solution of m*x = vec, the unknowns off the
    pivot columns zero, or None if there is none."""
    nc = m.ncols
    b, db = clear_vector(vec)
    # m x = vec  <=>  num y = den * b  for  y = db * x
    rows = [r + [m.den * e] for r, e in zip(m.num.to_rows(), b)]
    pivots, d, _ = _echelon(rows, nc)
    if any(r[nc] for r in rows[len(pivots):]):
        return None
    x = [0] * nc
    for (y,), c in zip(_back_substitute(rows, pivots, d, nc, nc + 1), pivots):
        x[c] = ratio(y, d * db)
    return x


def _stack_identity(cols, n: int):
    """Each column j with the unit vector e_j of Z^n stacked below it."""
    return [list(c) + [int(i == j) for i in range(n)] for j, c in enumerate(cols)]


def _hnf_transform(m: IntMatrix):
    """(h, u) as column lists with h = m*u: the Hermite form of m with
    the identity carried below it, split off again."""
    n = m.nrows
    cols = kernels.hnf_cols(_stack_identity(m.cols, m.ncols), n)
    return [c[:n] for c in cols], [c[n:] for c in cols]


def hnf(m: IntMatrix):
    """Column Hermite normal form: (h, u) with h = m*u, u unimodular.

    Pivots are positive, entries left of a pivot in its row are reduced
    into [0, pivot), zero columns trail.
    """
    h, u = _hnf_transform(m)
    return IntMatrix(m.nrows, h), IntMatrix(m.ncols, u)


def snf(m: IntMatrix):
    """Smith normal form: (d, u, v) with d = u*m*v, d diagonal with
    d_i | d_{i+1}, u and v unimodular."""
    d, u, v = kernels.snf_cols(m.cols, m.nrows)
    return IntMatrix(m.nrows, d), IntMatrix(m.nrows, u), IntMatrix(m.ncols, v)


def det_int(m: IntMatrix) -> int:
    """Determinant: the signed last pivot of one fraction-free forward
    elimination, or 0 when a column has no pivot."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    pivots, d, sign = _echelon(m.to_rows(), m.ncols)
    return sign * d if len(pivots) == m.ncols else 0


def invariant_factors(m: IntMatrix):
    """Nonzero diagonal of the Smith form (the invariant factors)."""
    d, _, _ = snf(m)
    out = []
    for i in range(min(d.nrows, d.ncols)):
        e = d.entry(i, i)
        if e:
            out.append(e)
    return out


class Lattice:
    """Subgroup of Z^dim given by independent basis columns in canonical HNF."""

    __slots__ = ("dim", "basis", "pivots")

    def __init__(self, dim: int, gens):
        """gens: iterable of integer vectors (the generators, need not be
        independent), or an IntMatrix of generator columns."""
        if isinstance(gens, IntMatrix):
            cols = gens.cols
        else:
            cols = [list(g) for g in gens]
        for c in cols:
            if len(c) != dim:
                raise ValueError("generator has wrong length")
        self._set_hnf(dim, [c for c in kernels.hnf_cols(cols, dim) if any(c)])

    @classmethod
    def _from_hnf(cls, dim: int, cols) -> "Lattice":
        """Lattice on nonzero columns already in canonical HNF."""
        lat = cls.__new__(cls)
        lat._set_hnf(dim, cols)
        return lat

    def _set_hnf(self, dim, cols):
        self.dim = dim
        self.basis = IntMatrix(dim, cols)
        # pivot row of each basis column: its first nonzero entry
        self.pivots = [next(i for i, e in enumerate(c) if e) for c in self.basis.cols]

    @classmethod
    def zero(cls, dim: int) -> "Lattice":
        return cls(dim, [])

    @classmethod
    def full(cls, dim: int) -> "Lattice":
        return cls(dim, IntMatrix.identity(dim))

    @property
    def rank(self) -> int:
        return self.basis.ncols

    @property
    def pivot_product(self) -> int:
        """Product of the Hermite pivots: the index in Z^dim at full rank."""
        return prod(c[r] for c, r in zip(self.basis.cols, self.pivots))

    def coords(self, vec):
        """Integer coordinates of vec in the basis, or None if vec is not
        in the lattice."""
        v = list(vec)
        out = []
        for c, r in zip(self.basis.cols, self.pivots):
            if v[r] % c[r] != 0:
                return None
            q = v[r] // c[r]
            out.append(q)
            if q:
                for i in range(r, self.dim):
                    v[i] -= q * c[i]
        if any(v):
            return None
        return out

    def contains(self, vec) -> bool:
        return self.coords(vec) is not None

    def reduce(self, vec):
        """Canonical coset representative of vec modulo the lattice."""
        v = list(vec)
        for c, r in zip(self.basis.cols, self.pivots):
            q = v[r] // c[r]
            if q:
                for i in range(r, self.dim):
                    v[i] -= q * c[i]
        return v

    def element(self, coords):
        return self.basis.apply(coords)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Lattice(dim={self.dim}, rank={self.rank}, basis={self.basis.to_rows()!r})"


def _bottom_lattice(cols, top: int, dim: int) -> Lattice:
    """{x in Z^dim : (0, x) in L} for the lattice L spanned by ``cols``,
    each ``top`` entries stacked over ``dim``.  The Hermite columns of L
    that vanish on the top block span its meet with 0 x Z^dim; cut to the
    bottom block, they are the canonical basis."""
    h = kernels.hnf_cols(cols, top + dim)
    return Lattice._from_hnf(dim, [c[top:] for c in h if any(c) and not any(c[:top])])


def kernel_int(m: IntMatrix) -> Lattice:
    """Saturated integer kernel {x in Z^ncols : m*x = 0}, from the
    stacked columns (m e_j ; e_j)."""
    return _bottom_lattice(_stack_identity(m.cols, m.ncols), m.nrows, m.ncols)


def image_int(m: IntMatrix) -> Lattice:
    """Lattice generated by the columns of m."""
    return Lattice(m.nrows, m)


def sum_lattices(a: Lattice, b: Lattice) -> Lattice:
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    return Lattice(a.dim, a.basis.cols + b.basis.cols)


def intersect_lattices(a: Lattice, b: Lattice) -> Lattice:
    """Intersection, from the stacked columns (a_i ; a_i) and (b_k ; 0):
    (0, x) is in their span exactly when x = sum s_i a_i = -sum t_k b_k."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    cols = [c + c for c in a.basis.cols] + [c + [0] * a.dim for c in b.basis.cols]
    return _bottom_lattice(cols, a.dim, a.dim)


def lattice_index(sub: Lattice, sup: Lattice) -> int:
    """Group index (sup : sub) for sub <= sup of equal rank, in any
    ambient dimension.  Both span one Q-space, so their canonical bases
    share pivot rows and are lower triangular on them: the index is the
    quotient of the pivot products."""
    if sub.dim != sup.dim or sub.rank != sup.rank:
        raise ValueError("lattices must have equal rank in the same ambient space")
    if not all(sup.contains(c) for c in sub.basis.cols):
        raise ValueError("sub is not contained in sup")
    return sub.pivot_product // sup.pivot_product


class IntSolver:
    """Integer solutions of m*x = v for one fixed matrix m.

    The Hermite form h = m*u is computed once: its nonzero columns are
    the canonical basis of the image of m, and the matching columns of u
    carry coordinates in that basis back to a solution x.  u is
    unimodular, so its columns under the zero columns of h, ``kernel``,
    are a basis (not the canonical one) of the kernel of m.
    """

    __slots__ = ("image", "transform", "kernel")

    def __init__(self, m: IntMatrix):
        h, u = _hnf_transform(m)
        rank = sum(1 for c in h if any(c))  # zero columns trail
        self.image = Lattice._from_hnf(m.nrows, h[:rank])
        self.transform = IntMatrix(m.ncols, u[:rank])
        self.kernel = IntMatrix(m.ncols, u[rank:])

    def solve(self, vec):
        """One integer solution x of m*x = vec, or None."""
        y = self.image.coords(vec)
        return None if y is None else self.transform.apply(y)


def solve_int(m: IntMatrix, vec):
    """One integer solution x of m*x = vec, or None."""
    return IntSolver(m).solve(vec)


def preimage_lattice(m: IntMatrix, lat: Lattice) -> Lattice:
    """{x in Z^ncols : m*x in lat}, from the stacked columns
    (m e_j ; e_j) and (l_k ; 0) for the basis columns l_k of lat."""
    if m.nrows != lat.dim:
        raise ValueError("shape mismatch")
    # reducing the columns of m modulo lat keeps entries small and does
    # not change the preimage
    n = m.ncols
    cols = _stack_identity([lat.reduce(c) for c in m.cols], n)
    cols += [c + [0] * n for c in lat.basis.cols]
    return _bottom_lattice(cols, m.nrows, n)


class QLattice:
    """Finitely generated subgroup of Q^dim: (1/den) * L for an integer
    lattice L.  Canonical: den > 0 and gcd(den, content(L)) = 1.  A
    canonical basis divided by a common factor of its entries is still
    canonical, so removing the factor builds no Hermite form."""

    __slots__ = ("dim", "den", "lat")

    def __init__(self, dim: int, den: int, lat: Lattice):
        if den <= 0:
            raise ValueError("denominator must be positive")
        g = 0
        for c in lat.basis.cols:
            for e in c:
                g = gcd(g, e)
        g = gcd(g, den)
        if g > 1:
            lat = Lattice._from_hnf(dim, [[e // g for e in c] for c in lat.basis.cols])
            den //= g
        self.dim = dim
        self.den = den
        self.lat = lat

    @classmethod
    def from_cols(cls, cols, dim: int) -> "QLattice":
        m = RatMatrix(dim, cols)
        return cls(dim, m.den, Lattice(dim, m.num))

    @property
    def rank(self) -> int:
        return self.lat.rank

    def basis_cols(self):
        """Basis as column vectors of coordinates."""
        d = self.den
        return [[ratio(e, d) for e in c] for c in self.lat.basis.cols]

    def _scale_vec(self, vec):
        """den * vec as integers, or None if it is not integral."""
        nums, d = clear_vector(vec)
        if self.den % d:
            return None
        k = self.den // d
        return [e * k for e in nums]

    def contains(self, vec) -> bool:
        s = self._scale_vec(vec)
        return s is not None and self.lat.contains(s)

    def coords(self, vec):
        """Integer coordinates in the canonical basis, or None."""
        s = self._scale_vec(vec)
        if s is None:
            return None
        return self.lat.coords(s)

    def element(self, coords):
        return [ratio(e, self.den) for e in self.lat.element(coords)]

    def __eq__(self, other):
        return (
            isinstance(other, QLattice)
            and self.dim == other.dim
            and self.den == other.den
            and self.lat == other.lat
        )

    def __repr__(self):
        return f"QLattice(dim={self.dim}, rank={self.rank}, den={self.den})"


def qlat_index(sub: QLattice, sup: QLattice) -> int:
    """Group index (sup : sub) for sub <= sup of equal rank in Q^dim.
    Both canonical bases are scaled to the least common denominator; a
    canonical basis times a positive integer is still canonical."""
    d = lcm(sub.den, sup.den)

    def scaled(q):
        k = d // q.den
        return Lattice._from_hnf(q.dim, [[e * k for e in c] for c in q.lat.basis.cols])

    return lattice_index(scaled(sub), scaled(sup))
