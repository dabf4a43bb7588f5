"""Exact integer and rational linear algebra.

Everything here is arbitrary precision: integer matrices hold Python
ints, rational matrices hold ``fractions.Fraction``.  No floating point
anywhere.  Matrices are immutable by convention (constructors copy their
input, methods return new objects) and may therefore be shared freely.

Lattices are stored through a canonical column-style Hermite normal
form, so two equal lattices compare equal as matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(nrows, [[rows[i][j] for i in range(nrows)] for j in range(ncols)])

    @classmethod
    def from_cols(cls, cols, nrows: int) -> "IntMatrix":
        return cls(nrows, cols)

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
    """Dense matrix over Q, stored column-major with Fraction entries."""

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols):
        self.nrows = nrows
        self.cols = [[Fraction(e) for e in c] for c in cols]
        for c in self.cols:
            if len(c) != nrows:
                raise ValueError("ragged matrix")

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, [[1 if i == j else 0 for i in range(n)] for j in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(nrows, [[rows[i][j] for i in range(nrows)] for j in range(ncols)])

    @classmethod
    def from_cols(cls, cols, nrows: int) -> "RatMatrix":
        return cls(nrows, cols)

    def col(self, j: int):
        return list(self.cols[j])

    def row(self, i: int):
        return [c[i] for c in self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.cols[j][i]

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        out = [Fraction(0)] * self.nrows
        for x, col in zip(vec, self.cols):
            if x:
                for i, e in enumerate(col):
                    if e:
                        out[i] += x * e
        return out

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return RatMatrix(self.nrows, [self.apply(c) for c in other.cols])

    def clear_denominators(self):
        """Return (IntMatrix n, int d) with self = n/d and d > 0."""
        d = 1
        for c in self.cols:
            for e in c:
                d = d * e.denominator // gcd(d, e.denominator)
        n = IntMatrix(
            self.nrows,
            [[int(e * d) for e in c] for c in self.cols],
        )
        return n, d

    def solve(self, vec):
        """One solution x of self*x = vec over Q, or None if inconsistent."""
        return solve_rat(self, vec)

    def inverse(self) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        a = self.to_rows()
        inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            inv[k], inv[piv] = inv[piv], inv[k]
            p = a[k][k]
            a[k] = [e / p for e in a[k]]
            inv[k] = [e / p for e in inv[k]]
            for i in range(n):
                if i != k and a[i][k]:
                    f = a[i][k]
                    a[i] = [e - f * g for e, g in zip(a[i], a[k])]
                    inv[i] = [e - f * g for e, g in zip(inv[i], inv[k])]
        return RatMatrix.from_rows(inv)

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.nrows == other.nrows
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"


def solve_rat(m: RatMatrix, vec):
    """A particular rational solution of m*x = vec, or None."""
    nr, nc = m.nrows, m.ncols
    a = [list(r) + [Fraction(v)] for r, v in zip(m.to_rows(), vec)]
    piv_cols = []
    r = 0
    for c in range(nc):
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
    for i in range(r, nr):
        if a[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        x[c] = a[i][nc]
    return x


def hnf(m: IntMatrix):
    """Column Hermite normal form: (h, u) with h = m*u, u unimodular.

    Pivots are positive, entries left of a pivot in its row are reduced
    into [0, pivot), zero columns trail.
    """
    h, u = kernels.hnf_cols(m.cols, m.nrows)
    return IntMatrix(m.nrows, h), IntMatrix(m.ncols, u)


def snf(m: IntMatrix):
    """Smith normal form: (d, u, v) with d = u*m*v, d diagonal with
    d_i | d_{i+1}, u and v unimodular."""
    d, u, v = kernels.snf_cols(m.cols, m.nrows)
    return IntMatrix(m.nrows, d), IntMatrix(m.nrows, u), IntMatrix(m.ncols, v)


def det_int(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
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

    __slots__ = ("dim", "basis")

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
        h, _ = kernels.hnf_cols(cols, dim)
        nz = [c for c in h if any(c)]
        self.dim = dim
        self.basis = IntMatrix(dim, nz)

    @classmethod
    def zero(cls, dim: int) -> "Lattice":
        return cls(dim, [])

    @classmethod
    def full(cls, dim: int) -> "Lattice":
        return cls(dim, IntMatrix.identity(dim))

    @property
    def rank(self) -> int:
        return self.basis.ncols

    def coords(self, vec):
        """Integer coordinates of vec in the basis, or None if vec is not
        in the lattice."""
        v = list(vec)
        out = []
        for c in self.basis.cols:
            r = next(i for i, e in enumerate(c) if e)
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

    def rat_coords(self, vec):
        """Rational coordinates of vec in span_Q(basis), or None."""
        v = [Fraction(e) for e in vec]
        out = []
        for c in self.basis.cols:
            r = next(i for i, e in enumerate(c) if e)
            q = v[r] / c[r]
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
        for c in self.basis.cols:
            r = next(i for i, e in enumerate(c) if e)
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


def kernel_int(m: IntMatrix) -> Lattice:
    """Saturated integer kernel {x in Z^ncols : m*x = 0}."""
    h, u = kernels.hnf_cols(m.cols, m.nrows)
    gens = [u[j] for j in range(len(h)) if not any(h[j])]
    return Lattice(m.ncols, gens)


def image_int(m: IntMatrix) -> Lattice:
    """Lattice generated by the columns of m."""
    return Lattice(m.nrows, m)


def sum_lattices(a: Lattice, b: Lattice) -> Lattice:
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    return Lattice(a.dim, a.basis.cols + b.basis.cols)


def intersect_lattices(a: Lattice, b: Lattice) -> Lattice:
    """Intersection, via the kernel of the stacked-basis matrix."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    stacked = a.basis.hstack(b.basis.scaled(-1))
    ker = kernel_int(stacked)
    ra = a.rank
    gens = [a.basis.apply(c[:ra]) for c in ker.basis.cols]
    return Lattice(a.dim, gens)


def lattice_index(sub: Lattice, sup: Lattice) -> int:
    """Group index (sup : sub) for full-rank sub <= sup."""
    if sub.dim != sup.dim or sub.rank != sup.rank:
        raise ValueError("lattices must have equal rank in the same ambient space")
    cols = []
    for c in sub.basis.cols:
        x = sup.coords(c)
        if x is None:
            raise ValueError("sub is not contained in sup")
        cols.append(x)
    d = det_int(IntMatrix(sup.rank, cols))
    if d == 0:
        raise ValueError("sub has lower rank than sup")
    return abs(d)


def solve_int(m: IntMatrix, vec):
    """One integer solution x of m*x = vec, or None."""
    h, u = kernels.hnf_cols(m.cols, m.nrows)
    v = list(vec)
    y = [0] * len(h)
    for j, c in enumerate(h):
        if not any(c):
            break
        r = next(i for i, e in enumerate(c) if e)
        # entries above r in c are zero, and previous pivots cleared v there
        if v[r] % c[r] != 0:
            return None
        q = v[r] // c[r]
        y[j] = q
        if q:
            for i in range(r, m.nrows):
                v[i] -= q * c[i]
    if any(v):
        return None
    x = [0] * m.ncols
    for j, q in enumerate(y):
        if q:
            for i, e in enumerate(u[j]):
                x[i] += q * e
    return x


def preimage_lattice(m: IntMatrix, lat: Lattice) -> Lattice:
    """{x in Z^ncols : m*x in lat}."""
    if m.nrows != lat.dim:
        raise ValueError("shape mismatch")
    # reducing the columns of m modulo lat keeps entries small and does
    # not change the preimage
    red = IntMatrix(m.nrows, [lat.reduce(c) for c in m.cols])
    stacked = red.hstack(lat.basis.scaled(-1))
    ker = kernel_int(stacked)
    gens = [c[: m.ncols] for c in ker.basis.cols]
    return Lattice(m.ncols, gens)


class QLattice:
    """Finitely generated subgroup of Q^dim: (1/den) * L for an integer
    lattice L.  Canonical: den > 0 and gcd(den, content(L)) = 1."""

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
            lat = Lattice(dim, [[e // g for e in c] for c in lat.basis.cols])
            den //= g
        self.dim = dim
        self.den = den
        self.lat = lat

    @classmethod
    def from_cols(cls, cols, dim: int) -> "QLattice":
        den = 1
        fcols = [[Fraction(e) for e in c] for c in cols]
        for c in fcols:
            for e in c:
                den = den * e.denominator // gcd(den, e.denominator)
        icols = [[int(e * den) for e in c] for c in fcols]
        return cls(dim, den, Lattice(dim, icols))

    @property
    def rank(self) -> int:
        return self.lat.rank

    def basis_cols(self):
        """Basis as Fraction column vectors."""
        d = self.den
        return [[Fraction(e, d) for e in c] for c in self.lat.basis.cols]

    def _scale_vec(self, vec):
        out = []
        for e in vec:
            f = Fraction(e) * self.den
            if f.denominator != 1:
                return None
            out.append(int(f))
        return out

    def contains(self, vec) -> bool:
        s = self._scale_vec(vec)
        return s is not None and self.lat.contains(s)

    def coords(self, vec):
        """Integer coordinates in the canonical basis, or None."""
        s = self._scale_vec(vec)
        if s is None:
            return None
        return self.lat.coords(s)

    def rat_coords(self, vec):
        v = [Fraction(e) * self.den for e in vec]
        return self.lat.rat_coords(v)

    def element(self, coords):
        v = self.lat.element(coords)
        return [Fraction(e, self.den) for e in v]

    def __eq__(self, other):
        return (
            isinstance(other, QLattice)
            and self.dim == other.dim
            and self.den == other.den
            and self.lat == other.lat
        )

    def __repr__(self):
        return f"QLattice(dim={self.dim}, rank={self.rank}, den={self.den})"


def _common_den_lattices(a: QLattice, b: QLattice):
    d = a.den * b.den // gcd(a.den, b.den)
    la = Lattice(a.dim, [[e * (d // a.den) for e in c] for c in a.lat.basis.cols])
    lb = Lattice(b.dim, [[e * (d // b.den) for e in c] for c in b.lat.basis.cols])
    return d, la, lb


def qlat_sum(a: QLattice, b: QLattice) -> QLattice:
    d, la, lb = _common_den_lattices(a, b)
    return QLattice(a.dim, d, sum_lattices(la, lb))


def qlat_index(sub: QLattice, sup: QLattice) -> int:
    d, ls, lp = _common_den_lattices(sub, sup)
    return lattice_index(ls, lp)
