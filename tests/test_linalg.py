import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ordroots import kernels
from ordroots.linalg import (
    IntMatrix,
    IntSolver,
    Lattice,
    QLattice,
    RatMatrix,
    det_int,
    hnf,
    image_int,
    intersect_lattices,
    invariant_factors,
    kernel_int,
    lattice_index,
    preimage_lattice,
    qlat_index,
    snf,
    solve_int,
    solve_rat,
    sum_lattices,
)
from ordroots.linalg import _echelon, clear_vector
from util import (
    bareiss_det_int,
    cofactor_det,
    fraction_echelon,
    fraction_gauss_jordan,
    fraction_inverse,
    fraction_solve,
    int_matrices,
    matrix_of_rows,
    reference_intersect_lattices,
    reference_kernel_int,
    reference_preimage_lattice,
    rescan_coords,
    rescan_reduce,
    rescan_solve_int,
)


small_matrices = st.integers(0, 5).flatmap(
    lambda nr: st.integers(0, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-30, 30), min_size=nr, max_size=nr),
            min_size=nc, max_size=nc,
        ).map(lambda cols: IntMatrix(nr, cols))
    )
)
# entries near 10**50: pivots must stay exact far past machine words
big_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-10**50, 10**50), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda cols: IntMatrix(n, cols))
)


def test_hnf_identity_and_zero():
    i3 = IntMatrix.identity(3)
    h, u = hnf(i3)
    assert h == i3 and u == i3
    z = IntMatrix.zeros(2, 2)
    h, u = hnf(z)
    assert h == z
    assert u == IntMatrix.identity(2)


def test_hnf_det_invariant():
    m = matrix_of_rows([[4, 2], [2, 4]])
    h, u = hnf(m)
    assert abs(det_int(h)) == 12
    assert abs(cofactor_det(m.to_rows())) == 12
    assert m.mul(u) == h


@given(small_matrices | big_matrices)
@settings(max_examples=120, deadline=None)
def test_hnf_contract(m):
    h, u = hnf(m)
    # h = m*u with u unimodular
    assert m.mul(u) == h
    assert abs(det_int(u)) == 1
    # canonical shape: pivot rows strictly increase, pivots positive,
    # entries left of a pivot reduced into [0, pivot)
    last = -1
    seen_zero = False
    for j in range(h.ncols):
        col = h.col(j)
        nz = [i for i, e in enumerate(col) if e]
        if not nz:
            seen_zero = True
            continue
        assert not seen_zero, "zero columns must trail"
        r = nz[0]
        assert r > last
        last = r
        assert col[r] > 0
        for j2 in range(j):
            assert 0 <= h.entry(r, j2) < col[r]


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_hnf_idempotent(m):
    h, _ = hnf(m)
    h2, _ = hnf(h)
    assert h2 == h


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_kernel_and_image(m):
    ker = kernel_int(m)
    for c in ker.basis.cols:
        assert all(v == 0 for v in m.apply(list(c)))
    img = image_int(m)
    assert img.rank + ker.rank == m.ncols
    # saturation: kernel of 3*m is the same lattice
    assert kernel_int(m.scaled(3)) == ker


def test_kernel_examples():
    assert kernel_int(IntMatrix.identity(2)).rank == 0
    k = kernel_int(matrix_of_rows([[1, 1]]))
    assert k.rank == 1 and k.basis.col(0) in ([1, -1], [-1, 1])
    k = kernel_int(matrix_of_rows([[2, 4], [1, 2]]))
    assert k.rank == 1
    v = k.basis.col(0)
    assert sorted(map(abs, v)) == [1, 2]
    # saturation cross-check by enumeration of small vectors
    sols = [
        (a, b)
        for a in range(-4, 5)
        for b in range(-4, 5)
        if 2 * a + 4 * b == 0 and a + 2 * b == 0
    ]
    for s in sols:
        assert k.contains(list(s))


def test_image_examples():
    img = image_int(IntMatrix.identity(2))
    assert img == Lattice.full(2)
    img = image_int(matrix_of_rows([[2, 0], [0, 3], [0, 0]]))
    assert img.rank == 2
    img = image_int(IntMatrix(2, [[2, 0], [0, 2], [1, 1]]))
    assert img.basis.to_rows() == [[1, 0], [1, 2]]
    # membership enumeration: exactly the vectors with equal parity
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert img.contains([a, b]) == ((a - b) % 2 == 0)


def test_index_examples():
    full = Lattice.full(2)
    assert lattice_index(full, full) == 1
    two = Lattice(2, [[2, 0], [0, 2]])
    assert lattice_index(two, full) == 4
    with pytest.raises(ValueError):
        lattice_index(full, two)  # not contained
    with pytest.raises(ValueError):
        lattice_index(Lattice(2, [[1, 0]]), full)  # rank mismatch


def test_index_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = Lattice(n, [[rng.randint(1, 3) if i == j else rng.randint(0, 2)
                         for i in range(n)] for j in range(n)])
        mid_cols = [[2 * e for e in c] for c in a.basis.cols]
        b = Lattice(n, mid_cols)
        c = Lattice(n, [[3 * e for e in cc] for cc in b.basis.cols])
        assert lattice_index(c, a) == lattice_index(c, b) * lattice_index(b, a)


@st.composite
def nested_lattices(draw):
    """(sub, sup, t): sup of rank k below its ambient dimension n and sub
    spanned by sup's basis times t, a k x k integer matrix of nonzero
    determinant.  Zero entries are drawn often, so pivot rows vary."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    entries = st.integers(-4, 4) | st.just(0)
    sup = Lattice(n, draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=k, max_size=k)))
    assume(sup.rank == k)
    t = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                      min_size=k, max_size=k))
    assume(cofactor_det(t) != 0)
    return Lattice(n, [sup.element(c) for c in t]), sup, t


@given(nested_lattices(), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_index_of_equal_rank_below_the_ambient_dimension(lattices, a, b):
    # the pivot-product ratio against the determinant of the coordinates
    # of sub's basis in sup's basis, and against the determinant of t
    sub, sup, t = lattices
    coords = [sup.coords(c) for c in sub.basis.cols]
    assert lattice_index(sub, sup) == abs(cofactor_det(coords)) == abs(cofactor_det(t))
    # (1/b) sup and (a/b) sub, whose denominators differ once reduced,
    # against the Hermite forms recomputed at their common denominator
    qsup = QLattice(sup.dim, b, sup)
    qsub = QLattice(sub.dim, b, Lattice(sub.dim, [[a * e for e in c] for c in sub.basis.cols]))
    d = math.lcm(qsub.den, qsup.den)
    ls, lp = (Lattice(q.dim, [[e * (d // q.den) for e in c] for c in q.lat.basis.cols])
              for q in (qsub, qsup))
    ref = abs(cofactor_det([lp.coords(c) for c in ls.basis.cols]))
    assert qlat_index(qsub, qsup) == ref == abs(cofactor_det(t)) * a ** sub.rank


def test_sum_intersect_examples():
    z2 = Lattice.full(2)
    assert intersect_lattices(z2, z2) == z2
    a = Lattice(2, [[2, 0], [0, 2]])
    b = Lattice(2, [[3, 0], [0, 3]])
    assert sum_lattices(a, b) == z2
    i = intersect_lattices(a, b)
    assert i == Lattice(2, [[6, 0], [0, 6]])


@given(small_matrices | big_matrices)
@settings(max_examples=80, deadline=None)
def test_snf_contract(m):
    d, u, v = snf(m)
    assert u.mul(m).mul(v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    diag = [d.entry(i, i) for i in range(min(d.nrows, d.ncols))]
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.entry(i, j) == 0
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i] > 0
            if diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0


def test_snf_example_and_minor_gcd_oracle():
    d, _, _ = snf(matrix_of_rows([[2, 0], [0, 4]]))
    assert [d.entry(i, i) for i in range(2)] == [2, 4]
    # invariant factors from gcds of k x k minors
    import math

    m = matrix_of_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    rows = m.to_rows()
    facs = invariant_factors(m)
    g1 = 0
    for r in rows:
        for e in r:
            g1 = math.gcd(g1, e)
    minors2 = []
    for i1 in range(3):
        for i2 in range(i1 + 1, 3):
            for j1 in range(3):
                for j2 in range(j1 + 1, 3):
                    minors2.append(rows[i1][j1] * rows[i2][j2]
                                   - rows[i1][j2] * rows[i2][j1])
    g2 = 0
    for e in minors2:
        g2 = math.gcd(g2, e)
    g3 = abs(cofactor_det(rows))
    expect = [g1]
    if g2:
        expect.append(g2 // g1)
    if g3:
        expect.append(g3 // g2)
    assert facs == [f for f in expect if f]


@given(small_matrices)
@settings(max_examples=50, deadline=None)
def test_snf_invariant_under_unimodular(m):
    rng = random.Random(11)
    # random unimodular transforms on both sides
    u = IntMatrix.identity(m.nrows)
    v = IntMatrix.identity(m.ncols)
    for _ in range(4):
        if m.nrows > 1:
            i, j = rng.sample(range(m.nrows), 2)
            rows = u.to_rows()
            rows[i] = [a + 2 * b for a, b in zip(rows[i], rows[j])]
            u = matrix_of_rows(rows)
        if m.ncols > 1:
            i, j = rng.sample(range(m.ncols), 2)
            cols = [u2[:] for u2 in (v.col(t) for t in range(v.ncols))]
            cols[i] = [a - b for a, b in zip(cols[i], cols[j])]
            v = IntMatrix(m.ncols, cols)
    assert invariant_factors(u.mul(m).mul(v)) == invariant_factors(m)


def test_solve_int_and_rat():
    m = matrix_of_rows([[2, 0], [0, 3]])
    assert solve_int(m, [4, 9]) == [2, 3]
    assert solve_int(m, [1, 0]) is None
    rm = RatMatrix(2, [[1, 3], [2, 4]])
    x = solve_rat(rm, [1, 1])
    assert x == [Fraction(-1), Fraction(1)]
    # inconsistent system
    rm2 = RatMatrix(2, [[1, 2], [1, 2]])
    assert solve_rat(rm2, [1, 3]) is None
    assert solve_rat(rm2, [1, 2]) is not None


@given(small_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_stored_pivots_and_prepared_solver_match_rescans(m, data):
    vectors = st.lists(st.integers(-60, 60), min_size=m.nrows, max_size=m.nrows)
    lat = Lattice(m.nrows, m)
    solver = IntSolver(m)
    assert lat.pivots == [next(i for i, e in enumerate(c) if e) for c in lat.basis.cols]
    assert solver.image == lat
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=m.ncols, max_size=m.ncols))
    # a vector of the image, one of a scaled image, and an arbitrary one
    for v in (m.apply(coeffs), [2 * e + 1 for e in m.apply(coeffs)], data.draw(vectors)):
        assert lat.reduce(v) == rescan_reduce(lat, v)
        assert lat.coords(v) == rescan_coords(lat, v)
        x = solver.solve(v)
        assert x == rescan_solve_int(m, v) == solve_int(m, v)
        assert x is None or m.apply(x) == v


@given(int_matrices(max_dim=6))
@example((2, [[1, 2], [2, 4]]))
@example((3, [[0, 0, 0], [1, 2, 3], [4, 5, 6]]))
@settings(max_examples=150, deadline=None)
def test_solver_kernel_spans_the_kernel(mat):
    nrows, cols = mat
    m = IntMatrix(nrows, cols)
    kernel = IntSolver(m).kernel
    assert kernel.nrows == m.ncols
    assert all(not any(m.apply(c)) for c in kernel.cols)
    # a basis of the saturated kernel: it spans it, with no column to spare
    assert Lattice(m.ncols, kernel) == kernel_int(m)
    assert kernel.ncols == kernel_int(m).rank


@st.composite
def square_int_matrices(draw):
    """Square integer matrices up to 6 x 6: dense, singular (a row that
    combines two others), or a cyclic row shift of an upper triangular
    matrix with a nonzero diagonal, whose first row starts with a zero,
    so that elimination must swap rows."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "singular", "swap"]))
    entry = st.integers(-60, 60)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular" and n:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a, b = draw(entry), draw(entry)
        rows[draw(st.integers(0, n - 1))] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    elif kind == "swap" and n > 1:
        for i in range(n):
            rows[i][:i] = [0] * i
            rows[i][i] = rows[i][i] or 1
        shift = draw(st.integers(1, n - 1))
        rows = rows[shift:] + rows[:shift]
    return matrix_of_rows(rows) if n else IntMatrix(0, [])


@given(square_int_matrices())
@example(matrix_of_rows([[0, 1], [1, 0]]))
@example(matrix_of_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
@example(matrix_of_rows([[0, 2, 1], [0, 4, 2], [3, 1, 1]]))
@example(matrix_of_rows([[0, 0], [0, 5]]))
@settings(max_examples=200, deadline=None)
def test_determinant_is_the_signed_cofactor_expansion(m):
    rows = m.to_rows()
    assert det_int(m) == cofactor_det(rows) == bareiss_det_int(m)
    assert m.to_rows() == rows  # the input is not eliminated in place


def test_determinant_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="not square"):
        det_int(matrix_of_rows([[1, 2, 3], [4, 5, 6]]))


def test_preimage_lattice():
    m = matrix_of_rows([[1, 0], [0, 1]])
    lat = Lattice(2, [[2, 0], [0, 3]])
    pre = preimage_lattice(m, lat)
    assert pre == lat
    m2 = matrix_of_rows([[1, 1]])
    pre2 = preimage_lattice(m2, Lattice(1, [[5]]))
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert pre2.contains([a, b]) == ((a + b) % 5 == 0)


@given(int_matrices(max_dim=6), st.data())
@example((0, []), None)
@example((3, []), None)
@example((0, [[], []]), None)
@settings(max_examples=200, deadline=None)
def test_stacked_lattice_operations_equal_the_multi_hermite_references(mat, data):
    nrows, cols = mat
    m = IntMatrix(nrows, cols)
    assert kernel_int(m) == reference_kernel_int(m)
    if data is None:
        lat, other = Lattice.zero(nrows), Lattice.full(nrows)
    else:
        lat = Lattice(nrows, data.draw(int_matrices(max_dim=6, nrows=nrows))[1])
        other = Lattice(nrows, data.draw(int_matrices(max_dim=6, nrows=nrows))[1])
    assert preimage_lattice(m, lat) == reference_preimage_lattice(m, lat)
    image = image_int(m)
    for a, b in ((image, lat), (lat, image), (lat, other)):
        assert intersect_lattices(a, b) == reference_intersect_lattices(a, b)


def test_each_derived_lattice_is_one_hermite_form(monkeypatch):
    m = matrix_of_rows([[2, 4, 6, 1], [3, 6, 9, 0], [1, 1, 1, 1]])
    a = Lattice(3, [[4, 0, 2], [0, 6, 0], [1, 1, 1]])
    b = Lattice(3, [[6, 0, 0], [0, 4, 0], [0, 0, 10]])
    calls = []
    hnf_cols = kernels.hnf_cols

    def counted(cols, nrows):
        calls.append(nrows)
        return hnf_cols(cols, nrows)

    monkeypatch.setattr(kernels, "hnf_cols", counted)
    for op in (lambda: kernel_int(m), lambda: preimage_lattice(m, a),
               lambda: intersect_lattices(a, b)):
        calls.clear()
        op()
        assert len(calls) == 1


@given(int_matrices(max_dim=5), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_qlattice_divides_out_a_common_factor_to_the_canonical_basis(mat, k, den):
    nrows, cols = mat
    lat = Lattice(nrows, cols)
    q = QLattice(nrows, k * den, Lattice(nrows, [[k * e for e in c] for c in cols]))
    g = math.gcd(den, *(e for c in lat.basis.cols for e in c))
    assert q.den == den // g
    assert q.lat == Lattice(nrows, [[e // g for e in c] for c in lat.basis.cols])
    assert q == QLattice(nrows, den, lat)


def test_qlattice_roundtrip_and_index():
    q = QLattice.from_cols([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2)
    assert q.contains([Fraction(1, 2), Fraction(2, 3)])
    assert not q.contains([Fraction(1, 3), 0])
    full = QLattice.from_cols([[1, 0], [0, 1]], 2)
    assert qlat_index(full, q) == 6
    assert all(q.contains(c) for c in ([1, 0], [0, 1]))


def test_rat_matrix_inverse():
    m = RatMatrix(2, [[1, 3], [2, 5]])
    inv = m.inverse()
    assert m.mul(inv) == RatMatrix.identity(2)
    with pytest.raises(ValueError):
        RatMatrix(2, [[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
@pytest.mark.parametrize("rows", [[[1], [2, 3]], [[1, 2], [3]], [[], [1]]])
def test_ragged_rows_are_rejected(cls, rows):
    # the lists read as columns of len(rows) rows are ragged
    with pytest.raises(ValueError, match="ragged matrix"):
        cls(len(rows), rows)


# ---------------------------------------------------------------------------
# rational systems against Gauss-Jordan over Fractions

# numerators and denominators near 2^64 as well as small ones: the field
# inverses of a torsion climb solve systems of entries thousands of bits long
_NEAR_2_64 = st.integers(2**64 - 9, 2**64 + 9)
_RAT = st.one_of(
    st.just(0), st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12),
    st.builds(lambda s, n, d: Fraction(s * n, d), st.sampled_from([1, -1]),
              _NEAR_2_64 | st.integers(1, 6), _NEAR_2_64 | st.integers(1, 12)))


@st.composite
def rational_systems(draw):
    """(rows, vec): 1..8 x 1..8 rational rows and a right-hand side, with
    dependent rows and consistent right-hand sides drawn often."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_RAT, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr > 1 and draw(st.booleans()):
        # row j a multiple of row i
        i = draw(st.integers(0, nr - 1))
        j = (i + draw(st.integers(1, nr - 1))) % nr
        k = draw(_RAT)
        rows[j] = [k * e for e in rows[i]]
    if draw(st.booleans()):
        y = draw(st.lists(_RAT, min_size=nc, max_size=nc))
        vec = [sum(Fraction(a) * b for a, b in zip(r, y)) for r in rows]
    else:
        vec = draw(st.lists(_RAT, min_size=nr, max_size=nr))
    return rows, vec


@settings(max_examples=150, deadline=None)
@given(rational_systems())
@example(([[1, 1], [2, 2]], [1, 3]))  # inconsistent
@example(([[1, 2, 3]], [Fraction(1, 2)]))  # underdetermined
@example(([[0, 0], [0, 0]], [0, 0]))  # singular, every x solves
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]], [1, 1]))  # singular
@example(([[1], [2], [3]], [2, 4, 6]))  # overdetermined, consistent
@example(([[1, 0, 1], [0, 0, 1]], [1, 2]))  # a free unknown between two pivot columns
@example(([[1, 1, 1], [1, 1, 2], [1, 2, 1]], [1, 0, 3]))  # a later pivot needs a row swap
@example(([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [1, 2, 3]))  # rank 2: no inverse
def test_solve_and_inverse_match_the_fraction_reference(system):
    rows, vec = system
    m = RatMatrix(len(rows), zip(*rows))
    x = solve_rat(m, vec)
    assert x == fraction_solve(rows, vec)
    if x is not None:
        assert list(m.apply(x)) == vec
    if len(rows) != len(rows[0]):
        with pytest.raises(ValueError, match="not square"):
            m.inverse()
        return
    try:
        want = fraction_inverse(rows)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
        return
    inv = m.inverse()
    assert inv == RatMatrix(len(want), zip(*want))
    assert m.mul(inv) == RatMatrix.identity(len(rows))


@settings(max_examples=100, deadline=None)
@given(rational_systems())
def test_fraction_free_rows_are_multiples_of_the_rational_rows(system):
    """The integer forward elimination pivots on the same rows as
    elimination over Q, so each of its rows is a nonzero multiple of the
    row that forward elimination over Q leaves there, the rows below the
    last pivot row vanish on the eliminated columns, and the last pivot
    is the returned d, the signed determinant of a full-rank square."""
    rows, vec = system
    nc = len(rows[0])
    ints = [clear_vector(list(r) + [v])[0] for r, v in zip(rows, vec)]
    square = [r[:nc] for r in ints] if len(rows) == nc else None
    _, ref_pivots = fraction_gauss_jordan(ints, nc)
    ref = fraction_echelon(ints, nc)
    pivots, d, sign = _echelon(ints, nc)
    assert pivots == ref_pivots
    assert sign in (1, -1)
    if square is not None and len(pivots) == len(square):
        assert sign * d == cofactor_det(square)
    assert not any(e for r in ints[len(pivots):] for e in r[:nc])
    if pivots:
        assert ints[len(pivots) - 1][pivots[-1]] == d
    for got, want in zip(ints, ref):
        j = next((j for j, e in enumerate(want) if e), None)
        if j is None:
            assert not any(got)
            continue
        k = Fraction(got[j]) / want[j]
        assert k != 0 and got == [k * e for e in want]
