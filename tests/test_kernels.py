"""The extended gcd behind the normal-form kernels, and the kernels
against references that keep their transforms in separate matrices.
Hermite and Smith forms are checked against their contracts in
``test_linalg.py``."""

from hypothesis import example, given, settings

from ordroots.kernels import hnf_cols, snf_cols, xgcd
from ordroots.linalg import IntMatrix, hnf, snf
from util import int_matrices, reference_hnf_cols, reference_snf_cols


def test_xgcd_basic():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3), (-4, -6)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


@given(int_matrices())
@example((0, []))
@example((0, [[], [], []]))
@example((3, []))
@example((2, [[0, 0], [0, 0], [0, 0]]))
@settings(max_examples=300, deadline=None)
def test_hermite_form_with_carried_rows_equals_the_separate_transform(mat):
    nrows, cols = mat
    ncols = len(cols)
    before = [list(c) for c in cols]
    h, u = reference_hnf_cols(cols, nrows)
    # bare, and with the identity carried below the pivoted rows
    assert hnf_cols(cols, nrows) == h
    carried = hnf_cols([c + [int(i == j) for i in range(ncols)] for j, c in enumerate(cols)],
                       nrows)
    assert [c[:nrows] for c in carried] == h
    assert [c[nrows:] for c in carried] == u
    assert hnf(IntMatrix(nrows, cols)) == (IntMatrix(nrows, h), IntMatrix(ncols, u))
    assert cols == before


@given(int_matrices())
@example((0, []))
@example((0, [[], [], []]))
@example((3, []))
@example((2, [[0, 0], [0, 0], [0, 0]]))
@settings(max_examples=300, deadline=None)
def test_smith_form_with_carried_transforms_equals_the_separate_ones(mat):
    nrows, cols = mat
    ncols = len(cols)
    before = [list(c) for c in cols]
    d, u, v = reference_snf_cols(cols, nrows)
    assert snf_cols(cols, nrows) == (d, u, v)
    assert snf(IntMatrix(nrows, cols)) == (
        IntMatrix(nrows, d), IntMatrix(nrows, u), IntMatrix(ncols, v))
    assert cols == before
