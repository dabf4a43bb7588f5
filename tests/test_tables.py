"""Sparse structure tables against the dense reference of ``util``.

A ring keeps each cell of its structure table as the nonzero (k, c)
pairs of e_i * e_j.  Products on those cells must equal the dense walk
over every entry, the checked builder must give the dense check's verdict
and message, and the square of an ideal, formed on the pairs i <= j of
its basis, must equal the product over all ordered pairs.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots.finitering import FiniteRing, RingIdeal
from ordroots.linalg import Lattice
from ordroots.ordercore import build_context, mu_c_p_presentation, order_from_poly
from ordroots.polyfactor import qp_mul
from ordroots.qalgebra import AlgebraError, QAlgebra, sparse_table, table_mul, table_mul_basis
from ordroots.rou import conductor
from util import (
    dense_check_table,
    dense_table,
    dense_table_mul,
    dense_table_mul_basis,
    diagonal_congruence_suborder,
    group_ring,
    product_order,
    scalar_suborder,
    stacked_conductor,
)


def _eps_ring(p, m):
    """F_p[e]/(e^m) on the basis 1, e, ..., e^(m-1)."""
    table = [[[int(k == i + j) for k in range(m)] for j in range(m)] for i in range(m)]
    rel = Lattice(m, [[p * (i == j) for i in range(m)] for j in range(m)])
    return FiniteRing(rel, table, [1] + [0] * (m - 1))


@lru_cache(maxsize=None)
def _orders():
    """The group rings Z[C_5] ... Z[C_8] and Z[C_2 x C_2], number rings,
    a split order, suborders and a product order."""
    zi = order_from_poly([1, 0, 1])
    return [group_ring(n) for n in range(5, 9)] + [
        group_ring(2, 2),
        order_from_poly([-1] + [0] * 11 + [1]),
        order_from_poly(reduce(qp_mul, ([-a, 1] for a in (-3, -1, 0, 1, 2, 4)))),
        scalar_suborder(order_from_poly([1, 1, 1]), 2),
        diagonal_congruence_suborder(zi, 2, 2),
        product_order([dense_table(zi.algebra.table), [[[1]]]]),
    ]


@lru_cache(maxsize=None)
def _algebras():
    rational = QAlgebra([[[1, 0], [0, 1]], [[0, 1], [0, Fraction(1, 2)]]])
    return [A.algebra for A in _orders()] + [rational]


@lru_cache(maxsize=None)
def _rings():
    """Small rings of the finite-ring tests, and both conductor quotients
    C/ff and A/ff of every order of ``_orders`` at each torsion prime,
    A/ff built in A's own coordinates."""
    rings = [FiniteRing(Lattice(1, [[16]]), [[[1]]], [1]), _eps_ring(3, 4),
             FiniteRing(Lattice(2, [[9, 0], [0, 9]]),
                        [[[1, 0], [0, 1]], [[0, 1], [8, 8]]], [1, 0])]
    for A in _orders():
        ctx = build_context(A)
        for p in ctx.torsion_primes():
            mu_c = mu_c_p_presentation(ctx, p)
            ring_a = ctx.sep_order.finite_quotient(stacked_conductor(ctx, mu_c)[1])
            rings += [conductor(ctx, mu_c).ring_c, ring_a]
    return rings


def test_the_fixtures_cover_sparse_and_dense_cells():
    tables = [A.table for A in _algebras()] + [R.table for R in _rings()]
    fills = [sum(len(c) for row in t for c in row) / len(t) ** 3 for t in tables]
    assert len(_rings()) >= 20
    assert min(fills) < 0.2 and max(fills) > 0.8


_COORD = st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=4))


@st.composite
def _products(draw):
    """(table, x, y, j): a sparse table of a fixture, two vectors and a
    basis index; rational coordinates on an algebra, integers on a ring."""
    if draw(st.booleans()):
        table, coord = draw(st.sampled_from(_algebras())).table, _COORD
    else:
        table, coord = draw(st.sampled_from(_rings())).table, st.integers(-20, 20)
    n = len(table)
    vec = st.lists(st.one_of(st.just(0), coord), min_size=n, max_size=n)
    return table, draw(vec), draw(vec), draw(st.integers(0, n - 1))


@given(_products())
@settings(max_examples=300, deadline=None)
def test_sparse_products_equal_the_dense_walk(case):
    table, x, y, j = case
    dense = dense_table(table)
    assert table_mul(table, x, y) == dense_table_mul(dense, x, y)
    assert table_mul_basis(table, x, j) == dense_table_mul_basis(dense, x, j)


def test_every_fixture_keeps_its_cells_and_their_mirrors():
    for table in [A.table for A in _algebras()] + [R.table for R in _rings()]:
        n = len(table)
        for i, j in product(range(n), repeat=2):
            cell = table[i][j]
            assert cell is table[j][i]
            assert all(c for _, c in cell) and [k for k, _ in cell] == sorted({k for k, _ in cell})
        assert sparse_table(dense_table(table), n) == table


@st.composite
def _dense_tables(draw):
    """A small dense integer table, symmetric half the time, so that both
    the commutativity and the associativity verdicts are reached."""
    n = draw(st.integers(1, 3))
    entry = st.sampled_from([0, 0, 1, 1, -1, 2, 5])
    cells = {}
    for i, j in product(range(n), repeat=2):
        cells[i, j] = draw(st.lists(entry, min_size=n, max_size=n))
    if draw(st.booleans()):
        for i, j in product(range(n), repeat=2):
            if i > j:
                cells[i, j] = cells[j, i]
    return [[cells[i, j] for j in range(n)] for i in range(n)]


def _verdict(check):
    try:
        check()
    except AlgebraError as e:
        return str(e)
    return None


@given(_dense_tables(), st.sampled_from([None, 2, 5]))
@settings(max_examples=400, deadline=None)
def test_the_builder_gives_the_dense_verdict_and_message(table, m):
    if m is None:
        want = _verdict(lambda: dense_check_table(table))
        got = _verdict(lambda: sparse_table(table, len(table)))
    else:
        def normalize(v):
            return [c % m for c in v]
        want = _verdict(lambda: dense_check_table(table, normalize))
        got = _verdict(lambda: sparse_table(table, len(table), normalize))
    assert got == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_an_ideal_squared_on_pairs_i_le_j_equals_the_all_pairs_product(data):
    ring = data.draw(st.sampled_from(_rings()))
    vec = st.lists(st.integers(-9, 9), min_size=ring.ngens, max_size=ring.ngens)
    elems = [ring.reduce(v) for v in data.draw(st.lists(vec, min_size=1, max_size=3))]
    ideal = RingIdeal.generated_by(ring, elems)
    cols = ideal.lattice.basis.cols
    all_pairs = Lattice(ring.ngens, [list(c) for c in ring.rel.basis.cols] + [
        dense_table_mul(dense_table(ring.table), a, b) for a, b in product(cols, repeat=2)])
    assert ideal.mul(ideal).lattice == all_pairs
    assert ideal.mul(RingIdeal(ring, ideal.lattice)) == ideal.mul(ideal)
