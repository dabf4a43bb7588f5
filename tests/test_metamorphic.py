"""Metamorphic tests: the answers follow the maths, not the coordinates.

A unimodular change of basis of an order's structure tensor must give
the same torsion group, the same primitive idempotents carried along the
change of basis, and the same discrete logs, and a split order's
component graph must keep its weights, each pair of components named by
the images of X in them; a product of two orders must give the product
group and the union of the idempotents.  A field's torsion table must
not depend on which root of unity each root search returns.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots import numfield
from ordroots.linalg import IntMatrix, invariant_factors
from ordroots.numfield import NumberField
from ordroots.ordercore import Order, build_context, order_from_poly, primitive_idempotents
from ordroots.polyfactor import cyclotomic
from ordroots.rou import mu_a_presentation, mu_e_subgroup_dlog
from util import (
    dense_table, full_trager_roots, matrix_of_rows, product_order, scalar_suborder, split_poly,
    split_root_images)

BASES = {
    "Z[i]": [1, 0, 1],
    "X^2-1": [-1, 0, 1],
    "X^2+X+1": [1, 1, 1],
    "X^3-X": [0, -1, 0, 1],
    "X^2(X+1)": [0, 0, 1, 1],
    "X^4-1": [-1, 0, 0, 0, 1],
    "Z+2Z[i]": None,
}


@lru_cache(maxsize=None)
def _order(name):
    f = BASES[name]
    return scalar_suborder(order_from_poly([1, 0, 1]), 2) if f is None else order_from_poly(f)


@lru_cache(maxsize=None)
def _answers(name):
    A = _order(name)
    pres = mu_a_presentation(A)
    return pres.invariant_factors, primitive_idempotents(A), pres.generators


def _apply(u, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in u)


@st.composite
def unimodular(draw, n):
    """(U, U^-1) as row lists: a product of elementary integer row
    operations and sign changes, with the inverses composed in reverse."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            # negate row i of U and column i of U^-1
            u[i] = [-e for e in u[i]]
            for row in w:
                row[i] = -row[i]
            continue
        k = draw(st.integers(-2, 2))
        # row_i += k row_j on U, col_j -= k col_i on U^-1
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        for row in w:
            row[j] -= k * row[i]
    return u, w


def _rebased(A, u, w):
    """A on the basis b_j = sum_i u[i][j] e_i; w = u^-1."""
    n = A.rank
    cols = [tuple(u[i][j] for i in range(n)) for j in range(n)]
    return Order([[list(_apply(w, A.mul(cols[a], cols[b]))) for b in range(n)]
                  for a in range(n)])


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), data=st.data())
def test_change_of_basis_keeps_torsion_idempotents_and_dlogs(name, data):
    A = _order(name)
    facs, idems, gens = _answers(name)
    u, w = data.draw(unimodular(A.rank))
    assert matrix_of_rows(u).mul(matrix_of_rows(w)) == IntMatrix.identity(A.rank)
    B = _rebased(A, u, w)

    assert mu_a_presentation(B).invariant_factors == facs
    got = primitive_idempotents(B)
    assert len(got) == len(idems)
    assert sorted(_apply(u, e) for e in got) == sorted(tuple(e) for e in idems)

    # a random product of the generators against a subgroup of them, and
    # an element that is no root of unity
    exps = data.draw(st.lists(st.integers(-3, 5), min_size=len(gens), max_size=len(gens)))
    zeta = A.one
    for g, e in zip(gens, exps):
        zeta = A.mul(zeta, A.power(tuple(g), e))
    targets = gens[:data.draw(st.integers(0, len(gens)))]
    for elem in (zeta, tuple(2 * c for c in A.one)):
        want = mu_e_subgroup_dlog(A, targets, elem)
        assert mu_e_subgroup_dlog(B, [_apply(w, t) for t in targets], _apply(w, elem)) == want


def _root_keyed_weights(ctx, images):
    """Graph weights keyed by the pair of images of X in the two
    components, which name the components in any basis."""
    return {frozenset((images[i], images[j])): w for (i, j), w in ctx.graph().weights.items()}


@settings(max_examples=25, deadline=None)
@given(roots=st.lists(st.integers(-6, 6), min_size=2, max_size=7, unique=True), data=st.data())
def test_change_of_basis_keeps_the_graph_weights(roots, data):
    A = order_from_poly(split_poly(roots))
    u, w = data.draw(unimodular(A.rank))
    B = _rebased(A, u, w)
    ctx_a, ctx_b = build_context(A), build_context(B)
    x = (0, 1) + (0,) * (A.rank - 2)
    # X in B's coordinates is w applied to its coordinates in A
    images = list(ctx_b.to_ambient(_apply(w, x)))
    want = _root_keyed_weights(ctx_a, split_root_images(ctx_a))
    assert _root_keyed_weights(ctx_b, images) == want


def _group_factors(facs):
    n = len(facs)
    diag = IntMatrix(n, [[facs[j] * (i == j) for i in range(n)] for j in range(n)])
    return [f for f in invariant_factors(diag) if f > 1]


@settings(max_examples=20, deadline=None)
@given(a=st.sampled_from(sorted(BASES)), b=st.sampled_from(sorted(BASES)))
def test_product_order_gives_the_product_group_and_both_idempotent_sets(a, b):
    A, B = _order(a), _order(b)
    (fa, ia, _), (fb, ib, _) = _answers(a), _answers(b)
    P = product_order([dense_table(A.algebra.table), dense_table(B.algebra.table)])
    assert mu_a_presentation(P).invariant_factors == _group_factors(fa + fb)
    zero_a, zero_b = (0,) * A.rank, (0,) * B.rank
    want = sorted([tuple(e) + zero_b for e in ia] + [zero_a + tuple(e) for e in ib])
    assert sorted(tuple(e) for e in primitive_idempotents(P)) == want


def test_the_climbed_table_does_not_depend_on_the_root_a_search_returns(monkeypatch):
    # the climb multiplies out the powers of whatever root it is given,
    # and the generator is the least primitive power of the group
    fields = (7, 9, 12, 15)
    want = [repr(NumberField(cyclotomic(n)).torsion_powers()) for n in fields]
    search = numfield.roots_in_field
    other = []  # per search: the largest root differs from the library's

    def largest_root(f, K):
        roots = full_trager_roots(f, K)
        root = roots[-1] if roots else None
        other.append(root != search(f, K))
        return root

    monkeypatch.setattr(numfield, "roots_in_field", largest_root)
    assert [repr(NumberField(cyclotomic(n)).torsion_powers()) for n in fields] == want
    assert any(other)
