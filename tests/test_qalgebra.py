import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots import qalgebra
from ordroots.linalg import IntMatrix, RatMatrix, kernel_int
from ordroots.numfield import NumberField
from ordroots.ordercore import order_from_poly
from ordroots.polyfactor import euler_phi, qp, qp_divmod, qp_mul
from ordroots.qalgebra import (
    AlgebraError,
    QAlgebra,
    _num,
    decompose,
    minimal_polynomial,
    mu_dlog_explain,
    mu_presentation,
)
from util import (
    dense_table,
    group_ring,
    incremental_minimal_polynomial,
    matrix_of_rows,
    product_order,
    run_python,
    split_projections,
    two_inverse_maps,
)


def poly_algebra(f):
    return order_from_poly(f).algebra


def test_validation_catches_bad_tables():
    # non-commutative: e0*e1 != e1*e0
    with pytest.raises(AlgebraError, match="commutative"):
        QAlgebra([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    # no identity: multiplication identically zero
    with pytest.raises(AlgebraError, match="identity"):
        QAlgebra([[[0]]])
    # non-associative: (e1 e1) e2 = 0 but e1 (e1 e2) = e1
    with pytest.raises(AlgebraError, match="associative"):
        QAlgebra([
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
        ])


@pytest.mark.parametrize("table", [
    [[[1, 0], [0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1], [1]]],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0, 0]]],
])
def test_validation_rejects_a_table_that_is_not_cubic(table):
    with pytest.raises(AlgebraError, match="not cubic"):
        QAlgebra(table)


def test_identity_found():
    E = poly_algebra([-1, 0, 0, 0, 1])
    assert E.one == (1, 0, 0, 0)
    x = (0, 1, 0, 0)
    assert E.mul(E.one, x) == x


def test_decompose_x4_minus_1():
    E = poly_algebra([-1, 0, 0, 0, 1])
    dec = decompose(E)
    assert sorted(K.deg for K in dec.components) == [1, 1, 2]
    assert dec.nil_basis == []
    assert dec.section.ncols == 4


def test_components_are_not_factored_a_second_time(monkeypatch):
    # factor_q has just returned each factor irreducible, so building its
    # field checks nothing again; the fields are those the public
    # constructor builds from the same factors
    from ordroots import numfield

    def refuse(f):
        raise AssertionError("component factored twice")

    E = poly_algebra([-1] + [0] * 11 + [1])
    with monkeypatch.context() as m:
        m.setattr(numfield, "is_irreducible_q", refuse)
        dec = decompose(E)
    for K in dec.components:
        L = numfield.NumberField(list(K.min_poly))
        assert (K.min_poly, K.deg) == (L.min_poly, L.deg)
        assert K.mul(K.gen(), K.gen()) == L.mul(L.gen(), L.gen())


def test_decompose_nilpotent_case():
    E = poly_algebra([0, 0, 1])  # Q[X]/(X^2)
    dec = decompose(E)
    assert [K.deg for K in dec.components] == [1]
    assert len(dec.nil_basis) == 1
    # the nilpotent direction is spanned by X
    assert dec.nil_basis[0] in ([0, 1], [0, -1])
    assert dec.is_separable_element((3, 0))
    assert not dec.is_separable_element((0, 1))


def test_decompose_x12():
    E = poly_algebra([-1] + [0] * 11 + [1])
    dec = decompose(E)
    assert sorted(K.deg for K in dec.components) == [1, 1, 2, 2, 2, 4]


def test_decompose_mixed_nilpotents():
    # Q[X]/(X^2 (X^2+1)): separable part of dim 3, nil of dim 1
    f = qp_divmod(qp([0, 0, 1, 0, 1, 0, 0]), qp([1]))[0]
    E = poly_algebra([0, 0, 1, 0, 1])  # X^2 + X^4 = X^2(1+X^2)
    dec = decompose(E)
    assert len(dec.nil_basis) == 1
    assert sorted(K.deg for K in dec.components) == [1, 2]


def test_projection_identities():
    E = poly_algebra([-1] + [0] * 5 + [1])  # X^6 - 1
    dec = decompose(E)
    pi1, _ = split_projections(dec)
    rng = random.Random(4)
    for _ in range(20):
        x = tuple(rng.randint(-3, 3) for _ in range(6))
        y = tuple(rng.randint(-3, 3) for _ in range(6))
        # pi1 respects multiplication (projection onto the separable part)
        lhs = pi1.apply(E.mul(x, y))
        rhs = E.mul(pi1.apply(x), pi1.apply(y))
        assert tuple(lhs) == tuple(rhs)
        # components reassemble through the section
        assert dec.from_components(dec.to_components(x)) == pi1.apply(x)


def test_nilpotent_iff_fixed_by_nil_projection():
    E = poly_algebra([0, 0, 0, 1])  # Q[X]/(X^3)
    dec = decompose(E)
    _, pi2 = split_projections(dec)
    rng = random.Random(9)
    for _ in range(30):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        fixed = tuple(pi2.apply(x)) == tuple(Fraction(c) for c in x)
        power = E.power(x, 4)
        nilpotent = all(c == 0 for c in power)
        assert fixed == nilpotent


def _torsion(E):
    """(decomposition, presentation of its roots of unity, the generators
    in algebra coordinates)."""
    dec = decompose(E)
    pres = mu_presentation(dec)
    return dec, pres, [dec.from_components(g) for g in pres.gens]


def test_mu_presentation_q():
    E = poly_algebra([-1, 1])  # the rationals
    dec, _, gens = _torsion(E)
    assert len(gens) == 1
    assert gens[0] == (-1,)
    assert [K.torsion_generator()[1] for K in dec.components] == [2]


def test_mu_presentation_gaussian():
    E = poly_algebra([1, 0, 1])
    dec, _, gens = _torsion(E)
    assert [K.torsion_generator()[1] for K in dec.components] == [4]
    g = gens[0]
    assert E.power(g, 4) == E.one and E.power(g, 2) != E.one


def test_mu_presentation_x4():
    E = poly_algebra([-1, 0, 0, 0, 1])
    dec, _, gens = _torsion(E)
    orders = [K.torsion_generator()[1] for K in dec.components]
    assert sorted(orders) == [2, 2, 4]
    for g, w in zip(gens, orders):
        assert E.power(g, w) == E.one
        assert euler_phi(w) <= 4


def test_mu_dlog_cases():
    E = poly_algebra([-1, 0, 0, 0, 1])
    dec, pres, _ = _torsion(E)
    assert mu_dlog_explain(dec, pres, E.one)[0] == [0, 0, 0]
    v = mu_dlog_explain(dec, pres, (0, 0, -1, 0))[0]
    assert v is not None
    assert dec.from_components(pres.evaluate(v)) == (0, 0, -1, 0)
    out, reason = mu_dlog_explain(dec, pres, (1, 1, 0, 0))
    assert out is None and reason == "component-not-root-of-unity"
    # nilpotent-contaminated element
    dec2, pres2, _ = _torsion(poly_algebra([0, 0, 1]))
    out, reason = mu_dlog_explain(dec2, pres2, (1, 1))
    assert out is None and reason == "not-separable"
    assert mu_dlog_explain(dec2, pres2, (-1, 0))[0] == [1]


def test_component_groups_cyclic():
    # all roots of unity found in a component are powers of its generator
    E = poly_algebra([-1] + [0] * 11 + [1])
    dec, _, _ = _torsion(E)
    for K in dec.components:
        zeta, w = K.torsion_generator()
        seen = set()
        acc = K.one()
        for _ in range(w):
            seen.add(acc)
            acc = K.mul(acc, zeta)
        assert len(seen) == w
        assert euler_phi(w) <= K.deg


def test_rank_zero_algebra():
    E = QAlgebra([])
    dec = decompose(E)
    assert dec.components == [] and dec.nil_basis == []
    # in the zero ring 1 = 0, so the minimal polynomial is the monic 1
    assert dec.min_poly == (1,) and dec.alpha == ()
    assert all(M.nrows == M.ncols == 0
               for M in (dec.projection, dec.section, dec.nil_coords, *split_projections(dec)))


def test_minimal_polynomial():
    E = poly_algebra([2, 0, 1, 1])  # irreducible cubic (no rational root)
    x = (0, 1, 0)
    assert minimal_polynomial(E, x) == qp([2, 0, 1, 1])
    assert minimal_polynomial(E, E.one) == qp([-1, 1])
    # in a split algebra the minimal polynomial of X has the full degree
    # but factors
    E4 = poly_algebra([-1, 0, 0, 0, 1])
    assert minimal_polynomial(E4, (0, 1, 0, 0)) == qp([-1, 0, 0, 0, 1])


# small factors whose products, with repeats, give reduced algebras and
# algebras with nilpotents
KRYLOV_FACTORS = [[0, 1], [-1, 1], [1, 1], [1, 0, 1], [1, 1, 1], [-2, 0, 1]]


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.sampled_from(KRYLOV_FACTORS), min_size=1, max_size=4),
       split=st.booleans(), data=st.data())
def test_krylov_minimal_polynomial_matches_the_incremental_solves(factors, split, data):
    f = qp([1])
    for g in factors:
        f = qp_mul(f, qp(g))
    E = poly_algebra([int(c) for c in f])
    if split:
        # the product with the nilpotent Z[X]/(X^2)
        nil = poly_algebra([0, 0, 1])
        E = product_order([dense_table(E.table), dense_table(nil.table)]).algebra
    x = data.draw(st.lists(st.integers(-3, 3), min_size=E.dim, max_size=E.dim))
    assert minimal_polynomial(E, x) == incremental_minimal_polynomial(E, x)


# ---------------------------------------------------------------------------
# the decomposition maps, rational matrices on integer numerators

MAP_ORDERS = {
    "X^2": [0, 0, 1],
    "X^3": [0, 0, 0, 1],
    "X^2 (X^2 + 1)": [0, 0, 1, 0, 1],
    "X^4 - 1": [-1, 0, 0, 0, 1],
    "X^3 - X - 1": [-1, -1, 0, 1],
    # its Q(zeta_12) component has the minimal polynomial
    # X^4 - 1260 X^3 + ..., with 14-digit coefficients
    "X^12 - 1": [-1] + [0] * 11 + [1],
}
_DECS = {}


def _dec(name):
    if name not in _DECS:
        _DECS[name] = decompose(poly_algebra(MAP_ORDERS[name]))
    return _DECS[name]


def _fraction_apply(m, x):
    """The map m applied by a plain Fraction product of its entries
    num[i][j] / den with x, read through _num."""
    return tuple(_num(sum(Fraction(e, m.den) * Fraction(c) for e, c in zip(row, x)))
                 for row in m.num.to_rows())


def _same(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


_COORD = st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=12))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MAP_ORDERS)), data=st.data())
def test_maps_match_the_rational_matrices(name, data):
    dec = _dec(name)
    n = dec.algebra.dim
    x = data.draw(st.lists(_COORD, min_size=n, max_size=n).map(tuple))
    _same(dec.to_components(x), _fraction_apply(dec.projection, x))
    _same(dec.nil_coords.apply(x), _fraction_apply(dec.nil_coords, x))
    pi1, pi2 = split_projections(dec)
    _same(pi1.apply(x), _fraction_apply(pi1, x))
    _same(pi2.apply(x), _fraction_apply(pi2, x))
    q = dec.section.ncols
    v = data.draw(st.lists(_COORD, min_size=q, max_size=q))
    _same(dec.from_components(v), _fraction_apply(dec.section, v))
    # components reassemble through the section
    assert dec.from_components(dec.to_components(x)) == pi1.apply(x)


# decompose checks that [section | N] times the projection stacked on
# nil_coords is the identity, on the maps the record keeps: one entry of
# nil_coords, then one of the projection, raised by 1 after construction
# must fail there, by an explicit raise that python -O keeps.
_CORRUPTED_SPLIT = """
from ordroots import qalgebra
from ordroots.linalg import IntMatrix, RatMatrix, kernel_int
from ordroots.ordercore import order_from_poly

E = order_from_poly([0, 0, 1, 0, 1]).algebra  # Q[X]/(X^2 (X^2 + 1))
print(len(qalgebra.decompose(E).nil_basis))
Spec = qalgebra.SpecDecomposition
for field in ("nil_coords", "projection"):
    class Broken(Spec):
        def __init__(self, **kw):
            super().__init__(**kw)
            m = getattr(self, field)
            cols = [list(c) for c in m.num.cols]
            cols[0][0] += m.den
            setattr(self, field, RatMatrix.over(IntMatrix(m.nrows, cols), m.den))

    qalgebra.SpecDecomposition = Broken
    try:
        qalgebra.decompose(E)
    except AssertionError as e:
        print(field, e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_decompose_rejects_broken_projections(flags):
    run = run_python(flags, _CORRUPTED_SPLIT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "1",
        "nil_coords split inverse does not invert [section | N]",
        "projection split inverse does not invert [section | N]"]


# ---------------------------------------------------------------------------
# primitive elements of non-reduced algebras: searched on the rows that hold
# no pivot of the nilradical, t = 0, 1, ...; pinned to the values of the
# search in the reduced quotient that it replaced


def _prod(*fs):
    out = qp([1])
    for f in fs:
        out = qp_mul(out, qp(f))
    return [int(c) for c in out]


_X, F = [0, 1], Fraction
NON_REDUCED = {
    "X^2": (_prod(_X, _X), (1, 0), [-1, 1]),
    "X^3": (_prod(_X, _X, _X), (1, 0, 0), [-1, 1]),
    "(X^2+1)^2": (_prod([1, 0, 1], [1, 0, 1]), (-1, F(-3, 2), 0, F(-1, 2)), [2, 2, 1]),
    "(X^2-2)^2 (X+1)": (_prod([-2, 0, 1], [-2, 0, 1], [1, 1]),
                        (-4, 3, 10, F(-1, 2), F(-5, 2)), [-28, 40, -13, 1]),
    "X^2 (X-1)": (_prod(_X, _X, [-1, 1]), (1, 0, 1), [2, -3, 1]),
    "Phi_3^2 X": (_prod([1, 1, 1], [1, 1, 1], _X), (1, F(-2, 3), -3, -2, F(-4, 3)), [-3, 6, -4, 1]),
    "(X+1)^3 (X-1)": (_prod([1, 1], [1, 1], [1, 1], [-1, 1]),
                      (F(1, 4), F(3, 4), F(3, 4), F(1, 4)), [0, -2, 1]),
    "Phi_5 X^2": (_prod([1, 1, 1, 1, 1], _X, _X), (1, 0, 1, 1, 1, 1), [-5, 15, -20, 15, -6, 1]),
    "(X^2+3)^2 X": (_prod([3, 0, 1], [3, 0, 1], _X), (1, F(-9, 2), -6, F(-1, 2), -1),
                    [-127, 147, -21, 1]),
}


@pytest.mark.parametrize("name", sorted(NON_REDUCED))
def test_primitive_element_of_non_reduced_algebras(name):
    f, alpha, min_poly = NON_REDUCED[name]
    dec = decompose(poly_algebra(f))
    assert dec.nil_basis
    assert dec.alpha == alpha
    assert [type(c) for c in dec.alpha] == [type(c) for c in alpha]
    assert dec.min_poly == tuple(qp(min_poly))


def test_trace_form_of_an_order_is_summed_in_integers():
    # on the power basis of Z[X]/(f) the trace of X^k is the k-th power sum
    # of the roots of f
    cases = [([-1, 0, 0, 0, 1], [4, 0, 0, 0]), ([0, 0, 1, 1], [3, -1, 1]),
             ([-2, 0, 1], [2, 0])]
    for f, sums in cases:
        E = order_from_poly(f).algebra
        tau = E.trace_vector()
        assert tau == sums and all(type(t) is int for t in tau)
        gram = E.trace_gram()
        assert gram.den == 1
        table = dense_table(E.table)
        assert gram.num.to_rows() == [
            [sum(t * c for t, c in zip(tau, table[i][j])) for j in range(E.dim)]
            for i in range(E.dim)]
    # rational structure constants are summed exactly: Q[X]/(X^2 - X/2)
    E = qalgebra.QAlgebra([[[1, 0], [0, 1]], [[0, 1], [0, Fraction(1, 2)]]])
    assert E.trace_vector() == [2, Fraction(1, 2)]


# ---------------------------------------------------------------------------
# the section in idempotent coordinates: column (i, j) is e_i a^j, for the
# Chinese-remainder idempotent e_i of component i and its generator a

SECTION_ALGEBRAS = {f"Z[X]/({name})": f for name, f in MAP_ORDERS.items()}
SECTION_ALGEBRAS.update({f"Z[X]/({name})": f for name, (f, _, _) in NON_REDUCED.items()})
SECTION_ALGEBRAS.update({f"Z[C_{k}]": (k,) for k in range(5, 9)})
SECTION_ALGEBRAS.update({"Z[C_2^3]": (2, 2, 2), "Z[C_3^2]": (3, 3)})


def _section_algebra(name):
    spec = SECTION_ALGEBRAS[name]
    if name.startswith("Z[C_"):
        return group_ring(*spec).algebra
    return poly_algebra(spec)


def _component_idempotents(dec):
    """The section's degree-0 columns, e_i a^0 = e_i, one per component."""
    out, col = [], 0
    for K in dec.components:
        out.append(dec.from_components([int(j == col) for j in range(dec.section.ncols)]))
        col += K.deg
    return out


@pytest.mark.parametrize("name", sorted(SECTION_ALGEBRAS))
def test_maps_equal_the_two_inverse_reference(name):
    dec = decompose(_section_algebra(name))
    assert (dec.projection, dec.section, dec.nil_coords) == two_inverse_maps(dec)


@pytest.mark.parametrize("name", sorted(SECTION_ALGEBRAS))
def test_nil_coords_has_the_kernel_of_the_nil_projection(name):
    # N has independent columns, so N nil_coords and nil_coords have one
    # saturated kernel: the separable part of an order, in canonical form
    dec = decompose(_section_algebra(name))
    _, pi2 = split_projections(dec)
    assert kernel_int(dec.nil_coords.num) == kernel_int(pi2.num)


@pytest.mark.parametrize("name", sorted(SECTION_ALGEBRAS))
def test_the_section_reuses_the_powers_of_an_unlifted_candidate(monkeypatch, name):
    # the accepted candidate's Krylov powers serve the section unless the
    # Newton lift moves it, which needs a nilradical
    candidates, powered = [], []
    minpoly, krylov = qalgebra.minimal_polynomial, qalgebra._krylov_powers

    def minimal_polynomial_(alg, x, powers=None):
        candidates.append(tuple(x))
        return minpoly(alg, x, powers)

    def krylov_powers_(alg, x):
        powered.append(tuple(x))
        return krylov(alg, x)

    monkeypatch.setattr(qalgebra, "minimal_polynomial", minimal_polynomial_)
    monkeypatch.setattr(qalgebra, "_krylov_powers", krylov_powers_)
    dec = decompose(_section_algebra(name))
    lifted = dec.alpha != candidates[-1]
    assert dec.nil_basis or not lifted
    assert powered == candidates + [dec.alpha] * lifted


@pytest.mark.parametrize("name", sorted(SECTION_ALGEBRAS))
def test_section_idempotents_are_orthogonal_and_sum_to_one(name):
    dec = decompose(_section_algebra(name))
    E = dec.algebra
    es = _component_idempotents(dec)
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            assert E.mul(a, b) == (a if i == j else E.zero())
    pi1, _ = split_projections(dec)
    assert tuple(_num(sum(c)) for c in zip(*es)) == pi1.apply(E.one) == E.one


def test_section_idempotents_of_z_c2_cubed_are_the_characters():
    # the basis of group_ring(2, 2, 2) is the group in product order, and
    # character chi has the idempotent (1/8) sum_g chi(g) e_g
    group = list(product(range(2), repeat=3))
    dec = decompose(group_ring(2, 2, 2).algebra)
    es = _component_idempotents(dec)
    chars = {tuple(Fraction((-1) ** sum(a * b for a, b in zip(chi, g)), 8) for g in group)
             for chi in group}
    assert len(es) == 8 and set(es) == chars


@pytest.mark.parametrize("name", ["Z[X]/(X^12 - 1)", "Z[X]/((X^2+1)^2)", "Z[C_2^3]"])
def test_decompose_makes_one_inverse_and_one_field_inverse_per_component(monkeypatch, name):
    E = _section_algebra(name)
    counts = {"inverse": 0, "inv": 0}

    def count(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args):
            counts[attr] += 1
            return fn(*args)
        monkeypatch.setattr(owner, attr, counted)

    count(RatMatrix, "inverse")
    count(NumberField, "inv")
    dec = decompose(E)
    assert counts == {"inverse": 1, "inv": len(dec.components)}


def test_decompose_rejects_a_section_with_two_idempotents_swapped(monkeypatch):
    """The section's columns for two quadratic components of X^12 - 1, of
    different minimal polynomials, swapped, with the projection's rows to
    match: section projection and nil_coords are unchanged, so [section | N]
    is still inverted and only the ring-map check sees it."""

    class Broken(qalgebra.SpecDecomposition):
        def __init__(self, **kw):
            super().__init__(**kw)
            pi1 = self.section.mul(self.projection)
            starts, col = [], 0
            for K in self.components:
                if K.deg == 2:
                    starts.append(col)
                col += K.deg
            i, j = starts[:2]
            perm = list(range(col))
            perm[i:i + 2], perm[j:j + 2] = perm[j:j + 2], perm[i:i + 2]
            s, rows = self.section, self.projection.num.to_rows()
            self.section = RatMatrix.over(IntMatrix(s.nrows, [s.num.cols[k] for k in perm]), s.den)
            self.projection = RatMatrix.over(matrix_of_rows([rows[k] for k in perm]),
                                             self.projection.den)
            assert self.section.mul(self.projection) == pi1

    monkeypatch.setattr(qalgebra, "SpecDecomposition", Broken)
    with pytest.raises(AssertionError, match="component projection is not a ring map"):
        decompose(poly_algebra(MAP_ORDERS["X^12 - 1"]))
