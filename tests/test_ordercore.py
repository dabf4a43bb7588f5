import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots.linalg import Lattice, kernel_int, sum_lattices
from ordroots.ordercore import (
    Order,
    build_context,
    build_saturation,
    graph_mod_p,
    idempotent_divisor_oracle,
    mu_b_presentation,
    mu_c_p_presentation,
    order_from_poly,
    order_graph,
    primitive_idempotents,
    primitive_idempotents_ctx,
)
from ordroots.polyfactor import cyclotomic, factor_q, qp, qp_divmod, resultant
from ordroots.qalgebra import AlgebraError
from util import (
    all_pairs_mu_c_p,
    bareiss_det_int,
    component_kernel,
    cyclic_powers,
    dense_table,
    diagonal_congruence_suborder,
    divisor_idempotent,
    group_ring,
    kernel_sum_weights,
    product_order,
    run_python,
    scalar_suborder,
    split_poly,
    split_root_images,
    spy_everywhere,
)


Z_TABLE = [[[1]]]


def congruence_order(n):
    """{x in Z^n : all coordinates congruent mod 2}."""
    big = product_order([Z_TABLE] * n)
    return diagonal_congruence_suborder(Order(Z_TABLE), n, 2)


def test_order_rejects_non_integer():
    with pytest.raises(AlgebraError):
        Order([[[Fraction(1, 2)]]])


def test_order_rejects_a_float_constant():
    with pytest.raises(AlgebraError):
        Order([[[1.0]]])


def test_order_from_poly_rejects_a_non_integer_coefficient():
    with pytest.raises(AlgebraError):
        order_from_poly([1.5, 0, 1])  # not X^2 + 1


def test_order_from_poly_matches_polynomial_multiplication():
    f = [-1, 0, 2, 1]  # X^3 + 2X^2 - 1, monic
    A = order_from_poly(f)
    from ordroots.polyfactor import qp_mul

    rng = random.Random(12)
    for _ in range(20):
        a = [rng.randint(-4, 4) for _ in range(3)]
        b = [rng.randint(-4, 4) for _ in range(3)]
        got = A.mul(tuple(a), tuple(b))
        want = qp_divmod(qp_mul(qp(a), qp(b)), qp(f))[1]
        want = tuple(int(want[k]) if k < len(want) else 0 for k in range(3))
        assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_order_from_poly_table_is_the_division_table(low):
    # the table of Z[X]/(f) rebuilt by one division X^k mod f per k
    f = low + [1]
    n = len(low)
    rems = [qp_divmod([0] * k + [1], f)[1] for k in range(2 * n - 1)]
    rems = [r + [0] * (n - len(r)) for r in rems]
    want = [[rems[i + j] for j in range(n)] for i in range(n)]
    got = dense_table(order_from_poly(f).algebra.table)
    assert got == want
    assert all(type(c) is int for row in got for cell in row for c in cell)


def _separable_lattice(ctx):
    """Basis of the separable part in order coordinates."""
    return kernel_int(ctx.dec.nil_coords.num)


def test_separable_part_reduced_is_identity():
    A = order_from_poly([-1, 0, 0, 0, 1])
    assert _separable_lattice(build_context(A)) == Lattice.full(4)


def test_separable_part_dual_numbers():
    A = order_from_poly([0, 0, 1])  # Z[eps], eps^2 = 0
    lat = _separable_lattice(build_context(A))
    assert lat.rank == 1
    assert lat.contains([1, 0]) and not lat.contains([0, 1])


def test_build_b_examples():
    A = order_from_poly([-1, 0, 0, 0, 1])
    ctx = build_context(A)
    assert ctx.index_b_over_sep == 8
    # product order: B = A, index 1
    P = product_order([Z_TABLE, Z_TABLE])
    ctxp = build_context(P)
    assert ctxp.index_b_over_sep == 1
    A12 = order_from_poly([-1] + [0] * 11 + [1])
    ctx12 = build_context(A12)
    assert ctx12.index_b_over_sep == 2**9 * 3**4


def test_graph_weights_match_resultants():
    # for Z[X]/(f) with squarefree f the weights are |Res(g, h)| over the
    # irreducible factor pairs
    for f in ([-1, 0, 0, 0, 1], [-1] + [0] * 5 + [1], [2, -1, -2, 1]):
        A = order_from_poly(f)
        ctx = build_context(A)
        g = ctx.graph()
        _, facs = factor_q(f)
        polys = [fac for fac, _ in facs]
        have = sorted(g.weights.values())
        want = sorted(
            abs(resultant(polys[i], polys[j]))
            for i in range(len(polys))
            for j in range(i + 1, len(polys))
        )
        assert have == [int(w) for w in want]


def test_graph_of_product_has_no_edges():
    P = product_order([Z_TABLE, Z_TABLE, [[[0, 1], [1, 0]], [[1, 0], [0, 1]]][::-1]])
    ctx = build_context(P)
    b_graph = order_graph(ctx.b_order)
    assert b_graph.edges == []
    assert len(b_graph.components) == b_graph.nvertices


def test_graph_x12_shape():
    A = order_from_poly([-1] + [0] * 11 + [1])
    ctx = build_context(A)
    g = ctx.graph()
    assert len(g.edges) == 9
    assert sorted(g.weight(a, b) for a, b in g.edges) == [2, 2, 2, 3, 3, 4, 4, 4, 9]
    assert len(g.components) == 1


@pytest.mark.parametrize("f", [[-1] + [0] * 11 + [1], [2, -1, -2, 1]])
def test_graph_weights_are_determinants_with_no_second_elimination(f, monkeypatch):
    dets = spy_everywhere(monkeypatch, "det_int")
    ctx = build_context(order_from_poly(f))
    g = ctx.graph()
    assert not dets
    emb = ctx.sep_order
    kers = [component_kernel(emb, i) for i in range(g.nvertices)]
    for (i, j), w in g.weights.items():
        assert w == abs(bareiss_det_int(sum_lattices(kers[i], kers[j]).basis))


@pytest.mark.parametrize("rank", range(2, 12))
def test_split_order_weights_are_the_root_differences(rank):
    # Z[X]/prod (X - a_k) modulo the kernels of components i and j is
    # Z/(a_i - a_j), a_i the image of X in component i
    roots = random.Random(rank).sample(range(-6, 7), rank)
    ctx = build_context(order_from_poly(split_poly(roots)))
    a = split_root_images(ctx)
    assert sorted(a) == sorted(roots)
    want = {(i, j): abs(a[i] - a[j]) for i in range(rank) for j in range(i + 1, rank)}
    assert ctx.graph().weights == want == kernel_sum_weights(ctx.sep_order)


GRAPH_ORDERS = {
    "X^4-1": lambda: order_from_poly([-1, 0, 0, 0, 1]),
    "X^12-1": lambda: order_from_poly([-1] + [0] * 11 + [1]),
    "Z[C_2^3]": lambda: group_ring(2, 2, 2),
    "Z[C_4 x C_2]": lambda: group_ring(4, 2),
    "Z^3 mod 2": lambda: congruence_order(3),
    "Z[i]^2 mod 2": lambda: diagonal_congruence_suborder(order_from_poly([1, 0, 1]), 2, 2),
}


@pytest.mark.parametrize("name", list(GRAPH_ORDERS))
def test_graph_weights_equal_the_kernel_sum_indices(name):
    # on the separable part, on B and on each p-saturation
    ctx = build_context(GRAPH_ORDERS[name]())
    embs = [ctx.sep_order, ctx.b_order] + [build_saturation(ctx, p).c_order
                                            for p in ctx.torsion_primes()]
    for emb in embs:
        assert order_graph(emb).weights == kernel_sum_weights(emb)


# the Hermite form of a pair projection with its basis reordered, with
# its first pivot negated and with its last pivot negated: none is a
# lower triangular basis with the pivot products of the components
_CORRUPTED_GRAPH = """
from ordroots import ordercore
from ordroots.ordercore import build_context, order_from_poly, order_graph

emb = build_context(order_from_poly([-1, 0, 0, 0, 1])).sep_order
print(sorted(order_graph(emb).weights.values()))
real = ordercore.hnf_cols

def reordered(cols, nrows):
    return real(cols, nrows)[::-1]

def negated_first(cols, nrows):
    h = real(cols, nrows)
    return [[-e for e in h[0]]] + h[1:]

def negated_last(cols, nrows):
    h = real(cols, nrows)
    return h[:nrows - 1] + [[-e for e in h[nrows - 1]]] + h[nrows:]

for bad in (reordered, negated_first, negated_last):
    ordercore.hnf_cols = bad
    try:
        order_graph(emb)
    except AssertionError as e:
        print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_corrupted_graph_basis_is_caught(flags):
    run = run_python(flags, _CORRUPTED_GRAPH)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "[2, 2, 2]",
        "pair projection's Hermite pivots are not one per row",
        "pair projection's first pivots are not the component's",
        "pair projection's last pivots are not a multiple of the component's"]


def test_congruence_order_graph_complete():
    A = congruence_order(3)
    ctx = build_context(A)
    g = ctx.graph()
    assert len(g.edges) == 3
    assert all(g.weight(a, b) == 2 for a, b in g.edges)
    assert primitive_idempotents_ctx(ctx) == [tuple(int(c) for c in A.one)]


def test_idempotents_examples():
    assert primitive_idempotents(Order(Z_TABLE)) == [(1,)]
    P = product_order([Z_TABLE, Z_TABLE])
    assert sorted(primitive_idempotents(P)) == [(0, 1), (1, 0)]
    A12 = order_from_poly([-1] + [0] * 11 + [1])
    assert primitive_idempotents(A12) == [tuple(int(c) for c in A12.one)]


def test_idempotents_nilpotent_order():
    A = order_from_poly([0, 0, 1])
    assert primitive_idempotents(A) == [(1, 0)]


def test_divisor_oracle_examples():
    out = idempotent_divisor_oracle([-1, 0, 1])  # X^2 - 1
    assert out == [[1], [-1, 0, 1]]
    out = idempotent_divisor_oracle([0, -1, 1])  # X^2 - X
    assert out == [[1], [-1, 1], [0, 1], [0, -1, 1]]
    out = idempotent_divisor_oracle([-1, 0, 0, 0, 1])  # X^4 - 1
    assert out == [[1], [-1, 0, 0, 0, 1]]


def test_divisor_oracle_agrees_with_pipeline():
    for f in ([0, -1, 1], [-2, -1, 2, 1], [-1, 0, 0, 0, 1], [6, -5, -2, 1]):
        A = order_from_poly(f)
        prid = primitive_idempotents(A)
        divisors = idempotent_divisor_oracle(f)
        idems = [tuple(divisor_idempotent(f, g)) for g in divisors]
        # primitive = nonzero minimal under the multiplication order
        prim = []
        for e in idems:
            if all(c == 0 for c in e):
                continue
            if all(A.mul(e, e2) in ((0,) * A.rank, e) for e2 in idems):
                prim.append(e)
        assert sorted(prim) == sorted(prid)
        assert len(idems) == 2 ** len(prid)


def test_residue_torsion_examples():
    A = order_from_poly([-1, 0, 0, 0, 1])
    ctx = build_context(A)
    orders = sorted(len(ctx.residue_torsion(i)) for i in range(3))
    assert orders == [2, 2, 4]
    # Z[i] holds i, so its residue torsion is the field's whole table
    K = ctx.dec.components[2]
    assert ctx.residue_torsion(2) == K.torsion_powers()
    assert ctx.torsion_primes() == [2]


def test_residue_torsion_index_two_suborder_of_gaussians():
    # Z[2i] inside Z[i]: the residue keeps only +-1
    Zi = order_from_poly([1, 0, 1])
    A = scalar_suborder(Zi, 2)
    ctx = build_context(A)
    assert len(ctx.residues) == 1
    K = ctx.dec.components[0]
    assert list(ctx.residue_torsion(0)) == [K.one(), K.from_rational(-1)]
    # oracle: powers of the field torsion generator that land in the order
    zeta, w = K.torsion_generator()
    members = [j for j in range(1, w + 1)
               if ctx.residues[0].contains(K.pow(zeta, j))]
    assert members == [2, 4]


def test_residue_torsion_is_the_table_entries_in_the_residue():
    Zi = order_from_poly([1, 0, 1])
    Z3 = order_from_poly([-1, 0, 0, 1])
    fixtures = [
        order_from_poly([-1] + [0] * 11 + [1]),
        scalar_suborder(Zi, 2),
        product_order([dense_table(Z3.algebra.table), dense_table(Zi.algebra.table)]),
    ]
    for A in fixtures:
        ctx = build_context(A)
        for i, K in enumerate(ctx.dec.components):
            got = ctx.residue_torsion(i)
            want = {t for t in K.torsion_powers() if ctx.residues[i].contains(t)}
            assert len(got) == len(set(got))
            assert set(got) == want


# Z[i] with its residue order replaced by a set of members: none at
# all, i^3 alone (index 3, which does not divide w = 4), and the true
# residue under a rank of 0, which allows no prime
_CORRUPTED_RESIDUES = """
from ordroots.ordercore import build_context, order_from_poly


class Members:
    def __init__(self, members):
        self.members = members

    def contains(self, x):
        return x in self.members


for corrupt in ("none", "i^3", "rank 0"):
    ctx = build_context(order_from_poly([1, 0, 1]))
    powers = ctx.dec.components[0].torsion_powers()
    if corrupt == "none":
        ctx.residues[0] = Members([])
    elif corrupt == "i^3":
        ctx.residues[0] = Members([powers[3]])
    else:
        ctx.order.rank = 0
    try:
        print("accepted", len(ctx.residue_torsion(0)))
    except AssertionError as e:
        print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_corrupted_residue_torsion_is_caught(flags):
    run = run_python(flags, _CORRUPTED_RESIDUES)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "no torsion power lies in the residue order",
        "residue torsion index does not divide the torsion order w",
        "residue torsion has a prime above rank + 1"]


def test_torsion_primes_of_a_product_are_the_union():
    A = order_from_poly([-1, 0, 0, 1])  # residues Z and Z[zeta_3]: {2, 3}
    B = order_from_poly(cyclotomic(5))  # Z[zeta_5]: {2, 5}
    P = product_order([dense_table(A.algebra.table), dense_table(B.algebra.table)])
    primes = [build_context(X).torsion_primes() for X in (A, B, P)]
    assert primes[0] == [2, 3] and primes[1] == [2, 5]
    assert primes[2] == sorted(set(primes[0]) | set(primes[1]))


def test_mu_b_presentation():
    A = order_from_poly([-1, 0, 0, 0, 1])
    ctx = build_context(A)
    pres = mu_b_presentation(ctx)
    assert sorted(r[i] for i, r in enumerate(pres.rels)) == [2, 2, 4]
    pres.verify_exact()
    assert pres.group_order() == 16
    assert ctx.torsion_primes() == [2]
    A12 = order_from_poly([-1] + [0] * 11 + [1])
    ctx12 = build_context(A12)
    pres12 = mu_b_presentation(ctx12)
    # componentwise torsion orders Z/2 x Z/2 x Z/6 x Z/4 x Z/6 x Z/12 ...
    assert sorted(r[i] for i, r in enumerate(pres12.rels)) == [2, 2, 4, 6, 6, 12]
    # ... whose invariant factors are (2, 2, 2, 6, 12, 12)
    assert pres12.invariant_factors() == [2, 2, 2, 6, 12, 12]
    assert ctx12.torsion_primes() == [2, 3]


def test_saturation_tower():
    A = order_from_poly([-1, 0, 0, 0, 1])
    ctx = build_context(A)
    tow = build_saturation(ctx, 2)
    assert tow.index_c_over_sep == 8 and tow.index_b_over_c == 1
    # p does not divide the index: C equals the separable part
    tow3 = build_saturation(ctx, 3)
    assert tow3.index_c_over_sep == 1
    assert tow3.c_order.qlat == ctx.sep_order.qlat
    A12 = order_from_poly([-1] + [0] * 11 + [1])
    ctx12 = build_context(A12)
    t2 = build_saturation(ctx12, 2)
    t3 = build_saturation(ctx12, 3)
    assert t2.index_c_over_sep == 2**9 and t2.index_b_over_c == 3**4
    assert t3.index_c_over_sep == 3**4 and t3.index_b_over_c == 2**9


def test_graph_mod_p_shapes():
    A12 = order_from_poly([-1] + [0] * 11 + [1])
    ctx = build_context(A12)
    g2 = graph_mod_p(ctx, 2)
    assert sorted(len(c) for c in g2.components) == [2, 2, 2]
    g3 = graph_mod_p(ctx, 3)
    assert sorted(len(c) for c in g3.components) == [3, 3]
    # every weight a power of p: edgeless
    A = congruence_order(3)
    ctxc = build_context(A)
    gc = graph_mod_p(ctxc, 2)
    assert gc.edges == []


def test_direct_c_quotient_is_non_p_part():
    # the group C/((m cap C) + (n cap C)) computed directly must be the
    # non-p-part of the separable-part quotient
    A12 = order_from_poly([-1] + [0] * 11 + [1])
    ctx = build_context(A12)
    base = ctx.graph()
    for p in (2, 3):
        tow = build_saturation(ctx, p)
        direct = order_graph(tow.c_order)
        for (i, j), w in base.weights.items():
            nonp = w
            while nonp % p == 0:
                nonp //= p
            assert direct.weight(i, j) == nonp


def _orders(mu):
    """The cyclic orders of a mu(C)_p presentation: its relation diagonal."""
    return [rel[k] for k, rel in enumerate(mu.pres.rels)]


def _generated_groups(ctx, mu):
    """Sorted element list of each graph component's group, multiplied
    out from its generator in the product over that component."""
    out = []
    for comp, gen in zip(mu.graph.components, mu.pres.gens):
        sub = ctx.ambient.sub_ring(comp)
        out.append(sorted(cyclic_powers(sub.mul, sub.one(), ctx.ambient.project(gen, comp))))
    return out


def test_mu_c_p_both_paths_agree():
    # the group rings have graph components of four and five vertices
    for order, p in ((order_from_poly([-1, 0, 0, 0, 1]), 2),
                     (order_from_poly([-1] + [0] * 11 + [1]), 2),
                     (order_from_poly([-1] + [0] * 11 + [1]), 3),
                     (group_ring(3, 3), 2),
                     (group_ring(3, 3), 3),
                     (group_ring(2, 6), 2),
                     (group_ring(2, 6), 3)):
        ctx = build_context(order)
        fast = mu_c_p_presentation(ctx, p)
        ref = all_pairs_mu_c_p(ctx, p)
        assert _orders(fast) == [len(g) for g in ref]
        assert _generated_groups(ctx, fast) == ref
        # dlog round trip on every element of the presented group
        rng = random.Random(6)
        for _ in range(10):
            exps = [rng.randrange(max(w, 1)) for w in _orders(fast)]
            elem = fast.pres.evaluate(exps)
            got = fast.pres.dlog(elem)
            assert got is not None
            assert fast.pres.evaluate(got) == elem


def test_a_permuted_torsion_table_is_caught(monkeypatch):
    # the climb reads p-th powers off the tables; swapping two powers of
    # zeta_6 makes its exponent arithmetic disagree with real products
    ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
    K = ctx.dec.components[4]
    powers = list(K.torsion_powers())
    assert K.deg == 2 and len(powers) == 6
    powers[1], powers[2] = powers[2], powers[1]
    monkeypatch.setattr(K, "torsion_powers", lambda: tuple(powers))
    with pytest.raises(AssertionError, match="powers are not the generator's"):
        mu_c_p_presentation(ctx, 3)


_PERMUTED_SHARED_TABLE = """
from ordroots.ordercore import build_context, mu_c_p_presentation, order_from_poly
from ordroots.polyfactor import cyclotomic, qp_mul

first = build_context(order_from_poly([-1] + [0] * 11 + [1]))
K = first.dec.components[4]
powers = list(K.torsion_powers())
print(K.deg, len(powers))
powers[1], powers[2] = powers[2], powers[1]
K._torsion_powers = tuple(powers)
f = [1]
for d in (4, 6, 8, 12):
    f = qp_mul(f, cyclotomic(d))
second = build_context(order_from_poly(f))
print(any(L is K for L in second.dec.components))
try:
    mu_c_p_presentation(second, 3)
except AssertionError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_permuted_shared_torsion_table_is_caught_in_a_second_order(flags):
    # Z[X]/(X^12 - 1) puts its Q(zeta_6) component in the process's field
    # table; a second order of rank 12 with a Phi_6 factor has the same
    # primitive element, so the same field, whose swapped powers its own
    # climb must still refuse
    run = run_python(flags, _PERMUTED_SHARED_TABLE)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "2 6", "True", "powers are not the generator's"]


@pytest.mark.parametrize("f", [
    [-1] + [0] * 11 + [1],
    [0, -12, 4, 15, -5, -3, 1],  # X(X-1)(X-2)(X+1)(X+2)(X-3)
], ids=["x12", "split"])
def test_mu_c_p_groups_are_the_powers_of_each_generator(f):
    # the presentation's dlog reads g_k^t as t in factor k and 0 elsewhere
    ctx = build_context(order_from_poly(f))
    for p in ctx.torsion_primes():
        mu = mu_c_p_presentation(ctx, p)
        comps = mu.graph.components
        assert len(comps) == len(mu.pres.gens) == len(mu.pres.rels)
        for k, (gen, w) in enumerate(zip(mu.pres.gens, _orders(mu))):
            group = cyclic_powers(ctx.ambient.mul, ctx.ambient.one(), gen)
            assert len(group) == w
            for t, x in enumerate(group):
                assert mu.pres.dlog(x) == [t if j == k else 0 for j in range(len(comps))]


def test_mu_c_p_x12_matches_paper_groups():
    ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
    mu2 = mu_c_p_presentation(ctx, 2)
    assert sorted(_orders(mu2)) == [2, 2, 4]
    mu3 = mu_c_p_presentation(ctx, 3)
    assert sorted(_orders(mu3)) == [1, 3]
    # x^4-1: mu(C)_2 = mu(B) with three cyclic generators
    ctx4 = build_context(order_from_poly([-1, 0, 0, 0, 1]))
    mu = mu_c_p_presentation(ctx4, 2)
    assert sorted(_orders(mu)) == [2, 2, 4]
    assert mu.pres.group_order() == 16
