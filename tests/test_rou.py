import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots import finitering, rou
from ordroots.abgroup import membership_dlog, subgroup_presentation
from ordroots.finitering import RingIdeal, filtration_generators
from ordroots.linalg import IntMatrix, Lattice, lattice_index, preimage_lattice
from ordroots.ordercore import (
    Order,
    build_context,
    build_saturation,
    mu_b_presentation,
    mu_c_p_presentation,
    order_from_poly,
)
from ordroots.polyfactor import cyclotomic, euler_phi, qp_mul
from ordroots.qalgebra import mu_dlog_explain
from ordroots.rou import (
    conductor,
    mu_a_generators,
    mu_a_p_generators,
    mu_a_presentation,
    mu_e_subgroup_dlog,
    psi_kernel,
    subring_ideal,
)
from util import (
    brute_closure,
    check_layers_against_references,
    coordinate_forms,
    diagonal_congruence_suborder,
    fixpoint_ideal,
    full_descent_generators,
    group_ring,
    intersected_conductor,
    product_order,
    ring_power,
    run_python,
    scalar_suborder,
    split_poly,
    stacked_conductor,
    subgroup_psi_kernel,
    two_ring_psi_kernel,
)


Z_TABLE = [[[1]]]


def x4ctx():
    return build_context(order_from_poly([-1, 0, 0, 0, 1]))


def test_conductor_x4():
    ctx = x4ctx()
    mu2 = mu_c_p_presentation(ctx, 2)
    cond = conductor(ctx, mu2)
    assert cond.ring_c.order() == 64
    # the subring A/ff has 8 elements: ff has index 8 in A
    assert lattice_index(cond.conductor_in_c, cond.a_in_c) == 8
    # I is nilpotent with I^2 = 0 here
    I = cond.ideal_i
    assert I.mul(I).is_zero()
    # the subring ideal has the four elements {0, 2, Y, Y+2}
    assert cond.ideal_i_sub.size() == 4


def test_conductor_trivial_when_c_equals_sep():
    # Z[zeta5]: B = A, so at any prime C = A_sep and the conductor is all of C
    ctx = build_context(order_from_poly([int(c) for c in cyclotomic(5)]))
    assert ctx.index_b_over_sep == 1
    mu5 = mu_c_p_presentation(ctx, 5)
    cond = conductor(ctx, mu5)
    assert cond.ring_c.order() == 1


DESCENT_ORDERS = {
    "X^4-1": lambda: order_from_poly([-1, 0, 0, 0, 1]),
    "X^12-1": lambda: order_from_poly([-1] + [0] * 11 + [1]),
    "split-rank-6": lambda: order_from_poly(split_poly([-3, -1, 0, 1, 2, 4])),
    "Z[2i]": lambda: scalar_suborder(order_from_poly([1, 0, 1]), 2),
    "Z+2Z[zeta3]": lambda: scalar_suborder(order_from_poly([1, 1, 1]), 2),
    "Z^3 mod 2": lambda: diagonal_congruence_suborder(Order(Z_TABLE), 3, 2),
    "Z^4 mod 2": lambda: diagonal_congruence_suborder(Order(Z_TABLE), 4, 2),
    "Z[i]^2 mod 2": lambda: diagonal_congruence_suborder(order_from_poly([1, 0, 1]), 2, 2),
}


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_conductor_matches_the_stacked_reference(name):
    # the intersection of preimages against one stacked congruence, and
    # every ideal of the conductor rings against the fixpoint closure,
    # at every torsion prime
    ctx = build_context(DESCENT_ORDERS[name]())
    primes = ctx.torsion_primes()
    assert primes
    rng = random.Random(name)
    for p in primes:
        mu_c = mu_c_p_presentation(ctx, p)
        cond = conductor(ctx, mu_c)
        ff, ff_in_a = stacked_conductor(ctx, mu_c)
        assert cond.conductor_in_c == ff
        c_order = mu_c.tower.c_order
        embed = IntMatrix(ff.dim, [c_order.coords(b) for b in ctx.sep_order.basis])
        assert cond.a_in_c == Lattice(ff.dim, embed.cols)
        # the conductor in A coordinates, mapped into C coordinates
        assert Lattice(ff.dim, [embed.apply(c) for c in ff_in_a.basis.cols]) == ff
        # I' against the preimage of I under the embedding, mapped back
        i_sub_in_a = preimage_lattice(embed, cond.ideal_i.lattice)
        assert cond.ideal_i_sub.lattice == Lattice(
            ff.dim, [embed.apply(c) for c in i_sub_in_a.basis.cols])
        assert cond.ring_c.order() == lattice_index(ff, Lattice.full(ff.dim))
        ring = cond.ring_c
        ring_a = ctx.sep_order.finite_quotient(ff_in_a)
        assert cond.zetas == [ring.reduce(c_order.coords(z)) for z in mu_c.pres.gens]
        gens = [ring.sub(z, ring.one) for z in cond.zetas]
        assert cond.ideal_i.lattice == fixpoint_ideal(ring, gens)
        for r in (cond.ring_c, ring_a):
            for _ in range(4):
                elems = [r.reduce([rng.randint(-9, 9) for _ in range(r.ngens)])
                         for _ in range(rng.randint(1, 3))]
                assert RingIdeal.generated_by(r, elems).lattice == fixpoint_ideal(r, elems)


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_conductor_layers_and_relations_match_the_elimination_references(name):
    ctx = build_context(DESCENT_ORDERS[name]())
    for p in ctx.torsion_primes():
        cond = conductor(ctx, mu_c_p_presentation(ctx, p))
        check_layers_against_references(cond.ring_c, cond.ideal_i)
        check_layers_against_references(cond.ring_c, cond.ideal_i_sub)


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_psi_kernel_matches_the_two_ring_route(name):
    # and the generators the full descent at every prime
    ctx = build_context(DESCENT_ORDERS[name]())
    for p in ctx.torsion_primes():
        mu_c = mu_c_p_presentation(ctx, p)
        cond = conductor(ctx, mu_c)
        assert psi_kernel(cond) == subgroup_psi_kernel(cond) == two_ring_psi_kernel(ctx, mu_c)
        assert mu_a_p_generators(ctx, p) == full_descent_generators(ctx, p)


SMALL_FACTORS = [[int(c) for c in cyclotomic(d)] for d in (1, 2, 3, 4, 6)] + [
    [2, 1], [-2, 1], [-3, 1]]


@st.composite
def small_orders(draw):
    """Z[X]/(f) for f a product of distinct cyclotomic and linear factors,
    of degree at most 5, or its suborder Z + m Z[X]/(f)."""
    factors = draw(st.lists(st.sampled_from(SMALL_FACTORS), min_size=1, max_size=4,
                            unique_by=tuple))
    f = [1]
    for g in factors:
        if len(f) + len(g) - 2 <= 5:
            f = qp_mul(f, g)
    A = order_from_poly([int(c) for c in f])
    m = draw(st.sampled_from([1, 1, 2, 3]))
    return scalar_suborder(A, m) if m > 1 else A


@settings(max_examples=25, deadline=None)
@given(small_orders())
def test_psi_kernel_matches_the_two_ring_route_on_small_orders(A):
    # and the conductor the stacked congruence over every basis element of
    # C, and the generators the full descent at every prime
    ctx = build_context(A)
    for p in ctx.torsion_primes():
        mu_c = mu_c_p_presentation(ctx, p)
        cond = conductor(ctx, mu_c)
        assert cond.conductor_in_c == stacked_conductor(ctx, mu_c)[0]
        assert psi_kernel(cond) == subgroup_psi_kernel(cond) == two_ring_psi_kernel(ctx, mu_c)
        assert mu_a_p_generators(ctx, p) == full_descent_generators(ctx, p)


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_the_sub_filtration_units_generate_exactly_one_plus_i_sub(name):
    # brute force in C/ff: the units of the filtration of I' close to
    # the group {1 + x : x in I'}, which lies in the subring A/ff
    ctx = build_context(DESCENT_ORDERS[name]())
    for p in ctx.torsion_primes():
        cond = conductor(ctx, mu_c_p_presentation(ctx, p))
        ring, sub = cond.ring_c, cond.ideal_i_sub
        elems = brute_closure(ring.add, ring.zero(),
                              [ring.reduce(c) for c in sub.lattice.basis.cols])
        assert len(elems) == sub.size()
        assert all(cond.a_in_c.contains(list(x)) for x in elems)
        filt = filtration_generators(ring, sub, Lattice.zero(ring.ngens))
        units = [u for us in filt.units for u in us]
        assert brute_closure(ring.mul, ring.one, units) == {ring.add(ring.one, x) for x in elems}


def test_each_conductor_builds_one_ring_and_one_filtration(monkeypatch):
    mu_cs = []
    for name in ("X^4-1", "split-rank-6", "Z[i]^2 mod 2"):
        ctx = build_context(DESCENT_ORDERS[name]())
        mu_cs += [(ctx, mu_c_p_presentation(ctx, p)) for p in ctx.torsion_primes()]
    calls = []
    built = finitering.FiniteRing.__init__
    filtered, presented = finitering.filtration_generators, finitering.unipotent_presentation

    def build(self, *args):
        calls.append("ring")
        built(self, *args)

    def filtration(*args):
        calls.append("filtration")
        return filtered(*args)

    def present(*args):
        calls.append("presentation")
        return presented(*args)

    monkeypatch.setattr(finitering.FiniteRing, "__init__", build)
    for mod in (finitering, rou):
        monkeypatch.setattr(mod, "filtration_generators", filtration)
        monkeypatch.setattr(mod, "unipotent_presentation", present, raising=False)
    for ctx, mu_c in mu_cs:
        calls.clear()
        psi_kernel(conductor(ctx, mu_c))
        assert sorted(calls) == ["filtration", "ring"]


CONDUCTOR_ORDERS = {
    "split-rank-8": lambda: order_from_poly(split_poly([-6, -4, -3, 0, 1, 2, 5, 6])),
    "split-rank-11": lambda: order_from_poly(split_poly(range(-5, 6))),
    "Phi_1 Phi_2 Phi_4 Phi_8": lambda: order_from_poly([-1] + [0] * 7 + [1]),
    "Phi_1 Phi_3 Phi_5": lambda: order_from_poly(
        qp_mul(qp_mul([-1, 1], cyclotomic(3)), cyclotomic(5))),
    "Phi_2 Phi_4 Phi_6": lambda: order_from_poly(
        qp_mul(qp_mul([1, 1], cyclotomic(4)), cyclotomic(6))),
    "Z[C_2^3]": lambda: group_ring(2, 2, 2),
    "Z[C_4 x C_2]": lambda: group_ring(4, 2),
}


@pytest.mark.parametrize("name", list(CONDUCTOR_ORDERS))
def test_the_nested_conductor_cut_equals_the_intersected_and_stacked_ones(name):
    # at every torsion prime where A is not C
    ctx = build_context(CONDUCTOR_ORDERS[name]())
    cut = 0
    for p in ctx.torsion_primes():
        mu_c = mu_c_p_presentation(ctx, p)
        if mu_c.tower.index_c_over_sep > 1:
            ff = conductor(ctx, mu_c).conductor_in_c
            assert ff == intersected_conductor(ctx, mu_c) == stacked_conductor(ctx, mu_c)[0]
            cut += 1
    assert cut


def test_each_conductor_takes_one_preimage_per_hermite_pivot_above_one(monkeypatch):
    # C is generated over A by the b_r whose row carries a Hermite pivot
    # of A above 1; where A spans C there are none and the conductor is C
    calls = []

    def preimage(m, lat):
        calls.append(m)
        return preimage_lattice(m, lat)

    monkeypatch.setattr(rou, "preimage_lattice", preimage)
    cases = [([1, 0, 1], 2, True), ([int(c) for c in cyclotomic(5)], 2, True),
             ([int(c) for c in cyclotomic(5)], 5, True),
             ([-1] + [0] * 11 + [1], 2, False), ([-1] + [0] * 11 + [1], 3, False)]
    for f, p, saturated in cases:
        ctx = build_context(order_from_poly(f))
        calls.clear()
        cond = conductor(ctx, mu_c_p_presentation(ctx, p))
        above = sum(c[r] > 1 for c, r in zip(cond.a_in_c.basis.cols, cond.a_in_c.pivots))
        assert len(calls) == above
        if saturated:
            assert above == 0
            assert cond.conductor_in_c == cond.a_in_c == Lattice.full(len(f) - 1)
            assert cond.ring_c.order() == 1
        else:
            assert 0 < above < len(f) - 1


def test_a_saturated_prime_builds_no_conductor_and_no_finite_ring(monkeypatch):
    # where p does not divide [B : A_sep], C is the separable part and
    # the p-power torsion of A is that of C
    conductors, rings = [], []
    built, real = finitering.FiniteRing.__init__, rou.conductor

    def build(self, *args):
        rings.append(args)
        built(self, *args)

    def spy(ctx, mu_c):
        conductors.append(mu_c.tower.prime)
        return real(ctx, mu_c)

    monkeypatch.setattr(finitering.FiniteRing, "__init__", build)
    monkeypatch.setattr(rou, "conductor", spy)
    for f in ([1, 0, 1], [int(c) for c in cyclotomic(5)]):
        ctx = build_context(order_from_poly(f))
        conductors.clear()
        rings.clear()
        assert mu_a_generators(ctx)
        assert conductors == [] and rings == []
    ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
    conductors.clear()
    mu_a_generators(ctx)
    assert conductors == [2, 3]
    orders = [f() for f in DESCENT_ORDERS.values()]
    orders += [order_from_poly([1, 0, 1]), order_from_poly([int(c) for c in cyclotomic(5)])]
    saturated = 0
    for A in orders:
        ctx = build_context(A)
        for p in ctx.torsion_primes():
            tower = build_saturation(ctx, p)
            assert (tower.c_order is ctx.sep_order) == (tower.index_c_over_sep == 1)
            assert (tower.index_c_over_sep == 1) == (ctx.index_b_over_sep % p != 0)
            saturated += tower.index_c_over_sep == 1
    assert 0 < saturated


_BRUTE_FORCE = {}


def _brute_force(name):
    """(cond, filtration of I modulo I', elements of C/ff) at every torsion
    prime of the fixture where C/ff has at most 2^16 elements."""
    if name not in _BRUTE_FORCE:
        ctx = build_context(DESCENT_ORDERS[name]())
        out = []
        for p in ctx.torsion_primes():
            cond = conductor(ctx, mu_c_p_presentation(ctx, p))
            ring = cond.ring_c
            if ring.order() <= 1 << 16:
                filt = filtration_generators(ring, cond.ideal_i, cond.ideal_i_sub.lattice)
                out.append((cond, filt, list(ring.elements())))
        _BRUTE_FORCE[name] = out
    return _BRUTE_FORCE[name]


def _quotient_relations(filt):
    n = sum(len(bs) for _, bs in filt.levels)
    return Lattice(n, finitering.unipotent_relations(filt))


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_the_quotient_order_times_the_size_of_i_sub_is_the_size_of_i(name):
    for cond, filt, elems in _brute_force(name):
        size_i = sum(1 for x in elems if cond.ideal_i.contains(x))
        size_sub = sum(1 for x in elems if cond.ideal_i_sub.contains(x))
        rels = _quotient_relations(filt)
        assert rels.rank == rels.dim
        assert rels.pivot_product * size_sub == size_i


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_a_relative_dlog_is_a_relation_exactly_on_i_sub(name):
    # 1 + x is trivial in (1+I)/(1+I') exactly when x lies in I'
    for cond, filt, elems in _brute_force(name):
        rels = _quotient_relations(filt)
        for x in elems:
            if cond.ideal_i.contains(x):
                log = finitering.unipotent_dlog(filt, x)
                assert rels.contains(log) == cond.ideal_i_sub.contains(x)


@pytest.mark.parametrize("name", list(DESCENT_ORDERS))
def test_each_layer_has_one_generator_per_invariant_factor(name):
    # I_j/(I_(j+1) + P_j) by enumeration: P_j is the part of I_j inside
    # I', and the number of invariant factors is the largest p-rank
    for cond, filt, elems in _brute_force(name):
        ring = cond.ring_c
        smaller = [ideal.lattice for ideal, _ in filt.levels[1:]] + [ring.rel]
        for (ideal, bs), nxt, sub in zip(filt.levels, smaller, filt.sub_levels):
            big = [x for x in elems if ideal.contains(x)]
            part = [x for x in big if cond.ideal_i_sub.contains(x)]
            assert sorted(x for x in elems if sub.contains(x)) == sorted(part)
            small = {ring.add(a, c) for a in elems if nxt.contains(a) for c in part}
            quotient, rest = divmod(len(big), len(small))
            assert rest == 0
            rank = 0
            for p in range(2, quotient + 1):
                if quotient % p == 0 and all(p % q for q in range(2, p)):
                    # the p-torsion of the layer has p^(its p-rank) elements
                    torsion = sum(1 for x in big if ring.reduce([p * e for e in x]) in small)
                    rank = max(rank, _exponent(torsion // len(small), p))
            assert len(bs) == rank


def _exponent(n, p):
    e = 0
    while n % p == 0 and n > 1:
        n //= p
        e += 1
    assert n == 1
    return e


# I' of Z[X]/(X^12 - 1) at 2 with one basis vector dropped, the
# relations kept: a lattice between the relations and A/ff that A does
# not preserve; then a filtration level of I with one layer generator
# dropped
_REFUSED_SUBRING_IDEAL_AND_LAYER = """
from ordroots.finitering import Filtration, filtration_generators
from ordroots.linalg import Lattice
from ordroots.ordercore import build_context, mu_c_p_presentation, order_from_poly
from ordroots.rou import conductor, subring_ideal

ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
cond = conductor(ctx, mu_c_p_presentation(ctx, 2))
ring, cols = cond.ring_c, cond.ideal_i_sub.lattice.basis.cols
rels = [list(c) for c in ring.rel.basis.cols]
bad = Lattice(ring.ngens, rels + [list(c) for c in cols[:2] + cols[3:]])
print(bad != cond.ideal_i_sub.lattice)
try:
    subring_ideal(ring, cond.a_in_c, bad)
except AssertionError as e:
    print(e)
filt = filtration_generators(ring, cond.ideal_i, Lattice.zero(ring.ngens))
(ideal, bs), levels = filt.levels[0], filt.levels
try:
    Filtration(ring=ring, levels=[(ideal, bs[1:])] + levels[1:], sub_levels=filt.sub_levels)
except AssertionError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_an_unclosed_subring_ideal_and_a_short_layer_are_refused(flags):
    run = run_python(flags, _REFUSED_SUBRING_IDEAL_AND_LAYER)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "True", "subring ideal is not closed under the subring",
        "layer generators do not generate the layer"]


# Z[X]/(X^4 - 1) at 2: the filtration of I modulo I' with one column of
# P_0 dropped; P_0 widened by the layer generator, which makes the
# quotient too small; and every exponent vector declared a kernel vector
_REFUSED_QUOTIENT_AND_KERNEL = """
from ordroots import rou
from ordroots.finitering import Filtration, filtration_generators
from ordroots.linalg import Lattice
from ordroots.ordercore import build_context, mu_c_p_presentation, order_from_poly
from ordroots.rou import conductor, psi_kernel

ctx = build_context(order_from_poly([-1, 0, 0, 0, 1]))
cond = conductor(ctx, mu_c_p_presentation(ctx, 2))
ring = cond.ring_c
filt = filtration_generators(ring, cond.ideal_i, cond.ideal_i_sub.lattice)
print(psi_kernel(cond))
(ideal, bs), = filt.levels
cols = filt.sub_levels[0].basis.cols
try:
    Filtration(ring=ring, levels=filt.levels, sub_levels=[Lattice(ring.ngens, cols[1:])])
except AssertionError as e:
    print(e)
wide = Filtration(ring=ring, levels=filt.levels,
                  sub_levels=[Lattice(ring.ngens, cols + [list(bs[0])])])
rou.filtration_generators = lambda *args: wide
try:
    psi_kernel(cond)
except AssertionError as e:
    print(e)
rou.filtration_generators = filtration_generators
rou.preimage_lattice = lambda m, lat: Lattice.full(m.ncols)
try:
    psi_kernel(cond)
except AssertionError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_short_sub_level_a_wrong_quotient_and_a_false_kernel_are_refused(flags):
    run = run_python(flags, _REFUSED_QUOTIENT_AND_KERNEL)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "[[1, 0, 1], [0, 1, 1], [0, 0, 2]]", "layer generators do not generate the layer",
        "quotient group order mismatch", "kernel generator does not multiply into 1+I'"]


def test_psi_kernel_x4_matches_known_lattice():
    ctx = x4ctx()
    mu2 = mu_c_p_presentation(ctx, 2)
    cond = conductor(ctx, mu2)
    ker = psi_kernel(cond)
    assert Lattice(3, ker) == Lattice(3, [[2, 0, 0], [1, 1, 0], [1, 0, 1]])


def test_psi_vanishes_on_relations():
    # psi factors through the torsion group: relation vectors must land in
    # the identity coset of (1+I)/(1+I')
    ctx = x4ctx()
    mu2 = mu_c_p_presentation(ctx, 2)
    cond = conductor(ctx, mu2)
    ring = cond.ring_c
    sub = filtration_generators(ring, cond.ideal_i_sub, Lattice.zero(ring.ngens))
    sub_elems = brute_closure(ring.mul, ring.one, [u for us in sub.units for u in us])
    for rel in mu2.pres.rels:
        img = ring.one
        for z, e in zip(mu2.pres.gens, rel):
            zc = ring.reduce(mu2.tower.c_order.coords(z))
            img = ring.mul(img, ring_power(ring, zc, e))
        assert img in sub_elems


def test_mu_b_presentation_rejects_a_wrong_length():
    ctx = x4ctx()
    one = ctx.ambient.one()
    pres = mu_b_presentation(ctx)
    assert pres.dlog(one) == [0, 0, 0]
    for bad in [one + (5,), one[:3]]:
        with pytest.raises(ValueError):
            pres.dlog(bad)
        with pytest.raises(ValueError):
            pres.ops.power(bad, 2)


def test_mu_a_presentation_rejects_a_wrong_length():
    # a bad-input error, not the internal fault of a witness that does
    # not multiply back
    ctx = x4ctx()
    one = ctx.ambient.one()
    with pytest.raises(ValueError):
        mu_a_presentation(ctx).pres.dlog(one + (5,))


def test_mu_a_p_x4():
    ctx = x4ctx()
    gens = mu_a_p_generators(ctx, 2)
    A = ctx.order
    group = brute_closure(A.mul, tuple(A.one), [tuple(g) for g in gens])
    assert len(group) == 8
    assert (0, 0, 0, -1) in group and (-1, 0, 0, 0) in group


def test_mu_a_x12():
    ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
    gens = mu_a_generators(ctx)
    A = ctx.order
    group = brute_closure(A.mul, tuple(A.one), [tuple(g) for g in gens])
    assert len(group) == 24
    minus_x3 = tuple(-1 if i == 3 else 0 for i in range(12))
    x4 = tuple(1 if i == 4 else 0 for i in range(12))
    assert minus_x3 in group and x4 in group
    pres = mu_a_presentation(ctx)
    assert pres.invariant_factors == [2, 12]


def test_mu_a_scalar_suborder_of_gaussians():
    # Z[2i]: the field torsion is order 4 but only +-1 survives
    Zi = order_from_poly([1, 0, 1])
    A = scalar_suborder(Zi, 2)
    ctx = build_context(A)
    gens = mu_a_p_generators(ctx, 2)
    group = brute_closure(A.mul, tuple(A.one), [tuple(g) for g in gens])
    assert len(group) == 2
    pres = mu_a_presentation(ctx)
    assert pres.group_order == 2
    assert pres.invariant_factors == [2]


def test_mu_a_congruence_order():
    # all-coordinates-congruent-mod-2 suborder of Z^3: 8 torsion units
    A = diagonal_congruence_suborder(Order(Z_TABLE), 3, 2)
    pres = mu_a_presentation(A)
    assert pres.group_order == 8
    assert pres.invariant_factors == [2, 2, 2]


def test_mu_a_zeta5():
    A = order_from_poly([int(c) for c in cyclotomic(5)])
    pres = mu_a_presentation(A)
    assert pres.group_order == 10
    assert pres.invariant_factors == [10]


def test_mu_a_of_z_and_gaussians():
    pres = mu_a_presentation(Order(Z_TABLE))
    assert pres.group_order == 2
    group = brute_closure(Order(Z_TABLE).mul, (1,),
                          [tuple(g) for g in pres.generators])
    assert group == {(1,), (-1,)}
    Zi = order_from_poly([1, 0, 1])
    pres_i = mu_a_presentation(Zi)
    assert pres_i.invariant_factors == [4]


_MUA_ORDERS = {
    "X^2 + 4": [4, 0, 1],  # Z[2i] on the basis 1, 2i
    "X^4 - 1": [-1, 0, 0, 0, 1],
    "X^12 - 1": [-1] + [0] * 11 + [1],
    "Phi_16": [int(c) for c in cyclotomic(16)],
}
_MUA = {}


def _mua(name):
    if name not in _MUA:
        _MUA[name] = mu_a_presentation(build_context(order_from_poly(_MUA_ORDERS[name])))
    return _MUA[name]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_MUA_ORDERS)), data=st.data())
def test_a_mua_dlog_multiplies_back_to_its_word_in_the_order(name, data):
    # a word in the order's torsion generators, multiplied in the order;
    # its exponents, read in the residue product, give the same unit
    mua = _mua(name)
    A, gens = mua.ctx.order, mua.generators
    x = tuple(A.one)
    for _ in range(data.draw(st.integers(0, 6))):
        g = gens[data.draw(st.integers(0, len(gens) - 1))]
        x = A.mul(x, A.power(g, data.draw(st.integers(-30, 30))))
    exps = mua.pres.dlog(mua.ctx.to_ambient(x))
    assert exps is not None and len(exps) == len(gens)
    back = tuple(A.one)
    for g, e in zip(gens, exps):
        back = A.mul(back, A.power(g, e))
    assert back == x


def test_i_is_no_unit_of_z_2i():
    # i is a root of unity of the algebra, outside Z[2i]'s +-1
    mua = _mua("X^2 + 4")
    assert mua.pres.dlog(mua.ctx.to_ambient((0, Fraction(1, 2)))) is None
    assert mua.pres.dlog(mua.ctx.to_ambient((-1, 0))) is not None


def test_mu_a_p_trivial_torsion_part():
    # p = 3 contributes nothing to the torsion of Z[X]/(X^4-1)
    ctx = x4ctx()
    gens = mu_a_p_generators(ctx, 3)
    assert gens == []


def test_generators_are_verified_roots_of_unity():
    ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
    A = ctx.order
    for g in mu_a_generators(ctx):
        # order bound phi(k) <= rank
        acc = tuple(g)
        k = 1
        while acc != tuple(A.one):
            acc = A.mul(acc, tuple(g))
            k += 1
            assert k <= 2 * A.rank * A.rank
        assert euler_phi(k) <= A.rank


from util import brute_force_torsion_in_order


@pytest.mark.parametrize("build", [
    lambda: order_from_poly([-1, 0, 0, 0, 1]),
    lambda: scalar_suborder(order_from_poly([1, 0, 1]), 2),
    lambda: scalar_suborder(order_from_poly([1, 1, 1]), 2),
    lambda: diagonal_congruence_suborder(Order(Z_TABLE), 4, 2),
    lambda: product_order([[[[1]]], [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]]),
])
def test_generated_group_equals_brute_force(build):
    A = build()
    ctx = build_context(A)
    gens = mu_a_generators(ctx)
    got = brute_closure(A.mul, tuple(int(c) for c in A.one),
                        [tuple(g) for g in gens])
    want = brute_force_torsion_in_order(ctx)
    assert got == want


def test_mu_e_subgroup_dlog_cases():
    A = order_from_poly([-1, 0, 0, 0, 1])
    ctx = build_context(A)
    # identity over empty targets
    sol, reason = mu_e_subgroup_dlog(ctx, [], [1, 0, 0, 0])
    assert sol == [] and reason is None
    # -X^3 in <X, -1>
    sol, reason = mu_e_subgroup_dlog(ctx, [[0, 1, 0, 0], [-1, 0, 0, 0]],
                                     [0, 0, 0, -1])
    assert sol is not None
    got = ctx.order.algebra.power((0, 1, 0, 0), sol[0])
    got = ctx.order.algebra.mul(got, ctx.order.algebra.power((-1, 0, 0, 0), sol[1]))
    assert got == (0, 0, 0, -1)
    # -1 is not in <-X^2> (component pattern (-1,-1,1) only reaches order 2)
    sol, reason = mu_e_subgroup_dlog(ctx, [[0, 0, -1, 0]], [-1, 0, 0, 0])
    assert sol is None and reason == "not-in-subgroup"
    # X + 1 is not a root of unity
    sol, reason = mu_e_subgroup_dlog(ctx, [[0, 1, 0, 0]], [1, 1, 0, 0])
    assert sol is None and reason == "not-root-of-unity"
    # a target that is no root of unity is an input error
    with pytest.raises(ValueError):
        mu_e_subgroup_dlog(ctx, [[1, 1, 0, 0]], [1, 0, 0, 0])


def test_mu_e_subgroup_dlog_fractional_coordinates():
    # in the rational algebra of Z[2i] the torsion element i has coordinates
    # (0, 1/2) on the basis (1, 2i)
    Zi = order_from_poly([1, 0, 1])
    A = scalar_suborder(Zi, 2)
    ctx = build_context(A)
    i_coords = [Fraction(0), Fraction(1, 2)]
    sol, reason = mu_e_subgroup_dlog(ctx, [i_coords], [-1, 0])
    assert sol is not None and reason is None
    assert sol[0] % 4 == 2


X12 = [-1] + [0] * 11 + [1]


def test_mu_e_subgroup_dlog_builds_the_field_torsion_once(monkeypatch):
    from ordroots import ordercore

    A = order_from_poly(X12)

    def mono(k, c=1):
        return [c if i == k else 0 for i in range(12)]

    # X on the components where X^6 = 1, 1 on the others: a root of
    # unity of the rational algebra with fractional coordinates
    u = [Fraction(c, 2) for c in (1, 1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0)]
    queries = [
        ([mono(1)], mono(5)),
        ([mono(4), mono(0, -1)], mono(8, -1)),
        ([mono(2), mono(3)], mono(1)),
        ([], mono(0)),
        ([u, mono(6)], u),
        ([mono(6)], mono(4)),
        ([mono(3)], mono(2)),
        ([mono(1)], u),
        ([mono(1)], [1, 1] + [0] * 10),
        ([], mono(0, 2)),
    ]
    ctx = build_context(A)
    calls = []
    built = ordercore.mu_presentation
    monkeypatch.setattr(ordercore, "mu_presentation",
                        lambda *args: calls.append(args) or built(*args))
    answers = [mu_e_subgroup_dlog(ctx, t, z) for t, z in queries]
    assert len(calls) == 1
    assert {reason for _, reason in answers} == {None, "not-in-subgroup", "not-root-of-unity"}
    for (t, z), got in zip(queries, answers):
        assert got == mu_e_subgroup_dlog(build_context(A), t, z)
    with pytest.raises(ValueError):
        mu_e_subgroup_dlog(ctx, [mono(1)[:11]], mono(0))
    with pytest.raises(ValueError):
        mu_e_subgroup_dlog(ctx, [mono(1)], mono(0) + [0])


def test_mu_e_subgroup_dlog_maps_each_vector_to_components_once(monkeypatch):
    from ordroots.qalgebra import SpecDecomposition

    def mono(k, c=1):
        return [c if i == k else 0 for i in range(12)]

    u = [Fraction(c, 2) for c in (1, 1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0)]
    queries = [
        ([mono(4), mono(0, -1)], mono(8, -1), None),
        ([mono(6)], mono(4), "not-in-subgroup"),
        ([mono(1)], [1, 1] + [0] * 10, "not-root-of-unity"),
        ([], mono(0), None),
        ([u, mono(6), mono(3)], u, None),
    ]
    ctx = build_context(order_from_poly(X12))
    ctx.field_torsion()
    calls = []
    mapped = SpecDecomposition.to_components
    monkeypatch.setattr(SpecDecomposition, "to_components",
                        lambda self, x: calls.append(x) or mapped(self, x))
    for targets, zeta, reason in queries:
        calls.clear()
        assert mu_e_subgroup_dlog(ctx, targets, zeta)[1] == reason
        assert len(calls) == len(targets) + 1


def _counting(pres, calls):
    """pres with a dlog that records each argument and a group power that
    refuses: a query multiplies back from the logs it holds."""
    def dlog(x, _dlog=pres.dlog):
        calls.append(x)
        return _dlog(x)

    def power(x, e):
        raise AssertionError("a query raised an element by the group power")

    return replace(pres, dlog=dlog, ops=replace(pres.ops, power=power))


def test_mu_e_subgroup_dlog_takes_each_dlog_once(monkeypatch):
    def mono(k, c=1):
        return [c if i == k else 0 for i in range(12)]

    u = [Fraction(c, 2) for c in (1, 1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0)]
    queries = [
        ([mono(4), mono(0, -1)], mono(8, -1), None),
        ([mono(6)], mono(4), "not-in-subgroup"),
        ([mono(1)], [1, 1] + [0] * 10, "not-root-of-unity"),
        ([], mono(0), None),
        ([u, mono(6), mono(3), mono(6)], u, None),
    ]
    ctx = build_context(order_from_poly(X12))
    calls = []
    monkeypatch.setattr(ctx, "_field_torsion", _counting(ctx.field_torsion(), calls))
    for targets, zeta, reason in queries:
        calls.clear()
        assert mu_e_subgroup_dlog(ctx, targets, zeta)[1] == reason
        assert calls == [ctx.to_ambient(v) for v in targets + [zeta]]


def test_mu_a_query_dlogs_no_target():
    ctx = build_context(order_from_poly(X12))
    plain = mu_b_presentation(ctx)
    calls = []
    targets = [ctx.to_ambient(g) for g in mu_a_generators(ctx)]
    sub = subgroup_presentation(_counting(plain, calls), targets)
    assert calls == targets  # once each, when the presentation is built
    rng = random.Random(12)
    answers = set()
    for k in range(12):
        # members of <targets>, and elements of the residue torsion
        gamma = plain.ops.product(targets, [rng.randint(-12, 12) for _ in targets]) if k % 2 \
            else plain.evaluate([rng.randint(-12, 12) for _ in plain.gens])
        calls.clear()
        sol = sub.dlog(gamma)
        assert calls == [gamma]
        assert sol == membership_dlog(plain, targets, gamma)
        answers.add(sol is None)
    assert answers == {True, False}


_CONTEXTS = {}


def _context(f):
    if f not in _CONTEXTS:
        _CONTEXTS[f] = build_context(order_from_poly(list(f)))
    return _CONTEXTS[f]


@settings(max_examples=30, deadline=None)
@given(f=st.sampled_from([tuple(X12), (0, 0, 1, 1)]), data=st.data())
def test_component_answers_multiply_back_in_the_algebra(f, data):
    # Q[X]/(X^12 - 1), and Q[X]/(X^2 (X + 1)) with its nilradical
    ctx = _context(f)
    E = ctx.order.algebra
    pres = ctx.field_torsion()
    gens = [ctx.dec.from_components(g) for g in pres.gens]
    orders = [K.torsion_generator()[1] for K in ctx.dec.components]
    exps = data.draw(st.lists(st.integers(-24, 24), min_size=len(orders),
                              max_size=len(orders)))

    def product(exps):
        acc = E.one
        for g, e in zip(gens, exps):
            acc = E.mul(acc, E.power(g, e))
        return acc

    zeta = product(exps)
    assert mu_dlog_explain(ctx.dec, pres, zeta) == ([e % w for e, w in zip(exps, orders)], None)
    sol, reason = mu_e_subgroup_dlog(ctx, gens, zeta)
    assert reason is None and product(sol) == zeta
    for n in ctx.dec.nil_basis:
        c = data.draw(st.integers(1, 5)) * data.draw(st.sampled_from([1, -1]))
        bad = tuple(z + c * e for z, e in zip(zeta, n))
        assert mu_dlog_explain(ctx.dec, pres, bad) == (None, "not-separable")
        assert mu_e_subgroup_dlog(ctx, gens, bad) == (None, "not-root-of-unity")


@settings(max_examples=30, deadline=None)
@given(f=st.sampled_from([tuple(X12), (0, 0, 1, 1)]), data=st.data())
def test_dlog_answers_and_bad_input_do_not_depend_on_the_coordinate_form(f, data):
    # Q[X]/(X^12 - 1) has nilradical 0, Q[X]/(X^2 (X + 1)) does not
    ctx = _context(f)
    E = ctx.order.algebra
    pres = ctx.field_torsion()
    gens = [ctx.dec.from_components(g) for g in pres.gens]
    n = E.dim

    def member():
        exps = data.draw(st.lists(st.integers(-24, 24), min_size=len(gens),
                                  max_size=len(gens)))
        acc = E.one
        for g, e in zip(gens, exps):
            acc = E.mul(acc, E.power(g, e))
        return acc

    targets = [member() for _ in range(data.draw(st.integers(0, 2)))]
    # a member, half a member (no root of unity) or a member plus a
    # nilpotent (on X^12 - 1, plus 1/3 on every coordinate)
    kind = data.draw(st.sampled_from(["member", "half", "shifted"]))
    zeta = member()
    if kind == "half":
        zeta = tuple(Fraction(c, 2) for c in zeta)
    elif kind == "shifted":
        shift = ctx.dec.nil_basis[0] if ctx.dec.nil_basis else [Fraction(1, 3)] * n
        zeta = tuple(a + b for a, b in zip(zeta, shift))
    target_forms = [coordinate_forms(data, t) for t in targets]
    zeta_forms = coordinate_forms(data, zeta)
    answers = [mu_e_subgroup_dlog(ctx, [t[k] for t in target_forms], zeta_forms[k])
               for k in range(3)]
    assert answers[0] == answers[1] == answers[2]
    explained = [mu_dlog_explain(ctx.dec, pres, z) for z in zeta_forms]
    assert explained[0] == explained[1] == explained[2]
    if kind == "member":
        assert explained[0][1] is None and answers[0][1] in (None, "not-in-subgroup")
    elif kind == "half":
        assert explained[0] == (None, "component-not-root-of-unity")
    elif ctx.dec.nil_basis:
        assert explained[0] == (None, "not-separable")
    if kind != "member":
        assert answers[0] == (None, "not-root-of-unity")
    for k in range(3):
        short, long = zeta_forms[k][:-1], zeta_forms[k] + (0,)
        for bad in (short, long):
            with pytest.raises(ValueError):
                mu_dlog_explain(ctx.dec, pres, bad)
            with pytest.raises(ValueError):
                mu_e_subgroup_dlog(ctx, [t[k] for t in target_forms], bad)
            with pytest.raises(ValueError):
                mu_e_subgroup_dlog(ctx, [t[k] for t in target_forms] + [bad], zeta_forms[k])
