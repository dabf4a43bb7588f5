import itertools
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordroots import numfield
from ordroots.linalg import QLattice, RatMatrix, solve_rat
from ordroots.numfield import (
    NumberField,
    ProductRing,
    _norm_poly,
    _residue_gcd,
    nfp_degree,
    nfp_divmod,
    nfp_eval,
    nfp_from_qp,
    nfp_gcd,
    nfp_monic,
    nfp_mul,
    roots_in_field,
)
from ordroots.ordercore import build_context, order_from_poly, primitive_idempotents_ctx
from ordroots.orderdoc import parse_vector
from ordroots.polyfactor import (
    cyclotomic,
    factor_q,
    fp_factor_squarefree,
    fp_gcd,
    qp,
    qp_degree,
    qp_deriv,
    qp_mul,
    qp_mul_columns,
    resultant,
)
from ordroots.qalgebra import QAlgebra, decompose, minimal_polynomial
from ordroots.rou import mu_a_presentation

from util import (
    coordinate_forms,
    cyclic_dlog,
    full_trager_roots,
    inverting_divmod,
    inverting_monic,
    is_canonical,
    lagrange_norm_poly,
    product_inv,
    product_power,
    run_python,
    schoolbook_field_mul,
    sweep_torsion_generator,
    xgcd_field_inverse,
)


def QQ():
    return NumberField([0, 1])


def gaussian():
    return NumberField([1, 0, 1])


def test_constructor_rejects_reducible():
    with pytest.raises(ValueError):
        NumberField([-1, 0, 1])  # x^2 - 1
    with pytest.raises(ValueError):
        NumberField([2])


def test_constructor_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        NumberField([1, 0.5, 1])


def test_arithmetic_in_gaussian_field():
    K = gaussian()
    i = K.gen()
    assert K.mul(i, i) == K.from_rational(-1)
    z = K.add(K.one(), i)  # 1 + i
    assert K.mul(z, K.inv(z)) == K.one()
    assert K.pow(i, 4) == K.one()
    assert K.pow(i, -1) == K.neg(i)


def test_roots_examples():
    K = gaussian()
    r = roots_in_field(nfp_from_qp([1, 0, 1], K), K)
    assert len(r) == 2
    assert set(r) == {K.gen(), K.neg(K.gen())}
    assert roots_in_field(nfp_from_qp([1, 0, 1], QQ()), QQ()) == []


def test_roots_phi12_over_z12_field():
    K = NumberField(cyclotomic(12))
    roots = roots_in_field(nfp_from_qp(cyclotomic(12), K), K)
    assert len(roots) == 4
    # oracle: the powers zeta^k, k coprime to 12, are exactly the roots
    zeta = K.gen()
    expect = {K.pow(zeta, k) for k in (1, 5, 7, 11)}
    assert set(roots) == expect
    # every root verifies exactly (checked inside roots_in_field as well)
    for r in roots:
        assert all(c == 0 for c in nfp_eval(nfp_from_qp(cyclotomic(12), K), r, K))


def test_roots_root_count_bound():
    K = gaussian()
    f = nfp_mul(nfp_from_qp([1, 0, 1], K), nfp_from_qp([-1, 1], K), K)
    roots = roots_in_field(f, K)
    assert len(roots) == 3 <= nfp_degree(f)


def test_roots_with_multiplicity_input():
    K = QQ()
    f = nfp_mul(nfp_from_qp([0, 1], K), nfp_from_qp([0, 1], K), K)  # x^2
    assert roots_in_field(f, K) == [K.zero()]


@pytest.mark.parametrize("f", [
    qp_mul(qp_mul([-1, 1], [2, 1]), [-3, 2]),  # split: 1, -2, 3/2
    [-2, 0, 0, 1],  # irreducible
    qp_mul(qp_mul([-1, 1], [-1, 1]), qp_mul([4, 1], [1, 0, 1])),  # (X - 1)^2 (X + 4) (X^2 + 1)
])
def test_roots_over_degree_one_fields_are_the_rational_roots(f):
    # the norm of g down from a degree-1 field is g itself
    want = sorted((-fac[0],) for fac, _ in factor_q(f)[1] if qp_degree(fac) == 1)
    for K in (QQ(), NumberField([-5, 1])):
        assert roots_in_field(nfp_from_qp(f, K), K) == want


def test_roots_rejects_zero():
    with pytest.raises(ValueError):
        roots_in_field([], QQ())


def test_torsion_generators():
    assert QQ().torsion_generator() == ((-1,), 2)
    K = gaussian()
    z, w = K.torsion_generator()
    assert w == 4
    assert K.pow(z, 4) == K.one() and K.pow(z, 2) != K.one()
    K3 = NumberField([1, 1, 1])
    _, w3 = K3.torsion_generator()
    assert w3 == 6
    K12 = NumberField(cyclotomic(12))
    _, w12 = K12.torsion_generator()
    assert w12 == 12
    K5 = NumberField(cyclotomic(5))
    _, w5 = K5.torsion_generator()
    assert w5 == 10


def test_torsion_in_real_field():
    K = NumberField([-2, 0, 1])  # Q(sqrt 2): only +-1
    z, w = K.torsion_generator()
    assert w == 2 and z == K.from_rational(-1)


def _valuation(n, ell):
    k = 0
    while n % ell == 0:
        n //= ell
        k += 1
    return k


SWEEP_FIELDS = {
    "Q": [0, 1],
    "Q(sqrt2)": [-2, 0, 1],
    "Q(sqrt-5)": [5, 0, 1],
    "Q(sqrt-3)": [3, 0, 1],
    "X^2+1/4": [Fraction(1, 4), 0, 1],
    "X^3-2": [-2, 0, 0, 1],
    "X^4-2": [-2, 0, 0, 0, 1],
    "X^4+X+1": [1, 1, 0, 0, 1],
    "Q(zeta5)": cyclotomic(5),
    "Q(zeta8)": cyclotomic(8),
    "Q(zeta12)": cyclotomic(12),
}


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_torsion_climb_agrees_with_the_cyclotomic_sweep(name):
    m = SWEEP_FIELDS[name]
    K = NumberField(m)
    zeta, w = K.torsion_generator()
    assert (zeta, w) == sweep_torsion_generator(NumberField(m))
    for ell in (2, 3, 5, 7):
        assert K.residue_bound(ell) >= _valuation(w, ell)


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(sqrt-3)", "X^4+X+1", "Q(zeta5)", "Q(zeta8)",
                                  "Q(zeta12)"])
def test_torsion_powers_are_the_powers_of_the_generator(name):
    K = NumberField({**SWEEP_FIELDS, "Q(i)": [1, 0, 1]}[name])
    zeta, w = K.torsion_generator()
    powers = K.torsion_powers()
    assert len(powers) == w == len(set(powers))
    assert list(powers) == [K.pow(zeta, i) for i in range(w)]


def test_residue_bound_rules_out_3_and_5_in_q_zeta7():
    K = NumberField(cyclotomic(7))
    assert K.residue_bound(3) == 0
    assert K.residue_bound(5) == 0
    assert K.residue_bound(7) >= 1


@pytest.mark.parametrize("d", [15, 16, 20, 24])
def test_torsion_of_degree_8_cyclotomic_fields(d):
    K = NumberField(cyclotomic(d))
    zeta, w = K.torsion_generator()
    assert w == lcm(2, d)
    one = K.one()
    assert K.pow(zeta, w) == one
    for ell in (2, 3, 5):
        if w % ell == 0:
            assert K.pow(zeta, w // ell) != one
    # closed form: the primitive w-th roots are the powers of +-gen
    x = K.gen() if d % 2 == 0 else K.neg(K.gen())
    assert zeta == min(K.pow(x, j) for j in range(1, w) if gcd(j, w) == 1)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), data=st.data())
def test_residue_gcd_reads_the_degrees_of_the_berlekamp_factors(p, data):
    # an integer polynomial whose leading coefficient p does not divide,
    # squarefree mod p, as residue_bound hands it over
    lead = data.draw(st.integers(1, 3 * p).filter(lambda c: c % p))
    f = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=9)) + [lead]
    assume(qp_degree(fp_gcd(f, qp_deriv(f), p)) == 0)
    want = 0
    for h in fp_factor_squarefree(f, p):
        want = gcd(want, p ** qp_degree(h) - 1)
    assert _residue_gcd(f, p) == want


def test_nfp_gcd():
    K = gaussian()
    f = nfp_from_qp([1, 0, 1], K)  # (x-i)(x+i)
    g = [K.neg(K.gen()), K.one()]  # x - i
    d = nfp_gcd(f, g, K)
    assert nfp_degree(d) == 1
    assert d[1] == K.one()


# fields for the roots property: Q(i), Q(zeta_3) by X^2 + 3X + 3, Q(sqrt 2)
# and the cyclic cubic Q(zeta_9 + zeta_9^-1); X^3 - c for c = 2, 3, 5 has
# no root in any of them (its roots generate non-normal cubic fields), so
# it is irreducible over each
ROOT_FIELDS = {
    "Q(i)": [1, 0, 1],
    "Q(zeta3)": [3, 3, 1],
    "Q(sqrt2)": [-2, 0, 1],
    "cyclic cubic": [1, -3, 0, 1],
}
_SMALL = st.sampled_from([0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3)])


def _linear(K, r):
    return [K.neg(r), K.one()]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ROOT_FIELDS)), data=st.data())
def test_roots_match_the_full_trager_reference(name, data):
    K = NumberField(ROOT_FIELDS[name])
    roots = [tuple(data.draw(_SMALL) for _ in range(K.deg))
             for _ in range(data.draw(st.integers(1, 3)))]
    f = [K.from_rational(data.draw(st.sampled_from([1, 2, Fraction(-1, 3)])))]
    for r in roots:
        f = nfp_mul(f, _linear(K, r), K)
    f = nfp_mul(f, nfp_from_qp([-data.draw(st.sampled_from([2, 3, 5])), 0, 0, 1], K), K)
    if data.draw(st.booleans()):
        f = nfp_mul(f, _linear(K, roots[0]), K)
    got = roots_in_field(f, K)
    assert got == full_trager_roots(f, K)
    assert set(got) == set(roots)


def _record_shifts(monkeypatch):
    events = []
    shift, gcd_ = numfield.nfp_compose_shift, numfield.nfp_gcd

    def compose_shift(f, s, K):
        events.append(("shift", s))
        return shift(f, s, K)

    def nfp_gcd_(f, g, K):
        events.append(("gcd",))
        return gcd_(f, g, K)

    monkeypatch.setattr(numfield, "nfp_compose_shift", compose_shift)
    monkeypatch.setattr(numfield, "nfp_gcd", nfp_gcd_)
    return events


def test_rational_polynomial_skips_the_unshifted_norm(monkeypatch):
    # the norm of a rational f down from Q(i) is f^2
    K = gaussian()
    f = nfp_from_qp(qp_mul(qp_mul([-2, 1], [-3, 1]), [-2, 0, 1]), K)
    events = _record_shifts(monkeypatch)
    roots = roots_in_field(f, K)
    # at s = 1 the norm, (X^2 - 4X + 5)(X^2 - 6X + 10) times the quartic
    # norm of (X - i)^2 - 2, is squarefree: no separability gcd, and one
    # pullback gcd for each norm factor but the last
    assert events == [("shift", 1), ("gcd",), ("gcd",)]
    assert roots == [K.from_rational(2), K.from_rational(3)] == full_trager_roots(f, K)


def test_repeated_root_runs_the_gcd_after_the_first_norm(monkeypatch):
    K = gaussian()
    i = K.gen()
    f = nfp_mul(nfp_mul(_linear(K, i), _linear(K, i), K), _linear(K, K.add(K.one(), i)), K)
    events = _record_shifts(monkeypatch)
    roots = roots_in_field(f, K)
    # s = 0: the norm of (X - i)^2 (X - 1 - i) is not squarefree, so
    # gcd(f, f') runs and the search goes on with the squarefree part
    assert events[:3] == [("shift", 0), ("gcd",), ("shift", 1)]
    assert roots == sorted([i, K.add(K.one(), i)]) == full_trager_roots(f, K)


def test_last_norm_factor_pulls_back_to_a_nonlinear_cofactor(monkeypatch):
    K = gaussian()
    f = nfp_from_qp(qp_mul(qp_mul([-1, 1], [1, 1]), [-5, 0, 0, 1]), K)
    seen = []
    factor = numfield.factor_q

    def factor_q_(norm):
        out = factor(norm)
        seen.append([fac for fac, _ in out[1]])
        return out

    monkeypatch.setattr(numfield, "factor_q", factor_q_)
    roots = roots_in_field(f, K)
    facs, = seen
    # two linear pieces, then the cubic (X - s*i)^3 - 5 as the cofactor
    assert [qp_degree(h) for h in facs] == [2, 2, 6]
    assert roots == [K.from_rational(-1), K.from_rational(1)] == full_trager_roots(f, K)


def test_a_piece_of_the_wrong_degree_is_refused(monkeypatch):
    # a pullback gcd that loses its factor leaves pieces whose degrees
    # disagree with their norm factors
    K = gaussian()
    f = nfp_from_qp(qp_mul(qp_mul([-2, 1], [-3, 1]), [-2, 0, 1]), K)
    monkeypatch.setattr(numfield, "nfp_gcd", lambda f, g, K: [K.one()])
    with pytest.raises(AssertionError, match="does not pull back"):
        roots_in_field(f, K)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ROOT_FIELDS)), data=st.data())
def test_monic_division_takes_no_inverse(name, data):
    K = NumberField(ROOT_FIELDS[name])

    def element():
        return tuple(data.draw(_SMALL) for _ in range(K.deg))

    f = [element() for _ in range(data.draw(st.integers(1, 5)))] + [K.from_rational(3)]
    g = [element() for _ in range(data.draw(st.integers(0, 2)))] + [K.one()]
    want_q, want_r = inverting_divmod(f, g, K)
    want_monic = inverting_monic(g, K)
    calls = []
    inv = NumberField.inv

    def counting_inv(self, x):
        calls.append(x)
        return inv(self, x)

    NumberField.inv = counting_inv
    try:
        assert nfp_divmod(f, g, K) == (want_q, want_r)
        assert nfp_monic(g, K) == want_monic
        assert not calls
        assert nfp_monic(f, K) == inverting_monic(f, K)
        assert calls
    finally:
        NumberField.inv = inv


# products of small fields, each with the component lists of its cyclic
# factors; a factor's generator is the torsion generator of every field
# it covers, as mu_c_p_presentation joins residues into one factor, and
# the factor is given by its power list
CYCLIC_PRODUCTS = {
    "one factor per field": ([[0, 1], [1, 0, 1], [1, 1, 1]], [[0], [1], [2]]),
    "one factor over two fields": ([[1, 0, 1], [1, 0, 1], [1, 1, 1]], [[0, 1], [2]]),
    "two fields of different orders": ([[1, 1, 1], [0, 1], [1, 0, 1]], [[1], [0, 2]]),
    "a field with only -1": ([[1, 0, 1], [-2, 0, 1]], [[0], [1]]),
}
_PRODUCTS = {}


def _cyclic_product(name):
    if name not in _PRODUCTS:
        polys, comps_list = CYCLIC_PRODUCTS[name]
        ring = ProductRing([NumberField(m) for m in polys])
        factors = []
        for comps in comps_list:
            tables = [ring.fields[i].torsion_powers() for i in comps]
            w = lcm(*(len(t) for t in tables))
            factors.append((comps, [tuple(c for t in tables for c in t[a % len(t)])
                                    for a in range(w)]))
        _PRODUCTS[name] = ring, factors
    return _PRODUCTS[name]


def _search_dlog(ring, factors, x):
    """The discrete log by a cyclic search in every factor."""
    out = []
    for comps, powers in factors:
        sub = ring.sub_ring(comps)
        w = len(powers)
        a = cyclic_dlog(sub.mul, sub.one(), powers[1 % w], w, ring.project(x, comps))
        if a is None:
            return None
        out.append(a)
    return out


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CYCLIC_PRODUCTS)), data=st.data())
def test_table_dlog_and_inverse_match_the_search(name, data):
    ring, factors = _cyclic_product(name)
    pres = ring.cyclic_presentation(factors)
    assert [r[k] for k, r in enumerate(pres.rels)] == [len(p) for _, p in factors]

    def check(x):
        log = pres.dlog(x)
        assert log == _search_dlog(ring, factors, x)
        if log is None:
            with pytest.raises(ValueError, match="outside the torsion group"):
                pres.ops.power(x, -1)
        else:
            assert pres.ops.power(x, -1) == product_inv(ring, x)

    for g, (_, powers) in zip(pres.gens, factors):
        x = ring.one()
        for _ in range(len(powers)):
            check(x)
            x = ring.mul(x, g)
    exps = data.draw(st.lists(st.integers(-30, 30), min_size=len(factors),
                              max_size=len(factors)))
    member = pres.evaluate(exps)
    assert pres.dlog(member) == [e % len(p) for e, (_, p) in zip(exps, factors)]
    check(member)
    # 2, and a member moved by a nonzero rational on one field
    check(ring.from_blocks([K.from_rational(2) for K in ring.fields]))
    i = data.draw(st.integers(0, len(ring.fields) - 1))
    c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    blocks = [ring.block(member, j) for j in range(len(ring.fields))]
    blocks[i] = (blocks[i][0] + c,) + blocks[i][1:]
    assume(all(any(b) for b in blocks))
    check(ring.from_blocks(blocks))


def _wrong_power_lists(powers):
    """(list, message) for lists that are not the power list of their
    entry 1: run on to 2w entries; cut to w/d entries for each divisor
    1 < d < w (w/w = 1 leaves [1], the list of the trivial group); g and
    g^2 swapped where w >= 4 (for w = 3 the swapped list is that of g^2)."""
    w = len(powers)
    out = [(list(powers) * 2, "powers are not distinct")]
    out += [(list(powers[:w // d]), "powers are not the generator's")
            for d in range(2, w) if w % d == 0]
    if w >= 4:
        swapped = list(powers)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        out.append((swapped, "powers are not the generator's"))
    return out


@pytest.mark.parametrize("name", sorted(CYCLIC_PRODUCTS))
def test_table_builder_rejects_an_order_that_is_not_exact(name):
    ring, factors = _cyclic_product(name)
    for k, (comps, powers) in enumerate(factors):
        for wrong, message in _wrong_power_lists(powers):
            bad = list(factors)
            bad[k] = (comps, wrong)
            with pytest.raises(AssertionError, match=message):
                ring.cyclic_presentation(bad)


_WRONG_POWER_LISTS = """
import sys
sys.path.insert(0, %r)
from test_numfield import CYCLIC_PRODUCTS, _cyclic_product, _wrong_power_lists

for name in sorted(CYCLIC_PRODUCTS):
    ring, factors = _cyclic_product(name)
    for k, (comps, powers) in enumerate(factors):
        for wrong, message in _wrong_power_lists(powers):
            try:
                ring.cyclic_presentation(factors[:k] + [(comps, wrong)] + factors[k + 1:])
                print("accepted", name, k, len(wrong))
            except AssertionError as e:
                print(str(e) == message, e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_wrong_power_lists_are_refused_under_every_flag(flags):
    run = run_python(flags, _WRONG_POWER_LISTS % os.path.dirname(os.path.abspath(__file__)))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # 2w, w/2 and the swap on Q(i) (twice) and (i, i); 2w, w/2, w/3 and
    # the swap on Q(zeta_3) (twice); 2w alone where w = 2 (Q twice and
    # Q(sqrt 2)); 2w, w/2, w/3, w/4, w/6 and the swap on (zeta_6, i)
    assert len(lines) == 9 + 8 + 3 + 6
    assert all(line.startswith("True ") for line in lines), lines


def test_a_power_list_must_start_at_1():
    # (i, 0) on Q(i) x Q(i): its list from the idempotent (1, 0) is
    # distinct and closes, e g = g, but it is no unit group; and the
    # powers of i rotated to start at i
    ring, ((comps, powers), other) = _cyclic_product("one factor over two fields")
    idempotent = [p[:2] + (0, 0) for p in powers]
    rotated = list(powers[1:]) + [powers[0]]
    for bad in (idempotent, rotated):
        with pytest.raises(AssertionError, match="does not start at 1"):
            ring.cyclic_presentation([(comps, bad), other])


@pytest.mark.parametrize("name", sorted(CYCLIC_PRODUCTS))
def test_every_primitive_power_presents_the_same_group(name):
    # the power list of g^k, k prime to the order, is the list of g read
    # with step k: the same relation lattice, and dlogs divided by k
    ring, factors = _cyclic_product(name)
    pres = ring.cyclic_presentation(factors)
    orders = [len(p) for _, p in factors]
    members = [pres.evaluate(e) for e in itertools.product(*map(range, orders))]
    big = lcm(*orders)
    for k in (k for k in range(1, big) if gcd(k, big) == 1):
        pres_k = ring.cyclic_presentation(
            [(comps, [p[a * k % len(p)] for a in range(len(p))]) for comps, p in factors])
        assert pres_k.relation_lattice == pres.relation_lattice
        for x in members:
            assert pres_k.dlog(x) == [a * pow(k, -1, w) % w
                                      for a, w in zip(pres.dlog(x), orders)]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CYCLIC_PRODUCTS)), data=st.data())
def test_table_power_matches_square_and_multiply(name, data):
    ring, factors = _cyclic_product(name)
    pres = ring.cyclic_presentation(factors)
    w = lcm(*(len(p) for _, p in factors))
    exps = data.draw(st.lists(st.integers(-30, 30), min_size=len(factors),
                              max_size=len(factors)))
    member = pres.evaluate(exps)
    # twice the member, never a root of unity, and the member moved by a
    # nonzero rational on one field
    doubled = ring.mul(member, ring.from_blocks([K.from_rational(2) for K in ring.fields]))
    assert pres.dlog(doubled) is None
    i = data.draw(st.integers(0, len(ring.fields) - 1))
    c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    blocks = [ring.block(member, j) for j in range(len(ring.fields))]
    blocks[i] = (blocks[i][0] + c,) + blocks[i][1:]
    assume(all(any(b) for b in blocks))
    e = data.draw(st.integers(-3 * w, 3 * w))
    for x in (member, doubled, ring.from_blocks(blocks)):
        if pres.dlog(x) is None:
            with pytest.raises(ValueError, match="outside the torsion group"):
                pres.ops.power(x, e)
        else:
            assert pres.ops.power(x, e) == product_power(ring, x, e)


def test_table_power_refuses_a_non_member():
    # Q(i) x Q(zeta_3): (2, 0, 1, 0) is 2 on Q(i) and 1 on Q(zeta_3); a
    # zero block has no inverse; both are refused like a unipotent non-member
    ring = ProductRing([NumberField([1, 0, 1]), NumberField([1, 1, 1])])
    pres = ring.cyclic_presentation(
        [([i], K.torsion_powers()) for i, K in enumerate(ring.fields)])
    for x, e in [((2, 0, 1, 0), 3), ((2, 0, 1, 0), -1), ((0, 0, 1, 0), -1), ((0, 0, 1, 0), 2)]:
        with pytest.raises(ValueError, match="outside the torsion group"):
            pres.ops.power(x, e)
    assert pres.ops.power((0, 1, 1, 0), -1) == (0, -1, 1, 0)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CYCLIC_PRODUCTS)), data=st.data())
def test_member_with_int_coordinates_keys_like_its_fraction_form(name, data):
    ring, factors = _cyclic_product(name)
    pres = ring.cyclic_presentation(factors)
    exps = data.draw(st.lists(st.integers(-30, 30), min_size=len(factors),
                              max_size=len(factors)))
    member = pres.evaluate(exps)
    # the roots of unity of these fields have integer power-basis coordinates
    assert all(c.denominator == 1 for c in member)
    as_ints = tuple(int(c) for c in member)
    assert all(type(c) is int for c in as_ints)
    assert pres.dlog(as_ints) == pres.dlog(member) == [
        a % len(p) for a, (_, p) in zip(exps, factors)]
    e = data.draw(st.integers(-40, 40))
    assert pres.ops.power(as_ints, e) == pres.ops.power(member, e)
    # the tables hold ints; the all-Fraction form finds the same entries
    as_fractions = tuple(Fraction(c) for c in member)
    assert pres.dlog(as_fractions) == pres.dlog(member)
    assert pres.ops.power(as_fractions, e) == pres.ops.power(member, e)


_X12_TORSION = []


def _x12_torsion():
    """The roots of unity of Q[X]/(X^12 - 1), on its six residue fields."""
    if not _X12_TORSION:
        ctx = build_context(order_from_poly([-1] + [0] * 11 + [1]))
        ring = ProductRing(ctx.dec.components)
        comps = [[i] for i in range(len(ring.fields))]
        _X12_TORSION.append((ring, ctx.field_torsion(), comps))
    return _X12_TORSION[0]


def _torsion_presentation(name):
    """(ring, presentation, the component list of each cyclic factor)."""
    if name == "X^12 - 1":
        return _x12_torsion()
    ring, factors = _cyclic_product(name)
    return ring, ring.cyclic_presentation(factors), [comps for comps, _ in factors]


def _draw_members(pres, data):
    """A few members and a product over them: repeated members, and
    exponents that are zero or negative."""
    pool = [pres.evaluate(data.draw(st.lists(st.integers(-24, 24), min_size=len(pres.gens),
                                             max_size=len(pres.gens))))
            for _ in range(data.draw(st.integers(1, 3)))]
    n = data.draw(st.integers(0, 5))
    elems = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    exps = data.draw(st.lists(st.just(0) | st.integers(-30, 30), min_size=n, max_size=n))
    return elems, exps


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["X^12 - 1"] + sorted(CYCLIC_PRODUCTS)), data=st.data())
def test_product_from_logs_is_the_fold_of_ring_powers(name, data):
    ring, pres, _ = _torsion_presentation(name)
    elems, exps = _draw_members(pres, data)
    logs = [pres.dlog(x) for x in elems]
    acc = ring.one()
    for x, e in zip(elems, exps):
        acc = ring.mul(acc, product_power(ring, x, e))
    assert pres.logged_product(elems, logs, exps) == acc


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["X^12 - 1"] + sorted(CYCLIC_PRODUCTS)), data=st.data())
def test_product_from_logs_and_power_of_a_member_take_no_field_product(name, data):
    # the checked lists give powers[a] * powers[b] = powers[(a + b) mod w],
    # so a product from logs is one entry per factor, read at the exponent
    # sum, and so is the power of a member; the fold of real field
    # products is the oracle above
    _, pres, _ = _torsion_presentation(name)
    elems, exps = _draw_members(pres, data)
    logs = [pres.dlog(x) for x in elems]
    e = data.draw(st.integers(-40, 40))
    calls = []
    mul = NumberField.mul

    def counting(K, x, y):
        calls.append(K)
        return mul(K, x, y)

    NumberField.mul = counting
    try:
        pres.log_product(logs, exps)
        for x in list(pres.gens) + elems:
            pres.ops.power(x, e)
    finally:
        NumberField.mul = mul
    assert not calls


def test_table_builder_rejects_factors_that_do_not_partition_the_fields():
    ring, factors = _cyclic_product("one factor per field")
    for bad in (factors[:-1], factors + factors[:1]):
        with pytest.raises(ValueError):
            ring.cyclic_presentation(bad)


# ---------------------------------------------------------------------------
# products on integer numerators against the schoolbook product

_FIELDS = {}


def _field(min_poly):
    key = tuple(min_poly)
    if key not in _FIELDS:
        try:
            _FIELDS[key] = NumberField(list(min_poly))
        except ValueError:
            _FIELDS[key] = None
    return _FIELDS[key]


def _z12_quartic():
    """The degree-4 component of Q[X]/(X^12 - 1); its minimal polynomial,
    X^4 - 1260 X^3 + ..., has 14-digit coefficients."""
    dec = decompose(order_from_poly([-1] + [0] * 11 + [1]).algebra)
    return next(K.min_poly for K in dec.components if K.deg == 4)


_COEFF = st.fractions(-6, 6, max_denominator=6)
_MIN_POLYS = st.one_of(
    st.sampled_from([
        (Fraction(1, 3), Fraction(1, 2), 1),  # X^2 + X/2 + 1/3
        (Fraction(-2, 7), 1),
        (1, 0, 1),
        (2, 0, 0, 1),
        (1, 1, 1, 1, 1),
    ]),
    st.integers(1, 6).flatmap(
        lambda d: st.lists(_COEFF, min_size=d, max_size=d).map(lambda c: tuple(c) + (1,))
    ),
)
_COORD = st.one_of(st.integers(-40, 40), st.fractions(-40, 40, max_denominator=24))


def _assert_same_product(K, x, y):
    got = K.mul(x, y)
    want = schoolbook_field_mul(K, x, y)
    assert got == want and hash(got) == hash(want)
    assert len(got) == K.deg
    assert is_canonical(got)


@settings(max_examples=80, deadline=None)
@given(min_poly=_MIN_POLYS, data=st.data())
def test_product_matches_the_schoolbook_product(min_poly, data):
    K = _field(min_poly)
    assume(K is not None)
    vec = st.lists(_COORD, min_size=K.deg, max_size=K.deg).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    _assert_same_product(K, x, y)
    _assert_same_product(K, x, (0,) * K.deg)
    _assert_same_product(K, K.zero(), y)
    _assert_same_product(K, x, K.gen())


def test_product_in_the_z12_quartic_matches_the_schoolbook_product():
    K = _field(_z12_quartic())
    rng = random.Random(12)
    for _ in range(30):
        x = tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 99)) for _ in range(4))
        y = tuple(rng.randint(-9, 9) for _ in range(4))
        _assert_same_product(K, x, y)
        _assert_same_product(K, x, x)


# ---------------------------------------------------------------------------
# the integer norm and the inverse by one solve, against the Fraction
# algorithms they replaced

_REFERENCE_FIELDS = {
    "Q": (0, 1),
    "X-2/7": (Fraction(-2, 7), 1),
    "Q(i)": (1, 0, 1),
    "X^2+1/4": (Fraction(1, 4), 0, 1),
    "X^2+X/2+1/3": (Fraction(1, 3), Fraction(1, 2), 1),
    "X^3-2": (-2, 0, 0, 1),
    "Q(zeta5)": (1, 1, 1, 1, 1),
    "Q(zeta7)": (1, 1, 1, 1, 1, 1, 1),
}
_SMALL_COORD = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


def _element(K):
    return st.lists(_SMALL_COORD, min_size=K.deg, max_size=K.deg).map(
        lambda c: tuple(Fraction(e) for e in c))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_REFERENCE_FIELDS)), data=st.data())
def test_integer_norm_matches_the_lagrange_norm(name, data):
    K = _field(_REFERENCE_FIELDS[name])
    r = data.draw(st.integers(1, 3))
    f = [data.draw(_element(K)) for _ in range(r)] + [K.one()]
    got = _norm_poly(f, K)
    assert got == lagrange_norm_poly(f, K)
    assert is_canonical(got)
    # the norm of a monic polynomial of degree r is monic of degree r deg K
    assert len(got) == r * K.deg + 1 and got[-1] == 1


# the multiplication matrix of Q[X]/(m) and the norm read off it, on every
# field of this file
_MATRIX_FIELDS = {**{name: tuple(m) for name, m in {**SWEEP_FIELDS, **ROOT_FIELDS}.items()},
                  **_REFERENCE_FIELDS}


def _norm(K, x):
    """N(x), the determinant of multiplication by x on K: the resultant of
    the monic minimal polynomial with x, as ``_norm_poly`` takes it."""
    return resultant(K.min_poly, x)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_MATRIX_FIELDS)), data=st.data())
def test_the_norm_is_multiplicative_and_a_power_on_rationals(name, data):
    K = _field(_MATRIX_FIELDS[name])
    x, y = data.draw(_element(K)), data.draw(_element(K))
    nx, ny = _norm(K, x), _norm(K, y)
    assert _norm(K, K.mul(x, y)) == nx * ny
    assert (nx == 0) == (not any(x))
    assert is_canonical([nx, ny])
    c = data.draw(_SMALL_COORD)
    assert _norm(K, K.from_rational(c)) == Fraction(c) ** K.deg


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_MATRIX_FIELDS)), data=st.data())
def test_multiplication_columns_are_the_reduced_shifts(name, data):
    K = _field(_MATRIX_FIELDS[name])
    g = qp(data.draw(st.lists(_SMALL_COORD, max_size=2 * K.deg + 1)))
    k = data.draw(st.integers(0, 2 * K.deg))
    cols = qp_mul_columns(g, K.min_poly, k)
    assert cols == [list(K.from_poly(qp_mul(g, [0] * j + [1]))) for j in range(k)]
    assert all(is_canonical(c) for c in cols)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_REFERENCE_FIELDS)), data=st.data())
def test_norms_and_minimal_polynomials_have_canonical_coefficients(name, data):
    # an int where integral and a Fraction otherwise, for coordinates in
    # Fraction, int or mixed form, over integral and rational fields alike
    K = _field(_REFERENCE_FIELDS[name])
    basis = [tuple(int(i == j) for i in range(K.deg)) for j in range(K.deg)]
    alg = QAlgebra([[K.mul(a, b) for b in basis] for a in basis])
    assert minimal_polynomial(alg, K.gen()) == list(K.min_poly)
    f = [data.draw(_element(K)) for _ in range(data.draw(st.integers(1, 2)))]
    outs = []
    for form in zip(*(coordinate_forms(data, c) for c in f)):
        out = [_norm_poly(list(form) + [K.one()], K), minimal_polynomial(alg, form[0])]
        assert all(is_canonical(p) for p in out)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_REFERENCE_FIELDS)), data=st.data())
def test_inverse_by_one_solve_matches_the_xgcd_inverse(name, data):
    K = _field(_REFERENCE_FIELDS[name])
    x = data.draw(_element(K))
    assume(any(x))
    y = K.inv(x)
    assert y == xgcd_field_inverse(K, x)
    assert len(y) == K.deg and is_canonical(y)
    assert K.mul(x, y) == K.one()


def test_inverse_of_zero_raises():
    K = _field(_REFERENCE_FIELDS["Q(zeta5)"])
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero())


# ---------------------------------------------------------------------------
# one rational coordinate everywhere: an int where it is integral and a
# Fraction otherwise, whatever mix of the two forms the input holds

def _assert_one_answer(results):
    """Every result is canonical, and all are one tuple with one hash."""
    first = tuple(results[0])
    for r in map(tuple, results):
        assert is_canonical(r)
        assert r == first and hash(r) == hash(first)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_REFERENCE_FIELDS)), data=st.data())
def test_field_operations_return_canonical_coordinates(name, data):
    K = _field(_REFERENCE_FIELDS[name])
    x, y = data.draw(_element(K)), data.draw(_element(K))
    xs, ys = coordinate_forms(data, x), coordinate_forms(data, y)
    for op in (K.add, K.sub, K.mul):
        _assert_one_answer([op(a, b) for a in xs for b in ys])
    _assert_one_answer([K.neg(a) for a in xs])
    _assert_one_answer([K.from_poly(list(a)) for a in xs])
    _assert_one_answer([K.from_rational(q)
                        for q, in coordinate_forms(data, [data.draw(_SMALL_COORD)])])
    # integral results of Fraction arithmetic come back as ints
    _assert_one_answer([K.sub(a, a) for a in xs] + [K.zero(), (0,) * K.deg])
    _assert_one_answer([K.add(a, K.neg(a)) for a in xs] + [K.zero()])
    for c in (K.zero(), K.one(), K.gen()):
        assert is_canonical(c)
    if any(x):
        inverses = [K.inv(a) for a in xs]
        _assert_one_answer(inverses)
        _assert_one_answer([K.mul(a, inverses[0]) for a in xs] + [K.one()])


@settings(max_examples=40, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(_REFERENCE_FIELDS)), min_size=1, max_size=3),
       data=st.data())
def test_product_ring_products_are_canonical(names, data):
    ring = ProductRing([_field(_REFERENCE_FIELDS[n]) for n in names])
    u = ring.from_blocks([data.draw(_element(K)) for K in ring.fields])
    v = ring.from_blocks([data.draw(_element(K)) for K in ring.fields])
    _assert_one_answer([ring.mul(a, b) for a in coordinate_forms(data, u)
                        for b in coordinate_forms(data, v)])


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 4), data=st.data())
def test_rational_lattices_and_solves_are_canonical(dim, data):
    den = data.draw(st.integers(1, 12))
    ncols = data.draw(st.integers(1, dim + 1))
    cols = [[Fraction(data.draw(st.integers(-9, 9)), den) for _ in range(dim)]
            for _ in range(ncols)]
    assume(any(any(c) for c in cols))
    lats = [QLattice.from_cols([list(coordinate_forms(data, c)[k]) for c in cols], dim)
            for k in range(3)]
    assert lats[0] == lats[1] == lats[2]
    q = lats[0]
    for b in q.basis_cols():
        assert is_canonical(b)
    coords = data.draw(st.lists(st.integers(-9, 9), min_size=q.rank, max_size=q.rank))
    v = q.element(coords)
    assert is_canonical(v)
    for form in coordinate_forms(data, v):
        assert q.coords(list(form)) == coords
    # a coordinate off the lattice's denominator is outside it in every form
    off = [v[0] + Fraction(1, 2 * q.den)] + list(v[1:])
    for form in coordinate_forms(data, off):
        assert q.coords(list(form)) is None and not q.contains(list(form))
    # m x = m x0 for a drawn x0: every form of the right side has one answer
    m = RatMatrix(dim, cols)
    x0 = [data.draw(_SMALL_COORD) for _ in range(ncols)]
    b = m.apply(x0)
    assert is_canonical(b)
    sols = [solve_rat(m, list(form)) for form in coordinate_forms(data, b)]
    _assert_one_answer(sols)
    assert m.apply(sols[0]) == b


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(-30, 30), st.integers(-12, 12).filter(bool)),
                        min_size=1, max_size=6), data=st.data())
def test_parsed_vectors_are_canonical(entries, data):
    texts = []
    for p, q in entries:
        forms = [f"{p}/{q}"] + ([p, str(p)] if q == 1 else [])
        texts.append(data.draw(st.sampled_from(forms)))
    got = parse_vector(texts, len(texts))
    assert is_canonical(got)
    assert got == [Fraction(p, q) for p, q in entries]


# ---------------------------------------------------------------------------
# one residue field per minimal polynomial, shared across orders


def _cyclotomic_product(*ds):
    f = [1]
    for d in ds:
        f = qp_mul(f, cyclotomic(d))
    return f


def _spy(monkeypatch, name):
    calls = []
    real = getattr(numfield, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numfield, name, spy)
    return calls


def test_orders_sharing_a_field_share_its_component(monkeypatch):
    # the primitive element of either order is 1 + 2X + 4X^2 + 8X^3 + 16X^4,
    # so both Phi_5 components are the field of one minimal polynomial
    numfield._shared_field.cache_clear()
    first = build_context(order_from_poly(_cyclotomic_product(1, 5)))
    first.field_torsion()
    climbs, searches = _spy(monkeypatch, "_climb"), _spy(monkeypatch, "roots_in_field")
    second = build_context(order_from_poly(_cyclotomic_product(2, 5)))
    second.field_torsion()
    (K,) = [K for K in first.dec.components if K.deg == 4]
    (L,) = [L for L in second.dec.components if L.deg == 4]
    assert L is K
    # the only new field is linear: one climb at ell = 2, which needs no root search
    new = [L for L in second.dec.components if L is not K]
    assert [L.deg for L in new] == [1]
    assert all(args[0] is new[0] for args in climbs) and searches == []


def _order_answers(f):
    """The byte form of an order's idempotents, torsion generators,
    relations and invariant factors, and of its component torsion."""
    ctx = build_context(order_from_poly(f))
    pres = mu_a_presentation(ctx)
    return repr((primitive_idempotents_ctx(ctx), pres.generators, pres.relations,
                 pres.invariant_factors, [K.torsion_generator() for K in ctx.dec.components]))


_SHARED_SAMPLES = [
    _cyclotomic_product(1, 5),
    _cyclotomic_product(2, 5),
    _cyclotomic_product(3, 4),
    _cyclotomic_product(4, 6),
    _cyclotomic_product(1, 2, 3, 6),
    [0, -12, 4, 15, -5, -3, 1],  # X(X-1)(X-2)(X+1)(X+2)(X-3)
    [0, 2, -1, -2, 1],  # X(X-1)(X+1)(X-2)
]


@pytest.mark.parametrize("arrival", ["forward", "backward"])
def test_answers_do_not_depend_on_the_field_table(arrival):
    cold = []
    for f in _SHARED_SAMPLES:
        numfield._shared_field.cache_clear()
        cold.append(_order_answers(f))
    order = list(range(len(_SHARED_SAMPLES)))
    if arrival == "backward":
        order.reverse()
    numfield._shared_field.cache_clear()
    for i in order:
        assert _order_answers(_SHARED_SAMPLES[i]) == cold[i]
    assert numfield._shared_field.cache_info().hits > 0


def test_the_field_table_is_bounded_and_an_evicted_field_rebuilds():
    numfield._shared_field.cache_clear()
    K = NumberField._of_factor(cyclotomic(12))
    torsion, powers = K.torsion_generator(), K.torsion_powers()
    assert NumberField._of_factor(list(cyclotomic(12))) is K
    for a in range(numfield.FIELD_TABLE_SIZE):
        NumberField._of_factor([-a, 1])
    assert numfield._shared_field.cache_info().currsize == numfield.FIELD_TABLE_SIZE
    L = NumberField._of_factor(cyclotomic(12))
    assert L is not K and L._torsion_powers is None
    assert (L.torsion_generator(), L.torsion_powers()) == (torsion, powers)
    assert numfield._shared_field.cache_info().currsize == numfield.FIELD_TABLE_SIZE


def test_the_public_constructor_builds_an_unshared_field():
    with pytest.raises(ValueError, match="reducible"):
        NumberField(_cyclotomic_product(1, 4))
    shared = NumberField._of_factor(cyclotomic(4))
    shared.torsion_generator()
    K, L = NumberField(cyclotomic(4)), NumberField(cyclotomic(4))
    assert K is not shared and K is not L
    assert K._torsion_powers is None
    assert K.torsion_generator() == shared.torsion_generator()
