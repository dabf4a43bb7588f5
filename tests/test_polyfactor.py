import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots import polyfactor, qalgebra
from ordroots.linalg import clear_vector
from ordroots.numfield import NumberField, _norm_poly, nfp_compose_shift, nfp_from_qp
from ordroots.ordercore import order_from_poly
from ordroots.polyfactor import (
    PRIME_BOUND,
    _is_prime,
    _next_prime,
    cyclotomic,
    euler_phi,
    factor_q,
    factor_squarefree_z,
    fp_factor_squarefree,
    fp_norm,
    ip_divmod,
    is_irreducible_q,
    qp,
    qp_add,
    qp_degree,
    qp_deriv,
    qp_divmod,
    qp_gcd,
    qp_monic,
    qp_mul,
    qp_scale,
    qp_sub,
    resultant,
    squarefree_part,
)
from util import (
    coordinate_forms,
    fraction_divides,
    fraction_gcd,
    is_canonical,
    kronecker_factor,
    run_python,
    sylvester_resultant,
    yun_squarefree,
    zassenhaus_factor_squarefree_z,
)


def _poly_strs(fs):
    return [([str(c) for c in f], m) for f, m in fs]


def test_factor_x4_minus_1():
    c, fs = factor_q([-1, 0, 0, 0, 1])
    assert c == 1
    assert [f for f, m in fs] == [qp([-1, 1]), qp([1, 1]), qp([1, 0, 1])]
    assert all(m == 1 for _, m in fs)


def test_factor_x12_minus_1():
    c, fs = factor_q([-1] + [0] * 11 + [1])
    assert c == 1
    got = sorted(tuple(int(x) for x in f) for f, _ in fs)
    want = sorted([
        (-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 0, -1, 0, 1),
    ])
    assert got == want


def test_factor_x_squared():
    c, fs = factor_q([0, 0, 1])
    assert c == 1
    assert fs == [(qp([0, 1]), 2)]


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_q([])


def test_factor_rejects_a_string_coefficient():
    with pytest.raises(TypeError):
        factor_q(["1", 2])


def test_factor_multiplies_back_and_irreducible_kronecker():
    rng = random.Random(99)
    for _ in range(25):
        f = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        f.append(Fraction(rng.choice([1, 2, -1])))
        f = qp(f)
        if qp_degree(f) < 1:
            continue
        const, fs = factor_q(f)  # multiply-back asserted inside
        for fac, _ in fs:
            if qp_degree(fac) <= 6:
                # independent check by Kronecker interpolation factoring
                den = 1
                for c in fac:
                    den = den * c.denominator // __import__("math").gcd(den, c.denominator)
                ifac = [int(c * den) for c in fac]
                assert len(kronecker_factor(ifac)) == 1


def test_swinnerton_dyer_stays_irreducible():
    # x^4 - 10x^2 + 1 splits modulo every prime but is irreducible over Q
    assert is_irreducible_q([1, 0, -10, 0, 1])


def test_degree_one_is_irreducible_without_factoring(monkeypatch):
    from ordroots import polyfactor

    calls = []
    factor = polyfactor.factor_q
    monkeypatch.setattr(polyfactor, "factor_q", lambda *a: calls.append(a) or factor(*a))
    assert is_irreducible_q([-5, 1]) and is_irreducible_q([Fraction(1, 3), 2])
    assert not is_irreducible_q([3])
    assert calls == []
    # higher degrees keep the full check
    assert is_irreducible_q([1, 0, 1]) and not is_irreducible_q([-1, 0, 1])
    assert len(calls) == 2


def test_berlekamp_small():
    # x^4 - 1 mod 5 = (x-1)(x+1)(x-2)(x+2)
    from ordroots.polyfactor import fp_mul

    fs = fp_factor_squarefree([4, 0, 0, 0, 1], 5)
    assert [qp_degree(f) for f in fs] == [1, 1, 1, 1]
    prod = [1]
    for f in fs:
        prod = fp_mul(prod, f, 5)
    assert prod == fp_norm([4, 0, 0, 0, 1], 5)


def test_cyclotomic_examples():
    assert cyclotomic(1) == qp([-1, 1])
    assert cyclotomic(4) == qp([1, 0, 1])
    assert cyclotomic(12) == qp([1, 0, -1, 0, 1])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 9, 12, 15, 20, 24, 30])
def test_cyclotomic_product_identity(d):
    acc = qp([1])
    for e in range(1, d + 1):
        if d % e == 0:
            acc = qp_mul(acc, cyclotomic(e))
    assert acc == qp([-1] + [0] * (d - 1) + [1])
    assert qp_degree(cyclotomic(d)) == euler_phi(d)
    # each cyclotomic divides X^d - 1 exactly
    q, r = qp_divmod(qp([-1] + [0] * (d - 1) + [1]), cyclotomic(d))
    assert not r


def test_resultant_examples():
    assert resultant([-1, 1], [1, 1]) == 2
    assert resultant([1, 0, 1], [1, 1, 1]) == 1
    assert resultant([0, 1], [-1, 1]) != 0


# polynomials over Z and over Q, constants and the zero polynomial included
_RES_COEFF = st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=6))
_RES_POLY = st.one_of(st.lists(st.integers(-8, 8), max_size=5),
                      st.lists(_RES_COEFF, max_size=5)).map(qp)


def _evaluate(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


@given(_RES_POLY, _RES_POLY)
@settings(max_examples=200, deadline=None)
def test_resultant_matches_sylvester(f, g):
    r = resultant(f, g)
    assert r == (sylvester_resultant(f, g) if f and g else 0)
    # one canonical coordinate: an int exactly when it is integral
    assert is_canonical([r])


@given(_RES_POLY, _RES_POLY)
@settings(max_examples=150, deadline=None)
def test_resultant_is_antisymmetric_in_the_degrees(f, g):
    e = qp_degree(f) * qp_degree(g) if f and g else 0
    assert resultant(f, g) == (-1) ** e * resultant(g, f)


@given(_RES_POLY, _RES_POLY, _RES_POLY)
@settings(max_examples=150, deadline=None)
def test_resultant_is_multiplicative_in_each_argument(f, g, h):
    assert resultant(f, qp_mul(g, h)) == resultant(f, g) * resultant(f, h)
    assert resultant(qp_mul(g, h), f) == resultant(g, f) * resultant(h, f)


@given(st.lists(st.fractions(-6, 6, max_denominator=4), max_size=5), _RES_POLY)
@settings(max_examples=150, deadline=None)
def test_resultant_of_a_split_polynomial_is_the_product_of_values(roots, g):
    f = [1]
    for a in roots:
        f = qp_mul(f, qp([-a, 1]))
    want = math.prod(_evaluate(g, a) for a in roots) if g else 0
    assert resultant(f, g) == want


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=4),
    st.lists(st.integers(-5, 5), min_size=2, max_size=4),
)
@settings(max_examples=120, deadline=None)
def test_resultant_zero_iff_common_factor(f, g):
    f = f[:-1] + [f[-1] if f[-1] else 1]
    g = g[:-1] + [g[-1] if g[-1] else 1]
    r = resultant(f, g)
    common = qp_degree(fraction_gcd(qp(f), qp(g))) > 0
    assert (r == 0) == common


def test_squarefree_part():
    assert squarefree_part([0, 0, 1]) == qp([0, 1])
    f = qp_mul(qp_mul([1, 1], [1, 1]), [2, 1])
    assert squarefree_part(f) == qp_monic(qp_mul([1, 1], [2, 1]))


def test_factor_with_rational_coefficients():
    c, fs = factor_q([Fraction(1, 2), 0, Fraction(-1, 2)])
    assert c == Fraction(-1, 2)
    back = qp_scale(qp_mul(fs[0][0], fs[1][0]), c)
    assert back == qp([Fraction(1, 2), 0, Fraction(-1, 2)])


def test_factor_degree12_with_multiplicity():
    f = qp_mul(qp_mul(cyclotomic(12), cyclotomic(12)), cyclotomic(1))
    c, fs = factor_q(f)
    assert (tuple(cyclotomic(12)), 2) in [(tuple(g), m) for g, m in fs]
    assert (tuple(cyclotomic(1)), 1) in [(tuple(g), m) for g, m in fs]


# ---------------------------------------------------------------------------
# the modular gcd, and squarefreeness proved at its first prime

def _exactly_squarefree(f):
    f = qp(f)
    return qp_degree(fraction_gcd(f, qp_deriv(f))) == 0


def _keeps_its_degree(f):
    """The library's squarefree verdict: the radical keeps f's degree."""
    return qp_degree(squarefree_part(f)) == qp_degree(qp(f))


def _gcd_images(run):
    """run()'s result and the images mod p of the gcds it computes, in
    the order computed."""
    images = []
    real = polyfactor.fp_gcd

    def record(f, g, p):
        images.append(real(f, g, p))
        return images[-1]

    polyfactor.fp_gcd = record
    try:
        return run(), images
    finally:
        polyfactor.fp_gcd = real


_SMALL = st.fractions(-5, 5, max_denominator=4)


def _rational_poly(lo, hi):
    return st.lists(_SMALL, min_size=lo + 1, max_size=hi + 1).filter(lambda c: c[-1] != 0)


@given(f=_rational_poly(0, 4), g=_rational_poly(1, 3))
@settings(max_examples=150, deadline=None)
def test_modular_proof_never_accepts_a_square_factor(f, g):
    h = qp_mul(qp(f), qp_mul(qp(g), qp(g)))
    d, images = _gcd_images(lambda: qp_gcd(h, qp_deriv(h)))
    assert qp_degree(images[0]) > 0
    assert d == fraction_gcd(h, qp_deriv(h))
    assert not qp_divmod(d, qp(g))[1]
    assert not _keeps_its_degree(h)


@given(f=_rational_poly(0, 8))
@settings(max_examples=200, deadline=None)
def test_modular_proof_agrees_with_the_exact_test(f):
    f = qp(f)
    exact = _exactly_squarefree(f)
    rad, images = _gcd_images(lambda: squarefree_part(f))
    assert (qp_degree(rad) == qp_degree(f)) == exact
    assert rad == qp_monic(qp_divmod(f, fraction_gcd(f, qp_deriv(f)))[0])
    if images == [[1]]:  # a constant image at the first prime proves f squarefree
        assert exact
        monic = qp_monic(f)
        assert rad == monic
        if qp_degree(monic) > 0:
            # the radical factor_q factors is all of f, every multiplicity 1
            assert yun_squarefree(monic) == [(monic, 1)]


@pytest.mark.parametrize("d", range(1, 41))
def test_modular_proof_accepts_cyclotomic_polynomials(d):
    # disc(Phi_d) divides a power of d, and the first gcd prime divides no d
    rad, images = _gcd_images(lambda: squarefree_part(cyclotomic(d)))
    assert images == [[1]]
    assert rad == cyclotomic(d)


def test_modular_gcd_passes_primes_that_divide_the_discriminant():
    # X^2 - c has discriminant 4c and is X^2 modulo every prime dividing c
    p = polyfactor._GCD_PRIME
    q = _next_prime(p)
    c = p * q
    f = [-c, 0, 1]
    rad, images = _gcd_images(lambda: squarefree_part(f))
    assert [qp_degree(v) for v in images] == [1, 1, 0]
    assert rad == qp(f)
    assert factor_q(f) == (1, [(qp(f), 1)])
    g = qp_mul(qp([-c, 1]), qp([-c, 1]))  # (X - c)^2 reduces to X^2 as well
    rad, images = _gcd_images(lambda: squarefree_part(g))
    assert [qp_degree(v) for v in images] == [1, 1, 1]
    assert rad == qp([-c, 1])
    assert factor_q(g) == (1, [(qp([-c, 1]), 2)])


def test_modular_gcd_discards_an_unlucky_first_prime():
    # modulo the first prime p, X - p is X, pX is 0 and (X - p)(X + 1) is
    # X(X + 1)
    p = polyfactor._GCD_PRIME
    for f in ([0, 1], [0, p]):
        d, images = _gcd_images(lambda: qp_gcd(f, [-p, 1]))
        assert d == [1]
        assert [qp_degree(v) for v in images] == [1, 0]
    f, g = qp_mul([-p, 1], [1, 1]), qp_mul([0, 1], [1, 1])
    d, images = _gcd_images(lambda: qp_gcd(f, g))
    assert d == [1, 1]
    assert [qp_degree(v) for v in images] == [2, 1]


_BIG = st.integers(-10 ** 25, 10 ** 25)
# nonzero leading coefficients, some of them multiples of the first gcd prime
_LEAD = st.one_of(_BIG.filter(bool),
                  st.integers(-9, 9).filter(bool).map(lambda k: k * polyfactor._GCD_PRIME))


def _big_poly(hi):
    return st.builds(lambda body, lc: body + [lc], st.lists(_BIG, max_size=hi), _LEAD)


@given(a=_big_poly(3), b=_big_poly(3), h=_big_poly(3), den=st.integers(1, 10 ** 6),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_modular_gcd_equals_the_fraction_euclid(a, b, h, den, data):
    f = qp_scale(qp_mul(a, h), Fraction(1, den))
    g = qp_mul(b, h)
    want = fraction_gcd(f, g)
    assert not qp_divmod(want, h)[1]
    for fv, gv in zip(coordinate_forms(data, f), coordinate_forms(data, g)):
        assert qp_gcd(fv, gv) == want


# ---------------------------------------------------------------------------
# one arithmetic for Z[X] and Q[X]

def _int_poly(lo, hi, span=9):
    return st.lists(st.integers(-span, span), min_size=lo + 1, max_size=hi + 1).filter(
        lambda c: c[-1] != 0)


@given(f=_int_poly(0, 6), g=_int_poly(0, 4))
@settings(max_examples=300, deadline=None)
def test_ip_divmod_agrees_with_fraction_division(f, g):
    quo, rem = qp_divmod(qp(f), qp(g))
    integral = all(c.denominator == 1 for c in quo)
    got = ip_divmod(f, g)
    assert (got is None) == (not integral)
    if got is not None:
        assert got == (quo, rem)
        assert all(type(c) is int for c in got[0] + got[1])
    exact = fraction_divides(g, f)
    assert (exact is not None) == (got is not None and not got[1])
    if exact is not None:
        assert got[0] == exact


@given(f=_int_poly(0, 6), g=_int_poly(0, 4))
@settings(max_examples=150, deadline=None)
def test_ip_divmod_never_refuses_a_monic_divisor(f, g):
    g = g[:-1] + [1]
    quo, rem = ip_divmod(f, g)
    assert qp_add(qp_mul(quo, g), rem) == f
    assert qp_degree(rem) < qp_degree(g)


@given(f=_int_poly(0, 5), g=_int_poly(0, 5))
@settings(max_examples=100, deadline=None)
def test_shared_arithmetic_keeps_integers_integral(f, g):
    for h in (qp_add(f, g), qp_sub(f, g), qp_mul(f, g), qp_deriv(f)):
        assert all(type(c) is int for c in h)
    assert qp_sub(f, g) == qp_sub(qp(f), qp(g))
    assert qp_mul(f, g) == qp_mul(qp(f), qp(g))


@given(f=_int_poly(0, 6, span=3 ** 40), g=_int_poly(0, 4))
@settings(max_examples=100, deadline=None)
def test_division_over_q_of_integer_lists_is_exact(f, g):
    # integer lists must not fall into binary floats through 1 / lc
    for got, want in ((qp_divmod(f, g), qp_divmod(qp(f), qp(g))),
                      (qp_monic(f), qp_monic(qp(f))),
                      (qp_gcd(f, g), qp_gcd(qp(f), qp(g)))):
        flat = list(got[0]) + list(got[1]) if isinstance(got, tuple) else got
        assert is_canonical(flat)
        assert got == want


_RAT = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


def _rat_poly(lo, hi):
    return st.lists(_RAT, min_size=lo + 1, max_size=hi + 1).filter(lambda c: c[-1] != 0)


@given(f=_rat_poly(0, 5), g=_rat_poly(0, 3), fi=_int_poly(0, 6), h=_int_poly(0, 3),
       lc=st.sampled_from([-6, -3, -2, 2, 3, 7]), d=st.integers(1, 40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_polynomials_over_q_have_canonical_coefficients(f, g, fi, h, lc, d, data):
    # every coefficient is an int where integral and a Fraction otherwise,
    # whichever form the input coefficients take
    outs = []
    for fv, gv in zip(coordinate_forms(data, f), coordinate_forms(data, g)):
        c, facs = factor_q(fv)
        out = [*qp_divmod(fv, gv), qp_monic(fv), qp_gcd(fv, gv), squarefree_part(fv),
               [c, resultant(fv, gv)], *(fac for fac, _ in facs)]
        assert all(is_canonical(p) for p in out)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    # an integer polynomial over a non-monic integer divisor: no float
    outs = []
    for fv, gv in ((fi, h + [lc]), ([Fraction(c) for c in fi], [Fraction(c) for c in h + [lc]])):
        out = [*qp_divmod(fv, gv), qp_gcd(fv, gv), [resultant(fv, gv)]]
        assert all(is_canonical(p) for p in out)
        outs.append(out)
    assert outs[0] == outs[1]
    phi = cyclotomic(d)
    assert all(type(c) is int for c in phi) and phi[-1] == 1
    phi.append(0)
    assert cyclotomic(d)[-1] == 1  # a copy: the cached list is untouched


@given(f=_rat_poly(0, 5), g=_rat_poly(0, 5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ring_operations_over_q_return_canonical_coefficients(f, g, data):
    # a sum, difference or product of Fractions that is integral is an int
    outs = []
    for fv, gv in zip(coordinate_forms(data, f), coordinate_forms(data, g)):
        out = [qp_add(fv, gv), qp_sub(fv, gv), qp_mul(fv, gv)]
        assert all(is_canonical(p) and (not p or p[-1]) for p in out)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    half = [Fraction(1, 2)]
    assert qp_add(half, half) == [1] and type(qp_add(half, half)[0]) is int
    assert qp_sub([Fraction(3, 2), 1], [Fraction(1, 2), 1]) == [1]
    assert qp_mul([Fraction(2, 3)], [Fraction(3, 2), 3]) == [1, 2]


def test_division_of_an_integer_list_stays_exact():
    q, r = qp_divmod([3 ** 40 + 1, 0, 1], [7, 3])
    assert q == [Fraction(-7, 9), Fraction(1, 3)]
    assert r == [Fraction(3 ** 40 * 9 + 9 + 49, 9)]


@given(a=_int_poly(1, 3, span=4), b=_int_poly(1, 2, span=4))
@settings(max_examples=60, deadline=None)
def test_factor_q_equals_kronecker_factoring(a, b):
    f = qp_mul(a, b)
    if not _exactly_squarefree(f):
        return
    _, prim = polyfactor.ip_primitive(f)
    want = sorted((qp_monic(qp(h)) for h in kronecker_factor(prim)),
                  key=lambda h: (qp_degree(h), tuple(h)))
    const, fs = factor_q(f)
    assert const == f[-1]
    assert fs == [(h, 1) for h in want]


def _rejected_norm_of_phi7():
    """The norm of Phi_7(X + a) over Q(zeta_7) = Q(a), the shift-1 norm
    that roots_in_field rejects: degree 36, radical of degree 21."""
    K = NumberField(cyclotomic(7))
    return _norm_poly(nfp_compose_shift(nfp_from_qp(cyclotomic(7), K), 1, K), K)


@pytest.mark.parametrize("f", [
    [-1] + [0] * 11 + [1],
    [1, 0, -10, 0, 1],
    [Fraction(1, 2), 0, Fraction(-1, 2)],
    qp_mul(qp_mul([-1, 1], [2, 3]), [1, 1, 1]),
    qp_mul(qp_mul([-1, 1], [-1, 1]), [1, 1]),
    qp_mul(qp_mul(cyclotomic(12), cyclotomic(12)), cyclotomic(1)),
    _rejected_norm_of_phi7(),
])
def test_proven_squarefree_input_skips_division_over_q(monkeypatch, f):
    # the squarefree inputs are proved so at the first gcd prime, and the
    # others take the modular gcd: neither divides over Q
    want = factor_q(f)
    rad, images = _gcd_images(lambda: squarefree_part(f))
    assert (images == [[1]]) == (len(rad) == len(qp(f)))

    def refuse(*args):
        raise AssertionError("division over Q in the squarefree analysis")

    monkeypatch.setattr(polyfactor, "qp_divmod", refuse)
    monkeypatch.setattr(polyfactor, "qp_gcd", refuse)
    assert factor_q(f) == want


def test_factor_q_checks_the_product_on_integers(monkeypatch):
    real = polyfactor.factor_squarefree_z

    def bump_leading_coefficient(f):
        facs = real(f)
        return facs[:-1] + [facs[-1][:-1] + [facs[-1][-1] + 1]]

    monkeypatch.setattr(polyfactor, "factor_squarefree_z", bump_leading_coefficient)
    for f in ([-1, 0, 0, 0, 1], [0, 0, 1], qp_mul([1, 0, 1], [1, 0, 1])):
        with pytest.raises(AssertionError, match="does not multiply back"):
            factor_q(f)
    # (X - 1)^2 (X + 1): the radical's last factor X + 1 comes back as
    # 2X + 1, which divides nothing, so it counts 0 exact divisions while
    # X - 1 counts 2, and only the product check can catch it
    counts = []
    real_multiplicity = polyfactor._multiplicity

    def spy(f, g):
        counts.append((g, real_multiplicity(f, g)))
        return counts[-1][1]

    monkeypatch.setattr(polyfactor, "_multiplicity", spy)
    with pytest.raises(AssertionError, match="does not multiply back"):
        factor_q(qp_mul(qp_mul([-1, 1], [-1, 1]), [1, 1]))
    assert counts == [([-1, 1], 2), ([1, 2], 0)]


_CORRUPTED_FACTOR = """
from ordroots import polyfactor
from ordroots.polyfactor import factor_q, qp_mul

real = polyfactor.factor_squarefree_z


def bump_leading_coefficient(f):
    facs = real(f)
    return facs[:-1] + [facs[-1][:-1] + [facs[-1][-1] + 1]]


polyfactor.factor_squarefree_z = bump_leading_coefficient
for f in ([-1, 0, 0, 0, 1], qp_mul(qp_mul([-1, 1], [-1, 1]), [1, 1])):
    try:
        print("accepted", factor_q(f))
    except AssertionError as e:
        print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_the_product_check_runs_under_every_flag(flags):
    run = run_python(flags, _CORRUPTED_FACTOR)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["factorization does not multiply back"] * 2


def test_factor_q_of_known_irreducible_powers():
    # (X^2 + 1)^2 (X - 1)^3 Phi_5, scaled by -3/2
    f = qp_scale(_product([[1, 0, 1]] * 2 + [[-1, 1]] * 3 + [cyclotomic(5)]),
                 Fraction(-3, 2))
    assert factor_q(f) == (Fraction(-3, 2), [([-1, 1], 3), ([1, 0, 1], 2), (cyclotomic(5), 1)])


@given(parts=st.lists(st.tuples(_int_poly(1, 2, span=4), st.integers(1, 3)),
                      min_size=1, max_size=3),
       c=st.fractions(-5, 5, max_denominator=4).filter(bool))
@settings(max_examples=80, deadline=None)
def test_factor_q_multiplicities_equal_factoring_yun_parts(parts, c):
    f = qp_scale(_product([g for g, e in parts for _ in range(e)]), c)
    want = []
    for part, mult in yun_squarefree(qp_monic(f)):
        _, prim = polyfactor.ip_primitive(clear_vector(part)[0])
        want += [(h, mult) for h in _monic_sorted(zassenhaus_factor_squarefree_z(prim))]
    const, fs = factor_q(f)
    assert const == f[-1]
    assert fs == sorted(want, key=lambda hm: (qp_degree(hm[0]), tuple(hm[0])))


# ---------------------------------------------------------------------------
# rational roots before Zassenhaus

def _product(polys):
    f = [1]
    for g in polys:
        f = qp_mul(f, g)
    return f


def _sorted(facs):
    return sorted(facs, key=lambda h: (len(h), tuple(h)))


def _monic_sorted(facs):
    return sorted((qp_monic(h) for h in facs), key=lambda h: (qp_degree(h), tuple(h)))


@given(linear=st.lists(st.tuples(st.integers(1, 7), st.integers(-2 ** 40, 2 ** 40)),
                       max_size=6),
       nonlinear=st.lists(_int_poly(2, 4), max_size=2))
@settings(max_examples=150, deadline=None)
def test_factor_q_equals_zassenhaus_on_every_input(linear, nonlinear):
    f = _product([[-a, b] for b, a in linear] + nonlinear)
    _, prim = polyfactor.ip_primitive(f)
    if qp_degree(prim) < 1 or not _exactly_squarefree(prim):
        return
    want = zassenhaus_factor_squarefree_z(prim)
    assert factor_squarefree_z(prim) == want
    assert factor_q(prim) == (prim[-1], [(h, 1) for h in _monic_sorted(want)])


def _spy(monkeypatch, *names):
    """name -> the argument tuples of every call polyfactor makes to it."""
    calls = {name: [] for name in names}
    for name in names:
        def spy(*args, _real=getattr(polyfactor, name), _calls=calls[name]):
            _calls.append(args)
            return _real(*args)
        monkeypatch.setattr(polyfactor, name, spy)
    return calls


@pytest.mark.parametrize("roots", [
    [(1, a) for a in range(-5, 6)],
    [(1, 0), (2, 1), (3, -2), (5, 7), (7, -3 ** 30)],
    [(1, 2 ** 64 + 13), (1, -(2 ** 64) - 13), (3, 1)],
])
def test_split_input_takes_no_berlekamp_and_no_hensel_lift(monkeypatch, roots):
    calls = _spy(monkeypatch, "fp_factor_squarefree", "hensel_lift")
    f = _product([[-a, b] for b, a in roots])
    assert factor_squarefree_z(f) == _sorted([-a, b] for b, a in roots)
    assert calls == {"fp_factor_squarefree": [], "hensel_lift": []}


def test_split_minimal_polynomial_takes_no_berlekamp_and_no_hensel_lift(monkeypatch):
    # a split-rank order: decompose factors the minimal polynomial of a
    # primitive element of Q^8 into eight linear factors
    order = order_from_poly(_product([[-a, 1] for a in (-6, -4, -1, 0, 2, 3, 5, 6)]))
    factored = []
    factor = qalgebra.factor_q
    monkeypatch.setattr(qalgebra, "factor_q", lambda m: factored.append(factor(m)) or factored[-1])
    calls = _spy(monkeypatch, "fp_factor_squarefree", "hensel_lift")
    assert len(qalgebra.decompose(order.algebra).components) == 8
    assert [qp_degree(h) for h, _ in factored[0][1]] == [1] * 8
    assert calls == {"fp_factor_squarefree": [], "hensel_lift": []}


@pytest.mark.parametrize("facs", [
    [[-5, -10, 1]],
    [[-5, -10, 1], [-3, 1], [5, 2]],
])
def test_roots_of_an_irreducible_factor_fall_back_to_recombination(monkeypatch, facs):
    # X^2 - 10X - 5 is irreducible (discriminant 120), yet it has two roots
    # modulo the least good prime: 1 and 2 mod 7 alone, 13 and 14 mod 17
    # in the product; their lifts are irrational, so the two linear
    # modular factors recombine into the quadratic
    f = _product(facs)
    p = next(polyfactor._good_primes(f))
    assert len([r for r in range(p) if (r * r - 10 * r - 5) % p == 0]) == 2
    calls = _spy(monkeypatch, "fp_factor_squarefree", "hensel_lift")
    assert factor_squarefree_z(f) == _sorted(facs)
    assert calls["fp_factor_squarefree"] == []
    _, lifted, modular, _ = calls["hensel_lift"][0]
    assert lifted == [-5, -10, 1] and [qp_degree(h) for h in modular] == [1, 1]


def test_rational_roots_at_the_bound_come_out_exact(monkeypatch):
    # f = X(bX - a)(X^2 + X + 1) with a, b odd: the least good prime is 2,
    # where X^2 + X + 1 has no root, and the root a/b has |lc * a/b| = |a|,
    # at most 2b short of the Cauchy bound |lc| + max |f_i|.  a runs
    # across the halves of 2^(2^i), where a modulus p^(2^i) of at most
    # twice that bound would miss it and send its X - r to a Hensel lift
    calls = _spy(monkeypatch, "fp_factor_squarefree", "hensel_lift")
    for b in (1, 3, 7):
        for e in (3, 5, 6, 7):
            for a in range(2 ** (2 ** e - 1) - 5, 2 ** (2 ** e - 1) + 6, 2):
                for sa in (a, -a):
                    if math.gcd(sa, b) == 1:
                        facs = [[0, 1], [-sa, b], [1, 1, 1]]
                        f = _product(facs)
                        assert next(polyfactor._good_primes(f)) == 2
                        assert factor_squarefree_z(f) == _sorted(facs)
    for a in (2 ** 200 + 1, -(3 ** 150)):
        assert factor_q([-a, 1]) == (1, [([-a, 1], 1)])
        f = _product([[-a, 1], [1, 1], [-1, 2]])
        assert factor_squarefree_z(f) == _sorted([[-a, 1], [1, 1], [-1, 2]])
    # Berlekamp saw only the rootless X^2 + X + 1 mod 2
    assert {qp_degree(args[0]) for args in calls["fp_factor_squarefree"]} == {2}
    assert calls["hensel_lift"] == []


# ---------------------------------------------------------------------------
# primality

def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(-5, 10 ** 5) if _is_prime(n)] == \
        [n for n in range(-5, 10 ** 5) if _trial_division_prime(n)]


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                               825265, 321197185, 3215031751, 3825123056546413051])
def test_miller_rabin_rejects_carmichael_and_strong_pseudoprimes(n):
    # Carmichael numbers fool the Fermat test; 3215031751 and
    # 3825123056546413051 are strong pseudoprimes to every prime base up
    # to 7 and up to 31
    assert not _is_prime(n)


def test_large_prime_is_decided_quickly():
    start = time.perf_counter()
    assert _is_prime(2 ** 64 - 59)  # 20 digits
    assert _is_prime(10 ** 24 + 7)
    assert not _is_prime((10 ** 9 + 7) * (10 ** 11 + 3))
    assert time.perf_counter() - start < 1
    # the bound itself is the first composite that all the bases pass
    assert PRIME_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        _is_prime(PRIME_BOUND)
