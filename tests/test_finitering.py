import random

import pytest

from ordroots.finitering import (
    FiniteRing,
    RingIdeal,
    filtration_generators,
    quotient_presentation,
    unipotent_dlog,
    unipotent_presentation,
)
from ordroots.linalg import Lattice


def zmod(n):
    return FiniteRing(Lattice(1, [[n]]), [[[1]]], [1])


def eps_ring(p, m):
    """F_p[e]/(e^m) on the basis 1, e, ..., e^(m-1)."""
    table = [
        [[1 if k == i + j else 0 for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    return FiniteRing(Lattice(m, [[p * (i == j) for i in range(m)] for j in range(m)]),
                      table, [1] + [0] * (m - 1))


def galois_ring(pk, minpoly):
    """Z/pk[x]/(minpoly) for a monic quadratic."""
    c0, c1 = minpoly[0], minpoly[1]
    table = [
        [[1, 0], [0, 1]],
        [[0, 1], [-c0 % pk, -c1 % pk]],
    ]
    return FiniteRing(Lattice(2, [[pk, 0], [0, pk]]), table, [1, 0])


def test_ring_rejects_infinite():
    with pytest.raises(ValueError):
        FiniteRing(Lattice(2, [[2, 0]]), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])


def test_ring_rejects_bad_multiplication():
    # e1*e1 = 1 is not well-defined modulo 2e1 = 0 over Z/4
    with pytest.raises(ValueError):
        FiniteRing(Lattice(2, [[4, 0], [0, 2]]),
                   [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])


def test_ring_rejects_non_commutative_and_non_associative_tables():
    # the bad tables of the rational-algebra validation test, over (Z/5)^n
    with pytest.raises(ValueError, match="commutative"):
        FiniteRing(Lattice(2, [[5, 0], [0, 5]]),
                   [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], [1, 0])
    # (e1 e1) e2 = 0 but e1 (e1 e2) = e1, nonzero mod 5
    with pytest.raises(ValueError, match="associative"):
        FiniteRing(Lattice(3, [[5 * (i == j) for i in range(3)] for j in range(3)]),
                   [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                    [[0, 0, 1], [1, 0, 0], [0, 0, 0]]], [1, 0, 0])


def test_ring_basics():
    R = zmod(12)
    assert R.order() == 12
    assert R.mul((7,), (7,)) == (1,)
    assert R.unit_inverse((5,)) == (5,)
    assert R.unit_inverse((6,)) is None
    assert len(list(R.elements())) == 12


def test_ideal_closure_and_powers():
    R = zmod(16)
    I = RingIdeal.generated_by(R, [(2,)])
    assert I.size() == 8
    I2 = I.mul(I)
    assert I2.size() == 4
    assert I2.contains((4,)) and not I2.contains((2,))


def test_quotient_presentation_examples():
    R = zmod(25)
    I1 = RingIdeal.generated_by(R, [(5,)])
    I0 = RingIdeal.zero(R)
    pres = quotient_presentation(R, I1, I0)
    assert pres.group_order() == 5
    assert pres.gens == ((5,),)
    # trivial quotient
    tr = quotient_presentation(R, I1, I1)
    assert tr.group_order() == 1
    # Z/16: (2)/(4) is Z/2 generated by 2
    R16 = zmod(16)
    J1 = RingIdeal.generated_by(R16, [(2,)])
    J2 = RingIdeal.generated_by(R16, [(4,)])
    pres2 = quotient_presentation(R16, J1, J2)
    assert pres2.group_order() == 2
    v = pres2.dlog((6,))
    assert v is not None
    got = pres2.evaluate(v)
    assert pres2.ops.eq(got, (6,))
    with pytest.raises(ValueError):
        quotient_presentation(R16, J2, J1)


def test_quotient_dlog_brute():
    R = eps_ring(3, 3)
    e = (0, 1, 0)
    I1 = RingIdeal.generated_by(R, [e])
    I2 = RingIdeal.generated_by(R, [R.mul(e, e)])
    pres = quotient_presentation(R, I1, I2)
    assert pres.group_order() == 3
    for x in R.elements():
        if I1.contains(x):
            v = pres.dlog(x)
            assert v is not None
            assert pres.ops.eq(pres.evaluate(v), x)


def test_filtration_examples():
    R = zmod(9)
    I = RingIdeal.generated_by(R, [(3,)])
    filt = filtration_generators(R, I)
    assert [bs for _, bs in filt.levels] == [[(3,)]]
    R16 = zmod(16)
    I2 = RingIdeal.generated_by(R16, [(2,)])
    f2 = filtration_generators(R16, I2)
    assert [bs for _, bs in f2.levels] == [[(2,)], [(4,)]]
    # zero ideal: no levels
    f0 = filtration_generators(R, RingIdeal.zero(R))
    assert f0.levels == []


def test_filtration_rejects_non_nilpotent():
    R = zmod(12)
    I = RingIdeal.generated_by(R, [(4,)])  # 4 is idempotent-ish: 4*4=4
    with pytest.raises(ValueError):
        filtration_generators(R, I)


def test_unipotent_dlog_and_presentation_small():
    R = zmod(25)
    I = RingIdeal.generated_by(R, [(5,)])
    filt = filtration_generators(R, I)
    assert unipotent_dlog(filt, (0,)) == [0]
    assert unipotent_dlog(filt, (10,)) == [2]  # 6^2 = 36 = 11 = 1 + 10
    pres = unipotent_presentation(R, I)
    assert pres.group_order() == 5
    with pytest.raises(ValueError):
        unipotent_dlog(filt, (1,))


def test_unipotent_dlog_z81():
    R = zmod(81)
    I = RingIdeal.generated_by(R, [(3,)])
    filt = filtration_generators(R, I)
    pres = unipotent_presentation(R, I)
    # exhaustive: every element of 1+I decomposes and re-multiplies
    count = 0
    for x in R.elements():
        if I.contains(x):
            v = unipotent_dlog(filt, x)
            assert pres.evaluate(v) == R.add(R.one, x)
            count += 1
    assert count == 27 == pres.group_order() == I.size()


def test_unipotent_presentation_dual_numbers():
    R = eps_ring(2, 2)
    I = RingIdeal.generated_by(R, [(0, 1)])
    pres = unipotent_presentation(R, I)
    assert pres.group_order() == 2
    assert pres.gens == ((1, 1),)


def test_unipotent_presentation_zero_ideal():
    R = zmod(9)
    pres = unipotent_presentation(R, RingIdeal.zero(R))
    assert pres.gens == () and pres.rels == ()
    assert pres.dlog(R.one) == []
    assert pres.dlog((2,)) is None


def test_layer_bijection_respects_group_laws():
    # x -> 1+x from I^(2^i)/I^(2^(i+1)) to the multiplicative layer
    R = zmod(81)
    I = RingIdeal.generated_by(R, [(3,)])
    filt = filtration_generators(R, I)
    rng = random.Random(2)
    for li, (ideal, _) in enumerate(filt.levels):
        nxt = filt.levels[li + 1][0] if li + 1 < len(filt.levels) \
            else RingIdeal.zero(R)
        elems = [x for x in R.elements() if ideal.contains(x)]
        for _ in range(20):
            x, y = rng.choice(elems), rng.choice(elems)
            lhs = R.mul(R.add(R.one, x), R.add(R.one, y))
            rhs = R.add(R.one, R.add(x, y))
            diff = R.sub(lhs, rhs)
            assert nxt.contains(diff)  # equality in the next layer


def test_one_plus_i_size_matches_ideal():
    for ring, gen in [
        (zmod(64), (2,)), (zmod(27), (3,)), (eps_ring(2, 3), (0, 1, 0)),
        (eps_ring(5, 2), (0, 1)), (galois_ring(9, [1, 1]), (3, 0)),
    ]:
        I = RingIdeal.generated_by(ring, [gen])
        pres = unipotent_presentation(ring, I)
        members = {x for x in ring.elements() if I.contains(x)}
        group = {ring.add(ring.one, x) for x in members}
        assert len(group) == len(members)
        assert pres.group_order() == len(members)
        fil = filtration_generators(ring, I)
        for x in sorted(members)[:50]:
            v = unipotent_dlog(fil, x)
            assert pres.evaluate(v) == ring.add(ring.one, x)


# ---------------------------------------------------------------------------
# separable polynomials over connected rings


def eval_poly(R, coeffs, x):
    acc = R.zero()
    for c in reversed(coeffs):
        acc = R.add(R.mul(acc, x), R.reduce([c * e for e in R.one]))
    return acc


def is_unit(R, x):
    return R.unit_inverse(x) is not None


def test_separable_root_bound_and_unit_differences():
    rng = random.Random(31)
    rings = [zmod(p ** k) for p, km in ((2, 5), (3, 3), (5, 2), (7, 1), (11, 1))
             for k in range(1, km + 1)]
    rings += [eps_ring(2, 2), eps_ring(2, 3), eps_ring(3, 2), eps_ring(5, 2),
              galois_ring(4, [1, 1]), galois_ring(9, [1, 1]),
              galois_ring(2, [1, 1])]
    for R in rings:
        elements = list(R.elements())
        # connectedness: exactly two idempotents
        idems = [e for e in elements if R.mul(e, e) == e]
        assert sorted(idems) == sorted([R.zero(), R.one]), "ring not connected"
        # separable f: products of linear factors with unit differences,
        # plus x^2 - x and x^m - 1 for unit m
        polys = [[0, -1, 1]]
        consts = [0, 1, 2, 3, 5]
        for d in (2, 3, 5):
            pick = consts[:d]
            ok = all(
                is_unit(R, R.reduce([(a - b) * e for e in R.one]))
                for i, a in enumerate(pick) for b in pick[:i]
            )
            if ok:
                from ordroots.polyfactor import ip_mul

                f = [1]
                for a in pick:
                    f = ip_mul(f, [-a, 1])
                polys.append(f)
        for m in (2, 3, 4, 5):
            if is_unit(R, R.reduce([m * e for e in R.one])):
                polys.append([-1] + [0] * (m - 1) + [1])
        for f in polys:
            roots = [x for x in elements if eval_poly(R, f, x) == R.zero()]
            assert len(roots) <= len(f) - 1, (f, roots)
            for i, r in enumerate(roots):
                for s in roots[:i]:
                    diff = R.sub(r, s)
                    assert is_unit(R, diff), (f, r, s)


def test_unit_torsion_cyclic_for_unit_exponent():
    # m-torsion of the units is cyclic of order dividing m when m is a unit
    rings = [zmod(9), zmod(25), zmod(8), eps_ring(3, 2), galois_ring(4, [1, 1]),
             galois_ring(9, [1, 0])]
    for R in rings:
        for m in (2, 3, 4, 5, 6, 12):
            if not is_unit(R, R.reduce([m * e for e in R.one])):
                continue
            tors = [x for x in R.elements() if R.power(x, m) == R.one]
            assert m % len(tors) == 0
            # cyclic iff some element has order equal to the group size
            orders = []
            for x in tors:
                o = 1
                acc = x
                while acc != R.one:
                    acc = R.mul(acc, x)
                    o += 1
                orders.append(o)
            assert max(orders) == len(tors), (m, tors)
