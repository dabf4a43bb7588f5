import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots.finitering import (
    FiniteRing,
    RingIdeal,
    _layer_generators,
    binomial_power,
    filtration_generators,
    nilpotent_powers,
    unipotent_dlog,
    unipotent_presentation,
    unipotent_relations,
)
from ordroots.linalg import IntSolver, Lattice
from ordroots.qalgebra import AlgebraError, sparse_table
from util import (
    check_layers_against_references,
    fixpoint_ideal,
    preimage_unipotent_relations,
    resolving_unipotent_dlog,
    ring_power,
    run_python,
    spy_everywhere,
    unit_inverse,
)


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


def test_ring_rejects_an_identity_of_the_wrong_length():
    with pytest.raises(ValueError, match="identity has the wrong length"):
        FiniteRing(Lattice(1, [[8]]), [[[1]]], [1, 0])
    with pytest.raises(ValueError, match="identity has the wrong length"):
        FiniteRing(Lattice(2, [[4, 0], [0, 4]]), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1])


def test_ideal_rejects_inputs_of_the_wrong_length():
    ring = galois_ring(9, (1, 0))
    with pytest.raises(ValueError, match="ideal lattice has the wrong dimension"):
        RingIdeal(ring, Lattice(1, [[3]]))
    with pytest.raises(ValueError, match="ideal lattice has the wrong dimension"):
        RingIdeal(zmod(8), Lattice(2, [[2, 0], [0, 2]]))
    for elem in [(3,), (3, 0, 0)]:
        with pytest.raises(ValueError, match="element has the wrong length"):
            RingIdeal.generated_by(ring, [(0, 1), elem])
    with pytest.raises(ValueError, match="no generators"):
        RingIdeal.generated_by(ring, [])
    assert RingIdeal.generated_by(ring, [(3, 0)]).size() == 9


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


@pytest.mark.parametrize("table", [
    [[[1]]],
    [[[1, 0], [0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1]]],
    [[[1, 0], [0, 1]], [[0, 1], [0]]],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0, 0]]],
])
def test_ring_rejects_a_table_that_is_not_cubic(table):
    with pytest.raises(AlgebraError, match="not cubic"):
        FiniteRing(Lattice(2, [[2, 0], [0, 2]]), table, [1, 0])


def test_ring_accepts_a_table_associative_only_modulo_its_relations():
    # F_5[e]/(e^2) with 1 * e written as 6e: (1 1) e = 6e but 1 (1 e) = 36e
    # over Z, which agree modulo 5 only
    table = [[[1, 0], [0, 6]], [[0, 6], [0, 0]]]
    with pytest.raises(AlgebraError, match="associative"):
        sparse_table(table, 2)
    R = FiniteRing(Lattice(2, [[5, 0], [0, 5]]), table, [1, 0])
    assert R.mul((1, 1), (1, 1)) == (1, 2)


def test_ring_basics():
    R = zmod(12)
    assert R.order() == 12
    assert R.mul((7,), (7,)) == (1,)
    assert unit_inverse(R, (5,)) == (5,)
    assert unit_inverse(R, (6,)) is None
    assert len(list(R.elements())) == 12


def test_ideal_closure_and_powers():
    R = zmod(16)
    I = RingIdeal.generated_by(R, [(2,)])
    assert I.size() == 8
    I2 = I.mul(I)
    assert I2.size() == 4
    assert I2.contains((4,)) and not I2.contains((2,))


@st.composite
def rings_and_elements(draw):
    """A ring of this file, Z/p^k, F_p[e]/(e^m) or Z/p^k[X]/(X^2 + bX + c),
    with one to three random elements."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["zmod", "eps", "galois"]))
    if kind == "zmod":
        ring = zmod(p ** draw(st.integers(1, 4)))
    elif kind == "eps":
        ring = eps_ring(p, draw(st.integers(1, 4)))
    else:
        ring = galois_ring(p ** draw(st.integers(1, 2)),
                           draw(st.sampled_from([(0, 0), (1, 1), (2, 0), (0, 3)])))
    vecs = st.lists(st.integers(-30, 30), min_size=ring.ngens, max_size=ring.ngens)
    return ring, [ring.reduce(v) for v in draw(st.lists(vecs, min_size=1, max_size=3))]


@given(rings_and_elements())
@settings(max_examples=100, deadline=None)
def test_generated_by_matches_the_fixpoint(case):
    ring, elems = case
    ideal = RingIdeal.generated_by(ring, elems)
    assert ideal.lattice == fixpoint_ideal(ring, elems)
    assert all(ideal.contains(e) for e in elems)


def test_filtration_examples():
    R = zmod(9)
    I = RingIdeal.generated_by(R, [(3,)])
    filt = filtration_generators(R, I, Lattice.zero(R.ngens))
    assert [bs for _, bs in filt.levels] == [[(3,)]]
    R16 = zmod(16)
    I2 = RingIdeal.generated_by(R16, [(2,)])
    f2 = filtration_generators(R16, I2, Lattice.zero(R16.ngens))
    assert [bs for _, bs in f2.levels] == [[(2,)], [(4,)]]
    # zero ideal: no levels
    f0 = filtration_generators(R, RingIdeal.zero(R), Lattice.zero(R.ngens))
    assert f0.levels == []


def test_filtration_rejects_non_nilpotent():
    R = zmod(12)
    I = RingIdeal.generated_by(R, [(4,)])  # 4 is idempotent-ish: 4*4=4
    with pytest.raises(ValueError):
        filtration_generators(R, I, Lattice.zero(R.ngens))


def test_unipotent_dlog_and_presentation_small():
    R = zmod(25)
    I = RingIdeal.generated_by(R, [(5,)])
    filt = filtration_generators(R, I, Lattice.zero(R.ngens))
    assert unipotent_dlog(filt, (0,)) == [0]
    assert unipotent_dlog(filt, (10,)) == [2]  # 6^2 = 36 = 11 = 1 + 10
    pres = unipotent_presentation(R, I)
    assert pres.group_order() == 5
    with pytest.raises(ValueError):
        unipotent_dlog(filt, (1,))


def test_unipotent_dlog_z81():
    R = zmod(81)
    I = RingIdeal.generated_by(R, [(3,)])
    filt = filtration_generators(R, I, Lattice.zero(R.ngens))
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
    filt = filtration_generators(R, I, Lattice.zero(R.ngens))
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
        fil = filtration_generators(ring, I, Lattice.zero(ring.ngens))
        for x in sorted(members)[:50]:
            v = unipotent_dlog(fil, x)
            assert pres.evaluate(v) == ring.add(ring.one, x)


@st.composite
def nilpotent_ideals(draw):
    """(ring, ideal, x in the ideal) over Z/p^k, F_p[e]/(e^m) and
    Z/p^k[X]/(X^2), the ideal generated by random elements of the
    maximal ideal."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["zmod", "eps", "dual"]))
    if kind == "zmod":
        ring = zmod(p ** draw(st.integers(1, 4 if p < 5 else 3)))
        into_max = lambda v: [p * v[0]]  # noqa: E731
    elif kind == "eps":
        ring = eps_ring(p, draw(st.integers(2, 4)))
        into_max = lambda v: [0] + v[1:]  # noqa: E731
    else:
        ring = galois_ring(p ** draw(st.integers(1, 2)), (0, 0))
        into_max = lambda v: [p * v[0], v[1]]  # noqa: E731
    vecs = st.lists(st.integers(-30, 30), min_size=ring.ngens, max_size=ring.ngens)
    gens = [ring.reduce(into_max(v)) for v in draw(st.lists(vecs, min_size=1, max_size=2))]
    ideal = RingIdeal.generated_by(ring, gens)
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=ideal.lattice.rank,
                           max_size=ideal.lattice.rank))
    return ring, ideal, ring.reduce(ideal.lattice.element(coeffs))


@given(nilpotent_ideals())
@settings(max_examples=80, deadline=None)
def test_descent_matches_resolving_reference(case):
    ring, ideal, x = case
    filt = filtration_generators(ring, ideal, Lattice.zero(ring.ngens))
    assert unipotent_dlog(filt, x) == resolving_unipotent_dlog(filt, x)
    for units, powers in zip(filt.units, filt.powers):
        for u, bp in zip(units, powers):
            assert binomial_power(ring, bp, -1) == unit_inverse(ring, u)
    pres = unipotent_presentation(ring, ideal)
    g = ring.add(ring.one, x)
    assert pres.ops.power(g, -1) == unit_inverse(ring, g)
    with pytest.raises(ValueError):
        pres.ops.power(ring.zero(), -1)  # 0 - 1 is a unit, outside the ideal
    assert pres.evaluate(unipotent_dlog(filt, x)) == g


@given(nilpotent_ideals())
@settings(max_examples=80, deadline=None)
def test_layers_and_relations_match_the_elimination_references(case):
    ring, ideal, _ = case
    check_layers_against_references(ring, ideal)


def test_layers_and_relations_take_no_elimination_of_their_own(monkeypatch):
    ring = eps_ring(3, 4)
    ideal = RingIdeal.generated_by(ring, [ring.basis_vec(1)])
    filt = filtration_generators(ring, ideal, Lattice.zero(ring.ngens))
    builds = []
    init = IntSolver.__init__

    def counted(self, m):
        builds.append(m)
        init(self, m)

    monkeypatch.setattr(IntSolver, "__init__", counted)
    preimages = spy_everywhere(monkeypatch, "preimage_lattice")
    smaller = [big for big, _ in filt.levels[1:]] + [RingIdeal.zero(ring)]
    for (big, bs), small in zip(filt.levels, smaller):
        assert _layer_generators(ring, big.lattice, small.lattice) == bs
    assert not builds
    rels = unipotent_relations(filt)
    assert not preimages and not builds
    assert rels == preimage_unipotent_relations(filt)
    assert preimages


# the Smith form of each layer with its first invariant factor doubled:
# the lift m v e_t of that factor is then not divisible by it
_CORRUPTED_SMITH = """
from ordroots import finitering
from ordroots.finitering import FiniteRing, RingIdeal, filtration_generators
from ordroots.linalg import IntMatrix, Lattice

m = 4  # F_3[e]/(e^4)
ring = FiniteRing(Lattice(m, [[3 * (i == j) for i in range(m)] for j in range(m)]),
                  [[[int(k == i + j) for k in range(m)] for j in range(m)] for i in range(m)],
                  [1, 0, 0, 0])
ideal = RingIdeal.generated_by(ring, [ring.basis_vec(1)])
print(len(filtration_generators(ring, ideal, Lattice.zero(ring.ngens)).levels))
snf = finitering.snf

def doubled(mat):
    d, u, v = snf(mat)
    cols = [list(c) for c in d.cols]
    cols[0][0] *= 2
    return IntMatrix(d.nrows, cols), u, v

finitering.snf = doubled
try:
    filtration_generators(ring, ideal, Lattice.zero(ring.ngens))
except AssertionError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_corrupted_smith_form_is_caught(flags):
    run = run_python(flags, _CORRUPTED_SMITH)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "2", "Smith column is not divisible by its invariant factor"]


@given(nilpotent_ideals(), st.lists(st.integers(-300, 300), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_binomial_power_matches_square_and_multiply(case, exps):
    ring, ideal, x = case
    terms = filtration_generators(ring, ideal, Lattice.zero(ring.ngens)).terms
    bp = nilpotent_powers(ring, x, terms)
    g = ring.add(ring.one, x)
    for e in exps:
        assert binomial_power(ring, bp, e) == ring_power(ring, g, e), e


def test_nilpotent_powers_stop_at_the_last_nonzero_power():
    R = zmod(8)
    assert nilpotent_powers(R, (2,), 3) == [(2,), (4,)]
    assert nilpotent_powers(R, (0,), 1) == []
    with pytest.raises(ValueError):
        nilpotent_powers(R, (2,), 2)  # 2^2 = 4 is not 0
    with pytest.raises(ValueError):
        nilpotent_powers(R, (3,), 8)  # a unit is never nilpotent


def test_unipotent_presentation_rejects_a_wrong_length():
    R = eps_ring(2, 3)  # F_2[x]/(x^3), I = (x)
    ideal = RingIdeal.generated_by(R, [(0, 1, 0)])
    pres = unipotent_presentation(R, ideal)
    assert pres.dlog((1, 1, 0)) == [1, 0]
    for bad in [(1, 1, 0, 5), (1, 1)]:
        with pytest.raises(ValueError):
            pres.dlog(bad)
        with pytest.raises(ValueError):
            pres.ops.power(bad, 2)
    with pytest.raises(ValueError):
        unipotent_dlog(filtration_generators(R, ideal, Lattice.zero(R.ngens)), (0, 1))


def test_unipotent_power_rejects_a_non_member_at_every_exponent():
    R = zmod(8)
    pres = unipotent_presentation(R, RingIdeal.generated_by(R, [(2,)]))
    assert pres.ops.power((3,), 3) == (3,)
    for e in (-1, 0, 1, 3):
        with pytest.raises(ValueError):
            pres.ops.power((2,), e)  # 2 - 1 = 1 lies outside 2Z/8


# ---------------------------------------------------------------------------
# separable polynomials over connected rings


def eval_poly(R, coeffs, x):
    acc = R.zero()
    for c in reversed(coeffs):
        acc = R.add(R.mul(acc, x), R.reduce([c * e for e in R.one]))
    return acc


def is_unit(R, x):
    return unit_inverse(R, x) is not None


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
                from ordroots.polyfactor import qp_mul

                f = [1]
                for a in pick:
                    f = qp_mul(f, [-a, 1])
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
            tors = [x for x in R.elements() if ring_power(R, x, m) == R.one]
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
