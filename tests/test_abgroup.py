"""The presented-group algorithms against breadth-first brute force.

Groups here are explicit quotients Z^k modulo a full-rank relation
lattice; the discrete log of such a presentation is the identity map on
exponent vectors, which makes an ideal sandbox for the generic
machinery.
"""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordroots.abgroup import (
    NotInGroup,
    kernel_mod_subgroup,
    membership_dlog,
    power,
    subgroup_presentation,
    subgroup_relations,
)
from ordroots.finitering import FiniteRing, RingIdeal, unipotent_presentation
from ordroots.linalg import Lattice
from ordroots.numfield import NumberField
from ordroots.ordercore import ProductRing
from ordroots.polyfactor import cyclotomic, fp_divmod, fp_mul, fp_pow_mod
from util import (
    cyclic_dlog,
    cyclic_order,
    fold_product,
    product_inv,
    product_power,
    quotient_coset_normalizer,
    quotient_group,
    random_presented_group,
    reference_subgroup_relations,
    run_python,
    schreier_kernel,
    unit_inverse,
)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_group_order_is_the_product_of_the_invariant_factors(seed):
    pres, _ = random_presented_group(random.Random(seed))
    assert pres.group_order() == math.prod(pres.invariant_factors())


@given(st.integers(0, 2 ** 32), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_relations_are_the_preimage_the_kernel_projection_gives(seed, nt):
    rng = random.Random(seed)
    pres, _ = random_presented_group(rng)
    targets = [pres.evaluate([rng.randint(-999, 999) for _ in pres.gens]) for _ in range(nt)]
    logs = [pres.dlog(t) for t in targets]
    assert subgroup_relations(pres, targets) == reference_subgroup_relations(pres, logs)


@given(st.integers(0, 2 ** 32), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_relation_lattice_is_built_once(seed, nt):
    from ordroots import abgroup

    rng = random.Random(seed)
    pres, _ = random_presented_group(rng)
    assert pres.relation_lattice == Lattice(len(pres.gens), [list(r) for r in pres.rels])
    targets = [pres.evaluate([rng.randint(-99, 99) for _ in pres.gens]) for _ in range(nt)]
    want = reference_subgroup_relations(pres, [pres.dlog(t) for t in targets])
    lattice = abgroup.Lattice

    def refuse(*args):
        raise AssertionError("relation lattice rebuilt")

    abgroup.Lattice = refuse
    try:
        assert subgroup_relations(pres, targets) == want
        assert pres.group_order() == math.prod(pres.invariant_factors())
    finally:
        abgroup.Lattice = lattice


def test_self_presentation_relations():
    pres, lat = quotient_group([[4]])
    u = subgroup_relations(pres, list(pres.gens))
    assert Lattice(1, u) == Lattice(1, [list(r) for r in pres.rels])


def test_spec_example_z4_square():
    pres, _ = quotient_group([[4]])
    g = pres.gens[0]
    sq = pres.ops.mul(g, g)
    u = subgroup_relations(pres, [sq])
    assert Lattice(1, u) == Lattice(1, [[2]])


def test_spec_example_z12_membership():
    pres, _ = quotient_group([[12]])
    g = pres.gens[0]
    t1 = pres.ops.power(g, 4)
    t2 = pres.ops.power(g, 6)
    gamma = pres.ops.power(g, 2)
    sol = membership_dlog(pres, [t1, t2], gamma)
    assert sol is not None
    assert pres.ops.product([t1, t2], sol) == gamma
    # and g (odd exponent) is not in <g^4, g^6>
    assert membership_dlog(pres, [t1, t2], g) is None


def test_membership_identity_and_empty_targets():
    pres, _ = quotient_group([[6, 1], [0, 4]])
    assert membership_dlog(pres, [], pres.ops.identity) == []
    gamma = pres.gens[0]
    if gamma != pres.ops.identity:
        assert membership_dlog(pres, [], gamma) is None


def test_not_in_group_distinct_from_not_in_subgroup():
    pres, _ = quotient_group([[4]])
    with pytest.raises(NotInGroup):
        membership_dlog(pres, [pres.gens[0]], (0, 0))  # wrong arity: not in G


def test_subgroup_presentation_trivial_and_sign():
    pres, _ = quotient_group([[4]])
    sub = subgroup_presentation(pres, [])
    assert sub.gens == () and sub.group_order() == 1
    minus = pres.ops.power(pres.gens[0], 2)
    sub2 = subgroup_presentation(pres, [minus])
    assert sub2.group_order() == 2
    assert sub2.invariant_factors() == [2]


def test_kernel_mod_subgroup_reductions():
    pres, _ = quotient_group([[4, 0], [0, 6]])
    a, b = pres.gens
    # modulo a superset of the targets: everything is in the kernel
    u = kernel_mod_subgroup(pres, [a], [a, b])
    assert Lattice(1, u) == Lattice.full(1)
    # modulo nothing: plain relations
    u2 = kernel_mod_subgroup(pres, [a, b], [])
    assert Lattice(2, u2) == Lattice(2, subgroup_relations(pres, [a, b]))


def test_machinery_against_brute_force():
    rng = random.Random(1729)
    checked = 0
    for _ in range(40):
        pres, lat = random_presented_group(rng)
        ops = pres.ops
        nt = rng.randint(1, 3)
        targets = []
        for _ in range(nt):
            v = [rng.randrange(12) for _ in range(len(pres.gens))]
            targets.append(ops.product(pres.gens, v))
        # --- subgroup_relations vs Schreier kernel
        u = subgroup_relations(pres, targets)
        reach, pre, ker = schreier_kernel(ops.mul, ops.identity, targets)
        assert Lattice(len(targets), u) == ker
        # --- membership: inside and (attempted) outside elements
        inside = rng.choice(sorted(reach))
        sol = membership_dlog(pres, targets, inside)
        assert sol is not None
        assert ops.product(targets, sol) == inside
        probe = ops.product(
            pres.gens, [rng.randrange(12) for _ in range(len(pres.gens))]
        )
        assert (membership_dlog(pres, targets, probe) is not None) == (probe in reach)
        # --- subgroup presentation order vs brute force
        sub = subgroup_presentation(pres, targets)
        assert sub.group_order() == len(reach)
        sub.verify_exact()
        # --- kernel modulo a subgroup vs Schreier on cosets
        modulo = [rng.choice(sorted(reach))] if reach else []
        u2 = kernel_mod_subgroup(pres, targets, modulo)
        norm = quotient_coset_normalizer(lat, modulo)
        _, _, ker2 = schreier_kernel(ops.mul, ops.identity, targets, normalize=norm)
        assert Lattice(len(targets), u2) == ker2
        checked += 1
    assert checked == 40


def test_round_trip_random_exponents():
    rng = random.Random(3)
    pres, _ = quotient_group([[9, 3], [0, 12]])
    targets = [pres.ops.product(pres.gens, [2, 1]), pres.ops.product(pres.gens, [0, 5])]
    for _ in range(40):
        x = [rng.randint(-20, 20) for _ in range(2)]
        g = pres.ops.product(targets, x)
        sol = membership_dlog(pres, targets, g)
        assert sol is not None
        assert pres.ops.product(targets, sol) == g


def _product_presentations():
    """name -> presentation: the torsion of a product of number fields,
    1 + (e) in F_3[e]/(e^4), and a quotient of Z^2."""
    R = ProductRing([NumberField([1, 0, 1]), NumberField([0, 1]), NumberField([1, 1, 1])])
    torsion = R.cyclic_presentation([([i], K.torsion_powers()) for i, K in enumerate(R.fields)])
    m = 4
    eps = FiniteRing(
        Lattice(m, [[3 * (i == j) for i in range(m)] for j in range(m)]),
        [[[int(k == i + j) for k in range(m)] for j in range(m)] for i in range(m)],
        [1, 0, 0, 0])
    unipotent = unipotent_presentation(eps, RingIdeal.generated_by(eps, [(0, 1, 0, 0)]))
    quotient, _ = quotient_group([[9, 3], [0, 12]])
    return {"torsion": torsion, "1 + I": unipotent, "quotient": quotient}


_PRODUCT_PRESENTATIONS = _product_presentations()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_PRODUCT_PRESENTATIONS)), data=st.data())
def test_product_matches_the_fold_from_the_identity(name, data):
    pres = _PRODUCT_PRESENTATIONS[name]
    ops = pres.ops
    small = st.integers(-20, 20)
    elems = [pres.evaluate(data.draw(st.lists(small, min_size=len(pres.gens),
                                              max_size=len(pres.gens))))
             for _ in range(data.draw(st.integers(0, 4)))]
    n = len(elems)
    exps = data.draw(st.lists(small, min_size=n, max_size=n))
    assert ops.product(elems, exps) == fold_product(ops, elems, exps)
    assert ops.product(elems, [0] * n) == fold_product(ops, elems, [0] * n) == ops.identity


# The relation and witness checks multiply back from the logs the
# algorithms hold; a wrong kernel vector or Bezout combination must still
# be caught there, by explicit raises that python -O keeps.  The script
# prints the message of each raise, so that it also runs under -O.
_CORRUPTED_CHECKS = """
from ordroots import abgroup
from ordroots.linalg import Lattice
from ordroots.numfield import NumberField, ProductRing
from ordroots.ordercore import build_context, order_from_poly

R = ProductRing([NumberField([1, 0, 1]), NumberField([1, 1, 1])])
two_fields = R.cyclic_presentation([([i], K.torsion_powers()) for i, K in enumerate(R.fields)])
# the field torsion of Z[X]/(X^12 - 1): six cyclic factors
x12 = build_context(order_from_poly([-1] + [0] * 11 + [1])).field_torsion()
preimage_lattice, xgcd = abgroup.preimage_lattice, abgroup.xgcd
for pres in (two_fields, x12):
    t = pres.evaluate([1] * len(pres.gens))  # of order 12
    gamma = pres.evaluate([2] * len(pres.gens))
    print(len(pres.gens), abgroup.subgroup_relations(pres, [t]),
          abgroup.membership_dlog(pres, [t], gamma))
    # the first unit vector as the whole preimage: t^1 = 1 is claimed
    abgroup.preimage_lattice = lambda m, lat: Lattice(m.ncols, [[int(i == 0) for i in range(m.ncols)]])
    try:
        abgroup.subgroup_relations(pres, [t])
    except AssertionError as e:
        print(e)
    abgroup.preimage_lattice = preimage_lattice
    # a Bezout combination that claims gcd 1 with all coefficients 0
    abgroup.xgcd = lambda a, b: (1, 0, 0)
    try:
        abgroup.membership_dlog(pres, [t], gamma)
    except AssertionError as e:
        print(e)
    abgroup.xgcd = xgcd
"""

_CAUGHT = [line for gens in (2, 6) for line in (
    f"{gens} [[12]] [2]",
    "computed relation does not multiply to 1",
    "membership witness does not multiply back")]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_a_wrong_relation_or_witness_is_still_caught(flags):
    run = run_python(flags, _CORRUPTED_CHECKS)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == _CAUGHT


def test_cyclic_dlog_in_number_field():
    K = NumberField(cyclotomic(12))
    zeta, w = K.torsion_generator()
    assert w == 12
    assert cyclic_order(K.mul, K.one(), zeta, 2 * w) == w
    assert cyclic_order(K.mul, K.one(), zeta, w - 1) is None
    assert cyclic_order(K.mul, K.one(), K.from_rational(2), 2 * w) is None
    gen = K.pow(zeta, 2)  # generates the 6th roots of unity
    for a in range(6):
        assert cyclic_dlog(K.mul, K.one(), gen, 6, K.pow(gen, a)) == a
    assert cyclic_dlog(K.mul, K.one(), gen, 6, zeta) is None
    assert cyclic_dlog(K.mul, K.one(), gen, 6, K.from_rational(2)) is None


def test_cyclic_dlog_in_product_ring():
    Qi = NumberField([1, 0, 1])
    R = ProductRing([Qi, NumberField([0, 1])])
    i = Qi.gen()
    gen = R.from_blocks([i, (-1,)])
    assert cyclic_order(R.mul, R.one(), gen, 8) == 4
    for a in range(4):
        assert cyclic_dlog(R.mul, R.one(), gen, 4, product_power(R, gen, a)) == a
    # a root of unity of the product outside the cyclic subgroup
    assert cyclic_dlog(R.mul, R.one(), gen, 4, R.from_blocks([i, (1,)])) is None


def _power_cases():
    """(name, mul, inv, one, x) with x a unit of the ring."""
    z81 = FiniteRing(Lattice(1, [[81]]), [[[1]]], [1])
    m = 4  # F_3[e]/(e^4) on the basis 1, e, e^2, e^3
    eps = FiniteRing(
        Lattice(m, [[3 * (i == j) for i in range(m)] for j in range(m)]),
        [[[int(k == i + j) for k in range(m)] for j in range(m)] for i in range(m)],
        [1, 0, 0, 0])
    K = NumberField([1, 0, 1])
    R = ProductRing([K, NumberField([-2, 0, 1])])
    return [
        ("Z/81", z81.mul, partial(unit_inverse, z81), z81.one, (2,)),
        ("F_3[e]/(e^4)", eps.mul, partial(unit_inverse, eps), eps.one,
         eps.reduce([2, 1, 0, 1])),
        ("Q(i)", K.mul, K.inv, K.one(), K.from_poly([Fraction(1, 2), 1])),
        ("Q(i) x Q(sqrt 2)", R.mul, partial(product_inv, R), R.one(),
         R.from_blocks([K.from_poly([1, 1]), R.fields[1].from_poly([1, Fraction(1, 3)])])),
    ]


@pytest.mark.parametrize("name, mul, inv, one, x", _power_cases(),
                         ids=[c[0] for c in _power_cases()])
def test_power_agrees_with_repeated_multiplication(name, mul, inv, one, x):
    products = [0]

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    for e in range(-6, 33):
        naive = one
        for _ in range(abs(e)):
            naive = mul(naive, x if e > 0 else inv(x))
        products[0] = 0
        got = power(counted, inv, one, x, e)
        assert got == naive == mul(one, naive), (name, e)
        # square-and-multiply from the leading bit: no product by one, no
        # squaring after the last bit
        n = abs(e)
        assert products[0] == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)


def test_fp_pow_mod_agrees_with_repeated_multiplication():
    p, m = 5, [2, 0, 1, 1]  # modulus X^3 + X^2 + 2 over F_5
    f = [3, 4, 1, 2, 1]  # reduced modulo m first
    for e in range(0, 33):
        naive = [1]
        for _ in range(e):
            naive = fp_divmod(fp_mul(naive, f, p), m, p)[1]
        got = fp_pow_mod(f, e, m, p)
        assert got == naive == fp_divmod(fp_mul([1], naive, p), m, p)[1], e
