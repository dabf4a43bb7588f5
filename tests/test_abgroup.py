"""The presented-group algorithms against breadth-first brute force.

Groups here are explicit quotients Z^k modulo a full-rank relation
lattice; the discrete log of such a presentation is the identity map on
exponent vectors, which makes an ideal sandbox for the generic
machinery.
"""

import random

import pytest

from ordroots.abgroup import (
    NotInGroup,
    cyclic_dlog,
    cyclic_order,
    kernel_mod_subgroup,
    membership_dlog,
    subgroup_presentation,
    subgroup_relations,
)
from ordroots.linalg import Lattice
from ordroots.numfield import NumberField
from ordroots.ordercore import ProductRing
from ordroots.polyfactor import cyclotomic
from util import (
    quotient_coset_normalizer,
    quotient_group,
    random_presented_group,
    schreier_kernel,
)


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
        assert cyclic_dlog(R.mul, R.one(), gen, 4, R.power(gen, a)) == a
    # a root of unity of the product outside the cyclic subgroup
    assert cyclic_dlog(R.mul, R.one(), gen, 4, R.from_blocks([i, (1,)])) is None
