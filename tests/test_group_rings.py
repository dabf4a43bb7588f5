"""Closed-form oracles on the cyclic group rings Z[C_n] = Z[X]/(X^n - 1).

Each order is built from its group table e_g e_h = e_(g+h), never from a
polynomial, and every expected answer is a theorem about group rings:

- Higman (1940): the torsion units of Z[G], G finite abelian, are the
  elements +-g of G.  So the roots of unity form Z/2 x G.  For G = C_n the
  invariant factors are [2n] for odd n and [2, n] for even n, and every
  generator is some +-e_g.
- Z[G] has no idempotents but 0 and 1, so 1 is its only primitive
  idempotent.
- Perlis-Walker (1950): Q[C_n] is the product of the fields Q(zeta_d)
  over the divisors d of n.  So ``decompose`` gives one component of
  degree phi(d) per divisor, and the group generator e_1 has exact order
  d in it, which makes the component Q(zeta_d).
"""

from functools import lru_cache
from math import gcd

import pytest

from ordroots.ordercore import Order, build_context, primitive_idempotents_ctx
from ordroots.rou import mu_a_presentation
from util import schoolbook_field_mul

ORDERS = range(5, 9)


def _phi(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _basis(n, g):
    return [int(i == g % n) for i in range(n)]


@lru_cache(maxsize=None)
def _context(n):
    table = [[_basis(n, g + h) for h in range(n)] for g in range(n)]
    return build_context(Order(table))


@pytest.mark.parametrize("n", ORDERS)
def test_torsion_units_are_plus_minus_the_group(n):
    pres = mu_a_presentation(_context(n))
    assert pres.invariant_factors == ([2 * n] if n % 2 else [2, n])
    assert pres.group_order == 2 * n
    signed_basis = {tuple(s * e for e in _basis(n, g)) for g in range(n) for s in (1, -1)}
    assert all(tuple(g) in signed_basis for g in pres.generators)


@pytest.mark.parametrize("n", ORDERS)
def test_the_only_primitive_idempotent_is_one(n):
    assert primitive_idempotents_ctx(_context(n)) == [tuple(_basis(n, 0))]


def _exact_order(K, x, bound):
    one = K.one()
    acc = x
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = schoolbook_field_mul(K, acc, x)
    return None


@pytest.mark.parametrize("n", ORDERS)
def test_components_are_the_cyclotomic_fields_of_the_divisors(n):
    dec = _context(n).dec
    gen = dec.to_components(_basis(n, 1))
    got = []
    pos = 0
    for K in dec.components:
        x = tuple(gen[pos:pos + K.deg])
        pos += K.deg
        got.append((K.deg, _exact_order(K, x, n)))
    want = [(_phi(d), d) for d in range(1, n + 1) if n % d == 0]
    assert sorted(got) == sorted(want)
