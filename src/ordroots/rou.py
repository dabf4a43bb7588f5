"""Roots of unity of an order: descent from the saturation order down to
the order itself, and the top-level drivers.

For a fixed prime p the generators of the p-power torsion of C are known;
what survives inside A is decided in the finite ring C modulo the
conductor (the largest ideal of C inside the separable part), where the
question becomes a unipotent discrete-log problem: the kernel of
Z^M -> (1+I)/(1+I') maps onto the p-power torsion of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .abgroup import (
    EffPresentation,
    NotInGroup,
    kernel_mod_subgroup,
    membership_dlog,
    subgroup_presentation,
)
from .finitering import FiniteRing, RingIdeal, unipotent_presentation
from .linalg import IntMatrix, Lattice, image_int, preimage_lattice
from .ordercore import (
    MuCPData,
    OrderContext,
    build_context,
    mu_b_presentation,
    mu_c_p_presentation,
)
from .qalgebra import mu_dlog_explain, mu_presentation


@dataclass
class ConductorData:
    """The conductor of C into the separable part, with the finite rings
    and nilpotent ideals that host the unipotent descent."""

    prime: int
    conductor_in_c: Lattice  # coordinates in the basis of C
    index_in_c: int
    ring_c: FiniteRing  # C modulo the conductor
    ring_a: FiniteRing  # separable part modulo the conductor
    embed_a_in_c: IntMatrix  # basis of the separable part in C coordinates
    ideal_i: RingIdeal  # sum of (zeta - 1) C/ff over the mu(C)_p generators
    ideal_i_sub: RingIdeal  # its intersection with the subring


def conductor(ctx: OrderContext, mu_c: MuCPData) -> ConductorData:
    """Conductor and descent rings at the prime of ``mu_c``.

    The conductor is computed as the kernel of x -> (y -> xy mod A_sep)
    from the separable part into Hom(C, C/A_sep), realized as a stacked
    congruence condition over the multiplication-by-basis matrices."""
    tower = mu_c.tower
    c_order = tower.c_order
    sep = ctx.sep_order
    d = c_order.rank
    # separable-part basis in C coordinates
    emb_cols = []
    for b in sep.basis:
        x = c_order.coords(b)
        assert x is not None
        emb_cols.append(x)
    embed = IntMatrix(d, emb_cols)
    a_in_c = image_int(embed)
    table = c_order.mult_table()
    # stack the multiplication-by-b_j matrices; x is in the conductor iff
    # x * b_j lies in the separable part for every j
    stacked_cols = []
    for i in range(d):
        col = []
        for j in range(d):
            col.extend(table[i][j])
        stacked_cols.append(col)
    stacked = IntMatrix(d * d, stacked_cols)
    block_cols = []
    for j in range(d):
        for c in a_in_c.basis.cols:
            col = [0] * (d * d)
            for t, e in enumerate(c):
                col[j * d + t] = e
            block_cols.append(col)
    target = Lattice(d * d, block_cols)
    ff = preimage_lattice(stacked, target)
    assert ff.rank == d
    for c in ff.basis.cols:
        assert a_in_c.contains(list(c))
    index_in_c = abs_det(ff)
    ring_c = c_order.finite_quotient(ff)
    # conductor in separable-part coordinates
    ff_in_a = []
    for c in ff.basis.cols:
        v = c_order.element(list(c))
        x = sep.coords(v)
        assert x is not None
        ff_in_a.append(x)
    ring_a = sep.finite_quotient(Lattice(d, ff_in_a))
    # ideal generated by zeta - 1 over the mu(C)_p generators
    gens = []
    for z in mu_c.generators:
        x = c_order.coords(z)
        assert x is not None, "torsion generator is not in C"
        gens.append(ring_c.sub(ring_c.reduce(x), ring_c.one))
    ideal_i = RingIdeal.generated_by(ring_c, gens)
    # its intersection with the subring, in subring coordinates
    sub_lat = preimage_lattice(embed, ideal_i.lattice)
    ideal_i_sub = RingIdeal(ring_a, sub_lat)
    return ConductorData(
        prime=mu_c.prime, conductor_in_c=ff, index_in_c=index_in_c,
        ring_c=ring_c, ring_a=ring_a, embed_a_in_c=embed,
        ideal_i=ideal_i, ideal_i_sub=ideal_i_sub,
    )


def abs_det(lat: Lattice) -> int:
    from .linalg import det_int

    return abs(det_int(lat.basis))


def psi_kernel(cond: ConductorData, mu_c: MuCPData) -> List[List[int]]:
    """Generators of the kernel of Z^M -> (1+I)/(1+I')."""
    ring_c = cond.ring_c
    pres = unipotent_presentation(ring_c, cond.ideal_i)
    sub_pres = unipotent_presentation(cond.ring_a, cond.ideal_i_sub)
    targets = []
    for z in mu_c.generators:
        x = mu_c.tower.c_order.coords(z)
        targets.append(ring_c.reduce(x))
    modulo = []
    for g in sub_pres.gens:
        v = cond.embed_a_in_c.apply(list(g))
        modulo.append(ring_c.reduce(v))
    return kernel_mod_subgroup(pres, targets, modulo)


def mu_a_p_generators(ctx: OrderContext, p: int,
                      mu_c: Optional[MuCPData] = None) -> List[tuple]:
    """Generators of the p-power torsion of the order's unit group, as
    integer coordinate vectors on the order's basis."""
    if mu_c is None:
        mu_c = mu_c_p_presentation(ctx, p)
    if not mu_c.generators or all(w == 1 for w in mu_c.orders):
        return []
    cond = conductor(ctx, mu_c)
    kernel = psi_kernel(cond, mu_c)
    out = []
    for u in kernel:
        v = ctx.ambient.one()
        for z, e in zip(mu_c.generators, u):
            if e:
                v = ctx.ambient.mul(v, ctx.ambient.power(z, e))
        coords = ctx.from_ambient(v)
        assert coords is not None, "descended generator is not in the order"
        out.append(tuple(coords))
    return out


def mu_a_generators(A_or_ctx) -> List[tuple]:
    """Generators of the full torsion of the unit group: the union of the
    p-power generators over the primes dividing the residue torsion."""
    ctx = A_or_ctx if isinstance(A_or_ctx, OrderContext) else build_context(A_or_ctx)
    out = []
    for p in ctx.torsion_primes():
        out.extend(mu_a_p_generators(ctx, p))
    return out


@dataclass
class MuAPresentation:
    """Presentation of the order's torsion units, over the residue-product
    torsion group."""

    ctx: OrderContext
    generators: List[tuple]  # integer coordinates on the order basis
    relations: List[tuple]  # vectors over the generators
    invariant_factors: List[int]
    group_order: int
    pres: EffPresentation  # subgroup presentation inside the ambient torsion


def mu_a_presentation(A_or_ctx) -> MuAPresentation:
    ctx = A_or_ctx if isinstance(A_or_ctx, OrderContext) else build_context(A_or_ctx)
    gens = mu_a_generators(ctx)
    pres_b = mu_b_presentation(ctx)
    targets = [ctx.to_ambient(g) for g in gens]
    sub = subgroup_presentation(pres_b, targets)
    sub.verify_exact()
    if gens:
        facs = sub.invariant_factors()
        order = sub.group_order()
    else:
        facs = []
        order = 1
    return MuAPresentation(
        ctx=ctx, generators=[tuple(int(c) for c in g) for g in gens],
        relations=[tuple(r) for r in sub.rels],
        invariant_factors=facs, group_order=order, pres=sub,
    )


def mu_e_subgroup_dlog(ctx_or_order, targets, zeta):
    """Membership of zeta in the subgroup of the rational torsion group
    generated by ``targets`` (coordinate vectors over the order's basis,
    rational entries allowed).

    Returns (exponents, None) on success, (None, reason) otherwise, with
    reason 'not-root-of-unity' when zeta is no root of unity at all and
    'not-in-subgroup' when it is one but lies outside <targets>.
    Raises ValueError when some target is not a root of unity."""
    ctx = ctx_or_order if isinstance(ctx_or_order, OrderContext) else build_context(ctx_or_order)
    tor = mu_presentation(ctx.order.algebra, ctx.dec)
    for t in targets:
        if mu_dlog_explain(tor, t)[0] is None:
            raise ValueError("target is not a root of unity in the rational algebra")
    vec, reason = mu_dlog_explain(tor, zeta)
    if vec is None:
        return None, "not-root-of-unity"
    from .qalgebra import _num

    zt = tuple(_num(Fraction(c)) for c in zeta)
    try:
        sol = membership_dlog(tor.pres, [tuple(_num(Fraction(c)) for c in t) for t in targets], zt)
    except NotInGroup:
        return None, "not-root-of-unity"
    if sol is None:
        return None, "not-in-subgroup"
    return sol, None
