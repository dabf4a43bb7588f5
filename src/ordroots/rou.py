"""Roots of unity of an order: descent from the saturation order down to
the order itself, and the top-level drivers.

For a fixed prime p the generators of the p-power torsion of C are known;
what survives inside A is decided in the finite ring C modulo the
conductor ff = {x in C : xC <= A}, where the question becomes a
unipotent discrete-log problem: the kernel of Z^M -> (1+I)/(1+I') maps
onto the p-power torsion of A.  The conductor lies in A, so A/ff is the
sublattice of C/ff spanned by A's basis and I' = I meet A/ff is an ideal
of that subring: the descent works in one finite ring.  The kernel is
read off one filtration of I taken modulo I', which presents
(1+I)/(1+I') and takes its discrete logs directly.  The conductor is A
cut by C's generators over A, the basis elements of C at the Hermite
pivots of A above 1, one at a time: a basis L of the cut so far is
replaced by L times the preimage of A under multiplication by the next
generator on L, so each cut lies in the last and no two lattices are
intersected; the basis is put in canonical Hermite form once, at the
end.  Where p does not divide
[B : A_sep], C = A_sep, so the p-power torsion of A is that of C and no
conductor is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .abgroup import (
    EffPresentation,
    NotInGroup,
    membership_dlog,
    subgroup_presentation,
)
from .finitering import (
    FiniteRing,
    RingIdeal,
    binomial_product,
    filtration_generators,
    nilpotent_powers,
    unipotent_dlog,
    unipotent_relations,
)
from .linalg import IntMatrix, Lattice, image_int, intersect_lattices, preimage_lattice
from .ordercore import (
    MuCPData,
    OrderContext,
    build_context,
    mu_b_presentation,
    mu_c_p_presentation,
)
from .qalgebra import table_mul


@dataclass
class ConductorData:
    """The conductor of C into the separable part, with the one finite
    ring and the two nilpotent ideals that host the unipotent descent;
    every lattice is in the coordinates of C's basis."""

    conductor_in_c: Lattice
    ring_c: FiniteRing  # C modulo the conductor
    a_in_c: Lattice  # the separable part, whose image in ring_c is the subring A/ff
    zetas: List[tuple]  # the mu(C)_p generators in C/ff
    ideal_i: RingIdeal  # sum of (zeta - 1) C/ff over the mu(C)_p generators
    ideal_i_sub: RingIdeal  # I' = I meet A/ff, an ideal of the subring only


def conductor(ctx: OrderContext, mu_c: MuCPData) -> ConductorData:
    """Conductor and descent rings at the prime of ``mu_c``.

    With b_1, ..., b_d the basis of C and M_r the matrix of
    multiplication by b_r in that basis, a column of A's Hermite basis
    ``a_in_c`` with pivot 1 on row r puts b_r in A plus the span of the
    b_s with s > r, so A and the b_r whose pivot is above 1 generate C.
    An x of A then has xC in A iff x b_r lies in A for those r.  The
    conductor is cut from A one such r at a time: with L a basis of the
    cut so far, {x in L : x b_r in A} is L times the preimage of A under
    M_r L, one matrix product.  It is all of A when A spans C.  It lies
    in A, so A/ff is the sublattice ``a_in_c`` of C/ff and I' is the
    intersection of I with it, checked closed under A in C/ff."""
    c_order = mu_c.tower.c_order
    sep = ctx.sep_order
    d = c_order.rank
    # separable-part basis in C coordinates
    emb_cols = []
    for b in sep.basis:
        x = c_order.coords(b)
        if x is None:
            raise AssertionError("separable part is not inside C")
        emb_cols.append(x)
    a_in_c = image_int(IntMatrix(d, emb_cols))
    table = c_order.mult_table()
    cut = a_in_c.basis
    for c, r in zip(a_in_c.basis.cols, a_in_c.pivots):
        if c[r] > 1:
            m_r = IntMatrix(d, [table[i][r] for i in range(d)])
            cut = cut.mul(preimage_lattice(m_r.mul(cut), a_in_c).basis)
    ff = Lattice(d, cut)
    if ff.rank != d:
        raise AssertionError("conductor is not of full rank")
    for c in ff.basis.cols:
        if not a_in_c.contains(c):
            raise AssertionError("conductor is not inside the separable part")
    ring_c = c_order.finite_quotient(ff)
    # ideal generated by zeta - 1 over the mu(C)_p generators
    zetas = []
    for z in mu_c.pres.gens:
        x = c_order.coords(z)
        if x is None:
            raise AssertionError("torsion generator is not in C")
        zetas.append(ring_c.reduce(x))
    ideal_i = RingIdeal.generated_by(ring_c, [ring_c.sub(z, ring_c.one) for z in zetas])
    ideal_i_sub = subring_ideal(ring_c, a_in_c, intersect_lattices(ideal_i.lattice, a_in_c))
    return ConductorData(
        conductor_in_c=ff, ring_c=ring_c, a_in_c=a_in_c, zetas=zetas,
        ideal_i=ideal_i, ideal_i_sub=ideal_i_sub,
    )


def subring_ideal(ring: FiniteRing, subring: Lattice, lattice: Lattice) -> RingIdeal:
    """``lattice``, between the relations and the lattice ``subring`` of
    ring coordinates, as an ideal of that subring: checked closed under
    multiplication by the subring's basis, the products taken in
    ``ring``."""
    for b in lattice.basis.cols:
        for a in subring.basis.cols:
            if not lattice.contains(table_mul(ring.table, b, a)):
                raise AssertionError("subring ideal is not closed under the subring")
    return RingIdeal(ring, lattice, check=False)


def psi_kernel(cond: ConductorData) -> List[List[int]]:
    """Generators of the kernel of Z^M -> (1+I)/(1+I'), in canonical
    Hermite form: the exponent vectors whose product of zetas lies in
    1+I'.  One filtration of I modulo I' gives the relations of the
    quotient, checked to present a group of order |I|/|I'|, and one
    dlog per zeta; the kernel is the preimage of the relation lattice
    under the zetas' dlogs, and each of its generators is multiplied
    back into 1+I'."""
    ring = cond.ring_c
    filt = filtration_generators(ring, cond.ideal_i, cond.ideal_i_sub.lattice)
    n = sum(len(bs) for _, bs in filt.levels)
    rels = Lattice(n, unipotent_relations(filt))
    if rels.rank != n or rels.pivot_product * cond.ideal_i_sub.size() != cond.ideal_i.size():
        raise AssertionError("quotient group order mismatch")
    xs = [ring.sub(z, ring.one) for z in cond.zetas]
    ker = preimage_lattice(IntMatrix(n, [unipotent_dlog(filt, x) for x in xs]), rels)
    # the kernel has full rank, so its Hermite basis has no negative
    # entry: the check raises the zetas to positive powers only
    powers = [nilpotent_powers(ring, x, filt.terms) for x in xs]
    for u in ker.basis.cols:
        got = binomial_product(ring, powers, u, ring.one)
        if not cond.ideal_i_sub.contains(ring.sub(got, ring.one)):
            raise AssertionError("kernel generator does not multiply into 1+I'")
    return [list(c) for c in ker.basis.cols]


def mu_a_p_generators(ctx: OrderContext, p: int) -> List[tuple]:
    """Generators of the p-power torsion of the order's unit group, as
    integer coordinate vectors on the order's basis: the products of the
    mu(C)_p generators over the Hermite basis of the kernel of
    Z^M -> (1+I)/(1+I').  Where p does not divide [B : A_sep], C is the
    separable part, the conductor is C and that kernel is all of Z^M:
    its Hermite basis is the identity, with no conductor built.  Every
    generator is checked to lie in the order."""
    mu_c = mu_c_p_presentation(ctx, p)
    if all(rel[k] == 1 for k, rel in enumerate(mu_c.pres.rels)):
        return []
    if mu_c.tower.index_c_over_sep == 1:
        kernel = IntMatrix.identity(len(mu_c.pres.gens)).cols
    else:
        kernel = psi_kernel(conductor(ctx, mu_c))
    out = []
    for u in kernel:
        coords = ctx.from_ambient(mu_c.pres.evaluate(u))
        if coords is None:
            raise AssertionError("descended generator is not in the order")
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
    # subgroup_relations has checked every relation
    sub = subgroup_presentation(pres_b, targets)
    facs = sub.invariant_factors() if gens else []
    return MuAPresentation(
        ctx=ctx, generators=gens,
        relations=[tuple(r) for r in sub.rels],
        invariant_factors=facs, group_order=sub.group_order(), pres=sub,
    )


def mu_e_subgroup_dlog(ctx_or_order, targets, zeta):
    """Membership of zeta in the subgroup of the rational torsion group
    generated by ``targets`` (coordinate vectors over the order's basis,
    rational entries allowed).

    Returns (exponents, None) on success, (None, reason) otherwise, with
    reason 'not-root-of-unity' when zeta is no root of unity at all and
    'not-in-subgroup' when it is one but lies outside <targets>.
    Raises ValueError when some target is not a root of unity.

    The torsion presentation is the context's, built once.  Each vector
    is mapped to component coordinates once, after its separability test;
    the root-of-unity tests, the membership and its checking products all
    run on that component vector, where a dlog is a table lookup.  Each
    vector's dlog is taken once: the targets' by their root-of-unity
    test, which passes them on to the membership."""
    ctx = ctx_or_order if isinstance(ctx_or_order, OrderContext) else build_context(ctx_or_order)
    pres = ctx.field_torsion()

    def components(x):
        # None for an element with a nilpotent part: no root of unity
        return ctx.to_ambient(x) if ctx.dec.is_separable_element(x) else None

    vecs, logs = [], []
    for t in targets:
        v = components(t)
        log = None if v is None else pres.dlog(v)
        if log is None:
            raise ValueError("target is not a root of unity in the rational algebra")
        vecs.append(v)
        logs.append(log)
    gamma = components(zeta)
    if gamma is None:
        return None, "not-root-of-unity"
    try:
        sol = membership_dlog(pres, vecs, gamma, logs)
    except NotInGroup:
        return None, "not-root-of-unity"
    if sol is None:
        return None, "not-in-subgroup"
    return sol, None
