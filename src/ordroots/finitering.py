"""Finite commutative rings by additive presentation, and the discrete
logarithm machinery for unipotent groups 1 + I with I nilpotent.

A ring on k additive generators is a full-rank relation lattice in Z^k
plus a multiplication table for generator pairs, kept as the sparse
cells of ``qalgebra.sparse_table``: a product walks only the nonzero
entries of the cells it meets.  The table need be associative only
modulo the relations.  Elements are the canonical coset representatives
modulo the relation lattice, so equality is tuple comparison.

The unipotent machinery works along the filtration 1+I, 1+I^2, 1+I^4,
... whose layers are isomorphic to the additive groups I^(2^i)/I^(2^(i+1))
via x -> 1+x; discrete logs peel one layer at a time, and relations are
assembled by descending induction over the layers.  Taken modulo a
subring ideal I' of I, the same filtration presents (1+I)/(1+I'): x -> 1+x
maps I_i = I^(2^i) onto its i-th layer with kernel I_(i+1) + P_i, where
P_i = I_i meet I', so a peel also multiplies by 1 - c for the P_i part c
of its solve, a unit of 1+I' that drops the remainder into I_(i+1).
Every power of 1 + b in 1 + I, of either sign, is the finite binomial sum
sum_i C(e, i) b^i.  The filtration holds what every peel needs: one
prepared integer solver per level and the nonzero powers b, b^2, ... of
each layer generator.  Peeling then costs one ring product per nonzero
exponent, and runs no Hermite form, no square-and-multiply and no general
unit inverse.  The same solver's kernel gives the level's additive
relations, and a layer's generators are read off the Smith form of the
layer, so neither takes an elimination of its own.

Self-checks raise AssertionError explicitly, so they also run under
``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import List

from .abgroup import EffPresentation, GroupOps
from .linalg import (
    IntMatrix,
    IntSolver,
    Lattice,
    intersect_lattices,
    lattice_index,
    snf,
    sum_lattices,
)
from .qalgebra import sparse_table, table_mul, table_mul_basis


class FiniteRing:
    """Commutative ring, finite as an additive group."""

    def __init__(self, rel_lattice: Lattice, mult_table, one_coords):
        k = rel_lattice.dim
        if rel_lattice.rank != k:
            raise ValueError("relation lattice must have full rank (finite ring)")
        if len(one_coords) != k:
            raise ValueError("identity has the wrong length")
        self.ngens = k
        self.rel = rel_lattice
        self.table = sparse_table(mult_table, k, self.reduce)
        self.one = self.reduce(one_coords)
        self._check_well_defined()

    def _check_well_defined(self):
        # products of generators with relation vectors must land in the
        # relation lattice (multiplication descends to the quotient)
        for r in self.rel.basis.cols:
            for j in range(self.ngens):
                if not self.rel.contains(table_mul_basis(self.table, r, j)):
                    raise ValueError("multiplication not well-defined mod relations")
        one = self.one
        for j in range(self.ngens):
            g = self.basis_vec(j)
            if self.mul(one, g) != self.reduce(g):
                raise ValueError("identity does not fix a generator")

    # -- elements -------------------------------------------------------------

    def zero(self):
        return (0,) * self.ngens

    def basis_vec(self, i):
        return tuple(int(t == i) for t in range(self.ngens))

    def reduce(self, v):
        return tuple(self.rel.reduce(v))

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        return self.reduce([x - y for x, y in zip(a, b)])

    def mul(self, a, b):
        return self.reduce(table_mul(self.table, a, b))

    def order(self) -> int:
        return self.rel.pivot_product

    def elements(self):
        """All canonical representatives (the HNF box)."""
        diag = sorted((r, c[r]) for c, r in zip(self.rel.basis.cols, self.rel.pivots))
        if [r for r, _ in diag] != list(range(self.ngens)):
            raise AssertionError("relation lattice has not one pivot per row")
        idx = [0] * self.ngens
        while True:
            yield self.reduce(idx)
            j = 0
            while j < self.ngens:
                idx[j] += 1
                if idx[j] < diag[j][1]:
                    break
                idx[j] = 0
                j += 1
            if j == self.ngens:
                return


class RingIdeal:
    """Ideal of a FiniteRing: a lattice between the relation lattice and Z^k,
    closed under multiplication by the ring.  With ``check=False`` it may
    be an ideal of a subring only, such as I' = I meet A/ff in C/ff, the
    modulus of a filtration of an ideal of the big ring; the caller
    checks its closure under the subring."""

    def __init__(self, ring: FiniteRing, lattice: Lattice, check=True):
        if lattice.dim != ring.ngens:
            raise ValueError("ideal lattice has the wrong dimension")
        self.ring = ring
        self.lattice = lattice
        if check:
            if not all(lattice.contains(c) for c in ring.rel.basis.cols):
                raise ValueError("ideal lattice must contain the relation lattice")
            for b in lattice.basis.cols:
                for j in range(ring.ngens):
                    if not lattice.contains(table_mul_basis(ring.table, b, j)):
                        raise ValueError("lattice is not an ideal")

    @classmethod
    def generated_by(cls, ring: FiniteRing, elems) -> "RingIdeal":
        """The ideal generated by ``elems``: spanned by the relation
        lattice and the products e * e_j with the ring's generators,
        which contain e = e * 1 because the ring has an identity.  The
        constructor's check verifies the closure."""
        elems = list(elems)
        if not elems:
            raise ValueError("no generators (the zero ideal is RingIdeal.zero)")
        if any(len(e) != ring.ngens for e in elems):
            raise ValueError("element has the wrong length")
        gens = [list(c) for c in ring.rel.basis.cols]
        gens += [table_mul_basis(ring.table, e, j) for e in elems for j in range(ring.ngens)]
        return cls(ring, Lattice(ring.ngens, gens))

    @classmethod
    def zero(cls, ring: FiniteRing) -> "RingIdeal":
        return cls(ring, ring.rel, check=False)

    def contains(self, elem) -> bool:
        return self.lattice.contains(list(elem))

    def is_zero(self) -> bool:
        return self.lattice == self.ring.rel

    def size(self) -> int:
        return lattice_index(self.ring.rel, self.lattice)

    def mul(self, other: "RingIdeal") -> "RingIdeal":
        """The product ideal, spanned by the relation lattice and the
        products of the two bases.  The ring is commutative, so a square
        forms each product b_i b_j once, for i <= j."""
        ring = self.ring
        cols = self.lattice.basis.cols
        pairs = (combinations_with_replacement(cols, 2) if other is self
                 else product(cols, other.lattice.basis.cols))
        gens = [list(c) for c in ring.rel.basis.cols]
        gens += [table_mul(ring.table, a, b) for a, b in pairs]
        return RingIdeal(ring, Lattice(ring.ngens, gens), check=False)

    def __eq__(self, other):
        return isinstance(other, RingIdeal) and self.lattice == other.lattice


# ---------------------------------------------------------------------------
# unipotent groups 1 + I


def nilpotent_powers(ring: FiniteRing, b, terms: int):
    """[b, b^2, ...] up to the last nonzero power of b; raises ValueError
    unless b^terms = 0."""
    out = []
    cur = tuple(b)
    while any(cur):
        if len(out) + 1 >= terms:
            raise ValueError("element is not nilpotent")
        out.append(cur)
        cur = ring.mul(cur, b)
    return out


def binomial_power(ring: FiniteRing, powers, e: int):
    """(1 + b)^e = sum_i C(e, i) b^i for every integer e, from the powers
    [b, b^2, ...] of a nilpotent b.  C(e, i+1) = C(e, i) (e-i) / (i+1) is
    an exact integer division, and the integer sum is reduced once."""
    acc = list(ring.one)
    c = 1
    for i, bi in enumerate(powers if e < 0 else powers[:e]):
        c = c * (e - i) // (i + 1)
        acc = [a + c * x for a, x in zip(acc, bi)]
    return ring.reduce(acc)


def binomial_product(ring: FiniteRing, powers, exps, acc):
    """acc * prod (1 + b)^e over nilpotent elements b given by their
    powers: one binomial sum per nonzero e, and one ring product unless
    acc or the power is still 1."""
    for bp, e in zip(powers, exps):
        if e:
            y = binomial_power(ring, bp, e)
            if y != ring.one:
                acc = y if acc == ring.one else ring.mul(acc, y)
    return acc


@dataclass
class Filtration:
    """Ideal powers I, I^2, I^4, ... with layer generating sets, taken
    modulo a subring ideal I' of I (I' = 0 for 1 + I itself).

    levels[i] is (ideal I_i = I^(2^i), B_i) and sub_levels[i] is
    P_i = I_i meet I'; B_i lifts a minimal generating set of the additive
    layer I_i/(I_(i+1) + P_i), which x -> 1 + x maps onto the i-th layer
    of (1+I)/(1+I'); the last listed level has I_(i+1) = 0.

    Built once, read by every discrete log: ``solvers[i]`` solves over
    the fixed matrix [B_i | I_(i+1) | P_i], so a layer costs no Hermite
    form, its image is checked to be I_i, so that the units 1 + b
    generate (1+I)/(1+I'), and its kernel cut to B_i spans the layer's
    relations; ``units[i]`` and ``powers[i]`` hold 1 + b and b, b^2, ...
    up to the last nonzero power for each b in B_i, and each (1 + b)^-1
    is multiplied back once.
    ``terms`` = 2^len(levels) bounds the nilpotency index of I.
    """

    ring: FiniteRing
    levels: List[tuple]
    sub_levels: List[Lattice]
    solvers: List[IntSolver] = field(init=False, repr=False)
    units: List[list] = field(init=False, repr=False)
    powers: List[list] = field(init=False, repr=False)
    terms: int = field(init=False)

    def __post_init__(self):
        ring = self.ring
        if len(self.sub_levels) != len(self.levels):
            raise ValueError("one subring-ideal level per level")
        self.terms = 1 << len(self.levels)
        self.solvers, self.units, self.powers = [], [], []
        for li, (_, bs) in enumerate(self.levels):
            nxt = self.levels[li + 1][0].lattice if li + 1 < len(self.levels) else ring.rel
            blocks = IntMatrix(ring.ngens, [list(b) for b in bs]).hstack(nxt.basis)
            solver = IntSolver(blocks.hstack(self.sub_levels[li].basis))
            # both canonical Hermite bases: B_i, I_(i+1) and P_i span I_i
            if solver.image != self.levels[li][0].lattice:
                raise AssertionError("layer generators do not generate the layer")
            self.solvers.append(solver)
            units = [ring.add(ring.one, b) for b in bs]
            powers = [nilpotent_powers(ring, b, self.terms) for b in bs]
            for u, bp in zip(units, powers):
                if ring.mul(u, binomial_power(ring, bp, -1)) != ring.one:
                    raise AssertionError("binomial inverse does not multiply back to 1")
            self.units.append(units)
            self.powers.append(powers)

    def layer_product(self, li, exps, acc):
        """acc * prod (1 + b)^e over the generators b of level li."""
        return binomial_product(self.ring, self.powers[li], exps, acc)

    def sub_part(self, li, sol):
        """The P_i part c = P_i z of a solution or kernel vector
        (m, y, z) of level li's solver, reduced in the ring; 0 with no
        product for z = 0, as always when I' = 0."""
        p = self.sub_levels[li].basis
        z = sol[len(sol) - p.ncols:]
        return self.ring.reduce(p.apply(z)) if any(z) else self.ring.zero()


def filtration_generators(ring: FiniteRing, ideal: RingIdeal, modulo: Lattice) -> Filtration:
    """Build the square filtration of ``ideal``, taken modulo the lattice
    ``modulo`` of a subring ideal inside it, the zero lattice for 1 + I
    itself; error if the ideal is not nilpotent.  As ``modulo`` lies in
    ``ideal``, P_0 is ``modulo`` and P_(i+1) = I_(i+1) meet P_i."""
    levels, sub_levels = [], []
    sub = modulo
    cur = ideal
    guard = ring.ngens.bit_length() + (ring.order().bit_length() if ring.ngens else 0) + 4
    while not cur.is_zero():
        nxt = cur.mul(cur)
        if nxt.lattice == cur.lattice:
            raise ValueError("ideal is not nilpotent")
        if levels:
            sub = intersect_lattices(cur.lattice, sub)
        sub_levels.append(sub)
        levels.append((cur, _layer_generators(ring, cur.lattice, sum_lattices(nxt.lattice, sub))))
        cur = nxt
        guard -= 1
        if guard < 0:
            raise AssertionError("filtration did not terminate")
    return Filtration(ring=ring, levels=levels, sub_levels=sub_levels)


def _layer_generators(ring: FiniteRing, big: Lattice, small: Lattice):
    """Lift a Smith-form generating set of big/small into the ring.

    With m the small basis in big coordinates and d = u*m*v its Smith
    form, the lift of the t-th generator is u^-1 e_t = (m v e_t) / d_t.
    Both lattices contain the full-rank relation lattice, so m is square
    and every d_t is nonzero."""
    coords = []
    for c in small.basis.cols:
        x = big.coords(c)
        if x is None:
            raise AssertionError("small ideal is not inside the big one")
        coords.append(x)
    m = IntMatrix(big.rank, coords)
    d, _, v = snf(m)
    out = []
    for t in range(m.ncols):
        dt = d.entry(t, t)
        if dt == 1:
            continue
        mv = m.apply(v.cols[t])
        if any(e % dt for e in mv):
            raise AssertionError("Smith column is not divisible by its invariant factor")
        out.append(ring.reduce(big.element([e // dt for e in mv])))
    return out


def unipotent_dlog(filtration: Filtration, x, start_level=0):
    """Exponents (m_b) over the filtration generators with
    1 + x = prod (1+b)^(m_b) modulo 1+I', for x in the level's ideal.

    Peels one additive layer per level: solve for the layer exponents
    with the level's solver, divide off the corresponding product, each
    power a binomial sum, multiply by 1 - c for the P_i part c of the
    solve, and go on to the next level.  Raises ValueError for an x of
    the wrong length or outside the level's ideal.
    """
    ring = filtration.ring
    levels = filtration.levels
    if len(x) != ring.ngens:
        raise ValueError("element has the wrong length")
    ideal = levels[start_level][0] if start_level < len(levels) else RingIdeal.zero(ring)
    if not ideal.contains(x):
        raise ValueError("element outside the unipotent group")
    out = []
    cur = tuple(x)
    for li in range(start_level, len(levels)):
        sol = filtration.solvers[li].solve(cur)
        if sol is None:
            raise AssertionError("layer generators do not generate the layer")
        ms = sol[: len(levels[li][1])]
        out.extend(ms)
        unit = filtration.layer_product(li, [-m for m in ms], ring.add(ring.one, cur))
        c = filtration.sub_part(li, sol)
        if any(c):
            # 1 - c lies in 1+I', and c^2 in I_i^2 <= I_(i+1)
            unit = ring.mul(unit, ring.sub(ring.one, c))
        cur = ring.sub(unit, ring.one)
    if cur != ring.zero():
        raise AssertionError("unipotent peeling left a residue")
    return out


def unipotent_relations(filtration: Filtration):
    """Defining relations of the map Z^B -> (1+I)/(1+I') over the
    filtration generators B, by descending induction over the levels.
    A layer relation n comes with the P_j part c of its kernel vector,
    B_j n + c in I_(j+1), so prod (1+b)^n (1 + c) is peeled from level
    j + 1."""
    ring = filtration.ring
    levels = filtration.levels
    nlev = len(levels)
    rels_tail: List[List[int]] = []  # relations over generators of levels >= j
    for j in range(nlev - 1, -1, -1):
        nb = len(levels[j][1])
        # (x, y, z) with B_j x + N y + P_j z = 0, N the next ideal's basis,
        # cut to x and c = P_j z; the Hermite columns with pivots in x
        # cut to x are the canonical basis of the layer's relations
        addrel = Lattice(nb + ring.ngens, [list(col[:nb]) + list(filtration.sub_part(j, col))
                                           for col in filtration.solvers[j].kernel.cols])
        tail_len = sum(len(levels[t][1]) for t in range(j + 1, nlev))
        new_rels = []
        for col, piv in zip(addrel.basis.cols, addrel.pivots):
            if piv >= nb:
                continue
            n, c = col[:nb], col[nb:]
            u = filtration.layer_product(j, n, ring.one)
            if any(c):
                u = ring.mul(u, ring.add(ring.one, c))
            z = ring.sub(u, ring.one)
            if not tail_len and z != ring.zero():
                raise AssertionError("last-level relation does not multiply to 1")
            ms = unipotent_dlog(filtration, z, start_level=j + 1) if tail_len else []
            new_rels.append(list(n) + [-m for m in ms])
        for r in rels_tail:
            new_rels.append([0] * nb + r)
        rels_tail = new_rels
    return rels_tail


def unipotent_presentation(ring: FiniteRing, ideal: RingIdeal) -> EffPresentation:
    """Efficient presentation of the multiplicative group 1 + I, whose
    powers are binomial sums.  A generator's power reads the powers the
    filtration stores; any other element is tested for membership, and a
    negative power of it is multiplied back."""
    filtration = filtration_generators(ring, ideal, Lattice.zero(ring.ngens))
    gens = tuple(u for units in filtration.units for u in units)
    rels = tuple(tuple(r) for r in unipotent_relations(filtration))
    # the filtration holds each generator's powers, its inverse multiplied back
    gen_powers = {u: bp for units, powers in zip(filtration.units, filtration.powers)
                  for u, bp in zip(units, powers)}

    def member(gamma):  # gamma - 1 if gamma lies in 1 + I, else None
        if len(gamma) != ring.ngens:
            raise ValueError("element has the wrong length")
        x = ring.sub(gamma, ring.one)
        return x if ideal.contains(x) else None

    def power(gamma, e):
        bp = gen_powers.get(tuple(gamma))
        if bp is not None:
            return binomial_power(ring, bp, e)
        x = member(gamma)
        if x is None:
            raise ValueError("element outside the unipotent group")
        bp = nilpotent_powers(ring, x, filtration.terms)
        out = binomial_power(ring, bp, e)
        if e < 0 and ring.mul(out, binomial_power(ring, bp, -e)) != ring.one:
            raise AssertionError("binomial power does not multiply back to 1")
        return out

    def dlog(gamma):
        x = member(gamma)
        return None if x is None else unipotent_dlog(filtration, x)

    ops = GroupOps(mul=ring.mul, power=power, identity=ring.one)
    pres = EffPresentation(ops=ops, gens=gens, rels=rels, dlog=dlog)
    pres.verify_exact()
    if gens and pres.group_order() != ideal.size():
        raise AssertionError("unipotent group order mismatch")
    return pres
