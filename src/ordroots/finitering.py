"""Finite commutative rings by additive presentation, and the discrete
logarithm machinery for unipotent groups 1 + I with I nilpotent.

A ring on k additive generators is a full-rank relation lattice in Z^k
plus a multiplication table for generator pairs.  Elements are the
canonical coset representatives modulo the relation lattice, so equality
is tuple comparison.

The unipotent machinery works along the filtration 1+I, 1+I^2, 1+I^4,
... whose layers are isomorphic to the additive groups I^(2^i)/I^(2^(i+1))
via x -> 1+x; discrete logs peel one layer at a time, and relations are
assembled by descending induction over the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .abgroup import EffPresentation, GroupOps, power
from .linalg import (
    IntMatrix,
    Lattice,
    lattice_index,
    preimage_lattice,
    solve_int,
)
from .qalgebra import check_table, table_mul, table_mul_basis


class FiniteRing:
    """Commutative ring, finite as an additive group."""

    def __init__(self, rel_lattice: Lattice, mult_table, one_coords, check=True):
        k = rel_lattice.dim
        if rel_lattice.rank != k:
            raise ValueError("relation lattice must have full rank (finite ring)")
        self.ngens = k
        self.rel = rel_lattice
        self.table = tuple(
            tuple(tuple(int(e) for e in cell) for cell in row) for row in mult_table
        )
        self.one = self.reduce(one_coords)
        if check:
            self._check_well_defined()

    def _check_well_defined(self):
        # products of generators with relation vectors must land in the
        # relation lattice (multiplication descends to the quotient)
        for r in self.rel.basis.cols:
            for j in range(self.ngens):
                if not self.rel.contains(table_mul_basis(self.table, r, j)):
                    raise ValueError("multiplication not well-defined mod relations")
        check_table(self.table, self.reduce)
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
        return tuple(self.rel.reduce(list(v)))

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a):
        return self.reduce([-x for x in a])

    def sub(self, a, b):
        return self.reduce([x - y for x, y in zip(a, b)])

    def mul(self, a, b):
        return self.reduce(table_mul(self.table, a, b))

    def unit_inverse(self, a):
        """b with a*b = 1, or None if a is not a unit."""
        cols = [table_mul_basis(self.table, a, j) for j in range(self.ngens)]
        m = IntMatrix(self.ngens, cols).hstack(self.rel.basis)
        sol = solve_int(m, list(self.one))
        if sol is None:
            return None
        return self.reduce(sol[: self.ngens])

    def inv(self, a):
        out = self.unit_inverse(a)
        if out is None:
            raise ArithmeticError("element is not a unit")
        return out

    def power(self, a, e):
        return power(self.mul, self.inv, self.one, a, e)

    def order(self) -> int:
        out = 1
        for c in self.rel.basis.cols:
            r = next(i for i, e in enumerate(c) if e)
            out *= c[r]
        return out

    def elements(self):
        """All canonical representatives (the HNF box)."""
        diag = []
        for c in self.rel.basis.cols:
            r = next(i for i, e in enumerate(c) if e)
            diag.append((r, c[r]))
        diag.sort()
        assert [r for r, _ in diag] == list(range(self.ngens))
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
    closed under multiplication by the ring."""

    def __init__(self, ring: FiniteRing, lattice: Lattice, check=True):
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
        gens = [list(c) for c in ring.rel.basis.cols]
        gens += [list(e) for e in elems]
        lat = Lattice(ring.ngens, gens)
        while True:
            extra = []
            for b in lat.basis.cols:
                for j in range(ring.ngens):
                    v = table_mul_basis(ring.table, b, j)
                    if not lat.contains(v):
                        extra.append(v)
            if not extra:
                return cls(ring, lat, check=False)
            lat = Lattice(ring.ngens, [list(c) for c in lat.basis.cols] + extra)

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
        ring = self.ring
        gens = [list(c) for c in ring.rel.basis.cols]
        for a in self.lattice.basis.cols:
            for b in other.lattice.basis.cols:
                gens.append(table_mul(ring.table, a, b))
        return RingIdeal(ring, Lattice(ring.ngens, gens), check=False)

    def __eq__(self, other):
        return isinstance(other, RingIdeal) and self.lattice == other.lattice


# ---------------------------------------------------------------------------
# additive quotient presentations


def quotient_presentation(ring: FiniteRing, big: RingIdeal, small: RingIdeal) -> EffPresentation:
    """Efficient presentation of the additive group big/small.

    Generators are the basis vectors of the big lattice; the discrete
    log is an exact integer linear solve against the generators and the
    small lattice.
    """
    if not all(big.contains(c) for c in small.lattice.basis.cols):
        raise ValueError("quotient requires small <= big")
    gens = tuple(ring.reduce(c) for c in big.lattice.basis.cols)
    gmat = IntMatrix(ring.ngens, [list(c) for c in big.lattice.basis.cols])
    rels = tuple(
        tuple(c) for c in preimage_lattice(gmat, small.lattice).basis.cols
    )
    ops = GroupOps(
        mul=ring.add,
        inv=ring.neg,
        identity=ring.zero(),
        eq=lambda a, b: small.contains([x - y for x, y in zip(a, b)]),
    )
    solver = gmat.hstack(small.lattice.basis)

    def dlog(y):
        if not big.contains(y):
            return None
        sol = solve_int(solver, list(y))
        if sol is None:
            return None
        return sol[: gmat.ncols]

    return EffPresentation(ops=ops, gens=gens, rels=rels, dlog=dlog)


# ---------------------------------------------------------------------------
# unipotent groups 1 + I


@dataclass
class Filtration:
    """Ideal powers I, I^2, I^4, ... with layer generating sets.

    levels[i] is (ideal I^(2^i), B_i) where B_i lifts a minimal
    generating set of the additive layer I^(2^i)/I^(2^(i+1)); the last
    listed level has I^(2^(i+1)) = 0.
    """

    ring: FiniteRing
    levels: List[tuple]

    @property
    def all_gens(self):
        out = []
        for _, bs in self.levels:
            out.extend(bs)
        return out


def filtration_generators(ring: FiniteRing, ideal: RingIdeal) -> Filtration:
    """Build the square filtration; error if the ideal is not nilpotent."""
    levels = []
    cur = ideal
    guard = ring.ngens.bit_length() + (ring.order().bit_length() if ring.ngens else 0) + 4
    while not cur.is_zero():
        nxt = cur.mul(cur)
        if nxt.lattice == cur.lattice:
            raise ValueError("ideal is not nilpotent")
        bs = _layer_generators(ring, cur, nxt)
        levels.append((cur, bs))
        cur = nxt
        guard -= 1
        if guard < 0:
            raise AssertionError("filtration did not terminate")
    return Filtration(ring=ring, levels=levels)


def _layer_generators(ring: FiniteRing, big: RingIdeal, small: RingIdeal):
    """Lift a Smith-form generating set of big/small into the ring."""
    coords = []
    for c in small.lattice.basis.cols:
        x = big.lattice.coords(list(c))
        assert x is not None
        coords.append(x)
    m = IntMatrix(big.lattice.rank, coords)
    from .linalg import snf  # local import to keep module top tidy

    d, u, v = snf(m)
    out = []
    for t in range(big.lattice.rank):
        dt = d.entry(t, t) if t < min(d.nrows, d.ncols) else 0
        if dt == 1:
            continue
        e = [int(i == t) for i in range(big.lattice.rank)]
        x = solve_int(u, e)
        assert x is not None
        out.append(ring.reduce(big.lattice.element(x)))
    return out


def unipotent_dlog(filtration: Filtration, x, start_level=0):
    """Exponents (m_b) over the filtration generators with
    1 + x = prod (1+b)^(m_b), for x in the level's ideal.

    Peels one additive layer per level: solve for the layer exponents,
    divide off the corresponding product, recurse into the next level.
    """
    ring = filtration.ring
    levels = filtration.levels[start_level:]
    if not levels:
        if tuple(x) != ring.zero():
            raise ValueError("element outside the unipotent group")
        return []
    if not levels[0][0].contains(x):
        raise ValueError("element outside the unipotent group")
    out = []
    cur = tuple(x)
    for li, (ideal, bs) in enumerate(levels):
        nxt = levels[li + 1][0].lattice if li + 1 < len(levels) else ring.rel
        bmat = IntMatrix(ring.ngens, [list(b) for b in bs])
        sol = solve_int(bmat.hstack(nxt.basis), list(cur))
        assert sol is not None, "layer generators do not generate the layer"
        ms = sol[: len(bs)]
        out.extend(ms)
        prod = ring.one
        for b, m in zip(bs, ms):
            if m:
                prod = ring.mul(prod, ring.power(ring.add(ring.one, b), -m))
        nxt_elem = ring.sub(ring.mul(ring.add(ring.one, cur), prod), ring.one)
        cur = nxt_elem
    assert cur == ring.zero(), "unipotent peeling left a residue"
    return out


def unipotent_relations(filtration: Filtration):
    """Defining relations of the map Z^B -> 1+I over the filtration
    generators B, by descending induction over the levels."""
    ring = filtration.ring
    levels = filtration.levels
    nlev = len(levels)
    rels_tail: List[List[int]] = []  # relations over generators of levels >= j
    for j in range(nlev - 1, -1, -1):
        ideal, bs = levels[j]
        nxt = levels[j + 1][0] if j + 1 < nlev else RingIdeal.zero(ring)
        bmat = IntMatrix(ring.ngens, [list(b) for b in bs])
        addrel = preimage_lattice(bmat, nxt.lattice)
        tail_len = sum(len(levels[t][1]) for t in range(j + 1, nlev))
        new_rels = []
        for n in addrel.basis.cols:
            prod = ring.one
            for b, e in zip(bs, n):
                if e:
                    prod = ring.mul(prod, ring.power(ring.add(ring.one, b), e))
            z = ring.sub(prod, ring.one)
            ms = unipotent_dlog(filtration, z, start_level=j + 1) if tail_len else []
            if not tail_len:
                assert z == ring.zero()
            new_rels.append(list(n) + [-m for m in ms])
        for r in rels_tail:
            new_rels.append([0] * len(bs) + r)
        rels_tail = new_rels
    return rels_tail


def unipotent_presentation(ring: FiniteRing, ideal: RingIdeal) -> EffPresentation:
    """Efficient presentation of the multiplicative group 1 + I."""
    filtration = filtration_generators(ring, ideal)
    gens = tuple(ring.add(ring.one, b) for b in filtration.all_gens)
    rels = tuple(tuple(r) for r in unipotent_relations(filtration))

    ops = GroupOps(mul=ring.mul, inv=ring.inv, identity=ring.one)

    def dlog(gamma):
        x = ring.sub(gamma, ring.one)
        if not ideal.contains(x):
            return None
        return unipotent_dlog(filtration, x)

    pres = EffPresentation(ops=ops, gens=gens, rels=rels, dlog=dlog)
    pres.verify_exact()
    if gens:
        assert pres.group_order() == ideal.size(), "unipotent group order mismatch"
    return pres
