"""Finite commutative rings by additive presentation, and the discrete
logarithm machinery for unipotent groups 1 + I with I nilpotent.

A ring on k additive generators is a full-rank relation lattice in Z^k
plus a multiplication table for generator pairs.  Elements are the
canonical coset representatives modulo the relation lattice, so equality
is tuple comparison.

The unipotent machinery works along the filtration 1+I, 1+I^2, 1+I^4,
... whose layers are isomorphic to the additive groups I^(2^i)/I^(2^(i+1))
via x -> 1+x; discrete logs peel one layer at a time, and relations are
assembled by descending induction over the layers.  A discrete log is
asked for many times against one filtration, so the filtration holds
what every peel needs: one prepared integer solver per level and the
inverse of each layer generator 1+b, summed as the finite series
sum (-b)^i because b is nilpotent.  Peeling then multiplies and reduces,
and runs no Hermite form and no general unit inverse.

Self-checks raise AssertionError explicitly, so they also run under
``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .abgroup import EffPresentation, GroupOps, power
from .linalg import (
    IntMatrix,
    IntSolver,
    Lattice,
    lattice_index,
    preimage_lattice,
    snf,
    solve_int,
)
from .qalgebra import check_table, table_mul, table_mul_basis


class FiniteRing:
    """Commutative ring, finite as an additive group."""

    def __init__(self, rel_lattice: Lattice, mult_table, one_coords):
        k = rel_lattice.dim
        if rel_lattice.rank != k:
            raise ValueError("relation lattice must have full rank (finite ring)")
        self.ngens = k
        self.rel = rel_lattice
        self.table = tuple(
            tuple(tuple(int(e) for e in cell) for cell in row) for row in mult_table
        )
        self.one = self.reduce(one_coords)
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
        return tuple(self.rel.reduce(v))

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
        for c, r in zip(self.rel.basis.cols, self.rel.pivots):
            out *= c[r]
        return out

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
        """The ideal generated by ``elems``: spanned by the relation
        lattice and the products e * e_j with the ring's generators,
        which contain e = e * 1 because the ring has an identity.  The
        constructor's check verifies the closure."""
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
        ring = self.ring
        gens = [list(c) for c in ring.rel.basis.cols]
        for a in self.lattice.basis.cols:
            for b in other.lattice.basis.cols:
                gens.append(table_mul(ring.table, a, b))
        return RingIdeal(ring, Lattice(ring.ngens, gens), check=False)

    def __eq__(self, other):
        return isinstance(other, RingIdeal) and self.lattice == other.lattice


# ---------------------------------------------------------------------------
# unipotent groups 1 + I


def series_inverse(ring: FiniteRing, b, terms: int):
    """(1 + b)^-1 = sum (-b)^i for i < terms, where b^terms = 0.

    The series stops at its first zero term and needs no linear algebra;
    one product checks the result.
    """
    zero = ring.zero()
    nb = ring.neg(b)
    acc, term = ring.one, nb
    for _ in range(terms - 1):
        if term == zero:
            break
        acc = ring.add(acc, term)
        term = ring.mul(term, nb)
    if ring.mul(ring.add(ring.one, b), acc) != ring.one:
        raise AssertionError("nilpotent series is not the inverse of 1 + b")
    return acc


@dataclass
class Filtration:
    """Ideal powers I, I^2, I^4, ... with layer generating sets.

    levels[i] is (ideal I^(2^i), B_i) where B_i lifts a minimal
    generating set of the additive layer I^(2^i)/I^(2^(i+1)); the last
    listed level has I^(2^(i+1)) = 0.

    Built once, read by every discrete log: ``solvers[i]`` solves over
    the fixed matrix [B_i | I^(2^(i+1))], so a layer costs no Hermite
    form; ``units[i]`` and ``inverses[i]`` are 1 + b and its series
    inverse for each b in B_i, so peeling needs no unit inverse.
    ``terms`` = 2^len(levels) bounds the nilpotency index of I.
    """

    ring: FiniteRing
    levels: List[tuple]
    solvers: List[IntSolver] = field(init=False, repr=False)
    units: List[list] = field(init=False, repr=False)
    inverses: List[list] = field(init=False, repr=False)
    terms: int = field(init=False)

    def __post_init__(self):
        ring = self.ring
        self.terms = 1 << len(self.levels)
        self.solvers, self.units, self.inverses = [], [], []
        for li, (_, bs) in enumerate(self.levels):
            nxt = self.levels[li + 1][0].lattice if li + 1 < len(self.levels) else ring.rel
            bmat = IntMatrix(ring.ngens, [list(b) for b in bs])
            self.solvers.append(IntSolver(bmat.hstack(nxt.basis)))
            self.units.append([ring.add(ring.one, b) for b in bs])
            self.inverses.append([series_inverse(ring, b, self.terms) for b in bs])

    def layer_product(self, li, exps, acc):
        """acc * prod (1 + b)^e over the generators b of level li; a
        negative e raises the stored inverse."""
        ring = self.ring
        for u, u_inv, e in zip(self.units[li], self.inverses[li], exps):
            if e > 0:
                acc = ring.mul(acc, ring.power(u, e))
            elif e < 0:
                acc = ring.mul(acc, ring.power(u_inv, -e))
        return acc


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
        x = big.lattice.coords(c)
        if x is None:
            raise AssertionError("small ideal is not inside the big one")
        coords.append(x)
    m = IntMatrix(big.lattice.rank, coords)
    d, u, _ = snf(m)
    u_solver = IntSolver(u)
    out = []
    for t in range(big.lattice.rank):
        dt = d.entry(t, t) if t < min(d.nrows, d.ncols) else 0
        if dt == 1:
            continue
        x = u_solver.solve([int(i == t) for i in range(big.lattice.rank)])
        if x is None:
            raise AssertionError("Smith transform is not unimodular")
        out.append(ring.reduce(big.lattice.element(x)))
    return out


def unipotent_dlog(filtration: Filtration, x, start_level=0):
    """Exponents (m_b) over the filtration generators with
    1 + x = prod (1+b)^(m_b), for x in the level's ideal.

    Peels one additive layer per level: solve for the layer exponents
    with the level's solver, divide off the corresponding product
    through the stored inverses, go on to the next level.
    """
    ring = filtration.ring
    levels = filtration.levels
    if start_level >= len(levels):
        if tuple(x) != ring.zero():
            raise ValueError("element outside the unipotent group")
        return []
    if not levels[start_level][0].contains(x):
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
        cur = ring.sub(unit, ring.one)
    if cur != ring.zero():
        raise AssertionError("unipotent peeling left a residue")
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
            z = ring.sub(filtration.layer_product(j, n, ring.one), ring.one)
            if not tail_len and z != ring.zero():
                raise AssertionError("last-level relation does not multiply to 1")
            ms = unipotent_dlog(filtration, z, start_level=j + 1) if tail_len else []
            new_rels.append(list(n) + [-m for m in ms])
        for r in rels_tail:
            new_rels.append([0] * len(bs) + r)
        rels_tail = new_rels
    return rels_tail


def unipotent_presentation(ring: FiniteRing, ideal: RingIdeal) -> EffPresentation:
    """Efficient presentation of the multiplicative group 1 + I."""
    filtration = filtration_generators(ring, ideal)
    gens = tuple(u for units in filtration.units for u in units)
    rels = tuple(tuple(r) for r in unipotent_relations(filtration))

    def inv(gamma):
        x = ring.sub(gamma, ring.one)
        if not ideal.contains(x):
            raise ValueError("element outside the unipotent group")
        return series_inverse(ring, x, filtration.terms)

    ops = GroupOps(mul=ring.mul, inv=inv, identity=ring.one)

    def dlog(gamma):
        x = ring.sub(gamma, ring.one)
        if not ideal.contains(x):
            return None
        return unipotent_dlog(filtration, x)

    pres = EffPresentation(ops=ops, gens=gens, rels=rels, dlog=dlog)
    pres.verify_exact()
    if gens and pres.group_order() != ideal.size():
        raise AssertionError("unipotent group order mismatch")
    return pres
