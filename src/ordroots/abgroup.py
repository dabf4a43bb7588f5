"""Generic machinery for presented finite abelian groups.

A presentation carries its own discrete-logarithm callback, so "having a
presentation" means having generators, defining relations, *and* a way
to write arbitrary group elements over the generators.  The four
algorithms below (relations of a generating set, membership with
witness, induced presentation, kernel modulo a subgroup) are generic in
exactly that interface: they only multiply, invert, compare, and call
the dlog.

Groups are multiplicative; an additive group is used through a GroupOps
adapter whose mul is addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from .kernels import xgcd
from .linalg import IntMatrix, Lattice, image_int, invariant_factors, kernel_int


class NotInGroup(Exception):
    """An element fed to a presentation is outside the presented group."""


def power(mul, inv, one, x, e: int):
    """x^e by square-and-multiply; a negative e inverts x first."""
    if e < 0:
        x = inv(x)
        e = -e
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        e >>= 1
    return acc


def cyclic_dlog(mul, one, gen, order, x):
    """Least a in [0, order) with one * gen^a == x, or None."""
    acc = one
    for a in range(order):
        if acc == x:
            return a
        acc = mul(acc, gen)
    return None


def cyclic_order(mul, one, x, bound):
    """Multiplicative order of x if at most bound, else None."""
    a = cyclic_dlog(mul, x, x, bound, one)
    return None if a is None else a + 1


def cyclic_powers(mul, one, gen):
    """[1, gen, gen^2, ...] up to the first power equal to 1."""
    out = [one]
    acc = gen
    while acc != one:
        out.append(acc)
        acc = mul(acc, gen)
    return out


def cyclic_relations(orders) -> tuple:
    """Defining relations of a product of cyclic groups of the given orders."""
    rels = []
    for i, w in enumerate(orders):
        r = [0] * len(orders)
        r[i] = w
        rels.append(tuple(r))
    return tuple(rels)


@dataclass(frozen=True)
class GroupOps:
    """Element operations of an ambient abelian group."""

    mul: Callable
    inv: Callable
    identity: object
    eq: Callable = field(default=lambda a, b: a == b)

    def power(self, x, e: int):
        return power(self.mul, self.inv, self.identity, x, e)

    def product(self, elems: Sequence, exps: Sequence[int]):
        acc = self.identity
        for x, e in zip(elems, exps):
            if e:
                acc = self.mul(acc, self.power(x, e))
        return acc


@dataclass(frozen=True)
class EffPresentation:
    """Generators, defining relations, and a discrete-log callback.

    Invariants: every relation multiplies out to the identity; dlog(g)
    returns an exponent vector over ``gens`` for every g in the group,
    or None for elements outside it; the relation vectors generate the
    full kernel of the evaluation map Z^gens -> G.
    """

    ops: GroupOps
    gens: tuple
    rels: tuple  # integer vectors in Z^gens
    dlog: Callable[[object], Optional[List[int]]]

    def evaluate(self, exps: Sequence[int]):
        return self.ops.product(self.gens, exps)

    def relation_lattice(self) -> Lattice:
        return Lattice(len(self.gens), [list(r) for r in self.rels])

    def group_order(self) -> int:
        """Order of the presented group (via the Smith form)."""
        n = len(self.gens)
        lat = self.relation_lattice()
        if lat.rank < n:
            raise ValueError("relation lattice not of full rank; group infinite")
        facs = invariant_factors(lat.basis)
        out = 1
        for f in facs:
            out *= f
        return out

    def invariant_factors(self) -> List[int]:
        """Nontrivial invariant factors of the group, ascending."""
        lat = self.relation_lattice()
        if lat.rank < len(self.gens):
            raise ValueError("relation lattice not of full rank; group infinite")
        return [f for f in invariant_factors(lat.basis) if f != 1]

    def verify_exact(self):
        """Check the cheap structural invariants by multiplication."""
        for r in self.rels:
            got = self.evaluate(r)
            if not self.ops.eq(got, self.ops.identity):
                raise AssertionError("relation does not hold")


def _dlog_columns(pres: EffPresentation, elems) -> IntMatrix:
    cols = []
    for t in elems:
        v = pres.dlog(t)
        if v is None:
            raise NotInGroup("element not in the presented group")
        cols.append(list(v))
    return IntMatrix(len(pres.gens), cols)


def subgroup_relations(pres: EffPresentation, targets) -> List[List[int]]:
    """Generators of all relations among ``targets`` in the group.

    The returned vectors generate {x in Z^targets : prod t^x = 1}.
    Found as the projection of the kernel of [h | -rho], where h writes
    each target over the presentation's generators and rho spans the
    presentation's relations.
    """
    targets = list(targets)
    nt = len(targets)
    h = _dlog_columns(pres, targets)
    rho = IntMatrix(len(pres.gens), [[-e for e in r] for r in pres.rels])
    ker = kernel_int(h.hstack(rho))
    proj = [c[:nt] for c in ker.basis.cols]
    out = image_int(IntMatrix(nt, proj))
    for u in out.basis.cols:
        got = pres.ops.product(targets, u)
        if not pres.ops.eq(got, pres.ops.identity):
            raise AssertionError("computed relation does not multiply to 1")
    return [list(c) for c in out.basis.cols]


def membership_dlog(pres: EffPresentation, targets, gamma):
    """Decide gamma in <targets> and return an exponent vector, or None.

    Raises NotInGroup when gamma (or a target) is not in the presented
    group at all, which is a different failure from gamma merely lying
    outside the subgroup.
    """
    targets = list(targets)
    nt = len(targets)
    if pres.dlog(gamma) is None:
        raise NotInGroup("element not in the presented group")
    rels = subgroup_relations(pres, targets + [gamma])
    # Bezout combination over the gamma-components
    g = 0
    comb = [0] * (nt + 1)
    for u in rels:
        if u[nt] == 0:
            continue
        g, x, y = xgcd(g, u[nt])
        comb = [x * a + y * b for a, b in zip(comb, u)]
    if g != 1:
        return None
    sol = [-e for e in comb[:nt]]
    got = pres.ops.product(targets, sol)
    if not pres.ops.eq(got, gamma):
        raise AssertionError("membership witness does not multiply back")
    return sol


def subgroup_presentation(pres: EffPresentation, targets) -> EffPresentation:
    """Efficient presentation of the subgroup generated by ``targets``."""
    targets = tuple(targets)
    rels = tuple(tuple(r) for r in subgroup_relations(pres, targets))

    def dlog(gamma, _pres=pres, _targets=targets):
        try:
            return membership_dlog(_pres, _targets, gamma)
        except NotInGroup:
            return None

    return EffPresentation(ops=pres.ops, gens=targets, rels=rels, dlog=dlog)


def kernel_mod_subgroup(pres: EffPresentation, targets, modulo) -> List[List[int]]:
    """Generators of {x in Z^targets : prod t^x lies in <modulo>}."""
    targets = list(targets)
    modulo = list(modulo)
    nt = len(targets)
    combined = subgroup_relations(pres, targets + modulo)
    proj = [u[:nt] for u in combined]
    out = image_int(IntMatrix(nt, proj))
    return [list(c) for c in out.basis.cols]
