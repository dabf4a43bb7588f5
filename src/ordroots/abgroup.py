"""Generic machinery for presented finite abelian groups.

A presentation carries its own discrete-logarithm callback, so "having a
presentation" means having generators, defining relations, *and* a way
to write arbitrary group elements over the generators.  The four
algorithms below (relations of a generating set, membership with
witness, induced presentation, kernel modulo a subgroup) are generic in
exactly that interface: they only multiply, raise to integer powers,
compare, and call the dlog.  Each element's dlog is taken once and
passed on: a subgroup presentation holds its targets' logs from the
build, membership takes the logs of gamma and of the targets once, and
the relation and witness checks read their products off those logs when
the presentation can (``EffPresentation.log_product``: on checked power
lists, the entries at the exponent sums).

Groups are multiplicative; an additive group is used through a GroupOps
adapter whose mul is addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

from .kernels import xgcd
from .linalg import IntMatrix, Lattice, image_int, invariant_factors, preimage_lattice


class NotInGroup(Exception):
    """An element fed to a presentation is outside the presented group."""


def power(mul, inv, one, x, e: int):
    """x^e by left-to-right square-and-multiply; a negative e inverts x
    first.  The loop starts at the leading bit, so x^1 is x itself and
    x^e takes bit_length(e) - 1 squarings plus one product per further
    set bit."""
    if e < 0:
        x = inv(x)
        e = -e
    if not e:
        return one
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


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
    """Element operations of an ambient abelian group: the product, the
    power x^e for an integer e of either sign, and the identity."""

    mul: Callable
    power: Callable
    identity: object

    def product(self, elems: Sequence, exps: Sequence[int]):
        """prod x^e over the nonzero exponents: the first such power times
        each further one, so no product by the identity; the identity
        when every exponent is zero."""
        acc = None
        for x, e in zip(elems, exps):
            if e:
                y = self.power(x, e)
                acc = y if acc is None else self.mul(acc, y)
        return self.identity if acc is None else acc


@dataclass(frozen=True)
class EffPresentation:
    """Generators, defining relations, and a discrete-log callback.

    Invariants: every relation multiplies out to the identity; dlog(g)
    returns an exponent vector over ``gens`` for every g in the group,
    or None for elements outside it; the relation vectors generate the
    full kernel of the evaluation map Z^gens -> G.

    ``relation_lattice``, the lattice the relations span, is built on
    first use and kept.  ``log_product``, when given, is prod t^e over
    elements t given by their dlogs: log_product(logs, exps) computes it
    from the exponents alone, with no further dlog or group product.
    """

    ops: GroupOps
    gens: tuple
    rels: tuple  # integer vectors in Z^gens
    dlog: Callable[[object], Optional[List[int]]]
    log_product: Optional[Callable] = None

    @cached_property
    def relation_lattice(self) -> Lattice:
        return Lattice(len(self.gens), [list(r) for r in self.rels])

    def evaluate(self, exps: Sequence[int]):
        return self.ops.product(self.gens, exps)

    def logged_product(self, elems, logs, exps: Sequence[int]):
        """prod elems^exps, where logs holds each element's dlog: from the
        logs when the presentation multiplies them out, else by the group
        operations."""
        if self.log_product is None:
            return self.ops.product(elems, exps)
        return self.log_product(logs, exps)

    def _full_rank_lattice(self) -> Lattice:
        lat = self.relation_lattice
        if lat.rank < len(self.gens):
            raise ValueError("relation lattice not of full rank; group infinite")
        return lat

    def group_order(self) -> int:
        """Order of the presented group: the index of the relation
        lattice, the product of its Hermite pivots."""
        return self._full_rank_lattice().pivot_product

    def invariant_factors(self) -> List[int]:
        """Nontrivial invariant factors of the group, ascending."""
        return [f for f in invariant_factors(self._full_rank_lattice().basis) if f != 1]

    def verify_exact(self):
        """Check the cheap structural invariants by multiplication."""
        for r in self.rels:
            got = self.evaluate(r)
            if got != self.ops.identity:
                raise AssertionError("relation does not hold")


def _dlogs(pres: EffPresentation, elems) -> List[List[int]]:
    logs = []
    for t in elems:
        v = pres.dlog(t)
        if v is None:
            raise NotInGroup("element not in the presented group")
        logs.append(list(v))
    return logs


def subgroup_relations(pres: EffPresentation, targets, logs=None) -> List[List[int]]:
    """Generators of all relations among ``targets`` in the group.

    The returned vectors, a canonical Hermite basis, generate
    {x in Z^targets : prod t^x = 1}: the preimage of the presentation's
    relation lattice under h, which writes each target over the
    presentation's generators.  ``logs`` are the targets' dlogs, the
    columns of h, when the caller holds them; each relation's product is
    read off them and checked to be 1.
    """
    targets = list(targets)
    if logs is None:
        logs = _dlogs(pres, targets)
    out = preimage_lattice(IntMatrix(len(pres.gens), logs), pres.relation_lattice)
    for u in out.basis.cols:
        got = pres.logged_product(targets, logs, u)
        if got != pres.ops.identity:
            raise AssertionError("computed relation does not multiply to 1")
    return [list(c) for c in out.basis.cols]


def membership_dlog(pres: EffPresentation, targets, gamma, logs=None):
    """Decide gamma in <targets> and return an exponent vector, or None.

    Raises NotInGroup when gamma (or a target) is not in the presented
    group at all, which is a different failure from gamma merely lying
    outside the subgroup.  gamma's dlog is taken once, the targets' too
    unless the caller passes them in ``logs``; the products of the
    relations and of the witness are read off these logs and checked.
    """
    targets = list(targets)
    nt = len(targets)
    gamma_log = pres.dlog(gamma)
    if gamma_log is None:
        raise NotInGroup("element not in the presented group")
    if logs is None:
        logs = _dlogs(pres, targets)
    rels = subgroup_relations(pres, targets + [gamma], list(logs) + [gamma_log])
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
    got = pres.logged_product(targets, logs, sol)
    if got != gamma:
        raise AssertionError("membership witness does not multiply back")
    return sol


def subgroup_presentation(pres: EffPresentation, targets) -> EffPresentation:
    """Efficient presentation of the subgroup generated by ``targets``.
    The targets' dlogs are taken once, here, and every query reuses them."""
    targets = tuple(targets)
    logs = _dlogs(pres, targets)
    rels = tuple(tuple(r) for r in subgroup_relations(pres, targets, logs))

    def dlog(gamma, _pres=pres, _targets=targets, _logs=logs):
        try:
            return membership_dlog(_pres, _targets, gamma, _logs)
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
