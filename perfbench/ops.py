"""The timed operations of each workload and the checks on their answers.

An operation takes the text of one input, calls the library's public
API and returns the canonical answer text.  ``Checker`` runs outside the
timed region: it compares the answer with the digest frozen in
``expected.json`` and re-derives it by an independent route.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from typing import List, Optional

from ordroots import finitering, linalg, ordercore, orderdoc, rou

import inputs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations


def order_op(state, text: str):
    """Idempotents and torsion units of one order document, as the CLI's
    ``idempotents`` and ``units`` commands compute them on one context."""
    order, _ = orderdoc.parse_order_document(text)
    ctx = ordercore.build_context(order)
    idems = ordercore.primitive_idempotents_ctx(ctx)
    pres = rou.mu_a_presentation(ctx)
    doc = {
        "idempotents": [orderdoc.format_vector(e) for e in idems],
        "generators": [orderdoc.format_vector(g) for g in pres.generators],
        "relations": [[str(e) for e in r] for r in pres.relations],
        "invariant_factors": [str(f) for f in pres.invariant_factors],
        "group_order": str(pres.group_order),
    }
    return orderdoc.dump_canonical(doc), (order, idems, pres)


class ServeState:
    """Everything the query stream needs, built once in set-up."""

    def __init__(self):
        self.order, _ = orderdoc.parse_order_document(inputs.poly_document(inputs.SERVE_POLY))
        self.ctx = ordercore.build_context(self.order)
        self.mua = rou.mu_a_presentation(self.ctx)
        self.rings = []
        for kind, p, k in inputs.UNIPOTENT_RINGS:
            if kind == "zmod":
                ring = finitering.FiniteRing(linalg.Lattice(1, [[p ** k]]), [[[1]]], [1])
                gen = (p,)
            else:
                table = [[[int(t == i + j) for t in range(k)] for j in range(k)]
                         for i in range(k)]
                rel = linalg.Lattice(k, [[p * (i == j) for i in range(k)] for j in range(k)])
                ring = finitering.FiniteRing(rel, table, [1] + [0] * (k - 1))
                gen = tuple(int(i == 1) for i in range(k))
            ideal = finitering.RingIdeal.generated_by(ring, [gen])
            self.rings.append(finitering.unipotent_presentation(ring, ideal))


def query_op(state: ServeState, text: str):
    """One discrete-log query; the answer is a membership verdict with
    exponents, or a "no" with the library's reason where it gives one."""
    q = json.loads(text)
    kind = q["kind"]
    reason = None
    if kind == "mue":
        n = state.order.rank
        targets = [orderdoc.parse_vector(t, n) for t in q["targets"]]
        elem = orderdoc.parse_vector(q["element"], n)
        sol, reason = rou.mu_e_subgroup_dlog(state.ctx, targets, elem)
    elif kind == "mua":
        elem = orderdoc.parse_vector(q["element"], state.order.rank)
        sol = state.mua.pres.dlog(state.ctx.to_ambient(elem))
    else:
        pres = state.rings[q["ring"]]
        elem = orderdoc.parse_vector(q["element"], len(q["element"]))
        sol = pres.dlog(tuple(int(c) for c in elem))
    if sol is None:
        doc = {"member": False}
        if reason is not None:
            doc["reason"] = reason
    else:
        doc = {"member": True, "exponents": [str(e) for e in sol]}
    return orderdoc.dump_canonical(doc), (q, sol, reason)


# ---------------------------------------------------------------------------
# independent checks


def split_idempotent_count(roots) -> int:
    """Monic divisors g of prod (X - a) with resultant(g, f/g) = +-1, by
    the closed form of the resultant of two split polynomials.  Counts
    the same set as ``idempotent_divisor_oracle`` without factoring."""
    n = len(roots)
    count = 0
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            inside = set(sub)
            r = 1
            for i in inside:
                for j in range(n):
                    if j not in inside:
                        r *= roots[i] - roots[j]
            count += r in (1, -1)
    return count


def _order_power(order, x, e: int):
    return _product(order.mul, order.one, [x], [e])


def _cyclic_mul(x, y):
    """Product in Q[X]/(X^n - 1) on the power basis."""
    n = len(x)
    out = [0] * n
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[(i + j) % n] += a * b
    return out


def _product(mul, one, gens, exps):
    """prod gens^exps by square-and-multiply; exponents are nonnegative."""
    acc = one
    for g, e in zip(gens, exps):
        while e:
            if e & 1:
                acc = mul(acc, g)
            g = mul(g, g)
            e >>= 1
    return acc


def _unipotent_mul(spec, x, y):
    kind, p, k = spec
    if kind == "zmod":
        return [x[0] * y[0] % p ** k]
    out = [0] * k
    for i, a in enumerate(x):
        for j, b in enumerate(y[: k - i]):
            out[i + j] = (out[i + j] + a * b) % p
    return out


class Checker:
    """Counts wrong answers of one run against the frozen digests and the
    independent checks."""

    def __init__(self, kind: str, answers: Optional[List[str]], state=None):
        self.kind = kind  # "order" or "query"
        self.answers = answers  # frozen digests by pool index; None while freezing
        self.state = state  # the ServeState of dlog-serve
        self.failures: List[str] = []

    def fail(self, index: int, why: str):
        self.failures.append(f"pool item {index}: {why}")

    def check(self, index: int, item: inputs.Item, text: Optional[str], extra, error=None):
        if error is not None:
            self.fail(index, f"raised {type(error).__name__}: {error}")
            return
        if self.answers is not None and digest(text) != self.answers[index]:
            self.fail(index, "answer differs from the frozen one")
            return
        try:
            why = self._check_order(item, extra) if self.kind == "order" \
                else self._check_query(item, extra)
        except Exception as e:  # a check that cannot run counts as a failure
            why = f"check raised {type(e).__name__}: {e}"
        if why:
            self.fail(index, why)

    def _check_order(self, item, extra) -> Optional[str]:
        order, idems, pres = extra
        f, roots = item.meta
        w = pres.invariant_factors[-1] if pres.invariant_factors else 1
        gens = [tuple(g) for g in pres.generators]
        for g in gens:
            if _order_power(order, g, w) != order.one:
                return "torsion generator does not multiply to 1"
        for r in pres.relations:
            acc = order.one
            for g, e in zip(gens, r):
                acc = order.mul(acc, _order_power(order, g, e % w))
            if acc != order.one:
                return "relation does not multiply to 1"
        prod = 1
        for q in pres.invariant_factors:
            prod *= q
        if prod != pres.group_order:
            return "group order is not the product of the invariant factors"
        if roots is not None:
            expected = split_idempotent_count(roots)
        else:
            expected = len(ordercore.idempotent_divisor_oracle(list(f)))
        if 2 ** len(idems) != expected:
            return f"{len(idems)} primitive idempotents, oracle counts {expected} idempotents"
        return None

    def _check_query(self, item, extra) -> Optional[str]:
        q, sol, reason = extra
        member = item.cls.endswith("-yes")
        if sol is None:
            if member:
                return "a member was answered no"
            if q["kind"] == "mue" and reason != item.meta[0]:
                return f"reason {reason!r}, built as {item.meta[0]!r}"
            return None
        if not member:
            return "a non-member was answered yes"
        if q["kind"] == "unip":
            spec = inputs.UNIPOTENT_RINGS[q["ring"]]
            _, p, k = spec
            size = p ** (k - 1)  # |1 + I|: every exponent can be reduced mod it
            gens = [list(g) for g in self.state.rings[q["ring"]].gens]
            one = [1] + [0] * (len(q["element"]) - 1)
            got = _product(lambda x, y: _unipotent_mul(spec, x, y), one, gens,
                           [e % size for e in sol])
            want = list(q["element"])
        else:
            # every root of unity of Q[X]/(X^12 - 1) has order dividing 12
            if q["kind"] == "mue":
                gens = [[Fraction(c) for c in t] for t in q["targets"]]
            else:
                gens = [list(g) for g in self.state.mua.generators]
            one = [1] + [0] * (inputs.SERVE_N - 1)
            got = _product(_cyclic_mul, one, gens, [e % inputs.SERVE_N for e in sol])
            want = [Fraction(c) for c in q["element"]]
        if got != want:
            return "exponents do not multiply back to the query element"
        return None
