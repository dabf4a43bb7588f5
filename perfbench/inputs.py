"""Seeded inputs for the three workloads, built without the library.

Every input comes from a fixed pool built from CATALOGUE_SEED, and every
pool item has an answer frozen in ``expected.json``.  The pools are
built with this module's own integer and rational polynomial
arithmetic, so a change to the library under test can never change what
it is fed.

A pool is a list of segments.  Each segment holds one block: a fixed
number of items of each class, enough for one run's percentiles.  A run
plays block b from segment b mod (number of segments), in an order drawn
from the run seed, so every run holds the same work whatever its seed;
the seed decides the order in which it arrives.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Dict, Iterator, List

CATALOGUE_SEED = 20150909

# ---------------------------------------------------------------------------
# integer and rational polynomials, lowest degree first


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def poly_divmod(f, g):
    """Quotient and remainder of f by g (g's leading coefficient need not
    be 1 when the coefficients are Fractions)."""
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 1)
    while len(r) - 1 >= dg and any(r):
        c = r[-1] / g[-1] if isinstance(r[-1], Fraction) else r[-1] // g[-1]
        k = len(r) - 1 - dg
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] -= c * b
        r.pop()
        while len(r) > 1 and not r[-1]:
            r.pop()
    return q, r


def cyclotomic(n: int) -> List[int]:
    """Coefficients of the n-th cyclotomic polynomial."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f, r = poly_divmod(f, cyclotomic(d))
            assert not any(r)
    return f


def _strip(f):
    f = list(f)
    while len(f) > 1 and not f[-1]:
        f.pop()
    return f


def rpoly_inverse(f, m):
    """s with s * f = 1 modulo m over Q, for f coprime to m."""
    r0, r1 = _strip([Fraction(c) for c in f]), _strip([Fraction(c) for c in m])
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while any(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, _strip(r)
        s0, s1 = s1, _sub(s0, poly_mul(q, s1))
    assert len(r0) == 1, "not coprime"
    return [c / r0[0] for c in s0]


def _sub(f, g):
    n = max(len(f), len(g))
    return _strip([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
                   for i in range(n)])


def _mod(f, g):
    r = poly_divmod(_strip(f), g)[1]
    return r + [0] * (len(g) - 1 - len(r))


# ---------------------------------------------------------------------------
# order documents for Z[X]/(f)


def poly_document(f) -> str:
    """Canonical order document of Z[X]/(f), f monic, on the power basis."""
    n = len(f) - 1
    powers = [[int(i == k) for k in range(n)] for i in range(n)]
    cur = powers[-1]
    for _ in range(n - 1):
        # multiply by X and reduce with X^n = -(f_0 + ... + f_{n-1} X^{n-1})
        lead = cur[-1]
        cur = [0] + cur[:-1]
        cur = [c - lead * f[k] for k, c in enumerate(cur)]
        powers.append(cur)
    table = [str(powers[i + j][k])
             for i in range(n) for j in range(n) for k in range(n)]
    labels = ["1"] + [f"X^{i}" if i > 1 else "X" for i in range(1, n)]
    doc = {"labels": labels, "rank": n, "table": table}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pools


@dataclass(frozen=True)
class Item:
    """One input: its segment and class, its text as the library receives
    it, and what the generator knows about the answer: (f, roots) for an
    order, the reason a "no" query was built for."""

    segment: int
    cls: str
    text: str
    meta: tuple = ()


@dataclass
class Workload:
    kind: str  # "order" or "query"
    build: Callable[[], List[Item]]
    tail: int  # the tail percentile reported; a block has ten samples beyond it
    trace_ops: int  # operations run by the traced mode


LIGHT_D = (1, 2, 3, 4, 6)  # phi(d) <= 2
QUARTIC_D = (5, 8, 10, 12)  # phi(d) = 4
SEXTIC_D = (7, 9, 14, 18)  # phi(d) = 6


def _order_item(segment, cls, f, roots=None) -> Item:
    return Item(segment=segment, cls=cls, text=poly_document(f), meta=(tuple(f), roots))


def cyclotomic_pool() -> List[Item]:
    """Products of distinct cyclotomic polynomials, three segments of 100.

    light (82): every product of one to four factors with phi(d) <= 2,
    twice, and 22 more; quartic (16): one factor with phi(d) = 4, alone or
    with one of Phi_1, Phi_2, Phi_3; sextic (2): Phi_7 and one of Phi_9,
    Phi_14, Phi_18, which cost about the same.  A degree-6 factor comes alone:
    with a cofactor the cost explodes (X^7 - 1 takes six times as long
    as Phi_7)."""
    rng = random.Random(CATALOGUE_SEED)

    def poly(ds):
        f = [1]
        for d in ds:
            f = poly_mul(f, cyclotomic(d))
        return f

    light = [ds for k in range(1, 5) for ds in combinations(LIGHT_D, k)]
    quartic = [tuple(sorted(extra + (q,))) for q in QUARTIC_D
               for extra in [(), (1,), (2,), (3,)]]
    pool = []
    for seg, other in enumerate(SEXTIC_D[1:]):
        picks = [("light", ds) for ds in light * 2 + rng.sample(light, 22)]
        picks += [("quartic", ds) for ds in quartic]
        picks += [("sextic", (SEXTIC_D[0],)), ("sextic", (other,))]
        pool.extend(_order_item(seg, cls, poly(ds)) for cls, ds in picks)
    return pool


SPLIT_SPAN = 6  # roots drawn from [-SPLIT_SPAN, SPLIT_SPAN]
SPLIT_BLOCK = {6: 45, 7: 25, 8: 15, 9: 8, 10: 4, 11: 3}  # rank: orders per block
SPLIT_SEGMENTS = 2


def split_pool() -> List[Item]:
    """Z[X]/(prod (X - a_i)) with distinct integer roots a_i; every order
    of the pool is distinct.  Weighted towards low rank: a rank-11 order
    costs about fifteen rank-6 ones."""
    rng = random.Random(CATALOGUE_SEED)
    seen = set()
    pool = []
    for seg in range(SPLIT_SEGMENTS):
        for r, count in SPLIT_BLOCK.items():
            made = 0
            while made < count:
                roots = tuple(sorted(rng.sample(range(-SPLIT_SPAN, SPLIT_SPAN + 1), r)))
                if roots in seen:
                    continue
                seen.add(roots)
                made += 1
                f = [1]
                for a in roots:
                    f = poly_mul(f, [-a, 1])
                pool.append(_order_item(seg, f"rank{r}", f, roots))
    return pool


# -- dlog-serve: the rational algebra Q[X]/(X^12 - 1) and small finite rings

SERVE_N = 12
SERVE_POLY = [-1] + [0] * (SERVE_N - 1) + [1]
SERVE_DIVISORS = tuple(d for d in range(1, SERVE_N + 1) if SERVE_N % d == 0)

# (label, p, k): Z/p^k with I = (p); (label, p, m): F_p[e]/(e^m) with I = (e)
UNIPOTENT_RINGS = (
    ("zmod", 2, 24),
    ("zmod", 3, 14),
    ("eps", 2, 12),
    ("eps", 3, 8),
    ("eps", 5, 6),
)


class TorsionAlgebra:
    """Roots of unity of Q[X]/(X^N - 1) through the Chinese remainder
    theorem: component d is Q(zeta_d), whose roots of unity are the
    powers of c_d = -X (d odd, order 2d) or c_d = X (d even, order d)."""

    def __init__(self):
        F = [Fraction(c) for c in SERVE_POLY]
        self.orders = [2 * d if d % 2 else d for d in SERVE_DIVISORS]
        # parts[i][a]: the element that is c_d^a at component i and 0 elsewhere
        self.parts = []
        for d, w in zip(SERVE_DIVISORS, self.orders):
            phi = [Fraction(c) for c in cyclotomic(d)]
            cof = poly_divmod(F, phi)[0]
            idem = _mod(poly_mul(cof, rpoly_inverse(cof, phi)), F)
            base = [Fraction(0), Fraction(-1 if d % 2 else 1)]
            val = [Fraction(1)]
            row = []
            for _ in range(w):
                part = _mod(poly_mul(idem, val), F)
                assert all((c * SERVE_N).denominator == 1 for c in part)
                row.append([int(c * SERVE_N) for c in part])
                val = _mod(poly_mul(val, base), phi)
            self.parts.append(row)

    def element(self, exps):
        """Numerators over SERVE_N of the element equal to c_d^exps[d] at
        every component d."""
        out = [0] * SERVE_N
        for row, e in zip(self.parts, exps):
            out = [a + b for a, b in zip(out, row[e])]
        return out

    def random_exps(self, rng):
        return [rng.randrange(w) for w in self.orders]


def _vector(nums, scale=Fraction(1)):
    """Coordinate strings of scale * nums / SERVE_N."""
    out = []
    for n in nums:
        c = scale * n
        num, den = c.numerator, c.denominator * SERVE_N
        g = gcd(num, den)
        num, den = num // g, den // g
        out.append(str(num) if den == 1 else f"{num}/{den}")
    return out


SERVE_BLOCK = {"mue-yes": 300, "mue-nis": 50, "mue-nor": 50, "mua-yes": 250, "mua-no": 50,
               "unip-yes": 250, "unip-no": 50}
SERVE_SEGMENTS = 2


def serve_pool() -> List[Item]:
    """Discrete-log queries against Z[X]/(X^12 - 1) and the unipotent
    rings, two segments of 1000, a fifth of them built as "no".

    mue-*: membership of an element in a subgroup of the rational torsion
    (``mu_e_subgroup_dlog``); mua-*: membership in the order's torsion
    (``MuAPresentation.pres.dlog``); unip-*: discrete logs in 1 + I."""
    rng = random.Random(CATALOGUE_SEED)
    tor = TorsionAlgebra()
    ncomp = len(SERVE_DIVISORS)

    def mue(cls):
        targets = [tor.random_exps(rng) for _ in range(rng.randint(1, 3))]
        if cls == "mue-yes":
            xs = [rng.randrange(SERVE_N) for _ in targets]
            zeta = [sum(x * t[i] for x, t in zip(xs, targets)) % tor.orders[i]
                    for i in range(ncomp)]
            elem, meta = _vector(tor.element(zeta)), ()
        elif cls == "mue-nis":
            # every component order is even: a zeta whose exponent at
            # component i0 is odd lies outside any subgroup with even
            # exponents there
            i0 = rng.randrange(ncomp)
            for t in targets:
                t[i0] -= t[i0] % 2
            zeta = tor.random_exps(rng)
            zeta[i0] |= 1
            elem, meta = _vector(tor.element(zeta)), ("not-in-subgroup",)
        else:
            scale = rng.choice([Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2),
                                Fraction(3, 2)])
            elem = _vector(tor.element(tor.random_exps(rng)), scale)
            meta = ("not-root-of-unity",)
        return {"kind": "mue", "targets": [_vector(tor.element(t)) for t in targets],
                "element": elem}, meta

    def mua(cls):
        if cls == "mua-yes":
            # the order's torsion is {+-X^k}
            v = [0] * SERVE_N
            v[rng.randrange(SERVE_N)] = rng.choice([1, -1])
            return {"kind": "mua", "element": [str(c) for c in v]}, ()
        while True:
            v = tor.element(tor.random_exps(rng))
            if any(c % SERVE_N for c in v):  # not integral, so not in the order
                return {"kind": "mua", "element": _vector(v)}, ("not-in-order",)

    def unip(cls):
        member = cls == "unip-yes"
        r = rng.randrange(len(UNIPOTENT_RINGS))
        kind, p, k = UNIPOTENT_RINGS[r]
        if kind == "zmod":
            x = p * rng.randrange(p ** (k - 1)) + (0 if member else rng.randrange(1, p))
            elem = [(1 + x) % p ** k]
        else:
            coeffs = [0 if member else rng.randrange(1, p)]
            coeffs += [rng.randrange(p) for _ in range(k - 1)]
            elem = [(1 + coeffs[0]) % p] + coeffs[1:]
        return {"kind": "unip", "ring": r, "element": elem}, \
            () if member else ("not-in-unipotent-group",)

    makers = {"mue": mue, "mua": mua, "unip": unip}
    pool = []
    for seg in range(SERVE_SEGMENTS):
        for cls, count in SERVE_BLOCK.items():
            for _ in range(count):
                doc, meta = makers[cls.split("-")[0]](cls)
                pool.append(Item(segment=seg, cls=cls, text=json.dumps(doc, sort_keys=True),
                                 meta=meta))
    return pool


WORKLOADS = {
    "cyclotomic-mix": Workload("order", cyclotomic_pool, tail=90, trace_ops=50),
    "split-rank": Workload("order", split_pool, tail=90, trace_ops=50),
    "dlog-serve": Workload("query", serve_pool, tail=99, trace_ops=200),
}


def build_pool(name: str) -> List[Item]:
    return WORKLOADS[name].build()


def pool_digest(pool: List[Item]) -> str:
    h = hashlib.sha256()
    for item in pool:
        h.update(f"{item.segment}\0{item.cls}\0{item.text}\0".encode())
    return h.hexdigest()


def stream(pool: List[Item], seed: int) -> Iterator[List[int]]:
    """Endless blocks of pool indices for one run seed: block b is segment
    b mod (number of segments), shuffled."""
    rng = random.Random(seed)
    segments: Dict[int, List[int]] = {}
    for i, item in enumerate(pool):
        segments.setdefault(item.segment, []).append(i)
    order = [segments[s] for s in sorted(segments)]
    b = 0
    while True:
        block = list(order[b % len(order)])
        rng.shuffle(block)
        yield block
        b += 1
