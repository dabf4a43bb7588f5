"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run pytest with
-s to see them on success).  Everything is exact: integer equality,
lattice equality through canonical Hermite forms, set equality of
enumerated groups.  The two end-to-end criteria also enforce their
wall-clock budgets.
"""

import random
import time
from itertools import combinations

from ordroots.finitering import (
    FiniteRing,
    RingIdeal,
    filtration_generators,
    unipotent_dlog,
    unipotent_presentation,
)
from ordroots.abgroup import kernel_mod_subgroup, membership_dlog, subgroup_relations
from ordroots.linalg import Lattice
from ordroots.ordercore import (
    Order,
    build_context,
    build_saturation,
    graph_mod_p,
    idempotent_divisor_oracle,
    mu_c_p_presentation,
    order_from_poly,
    primitive_idempotents,
)
from ordroots.orderdoc import parse_order_document, dump_canonical, poly_order_document
from ordroots.polyfactor import cyclotomic, qp_mul
from ordroots.rou import conductor, mu_a_generators, mu_a_presentation, psi_kernel
from util import (
    brute_closure,
    brute_force_torsion_in_order,
    dense_table,
    diagonal_congruence_suborder,
    divisor_idempotent,
    product_order,
    quotient_coset_normalizer,
    random_presented_group,
    ring_power,
    scalar_suborder,
    schreier_kernel,
    unit_inverse,
)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


Z_TABLE = [[[1]]]
ZI_TABLE = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]


def test_criterion_1_x4_end_to_end():
    t0 = time.monotonic()
    A = order_from_poly([-1, 0, 0, 0, 1])
    ctx = build_context(A)
    tow = build_saturation(ctx, 2)
    ok = tow.index_c_over_sep == 8
    mu2 = mu_c_p_presentation(ctx, 2)
    cond = conductor(ctx, mu2)
    ok = ok and cond.ring_c.order() == 64
    ker = Lattice(3, psi_kernel(cond))
    ok = ok and ker == Lattice(3, [[2, 0, 0], [1, 1, 0], [1, 0, 1]])
    pres = mu_a_presentation(ctx)
    ok = ok and pres.invariant_factors == [2, 4]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(1, ok, f"(C:A)=8, conductor index 64, psi-kernel lattice and "
                  f"invariant factors (2,4) for X^4-1 in {elapsed:.2f}s (< 5s)")


def test_criterion_2_x12_end_to_end():
    t0 = time.monotonic()
    A = order_from_poly([-1] + [0] * 11 + [1])
    ctx = build_context(A)
    ok = ctx.index_b_over_sep == 41472 == 2**9 * 3**4
    g = ctx.graph()
    ok = ok and len(g.edges) == 9
    ok = ok and sorted(g.weight(a, b) for a, b in g.edges) == [2, 2, 2, 3, 3, 4, 4, 4, 9]
    g2 = graph_mod_p(ctx, 2)
    g3 = graph_mod_p(ctx, 3)
    ok = ok and len(g2.components) == 3 and sorted(len(c) for c in g2.components) == [2, 2, 2]
    ok = ok and len(g3.components) == 2 and sorted(len(c) for c in g3.components) == [3, 3]
    pres = mu_a_presentation(ctx)
    ok = ok and pres.invariant_factors == [2, 12]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(2, ok, f"#(B/A)=41472, nine weighted edges, saturation graphs "
                  f"(3 and 2 components), invariant factors (2,12) for "
                  f"X^12-1 in {elapsed:.2f}s (< 30s)")


def test_criterion_3_small_examples():
    # Z[zeta5] through the document pipeline, as the CLI would build it
    doc = dump_canonical(poly_order_document([int(c) for c in cyclotomic(5)]))
    A5, _ = parse_order_document(doc)
    pres5 = mu_a_presentation(A5)
    ok = pres5.group_order == 10
    # the congruent-coordinates order with n = 3
    A = diagonal_congruence_suborder(Order(Z_TABLE), 3, 2)
    pres = mu_a_presentation(A)
    ok = ok and pres.group_order == 8
    prid = primitive_idempotents(A)
    ok = ok and prid == [tuple(int(c) for c in A.one)]
    report(3, ok, "#torsion(Z[zeta5]) = 10; congruence order n=3 gives "
                  "order 8 and a single primitive idempotent")


def _squarefree_pool():
    pool = [
        [-1, 1], [1, 1], [-2, 1], [2, 1], [0, 1],
        [1, 0, 1], [1, 1, 1], [1, -1, 1], [-2, 0, 1], [-3, 0, 1],
        [-2, 0, 0, 1], [1, 1, 0, 1],
    ]
    out = []
    seen = set()
    for r in range(1, 4):
        for combo in combinations(range(len(pool)), r):
            f = [1]
            for i in combo:
                f = qp_mul(f, pool[i])
            if len(f) - 1 > 6:
                continue
            key = tuple(f)
            if key in seen:
                continue
            seen.add(key)
            out.append(f)
            if len(out) == 25:
                return out
    return out


def test_criterion_4_idempotent_oracle_equivalence():
    polys = _squarefree_pool()
    assert len(polys) == 25
    checked = 0
    for f in polys:
        A = order_from_poly(f)
        prid = primitive_idempotents(A)
        divisors = idempotent_divisor_oracle(f)
        idems = [tuple(divisor_idempotent(f, g)) for g in divisors]
        zero = (0,) * A.rank
        prim = []
        for e in idems:
            if e == zero:
                continue
            if all(A.mul(e, e2) in (zero, e) for e2 in idems):
                prim.append(e)
        assert sorted(prim) == sorted(prid), f
        assert len(idems) == 2 ** len(prid), f
        checked += 1
    report(4, checked == 25,
           f"{checked}/25 squarefree orders: primitive idempotents match the "
           f"unit-resultant divisor oracle exactly")


def _criterion5_fixtures():
    Zi = order_from_poly([1, 0, 1])
    Z3 = order_from_poly([1, 1, 1])
    Z12 = order_from_poly([int(c) for c in cyclotomic(12)])
    Z = Order(Z_TABLE)
    fixtures = []
    for m in (2, 3, 4, 5):
        fixtures.append(scalar_suborder(Zi, m))
    for m in (2, 3, 4):
        fixtures.append(scalar_suborder(Z3, m))
    for m in (2, 3):
        fixtures.append(scalar_suborder(Z12, m))
    for k in (2, 3, 4):
        fixtures.append(diagonal_congruence_suborder(Z, k, 2))
    for m in (2, 3):
        fixtures.append(diagonal_congruence_suborder(Zi, 2, m))
    fixtures.append(diagonal_congruence_suborder(Z3, 2, 2))
    zi_z3 = product_order([dense_table(Zi.algebra.table), dense_table(Z3.algebra.table)])
    fixtures.append(scalar_suborder(zi_z3, 2))
    for m in (2, 3):
        fixtures.append(scalar_suborder(product_order([Z_TABLE, ZI_TABLE]), m))
    fixtures.append(product_order([ZI_TABLE, ZI_TABLE]))
    fixtures.append(scalar_suborder(product_order([Z_TABLE] * 3), 2))
    fixtures.append(scalar_suborder(product_order([dense_table(Z12.algebra.table), Z_TABLE]), 2))
    return fixtures


def test_criterion_5_torsion_oracle_equivalence():
    fixtures = _criterion5_fixtures()
    assert len(fixtures) >= 20
    for A in fixtures:
        ctx = build_context(A)
        mu_b_size = 1
        for i in range(len(ctx.residues)):
            mu_b_size *= len(ctx.residue_torsion(i))
        assert mu_b_size <= 5000
        gens = mu_a_generators(ctx)
        got = brute_closure(A.mul, tuple(int(c) for c in A.one),
                            [tuple(g) for g in gens])
        want = brute_force_torsion_in_order(ctx)
        assert got == want, "generated torsion differs from brute force"
    report(5, True,
           f"{len(fixtures)} suborder fixtures: generated torsion equals "
           f"brute-force enumeration of the residue-product torsion")


def _zmod(n):
    return FiniteRing(Lattice(1, [[n]]), [[[1]]], [1])


def _eps_ring(p, m):
    table = [
        [[1 if k == i + j else 0 for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    return FiniteRing(Lattice(m, [[p * (i == j) for i in range(m)] for j in range(m)]),
                      table, [1] + [0] * (m - 1))


def test_criterion_6_unipotent_discrete_logs():
    rng = random.Random(612)
    rings = []
    for p in (2, 3, 5):
        k = 1
        while p ** (k + 1) <= 10**4:
            k += 1
        for e in range(1, k + 1):
            rings.append(("Z/%d^%d" % (p, e), _zmod(p ** e), (p,)))
        for m in range(2, k + 1):
            rings.append(("F_%d[e]/(e^%d)" % (p, m), _eps_ring(p, m),
                          tuple([0, 1] + [0] * (m - 2))))
    count = 0
    for name, R, gen in rings:
        I = RingIdeal.generated_by(R, [gen])
        filt = filtration_generators(R, I, Lattice.zero(R.ngens))
        pres = unipotent_presentation(R, I)
        # enumerate the ideal; its size must equal the group order
        members = [x for x in R.elements() if I.contains(x)]
        assert pres.group_order() == len(members), name
        for _ in range(100):
            x = rng.choice(members)
            v = unipotent_dlog(filt, x)
            assert pres.evaluate(v) == R.add(R.one, x), name
        count += 1
    report(6, True,
           f"{count} rings Z/p^k and F_p[e]/(e^m) with p^k <= 10^4: 100 "
           f"unipotent dlogs each re-multiply; group order = #I by enumeration")


def _connected_rings():
    def galois(pk, c0, c1):
        table = [
            [[1, 0], [0, 1]],
            [[0, 1], [-c0 % pk, -c1 % pk]],
        ]
        return FiniteRing(Lattice(2, [[pk, 0], [0, pk]]), table, [1, 0])

    def zpk_eps(pk, p):
        # (Z/pk)[e] with e^2 = 0 and p*e = 0
        table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
        return FiniteRing(Lattice(2, [[pk, 0], [0, p]]), table, [1, 0])

    rings = []
    for p, kmax in ((2, 6), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2),
                    (17, 1), (19, 1), (23, 1), (29, 1), (31, 1),
                    (37, 1), (41, 1), (43, 1), (47, 1)):
        for k in range(1, kmax + 1):
            rings.append(_zmod(p ** k))
    for p, mmax in ((2, 4), (3, 3), (5, 2), (7, 2), (11, 2), (13, 2)):
        for m in range(2, mmax + 1):
            rings.append(_eps_ring(p, m))
    # Galois rings: x^2 + x + 1 is irreducible mod 2, x^2 + 1 mod 3 and
    # mod 7, x^2 + 2 mod 5
    for pk in (2, 4, 8):
        rings.append(galois(pk, 1, 1))
    for pk in (3, 9, 27):
        rings.append(galois(pk, 1, 0))
    for pk in (5, 25):
        rings.append(galois(pk, 2, 0))
    for pk in (7, 49):
        rings.append(galois(pk, 1, 0))
    for pk, p in ((4, 2), (8, 2), (9, 3), (25, 5)):
        rings.append(zpk_eps(pk, p))
    return rings


def test_criterion_7_separable_root_bounds():
    rings = _connected_rings()
    assert len(rings) >= 50
    checked = 0
    for R in rings:
        elements = list(R.elements())
        idems = [e for e in elements if R.mul(e, e) == e]
        assert sorted(idems) == sorted([R.zero(), R.one]), "ring not connected"

        def embed(c):
            return R.reduce([c * e for e in R.one])

        def unit(x):
            return unit_inverse(R, x) is not None

        polys = [[0, -1, 1]]
        consts = [0, 1, 2, 3, 5]
        for d in (2, 3, 5):
            pick = consts[:d]
            if all(unit(embed(a - b)) for i, a in enumerate(pick) for b in pick[:i]):
                f = [1]
                for a in pick:
                    f = qp_mul(f, [-a, 1])
                polys.append(f)
        for m in (2, 3, 4, 5):
            if unit(embed(m)):
                polys.append([-1] + [0] * (m - 1) + [1])
        for f in polys:
            roots = []
            for x in elements:
                acc = R.zero()
                for c in reversed(f):
                    acc = R.add(R.mul(acc, x), embed(c))
                if acc == R.zero():
                    roots.append(x)
            assert len(roots) <= len(f) - 1
            for i, r in enumerate(roots):
                for s in roots[:i]:
                    assert unit(R.sub(r, s))
        # cyclic torsion for unit exponents
        for m in (2, 3, 4, 6):
            if not unit(embed(m)):
                continue
            tors = [x for x in elements if ring_power(R, x, m) == R.one]
            assert m % len(tors) == 0
            max_order = 0
            for x in tors:
                o, acc = 1, x
                while acc != R.one:
                    acc = R.mul(acc, x)
                    o += 1
                max_order = max(max_order, o)
            assert max_order == len(tors)
        checked += 1
    report(7, checked >= 50,
           f"{checked} connected rings: separable root counts bounded by the "
           f"degree, root differences are units, unit-exponent torsion cyclic")


def test_criterion_8_presented_group_machinery():
    rng = random.Random(88)
    groups = 0
    while groups < 100:
        pres, lat = random_presented_group(rng)
        ops = pres.ops
        nt = rng.randint(1, 3)
        targets = [
            ops.product(pres.gens, [rng.randrange(12) for _ in range(len(pres.gens))])
            for _ in range(nt)
        ]
        u = subgroup_relations(pres, targets)
        reach, _, ker = schreier_kernel(ops.mul, ops.identity, targets)
        assert Lattice(nt, u) == ker
        probe = ops.product(pres.gens,
                            [rng.randrange(12) for _ in range(len(pres.gens))])
        sol = membership_dlog(pres, targets, probe)
        assert (sol is not None) == (probe in reach)
        if sol is not None:
            assert ops.product(targets, sol) == probe
        modulo = [rng.choice(sorted(reach))]
        u2 = kernel_mod_subgroup(pres, targets, modulo)
        norm = quotient_coset_normalizer(lat, modulo)
        _, _, ker2 = schreier_kernel(ops.mul, ops.identity, targets, normalize=norm)
        assert Lattice(nt, u2) == ker2
        groups += 1
    report(8, groups >= 100,
           f"{groups} randomly presented groups of order <= 2000: relations, "
           f"membership decisions, and kernels mod subgroups match brute force")
