"""Benchmark: the normal-form kernels and the exact products and maps of
the number-field layer.

Times Hermite and Smith reductions on random integer matrices of a few
shapes, the Hermite form both bare and with the identity stacked below
the matrix (the rows that carry the transform u of h = m*u).  Then times
one ``NumberField.mul`` on Q, on the Q(zeta_12) component of
Z[X]/(X^12 - 1) and on Q[X]/(X^2 + X/2 + 1/3), and one
``SpecDecomposition.to_components`` of Z[X]/(X^12 - 1), per call.  Next,
it replays the calls that ``decompose`` makes on Z[X]/(X^12 - 1), on the
split order Z[X]/((X + 5)(X + 4) ... (X - 5)) of rank 11, on the group
ring Z[C_3^3] of rank 27 and, without ``--quick``, on Z[C_2^5] of rank
32: its one ``RatMatrix.inverse``, its two ``RatMatrix.mul`` (the
section and the check of the inverse), the ``NumberField.inv`` of each
component's Chinese-remainder idempotent, its ``solve_rat`` calls, the
Krylov powers of its candidates (``_krylov_powers``) and their
``minimal_polynomial`` eliminations, and times each kind per
decomposition; a ``minimal_polynomial`` row includes the solves that it
makes itself.
It replays the ``order_graph``, ``qlat_index``, ``group_order`` and
``conductor`` calls that ``mu_a_presentation`` makes on the rank-11
split order and, without ``--quick``, on Z[C_2^5], and times them per
call.
Then it replays the ``factor_q`` calls that ``torsion_generator`` makes
on Q(zeta_7) and Q(zeta_15) and that ``decompose`` makes on the rank-11
split order, and times them per call.  It records the minimal
polynomials that ``decompose`` factors on the first 100 orders of the
split-rank and the cyclotomic-mix pools (20 with ``--quick``), counts
those that split into linear factors, those with some but not only
linear factors and those with none, replays their ``factor_q`` calls,
and reports the ``fp_factor_squarefree`` and ``hensel_lift`` calls
(recursive ones included) and the time per call.
Then it times one torsion ``ops.power`` and one ``membership_dlog`` (two
targets) on the residue torsion of Z[X]/(X^12 - 1), per call, on random
members.  Next, it runs every tenth order of the cyclotomic-mix pool of
``perfbench`` through ``ops.order_op`` and reports, per order, the time
and the count of ``Fraction`` objects built; from the second repeat on,
the process's field table holds every field of the sample.  Then it
replays two consecutive blocks of that pool (20 orders each with
``--quick``) on an empty field table and reports, per block, the counts
of ``_climb``, ``roots_in_field`` and ``residue_bound`` calls, the
table's size after the block and the time per order.  It replays the
``roots_in_field`` calls that the first 100 cyclotomic-mix orders (20
with ``--quick``) make on an empty field table and reports the time per
call and the counts of norms (``_norm_poly``), gcds over the field
(``nfp_gcd``) and ``NumberField.inv`` calls, the inverses of 1 apart.  It
replays the point norms (the ``resultant`` of the minimal polynomial with
each interpolation value) of the norms that the torsion climb of
Q(zeta_11) (Q(zeta_7) with ``--quick``) takes in ``roots_in_field``, and
the ``NumberField.inv`` solves of that climb, and times each kind per
call.  It replays the ``squarefree_part`` calls of that climb, those of
``roots_in_field`` and of ``factor_q`` alike, and reports their count,
how many radicals lost degree (the input was not squarefree) and the
time per call.  Then it runs the first 100 orders
of the split-rank pool (20 with ``--quick``), records
the finite rings they build and every structure-table product made in those rings,
and reports the tables' fill (the nonzero share of their entries), the
entries a dense walk of those products would visit against those their
sparse cells hold, and the time per replayed product.  It runs the same
orders again and counts the Hermite forms (``hnf_cols`` calls), their
cells (rows, the carried ones included, times columns), the column updates (``_submul``
calls), the ``IntSolver`` builds and the ``det_int`` calls that their
lattice work makes, and times each order.  Then it runs the first 100
orders of the split-rank and the cyclotomic-mix pools (20 with
``--quick``) on an empty field table and counts the work of the conductor
descent: the torsion primes, those of them that are saturated (prime to
``[B : A_sep]``, where ``C`` is the separable part and no conductor is
built), the ``conductor`` calls and those per torsion prime, the
``preimage_lattice`` calls that ``conductor`` makes per conductor,
``FiniteRing`` builds, filtrations
(``filtration_generators`` calls) per conductor, ``unipotent_presentation``
calls, ``unipotent_dlog`` calls, ``FiniteRing.mul`` calls and Hermite forms
(``hnf_cols`` calls), and times each order on the filled table.  Last, it replays
the dlog-serve query pool of ``perfbench`` once on a warm serving state and
reports, per query class (mue, mua, unip), the time per query and the
counts of ``NumberField.mul`` calls, of power-table dlogs and of
``Fraction`` objects built.  The end-to-end benchmark is
``perfbench/run.py``.

Usage: python bench/bench_kernels.py [--quick]
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from fractions import Fraction  # noqa: E402

from ordroots import (  # noqa: E402
    finitering, kernels, linalg, numfield, ordercore, polyfactor, qalgebra, rou)
from ordroots.abgroup import EffPresentation, membership_dlog  # noqa: E402
from ordroots.numfield import NumberField  # noqa: E402
from ordroots.ordercore import build_context, mu_b_presentation, order_from_poly  # noqa: E402
from ordroots.qalgebra import decompose  # noqa: E402
from ordroots.rou import mu_a_presentation  # noqa: E402
from ladder import INPUTS as LADDER  # noqa: E402
import inputs as serve_inputs  # noqa: E402
import ops as serve_ops  # noqa: E402


def random_cols(rng, nrows, ncols, span):
    return [[rng.randint(-span, span) for _ in range(nrows)] for _ in range(ncols)]


def time_fn(fn, args_list, repeat):
    best = []
    for args in args_list:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return sum(best)


def bench_kernels(quick):
    rng = random.Random(20240901)
    hnf_shapes = [(12, 16, 9), (24, 26, 99)]
    snf_shapes = [(12, 16, 9), (24, 26, 99)]
    if not quick:
        hnf_shapes.extend([(40, 44, 999), (64, 70, 999)])
        snf_shapes.append((40, 44, 999))
    repeat = 2 if quick else 3

    def bare(cols, nrows):
        return cols, nrows

    def with_identity(cols, nrows):
        n = len(cols)
        return [c + [int(i == j) for i in range(n)] for j, c in enumerate(cols)], nrows

    jobs = [("hnf", kernels.hnf_cols, hnf_shapes, bare),
            ("hnf + u", kernels.hnf_cols, hnf_shapes, with_identity),
            ("snf", kernels.snf_cols, snf_shapes, bare)]
    print(f"{'kernel':<10} {'shape':<12} {'time (s)':>10}")
    for name, fn, shapes, stack in jobs:
        for nrows, ncols, span in shapes:
            mats = [stack(random_cols(rng, nrows, ncols, span), nrows) for _ in range(3)]
            print(f"{name:<10} {nrows}x{ncols:<9} {time_fn(fn, mats, repeat):>10.4f}")


def random_element(rng, deg, span):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, 12)) for _ in range(deg))


def bench_products(quick):
    rng = random.Random(20261018)
    calls = 200 if quick else 2000
    repeat = 3 if quick else 5
    dec = decompose(order_from_poly([-1] + [0] * 11 + [1]).algebra)
    z12 = next(K for K in dec.components if K.deg == 4)
    fields = [("Q", NumberField([0, 1])),
              ("Q(zeta12)", z12),
              ("X^2+X/2+1/3", NumberField([Fraction(1, 3), Fraction(1, 2), 1]))]
    print(f"\n{'operation':<28} {'us/call':>9}")
    for name, K in fields:
        args = [(random_element(rng, K.deg, 99), random_element(rng, K.deg, 99))
                for _ in range(calls)]
        t = time_fn(K.mul, args, repeat) / len(args)
        print(f"{'mul in ' + name:<28} {t * 1e6:>9.2f}")
    vecs = [([rng.randint(-9, 9) for _ in range(12)],) for _ in range(calls)]
    t = time_fn(dec.to_components, vecs, repeat) / len(vecs)
    print(f"{'to_components, X^12-1':<28} {t * 1e6:>9.2f}")


def recorded_calls(targets, run):
    """name -> arguments of the calls that run() makes to each
    (name, owner) target through the owner's attribute."""
    calls = {name: [] for name, _ in targets}
    originals = [getattr(owner, name) for name, owner in targets]

    def recorder(name, fn):
        def record(*args):
            calls[name].append(args)
            return fn(*args)
        return record

    for (name, owner), fn in zip(targets, originals):
        setattr(owner, name, recorder(name, fn))
    try:
        run()
    finally:
        for (name, owner), fn in zip(targets, originals):
            setattr(owner, name, fn)
    return calls


def decompose_calls(algebra):
    """name -> arguments of the RatMatrix.inverse, RatMatrix.mul,
    NumberField.inv, solve_rat, _krylov_powers and minimal_polynomial
    calls that decompose makes on the algebra."""
    targets = [("inverse", linalg.RatMatrix), ("mul", linalg.RatMatrix), ("inv", NumberField),
               ("solve_rat", qalgebra), ("_krylov_powers", qalgebra),
               ("minimal_polynomial", qalgebra)]
    return recorded_calls(targets, lambda: decompose(algebra))


def split11():
    """(X + 5)(X + 4) ... (X - 5), lowest coefficient first."""
    f = [1]
    for a in range(-5, 6):
        f = [x - a * y for x, y in zip([0] + f, f + [0])]
    return f


def bench_rational(quick):
    repeat = 3 if quick else 5
    orders = [("X^12-1", lambda: order_from_poly([-1] + [0] * 11 + [1])),
              ("rank-11 split", lambda: order_from_poly(split11())),
              ("Z[C_3^3]", LADDER["Z[C_3^3]"][0])]
    if not quick:
        orders.append(("Z[C_2^5]", LADDER["Z[C_2^5]"][0]))
    print(f"\n{'decompose calls':<34} {'calls':>6} {'ms/decomposition':>17}")
    for name, build in orders:
        calls = decompose_calls(build().algebra)
        for label, fn in (("inverse", linalg.RatMatrix.inverse),
                          ("mul", linalg.RatMatrix.mul),
                          ("inv", NumberField.inv),
                          ("solve_rat", linalg.solve_rat),
                          ("_krylov_powers", qalgebra._krylov_powers),
                          ("minimal_polynomial", qalgebra.minimal_polynomial)):
            t = time_fn(fn, calls[label], repeat)
            print(f"{label + ', ' + name:<34} {len(calls[label]):>6} {t * 1e3:>17.2f}")


def bench_indices(quick):
    repeat = 3 if quick else 5
    targets = [("order_graph", ordercore), ("qlat_index", ordercore),
               ("group_order", EffPresentation), ("conductor", rou)]
    orders = [("rank-11 split", lambda: order_from_poly(split11()))]
    if not quick:
        orders.append(("Z[C_2^5]", LADDER["Z[C_2^5]"][0]))
    print(f"\n{'index work':<34} {'calls':>6} {'ms/call':>9}")
    for order_name, build in orders:
        calls = recorded_calls(targets, lambda: mu_a_presentation(build_context(build())))
        for name, owner in targets:
            t = time_fn(getattr(owner, name), calls[name], repeat) / len(calls[name])
            print(f"{name + ', ' + order_name:<34} {len(calls[name]):>6} {t * 1e3:>9.3f}")


def factor_q_calls(module, run):
    """Arguments of the factor_q calls that run() makes through
    ``module``'s own name for it."""
    calls = []
    factor = polyfactor.factor_q

    def record(f):
        calls.append((list(f),))
        return factor(f)

    module.factor_q = record
    try:
        run()
    finally:
        module.factor_q = factor
    return calls


def bench_polynomials(quick):
    repeat = 3 if quick else 5
    jobs = [
        ("torsion, Q(zeta7)", numfield,
         lambda: NumberField(polyfactor.cyclotomic(7)).torsion_generator()),
        ("torsion, Q(zeta15)", numfield,
         lambda: NumberField(polyfactor.cyclotomic(15)).torsion_generator()),
        ("decompose, rank-11 split", qalgebra,
         lambda: decompose(order_from_poly(split11()).algebra)),
    ]
    print(f"\n{'factor_q calls':<28} {'calls':>6} {'ms/call':>9}")
    for name, module, run in jobs:
        args = factor_q_calls(module, run)
        t = time_fn(polyfactor.factor_q, args, repeat) / len(args)
        print(f"{name:<28} {len(args):>6} {t * 1e3:>9.3f}")


def bench_factoring(quick):
    repeat = 2 if quick else 3
    codes = [polyfactor.fp_factor_squarefree.__code__, polyfactor.hensel_lift.__code__]
    print(f"\n{'decompose minimal polys':<24} {'orders':>6} {'calls':>6} {'split':>6} "
          f"{'partly':>6} {'rootless':>8} {'Berlekamp':>9} {'hensel_lift':>11} {'ms/call':>8}")
    for name in ("split-rank", "cyclotomic-mix"):
        sample = serve_inputs.build_pool(name)[:20 if quick else 100]
        args = factor_q_calls(
            qalgebra, lambda: [serve_ops.order_op(None, item.text) for item in sample])
        linear = [[polyfactor.qp_degree(h) == 1 for h, _ in polyfactor.factor_q(*a)[1]]
                  for a in args]
        split = sum(all(lin) for lin in linear)
        rootless = sum(not any(lin) for lin in linear)
        berlekamp, hensel = call_counts(codes, lambda: [polyfactor.factor_q(*a) for a in args])
        t = time_fn(polyfactor.factor_q, args, repeat) / len(args)
        print(f"{'factor_q, ' + name:<24} {len(sample):>6} {len(args):>6} {split:>6} "
              f"{len(args) - split - rootless:>6} {rootless:>8} {berlekamp:>9} {hensel:>11} "
              f"{t * 1e3:>8.3f}")


def bench_torsion(quick):
    rng = random.Random(20261019)
    calls = 100 if quick else 500
    repeat = 3 if quick else 5
    pres = mu_b_presentation(build_context(order_from_poly([-1] + [0] * 11 + [1])))

    def member():
        return pres.evaluate([rng.randint(-24, 24) for _ in pres.gens])

    jobs = [("power", pres.ops.power,
             [(member(), rng.randint(-24, 24)) for _ in range(calls)]),
            ("membership_dlog", membership_dlog,
             [(pres, [member(), member()], member()) for _ in range(calls)])]
    print(f"\n{'torsion of X^12-1':<28} {'us/call':>9}")
    for name, fn, args in jobs:
        t = time_fn(fn, args, repeat) / len(args)
        print(f"{name:<28} {t * 1e6:>9.2f}")


def call_counts(codes, run):
    """How many times run() enters each of the code objects ``codes``; for
    Fraction.__new__ that is every Fraction built, arithmetic results
    included.  An entry (code, caller) counts only the calls made while
    the code object ``caller`` runs."""
    counts = [0] * len(codes)
    index = {}
    for i, code in enumerate(codes):
        code, caller = code if isinstance(code, tuple) else (code, None)
        index[code] = (i, caller)
    running = {caller: 0 for _, caller in index.values() if caller}

    def count(frame, event, arg):
        if frame.f_code in running and event in ("call", "return"):
            running[frame.f_code] += 1 if event == "call" else -1
        if event == "call" and frame.f_code in index:
            i, caller = index[frame.f_code]
            if caller is None or running[caller]:
                counts[i] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def bench_orders(quick):
    repeat = 3 if quick else 5
    # every tenth order of the cyclotomic-mix pool, all three segments
    sample = serve_inputs.build_pool("cyclotomic-mix")[::10]
    seconds = time_fn(serve_ops.order_op, [(None, item.text) for item in sample], repeat)
    (fractions,) = call_counts(
        [Fraction.__new__.__code__],
        lambda: [serve_ops.order_op(None, item.text) for item in sample])
    print(f"\n{'cyclotomic-mix sample':<26} {'orders':>7} {'ms/order':>9} {'Fr/order':>9}")
    print(f"{'order_op':<26} {len(sample):>7} {seconds / len(sample) * 1e3:>9.2f} "
          f"{fractions / len(sample):>9.1f}")


def bench_field_table(quick):
    # segments 0 and 1 of the cyclotomic-mix pool, one block each, replayed
    # in turn on an empty field table: the first block fills it, the
    # second finds most of its fields there
    pool = serve_inputs.build_pool("cyclotomic-mix")
    blocks = [[item for item in pool if item.segment == s][:20 if quick else None]
              for s in (0, 1)]
    targets = [("_climb", numfield), ("roots_in_field", numfield),
               ("residue_bound", NumberField)]
    numfield._shared_field.cache_clear()
    print(f"\n{'cyclotomic-mix blocks':<22} {'orders':>6} {'_climb':>7} {'roots':>6} "
          f"{'residue_bound':>13} {'fields':>7} {'ms/order':>9}")
    for label, block in zip(("cold", "warm"), blocks):
        t0 = time.perf_counter()
        calls = recorded_calls(
            targets, lambda: [serve_ops.order_op(None, item.text) for item in block])
        seconds = time.perf_counter() - t0
        climbs, roots, bounds = (len(calls[name]) for name, _ in targets)
        fields = numfield._shared_field.cache_info().currsize
        print(f"{'order_op, ' + label:<22} {len(block):>6} {climbs:>7} {roots:>6} "
              f"{bounds:>13} {fields:>7} {seconds / len(block) * 1e3:>9.2f}")


def bench_roots(quick):
    repeat = 2 if quick else 3
    # the root searches of the first orders of the cyclotomic-mix pool, on
    # an empty field table, so that every field's torsion is climbed
    sample = serve_inputs.build_pool("cyclotomic-mix")[:20 if quick else 100]
    numfield._shared_field.cache_clear()
    calls = recorded_calls(
        [("roots_in_field", numfield)],
        lambda: [serve_ops.order_op(None, item.text) for item in sample])["roots_in_field"]
    t = time_fn(numfield.roots_in_field, calls, repeat) / len(calls)
    # norms, gcds over K and field inverses, the inverses of 1 apart
    codes = {numfield._norm_poly.__code__: 0, numfield.nfp_gcd.__code__: 1,
             numfield.NumberField.inv.__code__: 2}
    counts = [0] * 4

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            k = codes[frame.f_code]
            counts[k] += 1
            if k == 2 and frame.f_locals["x"] == frame.f_locals["self"].one():
                counts[3] += 1

    sys.setprofile(count)
    try:
        for args in calls:
            numfield.roots_in_field(*args)
    finally:
        sys.setprofile(None)
    norms, gcds, inverses, of_one = counts
    print(f"\n{'cyclotomic-mix root searches':<30} {'orders':>6} {'calls':>6} {'ms/call':>8} "
          f"{'norms':>6} {'gcds':>6} {'inverses':>9} {'of 1':>6}")
    print(f"{'roots_in_field':<30} {len(sample):>6} {len(calls):>6} {t * 1e3:>8.2f} "
          f"{norms:>6} {gcds:>6} {inverses:>9} {of_one:>6}")


def bench_point_norms(quick):
    repeat = 3 if quick else 5
    # the norms N(f(x_i)) of the interpolation points of every _norm_poly,
    # and the field inverses, in the torsion climb of a fresh cyclotomic field
    d = 7 if quick else 11
    calls = recorded_calls(
        [("resultant", numfield), ("inv", NumberField)],
        lambda: NumberField(polyfactor.cyclotomic(d)).torsion_generator())
    print(f"\n{'torsion climb, Q(zeta' + str(d) + ')':<30} {'calls':>6} {'ms':>8} {'us/call':>9}")
    for label, fn, args in (("point norms (resultant)", polyfactor.resultant, calls["resultant"]),
                            ("field inverses (inv)", NumberField.inv, calls["inv"])):
        t = time_fn(fn, args, repeat)
        print(f"{label:<30} {len(args):>6} {t * 1e3:>8.2f} {t / len(args) * 1e6:>9.1f}")


def bench_squarefree(quick):
    # the squarefree_part calls of the torsion climb of a fresh
    # cyclotomic field: the norms of roots_in_field and the radicals
    # that factor_q factors
    d = 7 if quick else 11
    K = NumberField(polyfactor.cyclotomic(d))
    calls = recorded_calls([("squarefree_part", numfield), ("squarefree_part", polyfactor)],
                           K.torsion_generator)["squarefree_part"]
    lost = sum(len(polyfactor.squarefree_part(f)) < len(polyfactor.qp(f)) for f, in calls)
    t = time_fn(polyfactor.squarefree_part, calls, 3)
    print(f"\n{'squarefree parts':<30} {'calls':>6} {'lost deg':>8} {'ms':>8} {'ms/call':>8}")
    print(f"{'torsion climb, Q(zeta' + str(d) + ')':<30} {len(calls):>6} {lost:>8} "
          f"{t * 1e3:>8.2f} {t / len(calls) * 1e3:>8.3f}")


def bench_tables(quick):
    repeat = 2 if quick else 3
    # the finite rings that the first orders of the split-rank pool build,
    # and every table product made in them (FiniteRing.mul, RingIdeal.mul)
    sample = serve_inputs.build_pool("split-rank")[:20 if quick else 100]
    calls = recorded_calls(
        [("FiniteRing", ordercore), ("table_mul", finitering)],
        lambda: [serve_ops.order_op(None, item.text) for item in sample])
    dense = [table for _, table, _ in calls["FiniteRing"]]
    nonzero = sum(1 for t in dense for row in t for cell in row for c in cell if c)
    entries = sum(len(t) ** 3 for t in dense)
    products = calls["table_mul"]
    walked = sparse = 0
    for table, x, y in products:
        xs = [i for i, a in enumerate(x) if a]
        ys = [j for j, b in enumerate(y) if b]
        walked += len(xs) * len(ys) * len(table)
        sparse += sum(len(table[i][j]) for i in xs for j in ys)
    t = time_fn(qalgebra.table_mul, products, repeat) / len(products)
    print(f"\n{'split-rank finite rings':<24} {'orders':>6} {'rings':>6} {'fill':>6} "
          f"{'products':>9} {'dense walk':>11} {'sparse walk':>12} {'us/product':>11}")
    print(f"{'table_mul':<24} {len(sample):>6} {len(dense):>6} {nonzero / entries:>6.3f} "
          f"{len(products):>9} {walked:>11} {sparse:>12} {t * 1e6:>11.2f}")


def bench_lattices(quick):
    repeat = 2 if quick else 3
    # the lattice work of the first orders of the split-rank pool
    sample = serve_inputs.build_pool("split-rank")[:20 if quick else 100]
    seconds = time_fn(serve_ops.order_op, [(None, item.text) for item in sample], repeat)
    codes = {kernels.hnf_cols.__code__: 0, kernels._submul.__code__: 1,
             linalg.IntSolver.__init__.__code__: 2, linalg.det_int.__code__: 3}
    counts = [0] * 5  # the four calls, then the Hermite cells

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            k = codes[frame.f_code]
            counts[k] += 1
            if k == 0:
                cols = frame.f_locals["cols"]
                counts[4] += (len(cols[0]) if cols else 0) * len(cols)

    sys.setprofile(count)
    try:
        for item in sample:
            serve_ops.order_op(None, item.text)
    finally:
        sys.setprofile(None)
    hermite, updates, solvers, dets, cells = counts
    print(f"\n{'split-rank lattice work':<24} {'orders':>6} {'hnf_cols':>9} {'cells':>10} "
          f"{'_submul':>9} {'IntSolver':>9} {'det_int':>8} {'ms/order':>9}")
    print(f"{'order_op':<24} {len(sample):>6} {hermite:>9} {cells:>10} {updates:>9} "
          f"{solvers:>9} {dets:>8} {seconds / len(sample) * 1e3:>9.2f}")


def bench_descent(quick):
    repeat = 2 if quick else 3
    codes = [rou.conductor.__code__, (linalg.preimage_lattice.__code__, rou.conductor.__code__),
             finitering.FiniteRing.__init__.__code__,
             finitering.filtration_generators.__code__,
             finitering.unipotent_presentation.__code__,
             finitering.unipotent_dlog.__code__, finitering.FiniteRing.mul.__code__,
             kernels.hnf_cols.__code__]
    print(f"\n{'descent work':<16} {'orders':>6} {'primes':>6} {'saturated':>9} "
          f"{'conductors':>10} {'cond/prime':>10} {'pre/cond':>8} {'FiniteRing':>10} "
          f"{'filt/cond':>9} {'presentations':>13} {'dlogs':>7} {'FR.mul':>8} "
          f"{'hnf_cols':>9} {'ms/order':>9}")
    for name in ("split-rank", "cyclotomic-mix"):
        sample = serve_inputs.build_pool(name)[:20 if quick else 100]
        numfield._shared_field.cache_clear()
        results = []
        conductors, preimages, rings, filtrations, presentations, dlogs, muls, hermite = (
            call_counts(codes, lambda: results.extend(serve_ops.order_op(None, item.text)
                                                      for item in sample)))
        # a torsion prime is saturated when it does not divide [B : A_sep],
        # that is, when index_c_over_sep is 1 and C is the separable part
        ctxs = [pres.ctx for _, (_, _, pres) in results]
        primes = sum(len(ctx.torsion_primes()) for ctx in ctxs)
        saturated = sum(ctx.index_b_over_sep % p != 0
                        for ctx in ctxs for p in ctx.torsion_primes())
        seconds = time_fn(serve_ops.order_op, [(None, item.text) for item in sample], repeat)
        print(f"{name:<16} {len(sample):>6} {primes:>6} {saturated:>9} {conductors:>10} "
              f"{conductors / max(primes, 1):>10.2f} "
              f"{preimages / max(conductors, 1):>8.2f} {rings:>10} "
              f"{filtrations / max(conductors, 1):>9.2f} {presentations:>13} {dlogs:>7} "
              f"{muls:>8} {hermite:>9} {seconds / len(sample) * 1e3:>9.2f}")


def bench_queries():
    pool = serve_inputs.build_pool("dlog-serve")
    state = serve_ops.ServeState()
    classes = sorted({item.cls.split("-")[0] for item in pool})
    for cls in classes:  # one query of each class fills the lazy caches
        serve_ops.query_op(state, next(i.text for i in pool if i.cls.startswith(cls)))
    seconds = dict.fromkeys(classes, 0.0)
    for item in pool:
        t0 = time.perf_counter()
        serve_ops.query_op(state, item.text)
        seconds[item.cls.split("-")[0]] += time.perf_counter() - t0
    # the calls of NumberField.mul, of the power-table dlog closure that
    # cyclic_presentation builds and of Fraction.__new__
    codes = [numfield.NumberField.mul.__code__,
             state.ctx.field_torsion().dlog.__code__,
             Fraction.__new__.__code__]
    counts = {cls: [0, 0, 0] for cls in classes}
    for item in pool:
        cls = item.cls.split("-")[0]
        got = call_counts(codes, lambda: serve_ops.query_op(state, item.text))
        counts[cls] = [a + b for a, b in zip(counts[cls], got)]
    print(f"\n{'dlog-serve pool, by class':<26} {'queries':>7} {'ms/query':>9} "
          f"{'K.mul':>7} {'dlogs':>7} {'Fr/query':>9}")
    for cls in classes:
        n = sum(1 for item in pool if item.cls.startswith(cls + "-"))
        mul_calls, dlogs, fractions = counts[cls]
        print(f"{cls:<26} {n:>7} {seconds[cls] / n * 1e3:>9.3f} {mul_calls:>7} {dlogs:>7} "
              f"{fractions / n:>9.1f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller shapes, fewer repeats")
    args = ap.parse_args()
    bench_kernels(args.quick)
    bench_products(args.quick)
    bench_rational(args.quick)
    bench_indices(args.quick)
    bench_polynomials(args.quick)
    bench_factoring(args.quick)
    bench_torsion(args.quick)
    bench_orders(args.quick)
    bench_field_table(args.quick)
    bench_roots(args.quick)
    bench_point_norms(args.quick)
    bench_squarefree(args.quick)
    bench_tables(args.quick)
    bench_lattices(args.quick)
    bench_descent(args.quick)
    bench_queries()


if __name__ == "__main__":
    main()
