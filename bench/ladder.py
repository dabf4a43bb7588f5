"""Benchmark: the field-degree and rank ladder, order to roots of unity.

Times ``mu_a_presentation`` (which builds the order context) on orders
past the reach of the ``perfbench`` workloads: Z[X]/(X^7 - 1), the
cyclotomic rings Z[zeta_d] for d = 15, 16, 11, 13, 17, 19, 32, the group
rings Z[C_3^3] of rank 27 and Z[C_2^5], Z[C_4 x C_8] of rank 32, each
from its table e_g e_h = e_(g+h), and two fields of degree 16:
Z[X]/(SD16), SD16 the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5 +
sqrt 7, and Z[X]/(CM16), CM16 that of i + sqrt 2 + sqrt 3 + sqrt 5.
Each input runs in its own subprocess, one after another, and is stopped
at ``CAP_S`` seconds.  Every answer that finishes is checked against a
closed form where there is one: the roots of unity of Z[zeta_d] have
order lcm(2, d) (one invariant factor), by Higman's theorem those of
Z[G] form Z/2 x G, and a field with a real embedding, such as that of
SD16, has only +-1.  CM16 generates a CM field, with no closed form
here; its expected [2] is the agreed value of two independent
computations, not a theorem.  Times are wall times, not calibrated
against a probe.

Usage: python bench/ladder.py [NAME ...]
"""

import json
import os
import subprocess
import sys
import time
from itertools import product
from math import comb

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ordroots.ordercore import Order, order_from_poly  # noqa: E402
from ordroots.rou import mu_a_presentation  # noqa: E402

# wall-time cap per input, in seconds
CAP_S = 240


def _cyclotomic(d):
    """Phi_d as integer coefficients, lowest first: X^d - 1 divided
    exactly by Phi_e for every proper divisor e of d."""
    acc = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            acc = _exact_div_monic(acc, _cyclotomic(e))
    return acc


def _exact_div_monic(f, g):
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f[k + len(g) - 1]
        for i, b in enumerate(g):
            f[k + i] -= q[k] * b
    if any(f):
        raise ValueError("division is not exact")
    return q


def _sum_of_roots(*radicands):
    """The minimal polynomial of sqrt p_1 + ... + sqrt p_k, built in
    integers: with f(X + sqrt p) = A(X) + sqrt p B(X), the product
    f(X - sqrt p) f(X + sqrt p) is A^2 - p B^2, starting from f = X.
    A radicand -1 adjoins i."""
    f = [0, 1]
    for p in radicands:
        # (X + sqrt p)^k = sum_j C(k, j) X^(k-j) sqrt p^j
        a, b = [0] * len(f), [0] * len(f)
        for k, c in enumerate(f):
            for j in range(k + 1):
                term = c * comb(k, j) * p ** (j // 2)
                (b if j % 2 else a)[k - j] += term
        f = [x - p * y for x, y in zip(_mul(a, a), _mul(b, b))]
    return f


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _group_ring(*orders):
    """Z[C_n1 x ... x C_nk]: basis e_g for g in the product group, in
    lexicographic order of the exponent tuples, with e_g e_h = e_(g+h)."""
    elems = list(product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elems)}
    table = []
    for g in elems:
        row = []
        for h in elems:
            gh = index[tuple((a + b) % n for a, b, n in zip(g, h, orders))]
            row.append([int(i == gh) for i in range(len(elems))])
        table.append(row)
    return Order(table)


# name -> (builder, invariant factors of the roots of unity)
INPUTS = {
    "X^7-1": (lambda: order_from_poly([-1, 0, 0, 0, 0, 0, 0, 1]), [14]),
    "Q(zeta15)": (lambda: order_from_poly(_cyclotomic(15)), [30]),
    "Q(zeta16)": (lambda: order_from_poly(_cyclotomic(16)), [16]),
    "Q(zeta11)": (lambda: order_from_poly(_cyclotomic(11)), [22]),
    "Q(zeta13)": (lambda: order_from_poly(_cyclotomic(13)), [26]),
    "Z[C_3^3]": (lambda: _group_ring(3, 3, 3), [3, 3, 6]),
    "Z[C_2^5]": (lambda: _group_ring(2, 2, 2, 2, 2), [2] * 6),
    "Z[C_4xC_8]": (lambda: _group_ring(4, 8), [2, 4, 8]),
    "SD16": (lambda: order_from_poly(_sum_of_roots(2, 3, 5, 7)), [2]),
    "CM16": (lambda: order_from_poly(_sum_of_roots(-1, 2, 3, 5)), [2]),
    "Q(zeta17)": (lambda: order_from_poly(_cyclotomic(17)), [34]),
    "Q(zeta19)": (lambda: order_from_poly(_cyclotomic(19)), [38]),
    "Q(zeta32)": (lambda: order_from_poly(_cyclotomic(32)), [32]),
}


def run_one(name):
    build, want = INPUTS[name]
    start = time.perf_counter()
    facs = mu_a_presentation(build()).invariant_factors
    seconds = time.perf_counter() - start
    return {"input": name, "seconds": round(seconds, 3), "invariant_factors": facs,
            "correct": facs == want}


def main(argv):
    if argv[:1] == ["--one"]:
        print(json.dumps(run_one(argv[1])))
        return 0
    names = argv or list(INPUTS)
    unknown = [n for n in names if n not in INPUTS]
    if unknown:
        print(f"unknown inputs {unknown}; choose from {list(INPUTS)}", file=sys.stderr)
        return 2
    failed = False
    print(f"{'input':<12} {'seconds':>10}  invariant factors")
    for name in names:
        try:
            proc = subprocess.run([sys.executable, __file__, "--one", name],
                                  capture_output=True, text=True, timeout=CAP_S)
        except subprocess.TimeoutExpired:
            print(f"{name:<12} {'>' + str(CAP_S):>10}  (stopped at the cap)", flush=True)
            continue
        if proc.returncode != 0:
            failed = True
            print(f"{name:<12} {'error':>10}  {proc.stderr.strip().splitlines()[-1:]}", flush=True)
            continue
        res = json.loads(proc.stdout)
        failed = failed or not res["correct"]
        mark = "" if res["correct"] else "  WRONG"
        print(f"{name:<12} {res['seconds']:>10.3f}  {res['invariant_factors']}{mark}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
