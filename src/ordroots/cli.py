"""Batch command-line front end.

Reads an order from a JSON document, runs one pipeline, prints a
machine-readable JSON result to stdout and a one-line summary to stderr.
Exit codes: 0 success, 1 mathematical "no" (discrete-log non-membership),
2 invalid input, 3 internal error (a self-check of the library failed,
or any other exception was raised while answering a valid document;
nothing is printed to stdout).  Identical inputs produce byte-identical
output.

Set ORDROOTS_VERBOSE=1 for slightly chattier stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .abgroup import NotInGroup
from .orderdoc import (
    DocumentError,
    dump_canonical,
    format_vector,
    load_json,
    parse_int,
    parse_order_document,
    parse_vector,
    poly_order_document,
)
from .ordercore import build_context, build_saturation, graph_mod_p, primitive_idempotents_ctx
from .polyfactor import PRIME_BOUND, _is_prime
from .qalgebra import AlgebraError
from .rou import mu_a_presentation, mu_e_subgroup_dlog


def _say(msg):
    print(msg, file=sys.stderr)


def _verbose():
    return os.environ.get("ORDROOTS_VERBOSE") == "1"


def _emit(doc):
    sys.stdout.write(dump_canonical(doc))


def _load_order(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    return parse_order_document(text)


def cmd_idempotents(args) -> int:
    order, _ = _load_order(args.file)
    ctx = build_context(order)
    idems = primitive_idempotents_ctx(ctx)
    _emit({
        "count": len(idems),
        "idempotents": [format_vector(e) for e in idems],
    })
    if _verbose():
        _say(f"component degrees {[K.deg for K in ctx.dec.components]}, "
             f"nilradical dimension {len(ctx.dec.nil_basis)}")
    _say(f"{len(idems)} primitive idempotent(s), one per graph component")
    return 0


def cmd_units(args) -> int:
    order, _ = _load_order(args.file)
    pres = mu_a_presentation(order)
    _emit({
        "generators": [format_vector(g) for g in pres.generators],
        "relations": [[str(e) for e in r] for r in pres.relations],
        "invariant_factors": [str(f) for f in pres.invariant_factors],
        "group_order": str(pres.group_order),
    })
    if _verbose():
        _say(f"{len(pres.generators)} raw generator(s) over torsion primes "
             f"{pres.ctx.torsion_primes()}")
    _say(
        f"torsion unit group of order {pres.group_order}, "
        f"invariant factors {pres.invariant_factors}"
    )
    return 0


def cmd_dlog(args) -> int:
    order, _ = _load_order(args.file)
    targets_raw = load_json(args.targets)
    element_raw = load_json(args.element)
    if not isinstance(targets_raw, list):
        raise DocumentError("targets must be a JSON list of vectors")
    targets = [parse_vector(t, order.rank) for t in targets_raw]
    element = parse_vector(element_raw, order.rank)
    # built outside the try: only a target that is no root of unity is bad input
    ctx = build_context(order)
    ctx.field_torsion()
    try:
        sol, reason = mu_e_subgroup_dlog(ctx, targets, element)
    except ValueError as e:
        raise DocumentError(str(e)) from None
    if sol is None:
        _emit({"member": False, "reason": reason})
        _say(f"no: {reason}")
        return 1
    _emit({"member": True, "exponents": [str(e) for e in sol]})
    _say(f"member: exponents {sol}")
    return 0


def cmd_graph(args) -> int:
    prime = args.prime
    if prime is not None and prime >= PRIME_BOUND:
        raise DocumentError(f"--prime must be below {PRIME_BOUND}, the bound of the "
                            f"exact primality test, got {prime}")
    if prime is not None and not _is_prime(prime):
        raise DocumentError(f"--prime must be a prime, got {prime}")
    order, _ = _load_order(args.file)
    ctx = build_context(order)
    if prime is None:
        if ctx.dec.nil_basis:
            raise DocumentError(
                "order is not separable; the graph is defined for separable orders"
            )
        graph = ctx.graph()
    else:
        graph = graph_mod_p(ctx, prime)
    doc = {
        "vertices": [
            {"index": i, "degree": ctx.dec.components[i].deg}
            for i in range(len(ctx.dec.components))
        ],
        "edges": [
            {"a": a, "b": b, "weight": str(graph.weight(a, b))}
            for a, b in graph.edges
        ],
        "components": graph.components,
    }
    if prime is not None:
        doc["prime"] = prime
    _emit(doc)
    _say(
        f"{graph.nvertices} vertices, {len(graph.edges)} edge(s), "
        f"{len(graph.components)} component(s)"
        + (f" at p={prime}" if prime is not None else "")
    )
    return 0


def cmd_decompose(args) -> int:
    order, _ = _load_order(args.file)
    ctx = build_context(order)
    primes = ctx.torsion_primes()
    local = []
    for p in primes:
        tow = build_saturation(ctx, p)
        local.append({
            "prime": p,
            "index_c_over_sep": str(tow.index_c_over_sep),
            "index_b_over_c": str(tow.index_b_over_c),
        })
    _emit({
        "component_degrees": [K.deg for K in ctx.dec.components],
        "nilradical_dim": len(ctx.dec.nil_basis),
        "index_b_over_sep": str(ctx.index_b_over_sep),
        "primes": primes,
        "local": local,
    })
    _say(
        f"{len(ctx.dec.components)} component(s) of degrees "
        f"{[K.deg for K in ctx.dec.components]}, torsion primes {primes}"
    )
    return 0


def cmd_from_poly(args) -> int:
    coeffs = load_json(args.coeffs)
    if not isinstance(coeffs, list) or len(coeffs) < 2:
        raise DocumentError("coefficients must be a JSON list, lowest degree first")
    ints = [parse_int(c) for c in coeffs]
    if ints[-1] != 1:
        raise DocumentError("defining polynomial must be monic")
    _emit(poly_order_document(ints))
    _say(f"order of rank {len(ints) - 1} on the power basis")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ordroots",
        description="Exact computations with orders: primitive idempotents, "
                    "torsion units with relations, and discrete logarithms.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idempotents", help="list the primitive idempotents")
    p.add_argument("file", help="order document (JSON)")
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("units", help="generators and relations of the torsion units")
    p.add_argument("file", help="order document (JSON)")
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("dlog", help="discrete log in a subgroup of the torsion units")
    p.add_argument("file", help="order document (JSON)")
    p.add_argument("--targets", required=True,
                   help="JSON list of generator coordinate vectors")
    p.add_argument("--element", required=True,
                   help="JSON coordinate vector of the element to decompose")
    p.set_defaults(func=cmd_dlog)

    p = sub.add_parser("graph", help="component graph with lattice-index weights")
    p.add_argument("file", help="order document (JSON)")
    p.add_argument("--prime", type=int, default=None,
                   help="graph of the p-saturation order instead")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("decompose", help="component degrees and tower indices")
    p.add_argument("file", help="order document (JSON)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("from-poly", help="order document for Z[X]/(f), f monic")
    p.add_argument("coeffs", help="JSON list of integer coefficients, lowest first")
    p.set_defaults(func=cmd_from_poly)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, AlgebraError, NotInGroup) as e:
        _say(f"error: {e}")
        return 2
    except AssertionError as e:
        _say(f"internal error: {e or 'a self-check failed'}")
        return 3
    except Exception as e:
        _say(f"internal error: {type(e).__name__}: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
