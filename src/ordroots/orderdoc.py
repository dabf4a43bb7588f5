"""Order documents: the JSON file format the CLI reads and writes.

A document is a rank plus the flattened structure-constant tensor in
row-major (i, j, k) order.  Integer entries are decimal strings so that
arbitrary precision survives serialization; the parser also accepts
plain JSON integers.  Canonical serialization (sorted keys, two-space
indent, trailing newline) is byte-stable under parse/serialize round
trips.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional

from .ordercore import Order, order_from_poly


class DocumentError(ValueError):
    """Malformed order document or element vector."""


def parse_int(v):
    """An integer entry: a JSON integer or a decimal string, never a
    boolean or a float."""
    if isinstance(v, bool):
        raise DocumentError("booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        s = v.strip()
        try:
            return int(s, 10)
        except ValueError:
            raise DocumentError(f"not a decimal integer: {v!r}") from None
    raise DocumentError(f"not an integer entry: {v!r}")


def parse_order_document(text: str):
    """(Order, labels) from document text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if "rank" not in doc or "table" not in doc:
        raise DocumentError("document needs 'rank' and 'table'")
    n = parse_int(doc["rank"])
    if n < 0:
        raise DocumentError("rank must be nonnegative")
    table = doc["table"]
    if not isinstance(table, list) or len(table) != n * n * n:
        raise DocumentError(f"table must be a flat list of {n}^3 entries")
    flat = [parse_int(v) for v in table]
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n or \
                not all(isinstance(s, str) for s in labels):
            raise DocumentError("labels must be a list of rank strings")
    order = Order.from_tensor(n, flat)
    return order, labels


def order_document(order: Order, labels: Optional[List[str]] = None) -> dict:
    n = order.rank
    flat = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                flat.append(str(int(order.algebra.table[i][j][k])))
    doc = {"rank": n, "table": flat}
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def dump_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def poly_order_document(coeffs) -> dict:
    """Document for Z[X]/(f), f monic with the given integer coefficients
    (lowest degree first), labeled by the power basis."""
    order = order_from_poly(coeffs)
    labels = ["1"] + [f"X^{i}" if i > 1 else "X" for i in range(1, order.rank)]
    return order_document(order, labels)


def parse_rational(v) -> Fraction:
    """A rational entry: an integer entry, or a string "p/q" of two
    decimal integers with q nonzero.  Exponent and decimal-point forms are
    refused, since a short exponent can stand for an enormous integer."""
    try:
        if isinstance(v, str) and "/" in v:
            p, q = v.split("/", 1)
            p, q = parse_int(p), parse_int(q)
        else:
            p, q = parse_int(v), 1
    except DocumentError:
        raise DocumentError(f"not a rational number: {v!r}") from None
    if q == 0:
        raise DocumentError(f"zero denominator: {v!r}")
    return Fraction(p, q)


def parse_vector(v, rank: int):
    """Coordinate vector with integer or fraction entries."""
    if not isinstance(v, list) or len(v) != rank:
        raise DocumentError(f"vector must be a list of {rank} entries")
    return [parse_rational(e) for e in v]


def format_vector(v) -> List[str]:
    out = []
    for e in v:
        f = Fraction(e)
        out.append(str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}")
    return out
