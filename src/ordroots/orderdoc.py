"""Order documents: the JSON file format the CLI reads and writes.

A document is a rank plus the flattened structure-constant tensor in
row-major (i, j, k) order.  Integer entries are decimal strings: an
optional sign and the ASCII digits 0-9, with optional surrounding ASCII
whitespace (no underscores and no other scripts' digits, which Python's
``int`` would take).  The parser also accepts plain JSON integers.
Either way an entry has at most ``sys.get_int_max_str_digits()`` digits
(4300 by default), Python's limit on converting between int and decimal
text; a longer one is bad input.  Canonical serialization (sorted keys,
two-space indent, trailing newline) is byte-stable under parse/serialize
round trips.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import List, Optional

from .linalg import ratio
from .ordercore import Order, order_from_poly
from .qalgebra import cell_coords


class DocumentError(ValueError):
    """Malformed order document or element vector."""


def _echo(v) -> str:
    """repr of an offending entry, cut to a short prefix when long."""
    r = repr(v)
    if len(r) <= 40:
        return r
    return f"{r[:24]}... ({len(v) if isinstance(v, str) else len(r)} characters)"


def _decimal(n: int) -> str:
    """str(n), or DocumentError when n has more digits than the limit."""
    try:
        return str(n)
    except ValueError:
        raise DocumentError(
            f"an output integer has more than {sys.get_int_max_str_digits()} digits") from None


def load_json(text: str):
    """json.loads, raising DocumentError on malformed text and on an
    integer longer than the conversion limit."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError is one, and so is the digit limit
        raise DocumentError(f"invalid JSON: {e}") from None


def parse_int(v):
    """An integer entry: a JSON integer or a decimal string, never a
    boolean or a float."""
    if isinstance(v, bool):
        raise DocumentError("booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        # int() alone also takes underscores and other scripts' digits
        # and spaces
        if v.isascii() and "_" not in v:
            try:
                return int(v, 10)
            except ValueError:  # not decimal, or more digits than the limit
                pass
        raise DocumentError(
            f"not a decimal integer of at most {sys.get_int_max_str_digits()} "
            f"digits: {_echo(v)}")
    raise DocumentError(f"not an integer entry: {_echo(v)}")


def parse_order_document(text: str):
    """(Order, labels) from document text."""
    doc = load_json(text)
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
    flat = [_decimal(int(c)) for row in order.algebra.table for cell in row
            for c in cell_coords(cell, n)]
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


def parse_rational(v) -> int | Fraction:
    """A rational entry, as a coordinate (``linalg.ratio``): an integer
    entry, or a string "p/q" of two decimal integers with q nonzero.
    Exponent and decimal-point forms are refused, since a short exponent
    can stand for an enormous integer."""
    try:
        if isinstance(v, str) and "/" in v:
            p, q = v.split("/", 1)
            p, q = parse_int(p), parse_int(q)
        else:
            p, q = parse_int(v), 1
    except DocumentError:
        raise DocumentError(
            f"not a rational number p or p/q of decimal integers of at most "
            f"{sys.get_int_max_str_digits()} digits: {_echo(v)}") from None
    if q == 0:
        raise DocumentError(f"zero denominator: {_echo(v)}")
    return ratio(p, q)


def parse_vector(v, rank: int):
    """Coordinate vector with integer or fraction entries."""
    if not isinstance(v, list) or len(v) != rank:
        raise DocumentError(f"vector must be a list of {rank} entries")
    return [parse_rational(e) for e in v]


def format_vector(v) -> List[str]:
    out = []
    for e in v:
        num = _decimal(e.numerator)
        out.append(num if e.denominator == 1 else f"{num}/{_decimal(e.denominator)}")
    return out
