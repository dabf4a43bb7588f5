import json
import time
from fractions import Fraction

import pytest

from ordroots.cli import main
from ordroots.orderdoc import (
    DocumentError,
    dump_canonical,
    parse_order_document,
    parse_vector,
    poly_order_document,
)
from ordroots.polyfactor import PRIME_BOUND


X4 = [-1, 0, 0, 0, 1]


@pytest.fixture()
def x4_doc(tmp_path):
    path = tmp_path / "x4.json"
    path.write_text(dump_canonical(poly_order_document(X4)), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_round_trip_byte_identical(tmp_path):
    text = dump_canonical(poly_order_document(X4))
    order, labels = parse_order_document(text)
    from ordroots.orderdoc import order_document

    again = dump_canonical(order_document(order, labels))
    assert again == text


def test_document_accepts_plain_ints():
    doc = {"rank": 1, "table": [1]}
    order, labels = parse_order_document(json.dumps(doc))
    assert order.rank == 1 and labels is None


def test_document_rejects_garbage():
    with pytest.raises(DocumentError):
        parse_order_document("{not json")
    with pytest.raises(DocumentError):
        parse_order_document(json.dumps({"rank": 2, "table": ["1"] * 7}))
    with pytest.raises(DocumentError):
        parse_order_document(json.dumps({"rank": 1, "table": ["x"]}))
    with pytest.raises(DocumentError):
        parse_order_document(json.dumps({"rank": 1}))


def test_from_poly_matches_library(capsys):
    code, out, err = run(capsys, ["from-poly", json.dumps(X4)])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4
    assert doc["table"][0] == "1"
    # canonical: serialize -> parse -> serialize is stable
    order, labels = parse_order_document(out)
    from ordroots.orderdoc import order_document

    assert dump_canonical(order_document(order, labels)) == out


def test_from_poly_rejects_nonmonic(capsys):
    code, _, err = run(capsys, ["from-poly", "[1, 2]"])
    assert code == 2
    assert "monic" in err


@pytest.mark.parametrize("coeffs", ["[1.5, 1]", "[true, 1]", "[1, 1.0]"])
def test_from_poly_rejects_floats_and_booleans(capsys, coeffs):
    code, out, err = run(capsys, ["from-poly", coeffs])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_from_poly_accepts_decimal_strings(capsys):
    assert run(capsys, ["from-poly", '["-1", " 0 ", 1]']) == run(capsys, ["from-poly", "[-1, 0, 1]"])
    assert run(capsys, ["from-poly", '["+12", "\\t-0\\n", "1"]']) == run(
        capsys, ["from-poly", "[12, 0, 1]"])


# what Python's int() takes but a decimal entry is not: underscores,
# Arabic-Indic, full-width and superscript digits, non-ASCII space, signs
# without digits or twice, and inner space
NOT_DECIMAL = ["1_000", "\u0661\u0662", "\uff11\uff12", "\u00b2", "\u00a012", "12\u2003",
               "+", "--1", "+-1", "1 2", "0x1f", "1e3"]


@pytest.mark.parametrize("entry", NOT_DECIMAL)
def test_from_poly_refuses_what_is_not_a_decimal_integer(capsys, entry):
    code, out, err = run(capsys, ["from-poly", json.dumps([entry, 1])])
    assert code == 2 and out == ""
    assert "not a decimal integer" in err


@pytest.mark.parametrize("entry", NOT_DECIMAL)
def test_table_entries_and_vectors_refuse_what_is_not_a_decimal_integer(entry):
    assert parse_order_document(json.dumps({"rank": 1, "table": ["1"]}))[0].rank == 1
    with pytest.raises(DocumentError, match="not a decimal integer"):
        parse_order_document(json.dumps({"rank": 1, "table": [entry]}))
    with pytest.raises(DocumentError, match="not a decimal integer"):
        parse_order_document(json.dumps({"rank": entry, "table": ["1"]}))
    for bad in (entry, f"{entry}/2", f"1/{entry}"):
        with pytest.raises(DocumentError, match="not a rational number"):
            parse_vector([bad], 1)


def test_dlog_refuses_an_element_entry_in_other_digits(capsys, x4_doc):
    for first in ("\u0661", "1_0", "\uff11/2"):
        element = [first, "0", "0", "0"]
        code, out, err = run(capsys, ["dlog", x4_doc, "--targets", '[["0","1","0","0"]]',
                                      "--element", json.dumps(element)])
        assert code == 2 and out == ""
        assert "not a rational number" in err


def test_idempotents_cmd(capsys, x4_doc, tmp_path):
    code, out, err = run(capsys, ["idempotents", x4_doc])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["idempotents"] == [["1", "0", "0", "0"]]
    # a split order shows two idempotents
    path = tmp_path / "split.json"
    path.write_text(dump_canonical(poly_order_document([0, -1, 1])), "utf-8")
    code, out, _ = run(capsys, ["idempotents", str(path)])
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_units_cmd(capsys, x4_doc):
    code, out, err = run(capsys, ["units", x4_doc])
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == ["2", "4"]
    assert doc["group_order"] == "8"
    assert "torsion unit group" in err


def test_dlog_cmd(capsys, x4_doc):
    code, out, _ = run(capsys, [
        "dlog", x4_doc,
        "--targets", '[["0","1","0","0"], ["-1","0","0","0"]]',
        "--element", '["0","0","0","-1"]',
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True
    code, out, _ = run(capsys, [
        "dlog", x4_doc,
        "--targets", '[["0","0","-1","0"]]',
        "--element", '["-1","0","0","0"]',
    ])
    assert code == 1
    assert json.loads(out) == {"member": False, "reason": "not-in-subgroup"}
    code, out, _ = run(capsys, [
        "dlog", x4_doc,
        "--targets", '[["0","1","0","0"]]',
        "--element", '["1","1","0","0"]',
    ])
    assert code == 1
    assert json.loads(out) == {"member": False, "reason": "not-root-of-unity"}
    # malformed element: exit 2
    code, _, err = run(capsys, [
        "dlog", x4_doc, "--targets", "[]", "--element", '["1","0"]',
    ])
    assert code == 2
    # non-torsion target: exit 2, reported distinctly
    code, _, err = run(capsys, [
        "dlog", x4_doc,
        "--targets", '[["1","1","0","0"]]',
        "--element", '["1","0","0","0"]',
    ])
    assert code == 2
    assert "root of unity" in err


def test_dlog_element_entries(capsys, x4_doc):
    import time

    def dlog(element):
        return run(capsys, ["dlog", x4_doc, "--targets", '[["0","1","0","0"]]',
                            "--element", json.dumps(element)])

    # an exponent entry stands for a huge integer: refused, not expanded
    t0 = time.perf_counter()
    code, _, err = dlog(["1e10000000", "0", "0", "0"])
    assert time.perf_counter() - t0 < 1
    assert code == 2 and "1e10000000" in err
    code, _, err = dlog(["3/0", "0", "0", "0"])
    assert code == 2 and "3/0" in err
    # p/q entries still parse: 1/2 is a rational element, not a root of unity
    code, out, _ = dlog(["1/2", "0", "0", "0"])
    assert code == 1
    assert json.loads(out) == {"member": False, "reason": "not-root-of-unity"}
    assert parse_vector(["1/2", "-3/2", 7, " 4 "], 4) == [
        Fraction(1, 2), Fraction(-3, 2), Fraction(7), Fraction(4)]
    for bad in ["1.5", "1/2/3", "/2", "2/", "", True, 1.5]:
        with pytest.raises(DocumentError):
            parse_vector([bad], 1)


def test_failed_self_check_is_an_internal_error(capsys, x4_doc, monkeypatch):
    # a self-check that fails is neither a "no" (1) nor bad input (2)
    from ordroots.abgroup import EffPresentation

    def broken(self):
        raise AssertionError("relation does not hold")

    monkeypatch.setattr(EffPresentation, "verify_exact", broken)
    code, out, err = run(capsys, [
        "dlog", x4_doc,
        "--targets", '[["0","1","0","0"]]',
        "--element", '["0","0","0","1"]',
    ])
    assert code == 3
    assert out == ""
    assert err == "internal error: relation does not hold\n"


_COMMANDS = {
    "idempotents": [],
    "units": [],
    "dlog": ["--targets", '[["0","1","0","0"]]', "--element", '["0","0","0","1"]'],
    "graph": [],
    "graph --prime": ["--prime", "2"],
    "decompose": [],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_any_other_fault_is_an_internal_error(capsys, x4_doc, monkeypatch, command):
    # a fault that is no self-check is neither a "no" (1) nor bad input (2)
    from ordroots.ordercore import EmbeddedOrder

    def broken(self):
        raise ValueError("table lookup failed")

    monkeypatch.setattr(EmbeddedOrder, "mult_table", broken)
    code, out, err = run(capsys, [command.split()[0], x4_doc] + _COMMANDS[command])
    assert code == 3
    assert out == ""
    assert err == "internal error: ValueError: table lookup failed\n"


def test_a_fault_in_from_poly_is_an_internal_error(capsys, monkeypatch):
    from ordroots import cli

    def broken(coeffs):
        raise KeyError("coefficient")

    monkeypatch.setattr(cli, "poly_order_document", broken)
    code, out, err = run(capsys, ["from-poly", '["-1", "0", "1"]'])
    assert code == 3
    assert out == ""
    assert err == "internal error: KeyError: 'coefficient'\n"


def test_graph_cmd(capsys, tmp_path):
    path = tmp_path / "x12.json"
    path.write_text(dump_canonical(poly_order_document([-1] + [0] * 11 + [1])), "utf-8")
    code, out, _ = run(capsys, ["graph", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 9
    weights = sorted(int(e["weight"]) for e in doc["edges"])
    assert weights == [2, 2, 2, 3, 3, 4, 4, 4, 9]
    assert len(doc["components"]) == 1
    code, out, _ = run(capsys, ["graph", str(path), "--prime", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["prime"] == 3
    assert sorted(len(c) for c in doc["components"]) == [3, 3]
    # non-separable order: rejected
    bad = tmp_path / "dual.json"
    bad.write_text(dump_canonical(poly_order_document([0, 0, 1])), "utf-8")
    code, _, err = run(capsys, ["graph", str(bad)])
    assert code == 2
    assert "separable" in err


def test_graph_rejects_a_prime_that_is_not_prime(capsys, x4_doc):
    for bad in ("4", "1", "-3"):
        code, out, err = run(capsys, ["graph", x4_doc, "--prime", bad])
        assert code == 2
        assert out == ""
        assert "must be a prime" in err


def test_graph_decides_a_large_prime_quickly(capsys, x4_doc):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["graph", x4_doc, "--prime", str(2 ** 64 - 59)])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["prime"] == 2 ** 64 - 59


def test_graph_refuses_a_prime_past_the_exact_test(capsys, x4_doc):
    # 5000000000000000000000041 is prime, but past the bound below which
    # Miller-Rabin on the bases 2 ... 41 decides primality exactly
    code, out, err = run(capsys, ["graph", x4_doc, "--prime", "5000000000000000000000041"])
    assert code == 2
    assert out == ""
    assert str(PRIME_BOUND) in err


def test_decompose_cmd(capsys, x4_doc):
    code, out, _ = run(capsys, ["decompose", x4_doc])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["component_degrees"]) == [1, 1, 2]
    assert doc["index_b_over_sep"] == "8"
    assert doc["primes"] == [2]
    assert doc["local"] == [
        {"prime": 2, "index_c_over_sep": "8", "index_b_over_c": "1"}
    ]


def test_invalid_order_document_exit_code(capsys, tmp_path):
    # associative but identity-free table: exit 2 with diagnostics
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "table": ["0"]}), "utf-8")
    code, _, err = run(capsys, ["idempotents", str(path)])
    assert code == 2
    assert "identity" in err


def test_rank_zero_document(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rank": 0, "table": []}), "utf-8")
    code, out, _ = run(capsys, ["idempotents", str(path)])
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, out, _ = run(capsys, ["units", str(path)])
    assert code == 0
    assert json.loads(out)["group_order"] == "1"


def test_verbose_env(capsys, x4_doc, monkeypatch):
    monkeypatch.setenv("ORDROOTS_VERBOSE", "1")
    code, out, err = run(capsys, ["units", x4_doc])
    assert code == 0
    assert "torsion primes" in err


def test_determinism_across_runs(capsys, x4_doc):
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, ["units", x4_doc])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_cli_subprocess_entry(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "x4.json"
    path.write_text(dump_canonical(poly_order_document(X4)), "utf-8")
    r1 = subprocess.run(
        [sys.executable, "-m", "ordroots.cli", "units", str(path)],
        capture_output=True, text=True,
    )
    r2 = subprocess.run(
        [sys.executable, "-m", "ordroots.cli", "units", str(path)],
        capture_output=True, text=True,
    )
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert json.loads(r1.stdout)["invariant_factors"] == ["2", "4"]


X12 = [-1] + [0] * 11 + [1]
# X(X-1)(X-2)(X+1)(X+2)(X-3): split over Q, its units descend through 1 + I
SPLIT6 = [0, -12, 4, 15, -5, -3, 1]


@pytest.mark.parametrize("poly, argv, code", [
    (X12, ["units"], 0),
    (X12, ["dlog", "--targets", '[["0","1","0","0","0","0","0","0","0","0","0","0"]]',
           "--element", '["0","0","0","0","0","0","0","0","0","1","0","0"]'], 0),
    (X12, ["dlog", "--targets", '[["0","0","0","0","0","0","1","0","0","0","0","0"]]',
           "--element", '["0","0","0","0","1","0","0","0","0","0","0","0"]'], 1),
    (X12, ["dlog", "--targets", '[["0","1","0","0","0","0","0","0","0","0","0","0"]]',
           "--element", '["2","0","0","0","0","0","0","0","0","0","0","0"]'], 1),
    (SPLIT6, ["units"], 0),
], ids=["units", "dlog-member", "dlog-not-in-subgroup", "dlog-not-root-of-unity",
        "units-split"])
def test_same_answers_under_optimize(tmp_path, poly, argv, code):
    # python -O drops assert statements; the answers must not depend on them
    import os
    import subprocess
    import sys

    path = tmp_path / "order.json"
    path.write_text(dump_canonical(poly_order_document(poly)), "utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cmd = ["-m", "ordroots.cli", argv[0], str(path)] + argv[1:]
    plain = subprocess.run([sys.executable] + cmd, capture_output=True, text=True, env=env)
    opt = subprocess.run([sys.executable, "-O"] + cmd, capture_output=True, text=True, env=env)
    assert plain.returncode == code, plain.stderr
    assert opt.returncode == code, opt.stderr
    assert opt.stdout == plain.stdout != ""


BIG = "1" + "0" * 5000  # past Python's 4300-digit limit on int <-> str


@pytest.mark.parametrize("argv, document", [
    (["from-poly", f"[{BIG}, 1]"], None),
    (["from-poly", f'["{BIG}", 1]'], None),
    # fits the limit, but X^4 mod f has twice as many digits
    (["from-poly", f'[-1, 0, "-{"7" * 3000}", 1]'], None),
    (["dlog", "--targets", f"[[{BIG}, 0, 0, 0]]", "--element", "[1, 0, 0, 0]"], X4),
    (["dlog", "--targets", f'[["{BIG}/3", 0, 0, 0]]', "--element", "[1, 0, 0, 0]"], X4),
    (["units"], '{"rank": 1, "table": [' + BIG + "]}"),
], ids=["from-poly-int", "from-poly-string", "from-poly-output", "dlog-int", "dlog-string",
        "units-int"])
def test_big_integers_are_bad_input(capsys, tmp_path, argv, document):
    if document is not None:
        path = tmp_path / "order.json"
        text = document if isinstance(document, str) else dump_canonical(poly_order_document(document))
        path.write_text(text, "utf-8")
        argv = argv[:1] + [str(path)] + argv[1:]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.encode()) < 200
    assert "Traceback" not in err
