import json

import pytest

from ordroots.cli import main
from ordroots.orderdoc import (
    DocumentError,
    dump_canonical,
    parse_order_document,
    poly_order_document,
)


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
