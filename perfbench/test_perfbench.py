"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench

They cover the generators, the self-time computation, the tracer's
wrapping and the answer checks; none of them times anything.
"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generators_are_deterministic_by_seed(name):
    pool = inputs.build_pool(name)
    assert inputs.pool_digest(pool) == inputs.pool_digest(inputs.build_pool(name))
    assert inputs.pool_digest(pool) == EXPECTED[name]["pool_sha256"]

    def texts(seed):
        blocks = islice(inputs.stream(pool, seed), 3)
        return "".join(pool[i].text for block in blocks for i in block)

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)
    # whatever the seed, a block holds one whole segment
    first = next(inputs.stream(pool, 7))
    assert sorted(first) == sorted(next(inputs.stream(pool, 8)))
    assert {pool[i].segment for i in first} == {0}


def test_inputs_match_the_library_formats():
    from ordroots.orderdoc import dump_canonical, poly_order_document
    from ordroots.polyfactor import cyclotomic

    for f in ([-1, 0, 0, 0, 1], [6, -5, -2, 1], inputs.cyclotomic(12)):
        assert inputs.poly_document(f) == dump_canonical(poly_order_document(f))
    for d in range(1, 40):
        assert inputs.cyclotomic(d) == [int(c) for c in cyclotomic(d)]


def test_split_count_matches_the_oracle():
    from ordroots.ordercore import idempotent_divisor_oracle

    for roots in ((0, 1), (0, 1, 2), (-2, 0, 1, 5), (-3, -1, 0, 2, 3)):
        f = [1]
        for a in roots:
            f = inputs.poly_mul(f, [-a, 1])
        assert ops.split_idempotent_count(roots) == len(idempotent_divisor_oracle(f))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] > a [1, 6] > b [2, 3], c [4, 5]; root > d [7, 9]
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    ids = {n: t.name_id(n) for n in (tracer.ROOT, "linalg.a", "kernels.b",
                                     "kernels.c", "numfield.d")}
    root = t.open(ids[tracer.ROOT])
    a = t.open(ids["linalg.a"])
    t.close(t.open(ids["kernels.b"]))
    t.close(t.open(ids["kernels.c"]))
    t.close(a)
    t.close(t.open(ids["numfield.d"]))
    t.close(root)
    assert list(t.parent) == [-1, 0, 1, 1, 0]
    assert tracer.self_times(t) == [3, 3, 1, 1, 2]
    stats = tracer.layer_stats(t)
    assert stats["linalg.self_s"] == 3
    assert stats["kernels.self_s"] == 2
    assert stats["kernels.self_share"] == 0.2
    assert stats["numfield.d.calls"] == 1
    assert stats["trace.spans"] == 5


def test_tracer_records_and_restores():
    import ordroots
    from ordroots import kernels, linalg

    originals = (kernels.hnf_cols, linalg.kernel_int, ordroots.kernel_int,
                 linalg.Lattice.reduce)
    t = tracer.Tracer()
    t.install()
    try:
        assert ordroots.kernel_int is linalg.kernel_int is not originals[1]
        ordroots.kernel_int(linalg.IntMatrix(2, [[1, 2], [2, 4]]))
    finally:
        t.uninstall()
    assert (kernels.hnf_cols, linalg.kernel_int, ordroots.kernel_int,
            linalg.Lattice.reduce) == originals
    stats = tracer.layer_stats(t)
    assert stats["linalg.kernel_int.calls"] == 1
    assert stats["kernels.hnf_cols.calls"] >= 1
    assert stats["kernels.hnf_cols.cells"] >= 4


def test_every_metric_is_emitted_and_predicted():
    spans = {name for name, _, _ in tracer.TARGETS}
    derived = {f"{layer}.{stat}" for layer in tracer.LAYERS
               for stat in ("self_s", "self_share")}
    derived |= {"numfield.roots_in_field.hit_ratio", "kernels.hnf_cols.cells",
                "abgroup.raised", "trace.spans", "trace.overhead_frac"}
    predicted = {m for group in json.loads((HERE / "predictions.json").read_text())
                 for m in group["metrics"]}
    names = [m["name"] for m in BENCH["per_layer"]]
    assert set(names) == predicted
    for name in names:
        span, stat = name.rsplit(".", 1)
        assert name in derived or (span in spans and stat in ("calls", "self_s")), name


def test_checker_counts_a_corrupted_answer():
    r = run.Run("dlog-serve", 3, EXPECTED)
    block = next(r.blocks)[:60]
    for index in block:
        r.run_and_check(index)
    assert r.checker.failures == []
    # the frozen digest catches a changed answer text
    index = block[0]
    _, _, text, extra, _ = r.call(index)
    r.checker.check(index, r.pool[index], text.replace('"', "'"), extra)
    assert len(r.checker.failures) == 1
    # the independent check catches wrong exponents behind a matching text
    yes = next(i for i, item in enumerate(r.pool) if item.cls == "unip-yes")
    _, _, text, (q, sol, reason), _ = r.call(yes)
    r.checker.check(yes, r.pool[yes], text, (q, [e + 1 for e in sol], reason))
    assert len(r.checker.failures) == 2
    # a "no" with the wrong reason
    nis = next(i for i, item in enumerate(r.pool) if item.cls == "mue-nis")
    _, _, text, (q, sol, _), _ = r.call(nis)
    r.checker.check(nis, r.pool[nis], text, (q, sol, "not-root-of-unity"))
    assert len(r.checker.failures) == 3


def test_checker_rejects_a_bad_torsion_generator():
    pool = inputs.build_pool("cyclotomic-mix")
    checker = ops.Checker("order", EXPECTED["cyclotomic-mix"]["answers"])
    index = next(i for i, item in enumerate(pool) if item.meta[0] == tuple(inputs.cyclotomic(4)))
    text, (order, idems, pres) = ops.order_op(None, pool[index].text)
    checker.check(index, pool[index], text, (order, idems, pres))
    assert checker.failures == []
    pres.generators[0] = tuple(2 * c for c in pres.generators[0])
    checker.check(index, pool[index], text, (order, idems, pres))
    assert len(checker.failures) == 1


def test_compare_refuses_mixed_kernels():
    def result(impl, value):
        return {"labels": {"ACTIVE_IMPL": impl}, "workload": "split-rank",
                "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}

    spec = {m["name"]: m for m in BENCH["end_to_end"]}
    with pytest.raises(ValueError):
        compare.compare([result("python", 1.0)], [result("c", 2.0)], spec)
    rows = compare.compare([result("python", 1.0)], [result("python", 0.5)], spec)
    assert rows[0][-1] == "WORSE"


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
