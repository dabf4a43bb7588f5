"""Every frozen benchmark answer, checked in the test suite.

The subprocess replays every item of the three perfbench pools through
``perfbench/ops.py`` and checks each answer with ``ops.Checker``: its
digest against ``perfbench/expected.json`` and the checker's independent
re-derivation.  It runs in a fresh interpreter so that the process-wide
field table starts empty, as it does in a benchmark run.  Nothing under
``perfbench/`` is written.
"""

import os

from util import run_python

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

_REPLAY = """
import json
import os
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, %r)
import inputs
import ops

with open(os.path.join(%r, "expected.json")) as fh:
    expected = json.load(fh)
for name in sorted(inputs.WORKLOADS):
    workload = inputs.WORKLOADS[name]
    pool = inputs.build_pool(name)
    frozen = expected[name]
    if workload.kind == "query":
        state, op = ops.ServeState(), ops.query_op
    else:
        state, op = None, ops.order_op
    checker = ops.Checker(workload.kind, frozen["answers"], state)
    for index, item in enumerate(pool):
        try:
            text, extra = op(state, item.text)
        except Exception as e:
            checker.check(index, item, None, None, e)
        else:
            checker.check(index, item, text, extra)
    print(name, inputs.pool_digest(pool) == frozen["pool_sha256"], len(pool),
          len(checker.failures), *checker.failures[:3], sep="|")
"""


def test_every_pool_item_matches_its_frozen_answer():
    run = run_python([], _REPLAY % (PERFBENCH, PERFBENCH))
    assert run.returncode == 0, run.stderr
    rows = [line.split("|") for line in run.stdout.splitlines()]
    assert [row[:4] for row in rows] == [
        ["cyclotomic-mix", "True", "300", "0"],
        ["dlog-serve", "True", "2000", "0"],
        ["split-rank", "True", "200", "0"],
    ], rows
