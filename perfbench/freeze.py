"""Freeze the expected answers of every pool item into expected.json.

    python3 perfbench/freeze.py [--workload NAME ...]

Run it only at a commit whose answers are trusted: the benchmark compares
every later answer with these digests.  Each answer must first pass the
independent checks of ``ops.Checker``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import ops  # noqa: E402


def freeze(name: str) -> dict:
    pool = inputs.build_pool(name)
    workload = inputs.WORKLOADS[name]
    if workload.kind == "query":
        state, op = ops.ServeState(), ops.query_op
    else:
        state, op = None, ops.order_op
    checker = ops.Checker(workload.kind, None, state)
    answers = []
    done = {}  # segments repeat some inputs
    t0 = time.perf_counter()
    for index, item in enumerate(pool):
        if item.text not in done:
            text, extra = op(state, item.text)
            checker.check(index, item, text, extra)
            done[item.text] = ops.digest(text)
        answers.append(done[item.text])
    if checker.failures:
        raise SystemExit(f"{name}: {len(checker.failures)} answers fail the checks, "
                         f"first: {checker.failures[0]}")
    print(f"{name}: {len(pool)} answers in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return {"pool_sha256": inputs.pool_digest(pool), "answers": answers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS))
    args = ap.parse_args(argv)
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or sorted(inputs.WORKLOADS):
        expected[name] = freeze(name)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
