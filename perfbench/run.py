"""End-to-end benchmark of the ordroots library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
as it is, with whichever kernels ``ordroots.kernels`` selects.  One
process, one thread, one closed-loop client: each operation starts when
the previous one has returned.

--trace 0 measures the end-to-end metrics of BENCHMARK.json.  Whole
blocks of the seeded stream run, at least one, until ``--seconds`` have
passed.

On a shared virtual machine the speed of the same Python work drifts by
tens of percent over seconds to minutes, and it moves every operation
alike.  So each time is calibrated: a fixed
pure-Python probe (Fraction and dict work, like the library's) runs
just before and just after each timed region, and the region's wall
time is scaled by REF_PROBE_S over the probes' mean.  Times are
therefore seconds at the reference speed, at which the probe takes
REF_PROBE_S; the result file also keeps the raw wall times.

--trace 1 wraps the library's public functions from outside
(``tracer.py``) and runs the first operations of the first block, each
untraced and then traced, and reports the per-layer metrics and the
tracing overhead.

Both modes check every answer outside the timed region, print a
readable summary, write a labelled result file under
``perfbench/results/`` and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
REF_PROBE_S = 0.0005  # probe time at the reference speed
SAMPLE_S = 0.025  # probe interval during a timed region


def _probe_work():
    acc = Fraction(0)
    x = Fraction(3, 7)
    seen = {}
    for i in range(120):
        acc = acc * x + i
        seen[i % 17] = (acc.numerator % 1000003, acc.denominator % 1000003)
    return seen


def probe() -> float:
    """Seconds the fixed probe takes now: the least of three tries."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t)
    return best


def calibrated(fn, sample=True):
    """(result, calibrated seconds, wall seconds) of fn().

    The host's speed is the mean of REF_PROBE_S over the probe's time,
    probed before and after fn and, with ``sample``, every SAMPLE_S of
    wall time during it from a timer signal.  The probes taken during fn
    are subtracted from its wall time."""
    inside = []
    ticks = 0.0

    def on_alarm(signum, frame):
        nonlocal ticks
        t = time.perf_counter()
        inside.append(probe())
        ticks += time.perf_counter() - t

    before = probe()
    if sample:
        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    after = probe()
    probes = [before, after] + inside
    speed = sum(REF_PROBE_S / p for p in probes) / len(probes)
    wall -= ticks
    return out, wall * speed, wall


def git_commit() -> str:
    """Commit of the checkout from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def labels(ordroots) -> dict:
    return {
        "ACTIVE_IMPL": ordroots.ACTIVE_IMPL,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """One workload's inputs, serving state and answer checker."""

    def __init__(self, name: str, seed: int, expected: dict):
        import inputs
        import ops

        self.workload = inputs.WORKLOADS[name]
        self.pool = inputs.build_pool(name)
        frozen = expected[name]
        if inputs.pool_digest(self.pool) != frozen["pool_sha256"]:
            raise SystemExit(f"perfbench: the {name} pool does not match expected.json; "
                             "regenerate it with perfbench/freeze.py at a trusted commit")
        self.blocks = inputs.stream(self.pool, seed)
        if self.workload.kind == "query":
            self.state = ops.ServeState()
            self.op = ops.query_op
            warm = {}
            for item in self.pool:
                warm.setdefault(item.cls, item)
            for item in warm.values():  # fill the per-field torsion caches
                self.op(self.state, item.text)
        else:
            self.state = None
            self.op = ops.order_op
        self.checker = ops.Checker(self.workload.kind, frozen["answers"], self.state)

    def call(self, index: int, sample=True):
        """(calibrated seconds, wall seconds, answer text, extra, error) of
        one operation."""
        def op():
            try:
                return self.op(self.state, self.pool[index].text), None
            except Exception as e:  # counted as a failed operation
                return (None, None), e

        ((text, extra), error), secs, wall = calibrated(op, sample)
        return secs, wall, text, extra, error

    def run_and_check(self, index: int):
        secs, wall, text, extra, error = self.call(index)
        self.checker.check(index, self.pool[index], text, extra, error)
        return secs, wall


def timed(run: Run, seconds: float):
    """Calibrated and wall seconds of every operation of whole blocks."""
    secs, walls = [], []
    start = time.perf_counter()
    for block in run.blocks:
        for index in block:
            s, w = run.run_and_check(index)
            secs.append(s)
            walls.append(w)
        if time.perf_counter() - start >= seconds:
            return secs, walls


def traced(run: Run):
    """Per-layer metrics of the first operations of the first block.  Each
    operation runs untraced, then traced, so that drift cancels out of
    the overhead."""
    from tracer import ROOT as ROOT_SPAN
    from tracer import Tracer, layer_stats

    indices = next(run.blocks)[: run.workload.trace_ops]
    tracer = Tracer()
    root = tracer.name_id(ROOT_SPAN)
    traced_s = untraced_s = 0.0
    for request, index in enumerate(indices):
        secs, _, text, extra, error = run.call(index, sample=False)
        run.checker.check(index, run.pool[index], text, extra, error)
        untraced_s += secs
        tracer.request_id = request
        tracer.install()
        try:
            span = tracer.open(root)
            # no probes inside the spans: they would count as self time
            secs, _, text, extra, error = run.call(index, sample=False)
            tracer.close(span)
        finally:
            tracer.uninstall()
        traced_s += secs
        run.checker.check(index, run.pool[index], text, extra, error)
    stats = layer_stats(tracer)
    stats["trace.overhead_frac"] = traced_s / untraced_s - 1
    return stats, tracer, 2 * len(indices)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))

    def load():
        import ordroots

        return ordroots

    try:
        ordroots, import_s, _ = calibrated(load)
    except ImportError as e:
        print(f"perfbench: cannot import ordroots from {src}: {e}", file=sys.stderr)
        return 2
    if Path(ordroots.__file__).resolve().parent != src / "ordroots":
        print(f"perfbench: ordroots was imported from {ordroots.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())

    setups = []
    for _ in range(SETUP_REPEATS):
        run, secs, _ = calibrated(lambda: Run(args.workload, args.seed, expected))
        setups.append(secs)
    setup_s = import_s + statistics.median(setups)

    spans = None
    wall = {}
    if args.trace:
        values, spans, attempted = traced(run)
        specs = bench["per_layer"]
    else:
        secs, walls = timed(run, args.seconds)
        attempted = len(secs)
        tail = run.workload.tail
        values = {
            "setup_s": setup_s,
            "ops_per_s": attempted / sum(secs),
            "op_s_p50": statistics.median(secs),
            "op_s_tail": percentile(secs, tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall = {"ops_per_s": attempted / sum(walls), "op_s_p50": statistics.median(walls),
                "op_s_tail": percentile(walls, tail)}
        specs = bench["end_to_end"]
    failed = len(run.checker.failures)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}

    label = labels(ordroots)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in label.items()))
    for why in run.checker.failures[:10]:
        print(f"FAILED {why}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    else:
        what, whats = ("order", "orders") if run.workload.kind == "order" else ("query", "queries")
        beyond = attempted - int(attempted * tail / 100)
        rows = [(f"{whats}_per_s", "ops_per_s", "1/s", f"{attempted} {whats}"),
                (f"{what}_s_p50", "op_s_p50", "s", ""),
                (f"{what}_s_p{tail}", "op_s_tail", "s", f"{beyond} samples beyond it")]
        print(f"  {'metric':<18} {'calibrated':>12} {'wall':>12}")
        for shown, name, unit, note in rows:
            print(f"  {shown:<18} {values[name]:>12.6f} {wall[name]:>12.6f} {unit:<4} {note}")
        print(f"  {'setup_s':<18} {setup_s:>12.6f} {'':>12} s    median of {SETUP_REPEATS}")
        print(f"  {'peak_rss_mb':<18} {values['peak_rss_mb']:>12.1f} {'':>12} MB")
        print(f"  {'failed_frac':<18} {failed / attempted:>12.4f} {'':>12}      "
              f"{failed} of {attempted}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"labels": label, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failures": run.checker.failures, "metrics": metrics, "wall": wall}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        spans.write(str(RESULTS / f"{stem}.spans.tsv.gz"))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
