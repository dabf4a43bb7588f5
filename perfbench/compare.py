"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories of them.
For every workload and end-to-end metric it prints both medians and the
change, marking a change worse than the metric's bound in BENCHMARK.json.
It refuses to compare results whose ACTIVE_IMPL labels differ, so that
pure-Python and compiled kernels never pass as a regression or a gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path):
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def impls(results):
    return {r["labels"]["ACTIVE_IMPL"] for r in results}


def medians(results):
    values = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            values[(r["workload"], name)].append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def compare(base, new, end_to_end):
    """Rows (workload, metric, base median, new median, change, verdict).

    Raises ValueError when the two sides ran different kernels."""
    if len(impls(base) | impls(new)) != 1:
        raise ValueError(f"ACTIVE_IMPL differs: base {sorted(impls(base))}, "
                         f"new {sorted(impls(new))}")
    mb, mn = medians(base), medians(new)
    rows = []
    for (workload, name), b in sorted(mb.items()):
        if (workload, name) not in mn or name not in end_to_end:
            continue
        spec = end_to_end[name]
        n = mn[(workload, name)]
        change = (n - b) / b
        worse = change if spec["better"] == "lower" else -change
        rows.append((workload, name, b, n, change,
                     "WORSE" if worse > spec["bound"] else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    try:
        rows = compare(load(Path(argv[0])), load(Path(argv[1])), end_to_end)
    except ValueError as e:
        print(f"refusing to compare: {e}", file=sys.stderr)
        return 2
    for workload, name, b, n, change, verdict in rows:
        print(f"{workload:<16} {name:<12} {b:>12.6g} {n:>12.6g} {change:>+8.1%}  {verdict}")
    return 1 if any(r[-1] != "ok" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
