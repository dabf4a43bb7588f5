"""The benchmark scripts under bench/ run to completion: the ladder on
its three fastest rungs, and the kernel benchmark in its quick form.
Both read library records directly, so a renamed field or a changed
return type must fail here rather than when someone next benchmarks."""

import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.parametrize("args", [
    ["ladder.py", "X^7-1", "Q(zeta15)", "Q(zeta16)"],
    ["bench_kernels.py", "--quick"],
], ids=["ladder", "bench_kernels"])
def test_bench_script_exits_cleanly(args):
    run = subprocess.run([sys.executable, os.path.join(BENCH, args[0])] + args[1:],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
