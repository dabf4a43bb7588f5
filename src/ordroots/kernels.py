"""Kernel selection: the compiled extension when it imports, the
bit-identical pure-Python twins otherwise.  ``ACTIVE_IMPL`` names the
one in use ("c" or "python").
"""

from . import _pykernels

try:
    from . import _speedups as _impl  # type: ignore[no-redef]

    ACTIVE_IMPL = "c"
except ImportError:
    _impl = _pykernels
    ACTIVE_IMPL = "python"

hnf_cols = _impl.hnf_cols
snf_cols = _impl.snf_cols
xgcd = _pykernels.xgcd
