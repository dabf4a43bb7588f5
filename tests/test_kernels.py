"""The extended gcd behind the normal-form kernels.  Hermite and Smith
forms are checked against their contracts in ``test_linalg.py``."""

from ordroots.kernels import xgcd


def test_xgcd_basic():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3), (-4, -6)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0
