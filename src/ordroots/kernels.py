"""Normal-form kernels.

These are the hot inner loops of the whole library: column-operation
Hermite reduction and Smith diagonalization over arbitrary-precision
integers.  Elimination picks the smallest remaining entry as the working
pivot and reduces the others modulo it (repeated Euclidean steps), which
keeps intermediate entries far smaller than blind extended-gcd combines.

Matrices are column-major: a matrix is a list of columns, each column a
list of Python ints.
"""

# perfbench/run.py labels its results with this; perfbench/compare.py checks it
ACTIVE_IMPL = "python"


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _submul(dst, src, q, start):
    # dst -= q * src, from index `start` on
    for i in range(start, len(dst)):
        s = src[i]
        if s:
            dst[i] -= q * s


def hnf_cols(cols, nrows):
    """Column-style Hermite normal form.

    Returns (h, u) as column lists with h = m*u, u unimodular.  Pivot
    rows strictly increase left to right, pivots are positive, entries
    left of a pivot in its row lie in [0, pivot), and zero columns are
    trailing.
    """
    ncols = len(cols)
    m = [list(c) for c in cols]
    u = [[0] * ncols for _ in range(ncols)]
    for j in range(ncols):
        u[j][j] = 1
    c = 0
    for r in range(nrows):
        if c == ncols:
            break
        placed = False
        while True:
            piv = -1
            best = 0
            for j in range(c, ncols):
                v = m[j][r]
                if v:
                    av = -v if v < 0 else v
                    if piv < 0 or av < best:
                        piv = j
                        best = av
            if piv < 0:
                break
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                u[c], u[piv] = u[piv], u[c]
            a = m[c][r]
            clear = True
            for j in range(c + 1, ncols):
                v = m[j][r]
                if v:
                    q = v // a
                    if q:
                        _submul(m[j], m[c], q, r)
                        _submul(u[j], u[c], q, 0)
                    if m[j][r]:
                        clear = False
            if clear:
                placed = True
                break
        if not placed:
            continue
        if m[c][r] < 0:
            col = m[c]
            for i in range(r, nrows):
                col[i] = -col[i]
            col = u[c]
            for i in range(ncols):
                col[i] = -col[i]
        p = m[c][r]
        for j in range(c):
            v = m[j][r]
            if v:
                q = v // p
                if q:
                    _submul(m[j], m[c], q, r)
                    _submul(u[j], u[c], q, 0)
        c += 1
    return m, u


def _snf_clear_at(m, u, v, t, nrows, ncols):
    # Euclidean cross reduction: repeatedly move the smallest entry of
    # row t / column t to the diagonal and reduce the rest modulo it.
    while True:
        pj = -1
        pi = -1
        best = 0
        for j in range(t, ncols):
            val = m[j][t]
            if val:
                av = -val if val < 0 else val
                if pj < 0 or av < best:
                    pj, pi, best = j, t, av
        for i in range(t + 1, nrows):
            val = m[t][i]
            if val:
                av = -val if val < 0 else val
                if pj < 0 or av < best:
                    pj, pi, best = t, i, av
        if pj < 0:
            return
        if pj != t:
            m[t], m[pj] = m[pj], m[t]
            v[t], v[pj] = v[pj], v[t]
        elif pi != t:
            for j in range(ncols):
                col = m[j]
                col[t], col[pi] = col[pi], col[t]
            for j in range(nrows):
                col = u[j]
                col[t], col[pi] = col[pi], col[t]
        a = m[t][t]
        clear = True
        for j in range(t + 1, ncols):
            val = m[j][t]
            if val:
                q = val // a
                if q:
                    _submul(m[j], m[t], q, t)
                    _submul(v[j], v[t], q, 0)
                if m[j][t]:
                    clear = False
        for i in range(t + 1, nrows):
            val = m[t][i]
            if val:
                q = val // a
                if q:
                    for j in range(t, ncols):
                        s = m[j][t]
                        if s:
                            m[j][i] -= q * s
                    for j in range(nrows):
                        s = u[j][t]
                        if s:
                            u[j][i] -= q * s
                if m[t][i]:
                    clear = False
        if clear:
            return


def snf_cols(cols, nrows):
    """Smith normal form: returns (d, u, v) with d = u*m*v diagonal,
    nonnegative, each diagonal entry dividing the next; u, v unimodular.

    All three are column lists; u is nrows x nrows, v is ncols x ncols.
    """
    ncols = len(cols)
    m = [list(c) for c in cols]
    u = [[0] * nrows for _ in range(nrows)]
    for j in range(nrows):
        u[j][j] = 1
    v = [[0] * ncols for _ in range(ncols)]
    for j in range(ncols):
        v[j][j] = 1
    rank = 0
    for t in range(min(nrows, ncols)):
        found = False
        for j in range(t, ncols):
            for i in range(t, nrows):
                if m[j][i] != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        if j != t:
            m[t], m[j] = m[j], m[t]
            v[t], v[j] = v[j], v[t]
        if i != t:
            for j2 in range(ncols):
                col = m[j2]
                col[t], col[i] = col[i], col[t]
            for j2 in range(nrows):
                col = u[j2]
                col[t], col[i] = col[i], col[t]
        # clearing the cross may refill entries below/right through row
        # operations, so iterate until the cross stays clear
        _snf_clear_at(m, u, v, t, nrows, ncols)
        if m[t][t] < 0:
            col = m[t]
            for i2 in range(nrows):
                col[i2] = -col[i2]
            col = v[t]
            for i2 in range(ncols):
                col[i2] = -col[i2]
        rank = t + 1
    # enforce the divisibility chain with adjacent gcd/lcm repairs
    guard = rank * rank + 10
    changed = True
    while changed:
        changed = False
        guard -= 1
        if guard < 0:
            raise AssertionError("smith divisibility repair failed to converge")
        for i in range(rank - 1):
            a = m[i][i]
            b = m[i + 1][i + 1]
            if b % a != 0:
                # col_i += col_{i+1}, then re-clear the 2x2 block
                _submul(m[i], m[i + 1], -1, 0)
                _submul(v[i], v[i + 1], -1, 0)
                _snf_clear_at(m, u, v, i, nrows, ncols)
                if m[i][i] < 0:
                    col = m[i]
                    for r2 in range(nrows):
                        col[r2] = -col[r2]
                    col = v[i]
                    for r2 in range(ncols):
                        col[r2] = -col[r2]
                if m[i + 1][i + 1] < 0:
                    col = m[i + 1]
                    for r2 in range(nrows):
                        col[r2] = -col[r2]
                    col = v[i + 1]
                    for r2 in range(ncols):
                        col[r2] = -col[r2]
                changed = True
    return m, u, v
