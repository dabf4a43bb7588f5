"""Normal-form kernels.

These are the hot inner loops of the whole library: column-operation
Hermite reduction and Smith diagonalization over arbitrary-precision
integers.  Elimination picks the smallest remaining entry as the working
pivot and reduces the others modulo it (repeated Euclidean steps), which
keeps intermediate entries far smaller than blind extended-gcd combines.

Matrices are column-major: a matrix is a list of columns, each column a
list of Python ints.  Neither kernel keeps a transform matrix of its own:
a transform is rows carried inside the matrix.  Hermite reduction pivots
on the first ``nrows`` rows only, so the identity stacked below m comes
out as the u of h = m*u; Smith reduction eliminates one block of
[[m, 1], [1, 0]], whose other blocks come out as u and v.
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
    """Column-style Hermite normal form of the first ``nrows`` rows.

    Returns the reduced columns.  Pivot rows strictly increase left to
    right, pivots are positive, entries left of a pivot in its row lie in
    [0, pivot), and columns that vanish on the first ``nrows`` rows
    trail.  Rows below ``nrows`` are carried along through every column
    operation but never pivoted on.
    """
    ncols = len(cols)
    m = [list(c) for c in cols]
    c = 0
    for r in range(nrows):
        if c == ncols:
            break
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
            a = m[c][r]
            clear = True
            for j in range(c + 1, ncols):
                v = m[j][r]
                if v:
                    q = v // a
                    if q:
                        _submul(m[j], m[c], q, r)
                    if m[j][r]:
                        clear = False
            if clear:
                break
        if piv < 0:  # row r vanishes from column c on
            continue
        # the column vanishes above row r, so it is negated and
        # subtracted from row r on
        if m[c][r] < 0:
            m[c] = [-e for e in m[c]]
        col = m[c]
        p = col[r]
        for j in range(c):
            v = m[j][r]
            if v:
                q = v // p
                if q:
                    _submul(m[j], col, q, r)
        c += 1
    return m


def _snf_clear_at(m, t, nrows, ncols):
    # Euclidean cross reduction: repeatedly move the smallest entry of
    # row t / column t of the nrows x ncols block to the diagonal and
    # reduce the rest modulo it.  Column operations run down the whole
    # column and row operations along the whole row.
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
        elif pi != t:
            for col in m:
                col[t], col[pi] = col[pi], col[t]
        a = m[t][t]
        clear = True
        for j in range(t + 1, ncols):
            val = m[j][t]
            if val:
                q = val // a
                if q:
                    _submul(m[j], m[t], q, t)
                if m[j][t]:
                    clear = False
        for i in range(t + 1, nrows):
            val = m[t][i]
            if val:
                q = val // a
                if q:
                    for j in range(t, len(m)):
                        col = m[j]
                        s = col[t]
                        if s:
                            col[i] -= q * s
                if m[t][i]:
                    clear = False
        if clear:
            return


def snf_cols(cols, nrows):
    """Smith normal form: returns (d, u, v) with d = u*m*v diagonal,
    nonnegative, each diagonal entry dividing the next; u, v unimodular.

    All three are column lists; u is nrows x nrows, v is ncols x ncols.
    The elimination runs on the top-left nrows x ncols block of
    [[m, 1], [1, 0]], so its row operations build u in the top-right
    block and its column operations build v in the bottom-left one.
    """
    ncols = len(cols)
    m = [list(c) + [int(i == j) for i in range(ncols)] for j, c in enumerate(cols)]
    m += [[int(i == j) for i in range(nrows)] + [0] * ncols for j in range(nrows)]
    rank = 0
    for t in range(min(nrows, ncols)):
        nonzero = next(((j, i) for j in range(t, ncols) for i in range(t, nrows) if m[j][i]),
                       None)
        if nonzero is None:
            break
        j, i = nonzero
        if j != t:
            m[t], m[j] = m[j], m[t]
        if i != t:
            for col in m:
                col[t], col[i] = col[i], col[t]
        # clearing the cross may refill entries below/right through row
        # operations, so iterate until the cross stays clear
        _snf_clear_at(m, t, nrows, ncols)
        if m[t][t] < 0:
            m[t] = [-e for e in m[t]]
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
                _snf_clear_at(m, i, nrows, ncols)
                for t in (i, i + 1):
                    if m[t][t] < 0:
                        m[t] = [-e for e in m[t]]
                changed = True
    left = m[:ncols]
    return ([c[:nrows] for c in left], [c[:nrows] for c in m[ncols:]],
            [c[nrows:] for c in left])
