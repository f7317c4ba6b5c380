"""Pure-Python kernel for exact linear algebra over the Gaussian rationals.

A matrix over Q(i) is passed around as a list of rows, where each row is a
flat list of Python ints

    [den, a0, b0, a1, b1, ..., a_{m-1}, b_{m-1}]

encoding the entries (a_j + b_j*i) / den with den > 0.  All arithmetic is
integer arithmetic on a common row denominator; fractions are only formed
by the callers when converting back to entry objects.
"""

from math import gcd

__all__ = ["rref", "matmul"]


def _reduce_row(row):
    """Divide den and all numerators by their common gcd (in place)."""
    g = row[0]
    for v in row[1:]:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        for k in range(len(row)):
            row[k] //= g
    return row


def rref(rows, ncols):
    """Reduced row-echelon form over Q(i).

    Returns (reduced_rows, pivot_columns).  Zero rows are dropped, pivot
    entries are exactly 1 and rows are content-reduced, so the output is a
    canonical representative of the row space.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        ia = 1 + 2 * c
        ib = ia + 1
        src = -1
        for i in range(r, nrows):
            if work[i][ia] or work[i][ib]:
                src = i
                break
        if src < 0:
            continue
        if src != r:
            work[r], work[src] = work[src], work[r]
        row = work[r]
        la = row[ia]
        lb = row[ib]
        nrm = la * la + lb * lb
        # divide the row by its leading entry: e -> e * conj(lead) / |lead|^2;
        # the old denominator cancels, the new one is |lead|^2
        new = [nrm]
        for j in range(1, len(row), 2):
            a = row[j]
            b = row[j + 1]
            new.append(a * la + b * lb)
            new.append(b * la - a * lb)
        work[r] = _reduce_row(new)
        dr = work[r][0]
        for i in range(nrows):
            if i == r:
                continue
            other = work[i]
            fa = other[ia]
            fb = other[ib]
            if fa == 0 and fb == 0:
                continue
            di = other[0]
            upd = [di * dr]
            for j in range(1, len(other), 2):
                a = other[j]
                b = other[j + 1]
                ra = work[r][j]
                rb = work[r][j + 1]
                upd.append(a * dr - fa * ra + fb * rb)
                upd.append(b * dr - fa * rb - fb * ra)
            work[i] = _reduce_row(upd)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def matmul(a_rows, b_rows, b_cols):
    """Exact product of two Q(i) matrices in flat-row format."""
    inner = len(b_rows)
    out = []
    if inner == 0:
        for row in a_rows:
            out.append([1] + [0] * (2 * b_cols))
        return out
    lcm_b = 1
    for row in b_rows:
        d = row[0]
        lcm_b = lcm_b // gcd(lcm_b, d) * d
    scaled = []
    for row in b_rows:
        f = lcm_b // row[0]
        scaled.append([v * f for v in row[1:]])
    for row in a_rows:
        da = row[0]
        res = [da * lcm_b]
        for j in range(b_cols):
            ca = 0
            cb = 0
            ja = 2 * j
            jb = ja + 1
            for t in range(inner):
                aa = row[1 + 2 * t]
                ab = row[2 + 2 * t]
                if aa == 0 and ab == 0:
                    continue
                ba = scaled[t][ja]
                bb = scaled[t][jb]
                ca += aa * ba - ab * bb
                cb += aa * bb + ab * ba
            res.append(ca)
            res.append(cb)
        out.append(_reduce_row(res))
    return out
