"""Pure-Python kernel for exact linear algebra over the Gaussian rationals.

A matrix over Q(i) is passed around as a list of rows, where each row is a
flat list of Python ints

    [den, a0, b0, a1, b1, ..., a_{m-1}, b_{m-1}]

encoding the entries (a_j + b_j*i) / den with den > 0.  All arithmetic is
integer arithmetic on a common row denominator; fractions are only formed
by the callers when converting back to entry objects.

rref has two paths, chosen from the rows alone.  When every imaginary
numerator is 0 it eliminates on the real integer numerators at half
width, dropping each row's den (which does not change the row's span),
by fraction-free Gauss-Jordan steps (Bareiss 1968): every entry stays a
minor of the numerator matrix, so each division by the previous pivot
is exact, and each pivot row is divided by its pivot once at the end.
Any other input runs the loop over Q(i), which divides each pivot row
by its leading entry.  Both paths give the same canonical rows and pivots.

matmul has three paths, chosen from the operands alone.  A factor that is
a signed permutation (every row has den 1 and a single nonzero entry, a
real +1 or -1, and no two rows share a column) moves rows without any
arithmetic: on the left it selects B's rows with their signs, on the
right it scatters A's columns.  Its traffic is the model pairs of the
exact round trips: every round trip through the model structure of a
size multiplies by it.  (The twistor point forms no exact products.)
Otherwise a product with at least _PACK_COLS columns whose two factors are
both real packs each row of B into one int of fixed-width bit slots
(Kronecker substitution), so an output row costs one big-int multiply-add
per nonzero entry of its A row and one unpack.  Every other product,
complex or narrow, runs the entrywise loop.  All paths give the same
canonical rows.
"""

from math import gcd

__all__ = ["rref", "matmul"]


def _reduce_row(row):
    """Divide den and all numerators by their common gcd; returns the row
    itself when that gcd is 1."""
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def rref(rows, ncols):
    """Reduced row-echelon form over Q(i).

    Returns (reduced_rows, pivot_columns).  Zero rows are dropped, pivot
    entries are exactly 1 and rows are content-reduced, so the output is a
    canonical representative of the row space.
    """
    if _is_real(rows):
        return _rref_real(rows, ncols)
    return _rref_loop(rows, ncols)


def _rref_loop(rows, ncols):
    """rref over Q(i): each pivot row is divided by its leading entry and
    content-reduced after every update."""
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


def _rref_real(rows, ncols):
    """rref of real rows on their numerators alone.  After each step an
    entry is a minor of the numerator matrix, so the update
    (p * row[j] - f * prow[j]) // prev is exact; a row with f = 0 is still
    scaled by p / prev to stay a minor."""
    work = [list(r[1::2]) for r in rows]
    nrows = len(work)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        src = r
        while src < nrows and not work[src][c]:
            src += 1
        if src == nrows:
            continue
        if src != r:
            work[r], work[src] = work[src], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = work[i]
            f = row[c]
            if f:
                for j in range(ncols):
                    row[j] = (p * row[j] - f * prow[j]) // prev
            elif p != prev:
                for j in range(ncols):
                    row[j] = p * row[j] // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(work, pivots):
        if row[c] < 0:
            row = [-v for v in row]
        g = gcd(*row)
        full = [0] * (2 * ncols + 1)
        full[0] = row[c] // g
        full[1::2] = [v // g for v in row] if g > 1 else row
        out.append(full)
    return out, pivots


# Narrower products keep the loop, where packing gains little: on 4x4 real
# products with 4- and 40-bit entries it was 1.2x faster, on 8x8 ones
# 1.9-2.9x (Python 3.11, 2 vCPUs at 2.1 GHz).
_PACK_COLS = 8


def _is_real(rows):
    return not any(any(r[2::2]) for r in rows)


def _signed_permutation(rows):
    """[(column, sign)] of rows that form a signed permutation, else None.
    With den 1 first, a row whose zeros fill all but two places has one
    nonzero numerator; it is +1 when 1 occurs twice (den and entry), -1
    when -1 occurs once, and it must sit at a real (odd) place."""
    if not rows:
        return None
    zeros = len(rows[0]) - 2
    places = []
    signs = []
    for row in rows:
        if row[0] != 1 or row.count(0) != zeros:
            return None
        if row.count(1) == 2:
            places.append(row.index(1, 1))
            signs.append(1)
        elif row.count(-1) == 1:
            places.append(row.index(-1))
            signs.append(-1)
        else:
            return None
    if len(set(places)) != len(places) or not all(j & 1 for j in places):
        return None
    return [(j >> 1, sign) for j, sign in zip(places, signs)]


def matmul(a_rows, b_rows, b_cols):
    """Exact product of two Q(i) matrices in flat-row format."""
    if not b_rows:
        return [[1] + [0] * (2 * b_cols) for _ in a_rows]
    picks = _signed_permutation(a_rows)
    if picks is not None:
        return _select_rows(picks, b_rows)
    picks = _signed_permutation(b_rows)
    if picks is not None:
        return _scatter_columns(a_rows, picks, b_cols)
    lcm_b = 1
    for row in b_rows:
        d = row[0]
        lcm_b = lcm_b // gcd(lcm_b, d) * d
    if b_cols >= _PACK_COLS and _is_real(a_rows) and _is_real(b_rows):
        return _matmul_packed(a_rows, b_rows, b_cols, lcm_b)
    return _matmul_loop(a_rows, b_rows, b_cols, lcm_b)


def _select_rows(picks, b_rows):
    """matmul with a signed-permutation A: row i is sign_i times B's row
    c_i, content-reduced as the loop leaves it."""
    out = []
    for c, sign in picks:
        row = b_rows[c]
        if sign > 0:
            moved = list(row)
        else:
            moved = [-v for v in row]
            moved[0] = row[0]
        out.append(_reduce_row(moved))
    return out


def _scatter_columns(a_rows, picks, b_cols):
    """matmul with a signed-permutation B: column t of A goes to column c_t
    with sign_t; B's dens are 1, so each row keeps A's den."""
    moves = [(2 * t + 1, 2 * c + 1, sign) for t, (c, sign) in enumerate(picks)]
    out = []
    for row in a_rows:
        res = [0] * (2 * b_cols + 1)
        res[0] = row[0]
        for src, dst, sign in moves:
            if sign > 0:
                res[dst] = row[src]
                res[dst + 1] = row[src + 1]
            else:
                res[dst] = -row[src]
                res[dst + 1] = -row[src + 1]
        out.append(_reduce_row(res))
    return out


def _matmul_loop(a_rows, b_rows, b_cols, lcm_b):
    """matmul entry by entry, with B scaled to the denominator lcm_b."""
    inner = len(b_rows)
    scaled = []
    for row in b_rows:
        f = lcm_b // row[0]
        scaled.append([v * f for v in row[1:]])
    out = []
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


def _matmul_packed(a_rows, b_rows, b_cols, lcm_b):
    """matmul of real rows by Kronecker substitution.  Row t of B, scaled
    to the denominator lcm_b, becomes the int sum_j x_tj 2^(s j); an A row
    times those ints is sum_j c_j 2^(s j), where each output numerator c_j
    is a sum of `inner` products and so |c_j| < 2^(s - 1) with
    s = bits(max|a|) + bits(max|x|) + bits(inner) + 1.  Adding
    2^(s - 1) to every slot makes each one a plain s-bit field."""
    reals = [[v * (lcm_b // row[0]) for v in row[1::2]] for row in b_rows]
    big_b = max(max(max(x), -min(x)) for x in reals)
    big_a = 0
    for row in a_rows:
        re = row[1::2]
        big_a = max(big_a, max(re), -min(re))
    s = big_a.bit_length() + big_b.bit_length() + len(reals).bit_length() + 1
    half = 1 << (s - 1)
    mask = (1 << s) - 1
    packed = []
    for x in reals:
        p = 0
        for v in reversed(x):
            p = (p << s) + v
        packed.append(p)
    bias = 0
    for _ in range(b_cols):
        bias = (bias << s) | half
    out = []
    for row in a_rows:
        acc = bias
        for a, p in zip(row[1::2], packed):
            if a:
                acc += a * p
        res = [0] * (2 * b_cols + 1)
        res[0] = row[0] * lcm_b
        for k in range(1, 2 * b_cols, 2):
            res[k] = (acc & mask) - half
            acc >>= s
        out.append(_reduce_row(res))
    return out
