"""Canonical form and products of the exact kernel, pinned by fixed seeds
and by derandomized property tests."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from randgen import properties
from specialk import _kernel
from specialk.exact import ExactComplex, Subspace
from specialk.utils import XorShift

gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
nonzero_gaussian = gaussian.filter(lambda g: g != (0, 0))


def random_rows(rng, nrows, ncols, span=9, den=5):
    rows = []
    for _ in range(nrows):
        row = [1 + rng.randint(0, den)]
        for _ in range(ncols):
            row.append(rng.randint(-span, span))
            row.append(rng.randint(-span, span))
        rows.append(row)
    return rows


def kernel_rows(nrows, ncols):
    """Rows [den, a0, b0, ...] with small Gaussian-integer numerators, so
    that dependent rows and zero columns are common."""
    row = st.tuples(
        st.integers(1, 6), st.lists(gaussian, min_size=ncols, max_size=ncols)
    ).map(lambda t: [t[0]] + [v for entry in t[1] for v in entry])
    return st.lists(row, min_size=nrows, max_size=nrows)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 4))
    rows = draw(kernel_rows(draw(st.integers(1, 6)), ncols))
    return rows, ncols


def entries(rows):
    """Entrywise (re, im) Fractions of kernel rows."""
    return [
        [(Fraction(r[j], r[0]), Fraction(r[j + 1], r[0])) for j in range(1, len(r), 2)]
        for r in rows
    ]


def test_rref_idempotent_and_pivots_normalized():
    rng = XorShift(23)
    for _ in range(50):
        ncols = rng.randint(2, 6)
        rows = random_rows(rng, rng.randint(1, 6), ncols)
        red, pivots = _kernel.rref(rows, ncols)
        again, pivots2 = _kernel.rref([list(r) for r in red], ncols)
        assert again == red
        assert pivots2 == pivots
        for row, c in zip(red, pivots):
            den = row[0]
            assert den > 0
            assert row[1 + 2 * c] == den and row[2 + 2 * c] == 0


@properties
@given(matrices())
def test_rref_is_idempotent(m):
    rows, ncols = m
    red = _kernel.rref(rows, ncols)
    assert _kernel.rref(red[0], ncols) == red


@properties
@given(st.data())
def test_rref_ignores_row_order_and_gaussian_integer_scaling(data):
    rows, ncols = data.draw(matrices())
    shuffled = data.draw(st.permutations(rows))
    factors = data.draw(st.lists(nonzero_gaussian, min_size=len(rows), max_size=len(rows)))
    scaled = []
    for row, (p, q) in zip(shuffled, factors):
        out = [row[0]]
        for j in range(1, len(row), 2):
            a, b = row[j], row[j + 1]
            out += [a * p - b * q, a * q + b * p]
        scaled.append(out)
    assert _kernel.rref(scaled, ncols) == _kernel.rref(rows, ncols)


@properties
@given(st.data())
def test_matmul_matches_fraction_reference(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(1, 4))
    a = data.draw(kernel_rows(n, k))
    b = data.draw(kernel_rows(k, m))
    out = _kernel.matmul(a, b, m)
    assert all(r[0] > 0 for r in out)
    assert entries(out) == fraction_product(a, b, m)


def fraction_product(a, b, m):
    """Entrywise (re, im) Fractions of the product of kernel rows a and b."""
    cols = [[row[j] for row in entries(b)] for j in range(m)]
    return [
        [
            (
                sum((x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)), Fraction(0)),
                sum((x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)), Fraction(0)),
            )
            for col in cols
        ]
        for row in entries(a)
    ]


def lcm_den(rows):
    out = 1
    for r in rows:
        out = out * r[0] // gcd(out, r[0])
    return out


@st.composite
def wide_rows(draw, nrows, ncols, kinds):
    """Rows of the given kinds: zero, dense real, sparse real (mostly zero
    entries) or complex; entries up to `bits` bits, negative ones too."""
    bits = draw(st.sampled_from([2, 40, 520]))
    big = 2**bits
    # plain integers shrink towards 0, so draw the extremes on purpose too
    entry = st.one_of(st.integers(-big, big), st.sampled_from([-big, big - 1]))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(kinds))
        den = draw(st.sampled_from([1, 2, 6, big + 1]))
        if kind == "zero":
            re = [0] * ncols
        elif kind == "sparse":
            re = draw(st.lists(st.one_of(st.just(0), st.just(0), entry),
                               min_size=ncols, max_size=ncols))
        else:
            re = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        im = [0] * ncols
        if kind == "complex":
            im = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append([den] + [v for pair in zip(re, im) for v in pair])
    return rows


REAL_KINDS = ["zero", "real", "sparse"]


@properties
@given(st.data())
def test_packed_and_loop_products_agree(data):
    """On real factors the packed product gives the loop's rows exactly,
    and matmul takes it from 8 columns on; anything else is the loop's."""
    n = data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, 5))
    m = data.draw(st.integers(1, 12))
    kinds = data.draw(st.sampled_from([REAL_KINDS, REAL_KINDS + ["complex"], ["complex"]]))
    a = data.draw(wide_rows(n, k, kinds))
    b = data.draw(wide_rows(k, m, kinds))
    out = _kernel.matmul(a, b, m)
    assert entries(out) == fraction_product(a, b, m)
    assert all(r[0] > 0 for r in out)
    if k == 0:
        return
    loop = _kernel._matmul_loop(a, b, m, lcm_den(b))
    assert out == loop
    if _kernel._is_real(a) and _kernel._is_real(b):
        assert _kernel._matmul_packed(a, b, m, lcm_den(b)) == loop


@pytest.mark.parametrize("bits", [0, 3, 600])
def test_packed_product_edge_rows(bits):
    """Zero rows of A, an all-zero A, a zero B and wide entries."""
    big = 2**bits
    b = [[3] + [v for j in range(9) for v in ((-1) ** j * (big - j), 0)] for _ in range(4)]
    for a in (
        [[1] + [0] * 8, [5, big, 0, -big, 0, 0, 0, 1, 0]],
        [[2] + [0] * 8] * 3,
    ):
        assert _kernel.matmul(a, b, 9) == _kernel._matmul_loop(a, b, 9, 3)
        assert entries(_kernel.matmul(a, b, 9)) == fraction_product(a, b, 9)
    zero_b = [[1] + [0] * 18] * 4
    a = [[1, 1, 0, 2, 0, 3, 0, 4, 0]]
    assert _kernel.matmul(a, zero_b, 9) == [[1] + [0] * 18]


@pytest.mark.parametrize("bits", [1, 3, 64, 600])
@pytest.mark.parametrize("inner", [1, 3, 7, 8])
def test_packed_slots_hold_the_largest_sums(bits, inner):
    """Every entry at the top of its bit length and of one sign: each
    numerator is inner (2^bits - 1)^2, as close to the slot width as
    entries of that length get; the negated A gives the most negative."""
    top = 2**bits - 1
    b = [[1] + [top, 0] * 8] * inner
    for sign in (1, -1):
        a = [[1] + [sign * top, 0] * inner] * 2
        out = _kernel.matmul(a, b, 8)
        assert out == _kernel._matmul_loop(a, b, 8, 1)
        assert out[0][1] == sign * inner * top * top


def test_packed_path_is_taken_for_wide_real_products_only(monkeypatch):
    taken = []
    packed = _kernel._matmul_packed

    def counted(a_rows, b_rows, b_cols, lcm_b):
        taken.append(b_cols)
        return packed(a_rows, b_rows, b_cols, lcm_b)

    monkeypatch.setattr(_kernel, "_matmul_packed", counted)
    real8 = [[1] + [v for j in range(8) for v in (j - 3, 0)]] * 2
    complex8 = [[1] + [v for j in range(8) for v in (j - 3, 1)]] * 2
    real7 = [[1] + [v for j in range(7) for v in (j, 0)]] * 2
    _kernel.matmul([[1, 1, 0, 2, 0]], real8, 8)     # packed
    _kernel.matmul([[1, 1, 0, 2, 1]], real8, 8)     # complex A
    _kernel.matmul([[1, 1, 0, 2, 0]], complex8, 8)  # complex B
    _kernel.matmul([[1, 1, 0, 2, 0]], real7, 7)     # narrow
    assert taken == [8]


@st.composite
def signed_permutations(draw, nrows, ncols):
    """nrows <= ncols rows of den 1, each with one real +1 or -1, no two
    on one column."""
    cols = draw(st.permutations(range(ncols)))[:nrows]
    rows = []
    for c in cols:
        row = [1] + [0] * (2 * ncols)
        row[1 + 2 * c] = draw(st.sampled_from([1, -1]))
        rows.append(row)
    return rows


def assert_like_old_paths(a, b, m):
    """matmul's rows are the loop's, and the packed path's on real factors,
    bit for bit."""
    lcm_b = lcm_den(b)
    out = _kernel.matmul(a, b, m)
    assert out == _kernel._matmul_loop(a, b, m, lcm_b)
    if _kernel._is_real(a) and _kernel._is_real(b):
        assert out == _kernel._matmul_packed(a, b, m, lcm_b)
    assert entries(out) == fraction_product(a, b, m)


@properties
@given(st.data())
def test_signed_permutation_products_match_old_paths(data):
    """A signed permutation on either side of a Q(i) matrix, real or
    complex, with dens above 1: rows moved, never multiplied, and equal to
    what the arithmetic paths give."""
    k = data.draw(st.integers(1, 6))
    kinds = data.draw(st.sampled_from([REAL_KINDS, REAL_KINDS + ["complex"], ["complex"]]))
    n = data.draw(st.integers(1, k))
    m = data.draw(st.integers(1, 8))
    perm = data.draw(signed_permutations(n, k))
    other = data.draw(wide_rows(k, m, kinds))
    assert _kernel._signed_permutation(perm) is not None
    assert_like_old_paths(perm, other, m)
    m = data.draw(st.integers(k, 8))
    perm = data.draw(signed_permutations(k, m))
    other = data.draw(wide_rows(n, k, kinds))
    assert_like_old_paths(other, perm, m)
    # canonical rows come out as they went in, signs applied
    canon = [_kernel._reduce_row(list(r)) for r in data.draw(wide_rows(k, m, kinds))]
    moved = _kernel.matmul(data.draw(signed_permutations(k, k)), canon, m)
    assert sorted(map(abs_row, moved)) == sorted(map(abs_row, canon))


def abs_row(row):
    return tuple(abs(v) for v in row)


@pytest.mark.parametrize(
    "near",
    [
        [[2, 0, 0, 1, 0], [1, 1, 0, 0, 0]],      # den 2
        [[1, 0, 0, 2, 0], [1, 1, 0, 0, 0]],      # an entry 2
        [[1, 0, 0, -2, 0], [1, 1, 0, 0, 0]],     # an entry -2
        [[1, 0, 0, 0, 1], [1, 1, 0, 0, 0]],      # the unit i
        [[1, 0, 0, 0, -1], [1, 1, 0, 0, 0]],     # the unit -i
        [[1, 0, 0, 1, 0], [1, 0, 0, -1, 0]],     # two rows on one column
        [[1, 0, 0, 1, 0], [1, 0, 0, 0, 0]],      # a zero row
        [[1, 1, 0, 1, 0], [1, 1, 0, 0, 0]],      # two entries in a row
    ],
    ids=["den2", "two", "minus-two", "i", "minus-i", "shared-column", "zero-row", "two-entries"],
)
def test_near_signed_permutations_take_the_old_paths(near, monkeypatch):
    moved = []
    for name in ("_select_rows", "_scatter_columns"):
        orig = getattr(_kernel, name)
        monkeypatch.setattr(_kernel, name, lambda *args, _f=orig: moved.append(1) or _f(*args))
    other = [[3, 1, 0, -2, 0, 4, 5], [2, 7, 0, 1, 0, -3, 0]]
    assert _kernel._signed_permutation(near) is None
    assert_like_old_paths(near, other, 3)
    wide = [[5] + [v for j in range(8) for v in (j - 2, 0)]] * 2
    assert_like_old_paths(near, wide, 8)
    assert_like_old_paths([[3, 1, 0, -2, 0], [1, 0, 0, 5, 0]], near, 2)
    assert moved == []
    # the signed permutation itself does move rows
    assert_like_old_paths([[1, 0, 0, -1, 0], [1, 1, 0, 0, 0]], other, 3)
    assert moved == [1]


def vectors(n):
    return st.lists(
        st.lists(gaussian.map(lambda g: ExactComplex(*g)), min_size=n, max_size=n),
        max_size=n,
    )


@properties
@given(st.data())
def test_subspace_dimension_formula(data):
    n = data.draw(st.integers(1, 4))
    u = Subspace.span(n, data.draw(vectors(n)))
    w = Subspace.span(n, data.draw(vectors(n)))
    assert (u + w).dim + (u & w).dim == u.dim + w.dim


@properties
@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_parse_str_round_trip(re, im):
    x = ExactComplex(re, im)
    assert ExactComplex.parse(str(x)) == x


@st.composite
def real_rref_inputs(draw):
    """Real rows for rref: zero, dense, sparse, duplicate, scaled and
    negated rows, dens above 1, entries up to 520 bits, one column up to
    wide n x 2n inputs [A | 1] of the kind an inverse eliminates."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 6))
    rows = draw(wide_rows(nrows, ncols, REAL_KINDS))
    if rows and draw(st.booleans()):
        # a dependent row: a multiple of one already drawn, negation included
        src = draw(st.sampled_from(rows))
        m = draw(st.sampled_from([1, -1, 3, -2]))
        rows.append([src[0] * draw(st.sampled_from([1, 5]))] + [m * v for v in src[1:]])
    if rows and draw(st.booleans()):
        n = len(rows)
        ext = []
        for i, row in enumerate(rows):
            unit = [0] * (2 * n)
            unit[2 * i] = row[0]
            ext.append(row + unit)
        return ext, ncols + n
    return rows, ncols


@properties
@given(real_rref_inputs())
def test_real_and_loop_rref_agree(m):
    """On real rows the half-width fraction-free path gives the loop's rows
    and pivots exactly, and rref takes it."""
    rows, ncols = m
    loop = _kernel._rref_loop(rows, ncols)
    assert _kernel._rref_real(rows, ncols) == loop
    assert _kernel.rref(rows, ncols) == loop
    assert _kernel.rref([tuple(r) for r in rows], ncols) == loop


@pytest.mark.parametrize(
    "rows,ncols",
    [
        ([], 3),
        ([[1, 0, 0, 0, 0]] * 3, 2),                                    # all zero
        ([[1, 0, 0, 0, 0], [2, -4, 0, 6, 0], [1, 0, 0, 0, 0]], 2),      # zero rows around
        ([[3, -2, 0, 5, 0], [1, -7, 0, 1, 0]], 2),                      # negative leads
        ([[1, 2, 0, 4, 0], [7, 2, 0, 4, 0], [1, -1, 0, -2, 0]], 2),     # duplicates
        ([[5, -3, 0], [2, 0, 0], [1, 9, 0]], 1),                        # one column
        ([[1, 0, 0, 2, 0, 1, 0], [1, 0, 0, 4, 0, 2, 0]], 3),            # zero first column
        ([[1, 2**520 + 1, 0, -(2**519), 0], [3, 2**521, 0, 7, 0]], 2),  # 520-bit entries
        ([[4, 2, 0, 0, 0, 4, 0, 0, 0], [6, 1, 0, 3, 0, 0, 0, 6, 0]], 4),  # [A | den 1]
        ([[1, 1, 0, 2, 0, 1, 0, 0, 0], [1, 2, 0, 4, 0, 0, 0, 1, 0]], 4),  # singular A
    ],
)
def test_real_rref_edge_rows(rows, ncols):
    loop = _kernel._rref_loop(rows, ncols)
    assert _kernel.rref(rows, ncols) == loop
    for row, c in zip(*loop):
        assert row[0] > 0 and row[1 + 2 * c] == row[0]
        assert gcd(*row) == 1


def test_real_rref_leaves_its_input_alone():
    rows = [[2, -4, 0, 6, 0], [1, 1, 0, 1, 0]]
    copy = [list(r) for r in rows]
    _kernel.rref(rows, 2)
    assert rows == copy


def test_real_path_is_taken_for_real_rows_only(monkeypatch):
    taken = []
    real = _kernel._rref_real

    def counted(rows, ncols):
        taken.append(len(rows))
        return real(rows, ncols)

    monkeypatch.setattr(_kernel, "_rref_real", counted)
    _kernel.rref([[2, 1, 0, 3, 0], [1, 0, 0, 5, 0]], 2)    # real
    _kernel.rref([[2, 1, 0, 3, 0], [1, 0, 0, 5, 1]], 2)    # one imaginary numerator
    _kernel.rref([[1, 0, 1]], 1)                            # purely imaginary
    assert taken == [2]


@pytest.mark.parametrize(
    "row,reduced",
    [
        ([6, 0, 0, 0, 0], [1, 0, 0, 0, 0]),
        ([4, -6, 2, 0, -10], [2, -3, 1, 0, -5]),
        ([3, -9, 0, 6, -3], [1, -3, 0, 2, -1]),
        ([5, -3, 1], [5, -3, 1]),
        ([1], [1]),
    ],
)
def test_reduce_row(row, reduced):
    assert _kernel._reduce_row(list(row)) == reduced
