"""Canonical form and products of the exact kernel, pinned by fixed seeds
and by derandomized property tests."""

from fractions import Fraction

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
    cols = [[row[j] for row in entries(b)] for j in range(m)]
    expect = [
        [
            (
                sum((x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)), Fraction(0)),
                sum((x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)), Fraction(0)),
            )
            for col in cols
        ]
        for row in entries(a)
    ]
    out = _kernel.matmul(a, b, m)
    assert all(r[0] > 0 for r in out)
    assert entries(out) == expect


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
