"""ExactMatrix and Subspace keep only canonical kernel rows.  Derandomized
property tests hold every row-level operation to an entrywise
ExactComplex reference that lives here only."""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from randgen import properties
from specialk.exact import ExactComplex, ExactMatrix, Subspace, leading_minors_positive
from specialk.hodge import RealStructure, _hermitian_positive_definite

_ZERO = ExactComplex(0)
_ONE = ExactComplex(1)

scalars = st.builds(
    lambda a, b, c, d: ExactComplex(Fraction(a, b), Fraction(c, d)),
    st.integers(-4, 4), st.integers(1, 3), st.integers(-4, 4), st.integers(1, 3),
)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())
sizes = st.integers(1, 4)


def grids(rows, cols):
    return st.lists(
        st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def square(draw, n=None):
    n = draw(sizes) if n is None else n
    return draw(grids(n, n))


# -- the entrywise reference ------------------------------------------------

def ref_matmul(a, b):
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), _ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_det(a):
    """Cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    out = _ZERO
    for j, x in enumerate(a[0]):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = x * ref_det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def ref_inverse(a):
    """Gauss-Jordan on [A | I]; None when A is singular."""
    n = len(a)
    aug = [list(row) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if not aug[i][c].is_zero()), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = _ONE / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def as_lists(m):
    return [list(row) for row in m.entries]


def leading_minors_ok(a):
    minors = [ref_det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]
    return all(d.is_real() and d.re > 0 for d in minors)


# -- matrices ---------------------------------------------------------------

@properties
@given(st.data())
def test_entrywise_operations_match_reference(data):
    r, c = data.draw(sizes), data.draw(sizes)
    a, b = data.draw(grids(r, c)), data.draw(grids(r, c))
    s = data.draw(scalars)
    ma, mb = ExactMatrix(a), ExactMatrix(b)
    assert as_lists(ma + mb) == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert as_lists(ma - mb) == [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert as_lists(-ma) == [[-x for x in row] for row in a]
    assert as_lists(ma.scale(s)) == [[s * x for x in row] for row in a]
    assert as_lists(ma.T) == ref_transpose(a)
    assert as_lists(ma.conj()) == [[x.conjugate() for x in row] for row in a]
    assert ma.is_zero() == all(x.is_zero() for row in a for x in row)
    assert ma.is_real() == all(x.is_real() for row in a for x in row)
    assert all(ma[i, j] == a[i][j] for i in range(r) for j in range(c))
    assert ma.to_numpy().tolist() == [[x.to_complex() for x in row] for row in a]


@properties
@given(st.data())
def test_products_match_reference(data):
    n, k, m = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(grids(n, k)), data.draw(grids(k, m))
    vec = data.draw(st.lists(scalars, min_size=k, max_size=k))
    assert as_lists(ExactMatrix(a) @ ExactMatrix(b)) == ref_matmul(a, b)
    assert list(ExactMatrix(a) @ vec) == [row[0] for row in ref_matmul(a, [[v] for v in vec])]


@properties
@given(square())
def test_det_and_inverse_match_reference(a):
    m = ExactMatrix(a)
    assert m.det() == ref_det(a)
    expect = ref_inverse(a)
    if expect is None:
        assert m.det().is_zero()
        try:
            m.inverse()
        except ZeroDivisionError:
            pass
        else:
            raise AssertionError("inverse of a singular matrix")
    else:
        assert as_lists(m.inverse()) == expect


@properties
@given(st.data())
def test_equal_matrices_have_equal_rows_and_hash(data):
    r, c = data.draw(sizes), data.draw(sizes)
    a = ExactMatrix(data.draw(grids(r, c)))
    b = ExactMatrix(data.draw(grids(r, c)))
    s = data.draw(nonzero_scalars)
    for other in (
        (a + b) - b,
        -(-a),
        a.T.T,
        a.conj().conj(),
        a.scale(s).scale(_ONE / s),
        ExactMatrix(a.entries),
        ExactMatrix.identity(r) @ a,
    ):
        assert other == a
        assert other._rows == a._rows
        assert hash(other) == hash(a)


# -- subspaces --------------------------------------------------------------

def spans(n):
    return st.lists(st.lists(scalars, min_size=n, max_size=n), max_size=n).map(
        lambda vecs: Subspace.span(n, vecs)
    )


@properties
@given(st.data())
def test_intersection_is_canonical(data):
    n = data.draw(sizes)
    u, w = data.draw(spans(n)), data.draw(spans(n))
    inter = u & w
    assert inter == Subspace.span(n, inter.basis)
    assert inter == w & u
    assert all(u.contains(b) and w.contains(b) for b in inter.basis)


@properties
@given(st.data())
def test_images_equal_spans_of_vector_images(data):
    n, rows = data.draw(sizes), data.draw(sizes)
    u = data.draw(spans(n))
    m = ExactMatrix(data.draw(grids(rows, n)))
    assert u.apply(m) == Subspace.span(rows, [m @ b for b in u.basis])
    assert u.conjugate() == Subspace.span(n, [[e.conjugate() for e in b] for b in u.basis])


@properties
@given(st.data())
def test_real_structure_images(data):
    """r(v) = S conj(v) with S = g conj(g)^-1, so that S conj(S) = 1."""
    n = data.draw(sizes)
    g = ExactMatrix(data.draw(square(n)))
    assume(g.rank() == n)
    r = RealStructure.from_antilinear(g @ g.conj().inverse())
    u = data.draw(spans(n))
    assert r.apply_subspace(u) == Subspace.span(n, [r.apply_vec(b) for b in u.basis])
    for b in u.basis:
        # the same map through the real 2n x 2n matrix on (Re v, Im v)
        coords = r.matrix @ ([ExactComplex(e.re) for e in b] + [ExactComplex(e.im) for e in b])
        assert r.apply_vec(b) == tuple(
            ExactComplex(coords[j].re, coords[n + j].re) for j in range(n)
        )


# -- positivity by fraction-free elimination --------------------------------

@properties
@given(st.data())
def test_positivity_verdict_matches_leading_minor_dets(data):
    """Hermitian Gram matrices B B^* (positive definite exactly when B has
    full rank n) and A + A^* (often indefinite)."""
    n = data.draw(sizes)
    b = ExactMatrix(data.draw(grids(n, max(1, n + data.draw(st.integers(-1, 1))))))
    a = ExactMatrix(data.draw(square(n)))
    for gram in (b @ b.conj().T, a + a.conj().T):
        expect = leading_minors_ok(as_lists(gram))
        assert leading_minors_positive(gram) == expect
        assert _hermitian_positive_definite(gram) == expect


@properties
@given(square())
def test_leading_minors_of_any_square_matrix(a):
    assert leading_minors_positive(ExactMatrix(a)) == leading_minors_ok(a)
    assert not _hermitian_positive_definite(ExactMatrix(a)) or leading_minors_ok(a)


def test_zero_leading_minor_is_not_positive():
    """Leading minors 1, 0, -1: after swapping the last two rows the
    elimination would go on with pivots 1, 1, 1."""
    m = ExactMatrix([["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    assert m.det() == ExactComplex(-1)
    assert not leading_minors_positive(m)
    assert not _hermitian_positive_definite(m)
