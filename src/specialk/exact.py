"""Exact Gaussian-rational scalars, matrices and subspaces.

Scalars are pairs of fractions re + im*i.  Matrices and subspaces store
only the kernel's flat integer rows (see _kernel): a row is a tuple
(den, a0, b0, ..., a_{m-1}, b_{m-1}) for the entries (a_j + b_j*i) / den,
with den > 0 and no prime dividing den and every numerator.  Each vector
has exactly one such row, so equal matrices have equal rows, and every
operation works on rows from one kernel call to the next.  ExactComplex
values appear only at the edges: the ExactMatrix(entries) constructor,
parsing and printing, indexing, ExactMatrix.entries, Subspace.basis and
the vector forms of `@` and `contains`.  Subspaces are stored in reduced
row-echelon form, so equal subspaces compare equal structurally.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm, prod

from . import _kernel

__all__ = [
    "ExactComplex",
    "ExactMatrix",
    "Subspace",
    "real_rep_linear",
    "real_rep_antilinear",
    "std_complex_structure",
    "rationalize_matrix",
    "leading_minors_positive",
]


class ExactComplex:
    """A Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @staticmethod
    def coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactComplex(x)
        if isinstance(x, str):
            return ExactComplex.parse(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __mul__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactComplex.coerce(other)
        nrm = other.re * other.re + other.im * other.im
        if nrm == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / nrm,
            (self.im * other.re - self.re * other.im) / nrm,
        )

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be int")
        if k < 0:
            return (ExactComplex(1) / self) ** (-k)
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # real values equal ints and Fractions, so they must hash alike
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions ---------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def from_complex(z, max_denominator: int = 10**12):
        """Nearest Gaussian rational with bounded denominators; returns
        (value, absolute rounding error)."""
        re, im, err = _rationalize(z, max_denominator)
        return ExactComplex(re, im), err

    _TERM = _re.compile(r"[+-]?[^+-]+")

    @staticmethod
    def parse(text: str) -> "ExactComplex":
        """Parse the text form 'a/b+c/d*i' (either part omittable)."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty ExactComplex literal")
        tokens = ExactComplex._TERM.findall(s)
        if not tokens or "".join(tokens) != s:
            raise ValueError(f"malformed ExactComplex literal {text!r}")
        re_part = None
        im_part = None
        for tok in tokens:
            if tok.endswith("i") or tok.endswith("I"):
                if im_part is not None:
                    raise ValueError(f"repeated imaginary part in {text!r}")
                body = tok[:-1].rstrip("*")
                if body in ("", "+"):
                    im_part = Fraction(1)
                elif body == "-":
                    im_part = Fraction(-1)
                else:
                    im_part = _literal_fraction(body, text)
            else:
                if re_part is not None:
                    raise ValueError(f"repeated real part in {text!r}")
                re_part = _literal_fraction(tok, text)
        return ExactComplex(re_part or 0, im_part or 0)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.re != 0:
            parts.append(str(self.re))
        if self.im != 0:
            if self.im == 1:
                imtxt = "i"
            elif self.im == -1:
                imtxt = "-i"
            else:
                imtxt = f"{self.im}*i"
            if parts and not imtxt.startswith("-"):
                parts.append("+" + imtxt)
            else:
                parts.append(imtxt)
        return "".join(parts)

    def __repr__(self):
        return f"ExactComplex('{self}')"


def _literal_fraction(token, text):
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _rationalize(z, max_denominator):
    """(re, im, absolute error) of the nearest Gaussian rational to z with
    denominators at most max_denominator."""
    z = complex(z)
    re = Fraction(z.real).limit_denominator(max_denominator)
    im = Fraction(z.imag).limit_denominator(max_denominator)
    return re, im, abs(complex(re, im) - z)


_I = ExactComplex(0, 1)

_reduce_row = _kernel._reduce_row


def _canon(row):
    """Canonical tuple of a list row with den > 0: content-reduced."""
    return tuple(_reduce_row(row))


def _row_from_parts(parts):
    """Row of the vector with flat parts (re0, im0, re1, im1, ...), each an
    int or a Fraction.  With den the lcm of the reduced denominators, no
    prime divides den and every numerator, so the row is canonical."""
    den = lcm(*(f.denominator for f in parts))
    return (den, *(f.numerator * (den // f.denominator) for f in parts))


def _vec_to_row(vec):
    """Row of a vector of ExactComplex."""
    return _row_from_parts([f for e in vec for f in (e.re, e.im)])


def _row_to_vec(row):
    den = row[0]
    return tuple(
        ExactComplex(Fraction(row[j], den), Fraction(row[j + 1], den))
        for j in range(1, len(row), 2)
    )


def _coerce_vec(vec):
    return tuple(ExactComplex.coerce(x) for x in vec)


def _concat_rows(parts):
    """Row of the concatenated vectors of canonical rows; with den the lcm
    of theirs the result is canonical again."""
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(p[0] for p in parts))
    out = [den]
    for p in parts:
        f = den // p[0]
        out.extend(p[1:] if f == 1 else [v * f for v in p[1:]])
    return tuple(out)


def _conj_row(row):
    out = list(row)
    out[2::2] = [-v for v in row[2::2]]
    return tuple(out)


def _add_rows(r, s):
    """Canonical row of the sum of the vectors of rows r and s."""
    dr, ds = r[0], s[0]
    if dr == ds:
        out = [dr]
        out.extend(a + b for a, b in zip(r[1:], s[1:]))
    else:
        den = lcm(dr, ds)
        fr, fs = den // dr, den // ds
        out = [den]
        out.extend(a * fr + b * fs for a, b in zip(r[1:], s[1:]))
    return _canon(out)


def _tuples(rows):
    return tuple(map(tuple, rows))


def _bareiss(rows):
    """Pivots of fraction-free elimination over Z[i] (Bareiss 1968) of the
    square matrix of kernel rows, each row multiplied by its den.

    Rows are swapped only to replace a zero pivot.  Pivot k, as (re, im)
    ints, is the k-th leading principal minor of the integer matrix after
    the swaps made so far; elimination stops after a zero pivot that no
    swap can replace.  Returns (pivots, number of swaps)."""
    n = len(rows)
    re = [list(r[1::2]) for r in rows]
    im = [list(r[2::2]) for r in rows]
    pr, pi = 1, 0
    swaps = 0
    pivots = []
    for k in range(n):
        if not (re[k][k] or im[k][k]):
            for i in range(k + 1, n):
                if re[i][k] or im[i][k]:
                    re[k], re[i] = re[i], re[k]
                    im[k], im[i] = im[i], im[k]
                    swaps += 1
                    break
        a, b = re[k][k], im[k][k]
        pivots.append((a, b))
        if not (a or b):
            break
        nrm = pr * pr + pi * pi
        rk, ik = re[k], im[k]
        for i in range(k + 1, n):
            ri, ii = re[i], im[i]
            c, d = ri[k], ii[k]
            for j in range(k + 1, n):
                # (pivot * m_ij - m_ik * m_kj) / previous pivot, exact in Z[i]
                x = a * ri[j] - b * ii[j] - c * rk[j] + d * ik[j]
                y = a * ii[j] + b * ri[j] - c * ik[j] - d * rk[j]
                ri[j] = (x * pr + y * pi) // nrm
                ii[j] = (y * pr - x * pi) // nrm
        pr, pi = a, b
    return pivots, swaps


class ExactMatrix:
    """Dense matrix over the Gaussian rationals, stored as one canonical
    kernel row per matrix row."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, entries):
        vecs = [_coerce_vec(r) for r in entries]
        if not vecs:
            raise ValueError("ExactMatrix needs at least one row")
        ncols = len(vecs[0])
        if any(len(v) != ncols for v in vecs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "_rows", tuple(_vec_to_row(v) for v in vecs))
        object.__setattr__(self, "rows", len(vecs))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _from_rows(cls, rows, cols):
        """Matrix on a tuple of canonical row tuples (taken as they are)."""
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls._diagonal_rows([(1, 1, 0)] * n)

    @classmethod
    def zeros(cls, r, c):
        return cls._from_rows(((1,) + (0,) * (2 * c),) * r, c)

    @classmethod
    def diagonal(cls, values):
        return cls._diagonal_rows([_vec_to_row((v,)) for v in _coerce_vec(values)])

    @classmethod
    def _diagonal_rows(cls, entries):
        """Diagonal matrix of the (den, a, b) rows of its entries."""
        n = len(entries)
        return cls._from_rows(
            tuple(
                (den,) + (0,) * (2 * i) + (a, b) + (0,) * (2 * (n - 1 - i))
                for i, (den, a, b) in enumerate(entries)
            ),
            n,
        )

    @classmethod
    def blocks(cls, grid):
        """Block matrix from a grid (list of lists) of matrices; the blocks
        of a grid row have equal row counts, and every grid row the same
        total column count."""
        cols = sum(m.cols for m in grid[0])
        rows = []
        for line in grid:
            if sum(m.cols for m in line) != cols or any(m.rows != line[0].rows for m in line):
                raise ValueError("block shapes do not fit")
            rows.extend(_concat_rows(parts) for parts in zip(*(m._rows for m in line)))
        return cls._from_rows(tuple(rows), cols)

    def __getitem__(self, ij):
        """m[i, j] is an entry; with a slice for i or j, a submatrix."""
        i, j = ij
        if not isinstance(i, slice) and not isinstance(j, slice):
            row = self._rows[i]
            c = 1 + 2 * range(self.cols)[j]
            return ExactComplex(Fraction(row[c], row[0]), Fraction(row[c + 1], row[0]))
        rows = self._rows[i] if isinstance(i, slice) else (self._rows[i],)
        cols = range(self.cols)
        if isinstance(j, slice):
            cols = cols[j]
        else:
            cols = range(cols[j], cols[j] + 1)
        if cols != range(self.cols):
            rows = tuple(
                _canon([r[0], *(v for c in cols for v in r[1 + 2 * c : 3 + 2 * c])])
                for r in rows
            )
        return ExactMatrix._from_rows(rows, len(cols))

    @property
    def entries(self):
        """The entries as tuples of ExactComplex, built on each read."""
        return tuple(_row_to_vec(r) for r in self._rows)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matmul")
            rows = _kernel.matmul(self._rows, other._rows, other.cols)
            return ExactMatrix._from_rows(_tuples(rows), other.cols)
        # vector application
        vec = _coerce_vec(other)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        col = _kernel.matmul(self._rows, [_vec_to_row((v,)) for v in vec], 1)
        return tuple(_row_to_vec(r)[0] for r in col)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix._from_rows(
            tuple(_add_rows(r, s) for r, s in zip(self._rows, other._rows)), self.cols
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix._from_rows(
            tuple((r[0], *(-v for v in r[1:])) for r in self._rows), self.cols
        )

    def scale(self, s):
        d, p, q = _vec_to_row((ExactComplex.coerce(s),))
        rows = []
        for r in self._rows:
            out = [r[0] * d]
            for j in range(1, len(r), 2):
                a, b = r[j], r[j + 1]
                out += (a * p - b * q, a * q + b * p)
            rows.append(_canon(out))
        return ExactMatrix._from_rows(tuple(rows), self.cols)

    def transpose(self):
        rows = self._rows
        out = []
        for j in range(1, 2 * self.cols, 2):
            den = lcm(*(r[0] for r in rows if r[j] or r[j + 1]))
            row = [den]
            for r in rows:
                f = den // r[0] if r[j] or r[j + 1] else 0
                row += (r[j] * f, r[j + 1] * f)
            out.append(_canon(row))
        return ExactMatrix._from_rows(tuple(out), self.rows)

    @property
    def T(self):
        return self.transpose()

    def conj(self):
        return ExactMatrix._from_rows(tuple(_conj_row(r) for r in self._rows), self.cols)

    def is_zero(self) -> bool:
        return not any(any(r[1:]) for r in self._rows)

    def is_real(self) -> bool:
        return not any(any(r[2::2]) for r in self._rows)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self._rows == other._rows

    def __hash__(self):
        return hash((self.cols, self._rows))

    def rank(self) -> int:
        _, pivots = _kernel.rref(self._rows, self.cols)
        return len(pivots)

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = []
        for i, r in enumerate(self._rows):
            ext = list(r) + [0] * (2 * n)
            ext[1 + 2 * (n + i)] = r[0]
            aug.append(ext)
        red, pivots = _kernel.rref(aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        # [I | A^-1]: the left half is a unit row, so the right half is canonical
        return ExactMatrix._from_rows(tuple((r[0], *r[1 + 2 * n :]) for r in red), n)

    def det(self) -> ExactComplex:
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        pivots, swaps = _bareiss(self._rows)
        a, b = pivots[-1]
        sign = -1 if swaps % 2 else 1
        den = prod(r[0] for r in self._rows)
        return ExactComplex(Fraction(sign * a, den), Fraction(sign * b, den))

    def to_numpy(self):
        import numpy as np

        # int / int is correctly rounded, as float(Fraction) is
        return np.array(
            [
                [complex(r[j] / r[0], r[j + 1] / r[0]) for j in range(1, len(r), 2)]
                for r in self._rows
            ],
            dtype=complex,
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


def leading_minors_positive(m: ExactMatrix) -> bool:
    """Whether every leading principal minor of the square matrix m is real
    and positive (for a hermitian m: positive definite, by Sylvester's
    criterion).  One fraction-free elimination: while no row was swapped,
    its k-th pivot is the k-th leading minor times the positive product of
    the first k row denominators, and a swap means a leading minor was 0."""
    if m.rows != m.cols:
        raise ValueError("leading minors of non-square matrix")
    pivots, swaps = _bareiss(m._rows)
    return swaps == 0 and len(pivots) == m.rows and all(b == 0 and a > 0 for a, b in pivots)


class Subspace:
    """A linear subspace of C^n over Q(i) in canonical RREF form."""

    __slots__ = ("ambient_dim", "_rows", "pivots")

    def __init__(self, ambient_dim, _rows=None, _pivots=None):
        if ambient_dim <= 0:
            raise ValueError("ambient dimension must be positive")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", _rows if _rows is not None else ())
        object.__setattr__(self, "pivots", _pivots if _pivots is not None else ())

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _reduced(cls, ambient_dim, rows):
        """Subspace spanned by kernel rows of length 2 * ambient_dim + 1."""
        if not rows:
            return cls(ambient_dim)
        red, pivots = _kernel.rref(rows, ambient_dim)
        return cls(ambient_dim, _tuples(red), tuple(pivots))

    @classmethod
    def span(cls, ambient_dim, vectors):
        vecs = [_coerce_vec(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls._reduced(ambient_dim, [_vec_to_row(v) for v in vecs])

    @classmethod
    def row_space(cls, m: ExactMatrix):
        """Span of the rows of m in C^{m.cols}."""
        return cls._reduced(m.cols, m._rows)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, ExactMatrix.identity(ambient_dim)._rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self):
        return tuple(_row_to_vec(r) for r in self._rows)

    @property
    def basis_matrix(self) -> ExactMatrix:
        """The canonical basis as the rows of a dim x ambient_dim matrix."""
        return ExactMatrix._from_rows(self._rows, self.ambient_dim)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def contains(self, vec) -> bool:
        vec = _coerce_vec(vec)
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if all(e.is_zero() for e in vec):
            return True
        if self.dim == 0:
            return False
        _, pivots = _kernel.rref(self._rows + (_vec_to_row(vec),), self.ambient_dim)
        return len(pivots) == self.dim

    def is_subspace_of(self, other) -> bool:
        self._check_ambient(other)
        if self.dim == 0:
            return True
        if self.dim > other.dim:
            return False
        _, pivots = _kernel.rref(other._rows + self._rows, self.ambient_dim)
        return len(pivots) == other.dim

    def sum(self, other) -> "Subspace":
        self._check_ambient(other)
        if other.dim == 0 or self.is_full():
            return self
        if self.dim == 0 or other.is_full():
            return other
        return Subspace._reduced(self.ambient_dim, self._rows + other._rows)

    __add__ = sum

    def intersection(self, other) -> "Subspace":
        """Zassenhaus: reduce [[U|U],[W|0]].  The reduced rows whose pivot
        lies in the right half have a zero left half, and their right halves
        are the canonical RREF basis of the intersection."""
        self._check_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n)
        if self.is_full():
            return other
        if other.is_full():
            return self
        pad = (0,) * (2 * n)
        rows = [r + r[1:] for r in self._rows]
        rows.extend(r + pad for r in other._rows)
        red, pivots = _kernel.rref(rows, 2 * n)
        basis, piv = [], []
        for r, p in zip(red, pivots):
            if p >= n:
                basis.append((r[0], *r[1 + 2 * n :]))
                piv.append(p - n)
        return Subspace(n, tuple(basis), tuple(piv))

    __and__ = intersection

    def apply(self, m: ExactMatrix) -> "Subspace":
        """Image subspace under a linear map given by an ExactMatrix."""
        if m.cols != self.ambient_dim:
            raise ValueError("matrix shape does not match ambient dimension")
        if self.dim == 0:
            return Subspace.zero(m.rows)
        # the images m b are the rows of B m^T
        return Subspace._reduced(m.rows, _kernel.matmul(self._rows, m.T._rows, m.rows))

    def conjugate(self) -> "Subspace":
        # conjugation keeps pivots 1 and zeros 0: an RREF stays an RREF
        return Subspace(self.ambient_dim, tuple(_conj_row(r) for r in self._rows), self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        vecs = ["(" + ", ".join(str(e) for e in b) + ")" for b in self.basis]
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim}: {', '.join(vecs) or '0'})"


def _real_parts(row):
    """The real and imaginary parts of a row's numerators, each as the
    numerators of a real row (zero imaginary parts)."""
    x = [v for a in row[1::2] for v in (a, 0)]
    y = [v for b in row[2::2] for v in (b, 0)]
    return x, y


def real_rep_linear(m: ExactMatrix) -> ExactMatrix:
    """Real 2r x 2c representation [[X, -Y], [Y, X]] of a C-linear map
    X + iY, acting on stacked (Re v, Im v) coordinates."""
    top, bot = [], []
    for r in m._rows:
        x, y = _real_parts(r)
        top.append(_canon([r[0], *x, *(-v for v in y)]))
        bot.append(_canon([r[0], *y, *x]))
    return ExactMatrix._from_rows(tuple(top + bot), 2 * m.cols)


def real_rep_antilinear(m: ExactMatrix) -> ExactMatrix:
    """Real representation [[X, Y], [Y, -X]] of the antilinear map
    v -> (X + iY) conj(v)."""
    top, bot = [], []
    for r in m._rows:
        x, y = _real_parts(r)
        top.append(_canon([r[0], *x, *y]))
        bot.append(_canon([r[0], *y, *(-v for v in x)]))
    return ExactMatrix._from_rows(tuple(top + bot), 2 * m.cols)


def std_complex_structure(m: int) -> ExactMatrix:
    """Real representation of multiplication by i on C^m."""
    return real_rep_linear(ExactMatrix.diagonal([_I] * m))


def rationalize_matrix(array, max_denominator: int = 10**12):
    """ExactMatrix nearest to a float matrix; returns (matrix, max error)."""
    worst = 0.0
    rows = []
    for row in array:
        parts = []
        for v in row:
            re, im, err = _rationalize(v, max_denominator)
            parts += (re, im)
            worst = max(worst, err)
        rows.append(_row_from_parts(parts))
    if not rows:
        raise ValueError("ExactMatrix needs at least one row")
    ncols = (len(rows[0]) - 1) // 2
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return ExactMatrix._from_rows(tuple(rows), ncols), worst
