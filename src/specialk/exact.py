"""Exact Gaussian-rational scalars, matrices and subspaces.

Scalars are pairs of fractions re + im*i.  Matrices and subspaces convert
to the flat integer row format of the kernel (see _kernel) for reduction
and multiplication; subspaces are stored in reduced row-echelon form, so
equal subspaces compare equal structurally.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

from . import _kernel

__all__ = [
    "ExactComplex",
    "ExactMatrix",
    "Subspace",
    "real_rep_linear",
    "real_rep_antilinear",
    "std_complex_structure",
    "rationalize_matrix",
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
        z = complex(z)
        re = Fraction(z.real).limit_denominator(max_denominator)
        im = Fraction(z.imag).limit_denominator(max_denominator)
        err = abs(complex(re, im) - z)
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
                    im_part = Fraction(body)
            else:
                if re_part is not None:
                    raise ValueError(f"repeated real part in {text!r}")
                re_part = Fraction(tok)
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


_ZERO = ExactComplex(0)
_ONE = ExactComplex(1)
_I = ExactComplex(0, 1)


def _vec_to_row(vec):
    """Flat integer row [den, a0, b0, ...] for a vector of ExactComplex."""
    den = 1
    for e in vec:
        for f in (e.re, e.im):
            d = f.denominator
            den = den // gcd(den, d) * d
    row = [den]
    for e in vec:
        row.append(e.re.numerator * (den // e.re.denominator))
        row.append(e.im.numerator * (den // e.im.denominator))
    return row


def _row_to_vec(row):
    den = row[0]
    return tuple(
        ExactComplex(Fraction(row[1 + 2 * j], den), Fraction(row[2 + 2 * j], den))
        for j in range((len(row) - 1) // 2)
    )


def _coerce_vec(vec):
    return tuple(ExactComplex.coerce(x) for x in vec)


class ExactMatrix:
    """Dense matrix over the Gaussian rationals."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        ents = tuple(_coerce_vec(r) for r in entries)
        if not ents:
            raise ValueError("ExactMatrix needs at least one row")
        ncols = len(ents[0])
        if any(len(r) != ncols for r in ents):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([[_ZERO] * c for _ in range(r)])

    @classmethod
    def diagonal(cls, values):
        vals = _coerce_vec(values)
        n = len(vals)
        return cls([[vals[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _kernel_rows(self):
        return [_vec_to_row(r) for r in self.entries]

    @classmethod
    def _from_kernel_rows(cls, rows):
        return cls([_row_to_vec(r) for r in rows])

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matmul")
            rows = _kernel.matmul(self._kernel_rows(), other._kernel_rows(), other.cols)
            return ExactMatrix._from_kernel_rows(rows)
        # vector application
        vec = _coerce_vec(other)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        col = ExactMatrix([[v] for v in vec])
        return tuple(r[0] for r in (self @ col).entries)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-a for a in r] for r in self.entries])

    def scale(self, s):
        s = ExactComplex.coerce(s)
        return ExactMatrix([[s * a for a in r] for r in self.entries])

    def transpose(self):
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    @property
    def T(self):
        return self.transpose()

    def conj(self):
        return ExactMatrix([[a.conjugate() for a in r] for r in self.entries])

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.entries for a in r)

    def is_real(self) -> bool:
        return all(a.is_real() for r in self.entries for a in r)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def rank(self) -> int:
        _, pivots = _kernel.rref(self._kernel_rows(), self.cols)
        return len(pivots)

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = []
        for i, row in enumerate(self.entries):
            ext = list(row) + [_ONE if j == i else _ZERO for j in range(n)]
            aug.append(_vec_to_row(ext))
        red, pivots = _kernel.rref(aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        vecs = [_row_to_vec(r)[n:] for r in red]
        return ExactMatrix(vecs)

    def det(self) -> ExactComplex:
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        a = [list(r) for r in self.entries]
        out = _ONE
        for c in range(n):
            piv = next((i for i in range(c, n) if not a[i][c].is_zero()), None)
            if piv is None:
                return ExactComplex(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                out = -out
            out = out * a[c][c]
            inv = _ONE / a[c][c]
            for i in range(c + 1, n):
                f = a[i][c] * inv
                if f.is_zero():
                    continue
                for j in range(c, n):
                    a[i][j] = a[i][j] - f * a[c][j]
        return out

    def to_numpy(self):
        import numpy as np

        return np.array(
            [[e.to_complex() for e in row] for row in self.entries], dtype=complex
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


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
    def span(cls, ambient_dim, vectors):
        vecs = [_coerce_vec(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not vecs:
            return cls(ambient_dim)
        rows = [_vec_to_row(v) for v in vecs]
        red, pivots = _kernel.rref(rows, ambient_dim)
        return cls(ambient_dim, tuple(tuple(r) for r in red), tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim):
        return cls.span(ambient_dim, ExactMatrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self):
        return tuple(_row_to_vec(list(r)) for r in self._rows)

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
        rows = [list(r) for r in self._rows] + [_vec_to_row(vec)]
        _, pivots = _kernel.rref(rows, self.ambient_dim)
        return len(pivots) == self.dim

    def is_subspace_of(self, other) -> bool:
        self._check_ambient(other)
        if self.dim == 0:
            return True
        if self.dim > other.dim:
            return False
        rows = [list(r) for r in other._rows] + [list(r) for r in self._rows]
        _, pivots = _kernel.rref(rows, self.ambient_dim)
        return len(pivots) == other.dim

    def sum(self, other) -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.ambient_dim, self.basis + other.basis)

    __add__ = sum

    def intersection(self, other) -> "Subspace":
        """Zassenhaus: reduce [[U|U],[W|0]]; rows with zero left half carry
        a basis of the intersection in their right half."""
        self._check_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(n)
        rows = []
        for r in self._rows:
            rows.append([r[0]] + list(r[1:]) + list(r[1:]))
        for r in other._rows:
            rows.append([r[0]] + list(r[1:]) + [0] * (2 * n))
        red, _ = _kernel.rref(rows, 2 * n)
        vecs = []
        for r in red:
            if all(v == 0 for v in r[1 : 1 + 2 * n]):
                vecs.append(_row_to_vec([r[0]] + list(r[1 + 2 * n :])))
        return Subspace.span(n, vecs)

    __and__ = intersection

    def apply(self, m: ExactMatrix) -> "Subspace":
        """Image subspace under a linear map given by an ExactMatrix."""
        if m.cols != self.ambient_dim:
            raise ValueError("matrix shape does not match ambient dimension")
        if self.dim == 0:
            return Subspace.zero(m.rows)
        imgs = [m @ b for b in self.basis]
        return Subspace.span(m.rows, imgs)

    def conjugate(self) -> "Subspace":
        return Subspace.span(self.ambient_dim, [[e.conjugate() for e in b] for b in self.basis])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        vecs = ["(" + ", ".join(str(e) for e in b) + ")" for b in self.basis]
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim}: {', '.join(vecs) or '0'})"


def real_rep_linear(m: ExactMatrix) -> ExactMatrix:
    """Real 2r x 2c representation [[X, -Y], [Y, X]] of a C-linear map
    X + iY, acting on stacked (Re v, Im v) coordinates."""
    x = [[e.re for e in row] for row in m.entries]
    y = [[e.im for e in row] for row in m.entries]
    top = [xr + [-v for v in yr] for xr, yr in zip(x, y)]
    bot = [yr + xr for xr, yr in zip(x, y)]
    return ExactMatrix([[ExactComplex(v) for v in row] for row in top + bot])


def real_rep_antilinear(m: ExactMatrix) -> ExactMatrix:
    """Real representation [[X, Y], [Y, -X]] of the antilinear map
    v -> (X + iY) conj(v)."""
    x = [[e.re for e in row] for row in m.entries]
    y = [[e.im for e in row] for row in m.entries]
    top = [xr + yr for xr, yr in zip(x, y)]
    bot = [yr + [-v for v in xr] for xr, yr in zip(x, y)]
    return ExactMatrix([[ExactComplex(v) for v in row] for row in top + bot])


def std_complex_structure(m: int) -> ExactMatrix:
    """Real representation of multiplication by i on C^m."""
    return real_rep_linear(ExactMatrix.diagonal([_I] * m))


def rationalize_matrix(array, max_denominator: int = 10**12):
    """ExactMatrix nearest to a float matrix; returns (matrix, max error)."""
    worst = 0.0
    rows = []
    for row in array:
        out = []
        for v in row:
            e, err = ExactComplex.from_complex(v, max_denominator)
            out.append(e)
            worst = max(worst, err)
        rows.append(out)
    return ExactMatrix(rows), worst
