"""Catalog of holomorphic prepotentials with analytic derivatives.

Each entry supplies value, gradient w, Hessian tau and the totally
symmetric third- and fourth-derivative tensors on an explicit domain of
validity.
Derivatives are coded per entry rather than derived automatically so that
the finite-difference consistency tests actually test something.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re as _re

import numpy as np

from .exact import _shown_int

__all__ = [
    "DomainError",
    "Prepotential",
    "Quadratic",
    "Cubic",
    "SWLog",
    "Coupled",
    "CatalogEntry",
    "catalog",
    "get_entry",
    "parse_entry",
]


# largest n of the quadratic entry: verify costs about (2n)^6 per point,
# seconds at n = 12, so a larger n is refused before anything is built
_QUADRATIC_MAX_N = 12


class DomainError(ValueError):
    """Point outside the prepotential's domain of validity."""


def _shown(value) -> str:
    """repr of a refused parameter value; an int of more than 12 characters
    shows its first 12 and its digit count, as _parse_value does, so the
    refusal stays one short line."""
    return _shown_int(value) if type(value) is int else repr(value)


class Prepotential:
    """Base class; subclasses fill in the analytic data.

    Points are numpy complex vectors of length n.  sample_box lists 2n
    (lo, hi) ranges for the real chart (Re z, Im z) used by seeded
    verification sweeps.
    """

    n: int = 1
    name: str = "?"
    sample_box: tuple = ()
    # length scale: the potential check's radius and the sampler's margin
    # are multiples of it
    scale: float = 1.0

    def value(self, z) -> complex:
        raise NotImplementedError

    def grad(self, z):
        raise NotImplementedError

    def hess(self, z):
        raise NotImplementedError

    def third(self, z):
        raise NotImplementedError

    def fourth(self, z):
        raise NotImplementedError

    def in_domain(self, z) -> bool:
        raise NotImplementedError

    def require_domain(self, z):
        if not self.in_domain(z):
            raise DomainError(f"{self.name}: point {z} outside domain")

    def as_point(self, z):
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if arr.shape != (self.n,):
            raise ValueError(f"{self.name}: expected point in C^{self.n}")
        return arr

    def __repr__(self):
        return f"<Prepotential {self.name} (n={self.n})>"


class Quadratic(Prepotential):
    """F = (i/2) sum z_k^2, that is (1/2) z^T tau0 z with tau0 = i Id.

    The flat model: all connections coincide and the Higgs field vanishes.
    """

    def __init__(self, n: int = 1):
        if not isinstance(n, numbers.Integral) or not 1 <= n <= _QUADRATIC_MAX_N:
            raise ValueError(
                f"quadratic: n must be an integer from 1 to {_QUADRATIC_MAX_N}, "
                f"got {_shown(n)}")
        self.n = int(n)
        self.tau0 = 1j * np.eye(self.n)
        self.name = "quadratic"
        self.sample_box = tuple((-2.0, 2.0) for _ in range(2 * self.n))

    def value(self, z):
        z = self.as_point(z)
        return 0.5 * z @ self.tau0 @ z

    def grad(self, z):
        return self.tau0 @ self.as_point(z)

    def hess(self, z):
        self.as_point(z)
        return self.tau0.copy()

    def third(self, z):
        self.as_point(z)
        return np.zeros((self.n, self.n, self.n), dtype=complex)

    def fourth(self, z):
        self.as_point(z)
        return np.zeros((self.n,) * 4, dtype=complex)

    def in_domain(self, z) -> bool:
        self.as_point(z)
        return True


class Cubic(Prepotential):
    """F = z^3 on the upper half plane (there Im tau = 6 Im z > 0)."""

    n = 1
    name = "cubic"
    sample_box = ((-1.5, 1.5), (0.4, 2.0))

    def value(self, z):
        return complex(self.as_point(z)[0] ** 3)

    def grad(self, z):
        return np.array([3.0 * self.as_point(z)[0] ** 2])

    def hess(self, z):
        return np.array([[6.0 * self.as_point(z)[0]]])

    def third(self, z):
        self.as_point(z)
        return np.full((1, 1, 1), 6.0 + 0.0j)

    def fourth(self, z):
        self.as_point(z)
        return np.zeros((1, 1, 1, 1), dtype=complex)

    def in_domain(self, z) -> bool:
        return self.as_point(z)[0].imag > 0.0


class SWLog(Prepotential):
    """F = (i/pi) z^2 log(z/L), the one-loop effective prepotential.

    Equals (i/2pi) z^2 log(z^2/L^2) wherever Re(z/L) > 0; written with a
    single principal log so the branch cut is exactly
    {Re(z/L) <= 0, Im(z/L) = 0}.  Im tau > 0 additionally requires
    |z/L| > e^{-3/2}.
    """

    n = 1

    def __init__(self, lam: complex = 1.0):
        try:
            lam = complex(lam)
        except OverflowError:
            raise ValueError(f"swlog: lambda={_shown(lam)} is beyond the float range") from None
        if lam == 0 or not cmath.isfinite(lam):
            raise ValueError(f"swlog: lambda must be finite and nonzero, got {lam}")
        self.lam = lam
        self.name = "swlog"
        # swlog(lambda) is swlog(1) pulled back by z -> z / lambda
        r = self.scale = abs(lam)
        self.sample_box = ((0.35 * r, 2.0 * r), (-1.5 * r, 1.5 * r))

    def value(self, z):
        w = self.as_point(z)[0]
        return complex((1j / math.pi) * w * w * np.log(w / self.lam))

    def grad(self, z):
        w = self.as_point(z)[0]
        return np.array([(1j / math.pi) * (2.0 * w * np.log(w / self.lam) + w)])

    def hess(self, z):
        w = self.as_point(z)[0]
        return np.array([[(1j / math.pi) * (2.0 * np.log(w / self.lam) + 3.0)]])

    def third(self, z):
        w = self.as_point(z)[0]
        return np.array([[[(1j / math.pi) * 2.0 / w]]])

    def fourth(self, z):
        w = self.as_point(z)[0]
        return np.array([[[[(-2j / math.pi) / (w * w)]]]])

    def in_domain(self, z) -> bool:
        w = self.as_point(z)[0] / self.lam
        # z / lambda overflows for a tiny lambda, and tau is NaN there
        if not np.isfinite(w) or (w.imag == 0.0 and w.real <= 0.0):
            return False
        return abs(w) > math.exp(-1.5)


class Coupled(Prepotential):
    """F = (i/2)(z1^2 + z2^2) + z1 z2^2, a 2-dimensional entry with
    genuine cross terms in tau and in the third derivatives."""

    n = 2
    name = "coupled"
    sample_box = ((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0), (-0.4, 0.4))

    def value(self, z):
        z1, z2 = self.as_point(z)
        return complex(0.5j * (z1 * z1 + z2 * z2) + z1 * z2 * z2)

    def grad(self, z):
        z1, z2 = self.as_point(z)
        return np.array([1j * z1 + z2 * z2, 1j * z2 + 2.0 * z1 * z2])

    def hess(self, z):
        z1, z2 = self.as_point(z)
        return np.array([[1j, 2.0 * z2], [2.0 * z2, 1j + 2.0 * z1]])

    def third(self, z):
        self.as_point(z)
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 0] = 2.0
        return c

    def fourth(self, z):
        self.as_point(z)
        return np.zeros((2, 2, 2, 2), dtype=complex)

    def in_domain(self, z) -> bool:
        g = self.hess(z).imag
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return False
        return True


class CatalogEntry:
    def __init__(self, name, factory, description, params=()):
        self.name = name
        self.factory = factory
        self.description = description
        self.params = params

    def make(self, **params) -> Prepotential:
        for key in params:
            if key not in self.params:
                raise ValueError(f"catalog entry {self.name!r} has no parameter {key!r}")
        return self.factory(**params)


_CATALOG = [
    CatalogEntry("quadratic", lambda n=1: Quadratic(n=n),
                 "flat model F = (i/2) sum z_k^2 (tau0 = i Id; param n)", ("n",)),
    CatalogEntry("cubic", lambda: Cubic(),
                 "F = z^3 on the upper half plane"),
    # 'lambda' is a Python keyword, so it arrives in **kw
    CatalogEntry("swlog", lambda **kw: SWLog(kw.get("lambda", 1.0)),
                 "F = (i/pi) z^2 log(z/lambda) away from the cut (param lambda)",
                 ("lambda",)),
    CatalogEntry("coupled", lambda: Coupled(),
                 "F = (i/2)(z1^2+z2^2) + z1 z2^2, 2-dimensional"),
]


def catalog():
    """All registered catalog entries."""
    return list(_CATALOG)


def get_entry(name: str) -> CatalogEntry:
    for entry in _CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog entry {name!r}")


_SPEC_RE = _re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")
_DIGIT_RUN = _re.compile(r"[+-]?\d+(?:_\d+)*")


def _parse_value(text: str, where: str):
    """Value of a selector parameter; where names it in a refusal."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        # int() refuses a digit run past its digit limit, and float() would
        # read the run as inf
        if _DIGIT_RUN.fullmatch(text):
            digits = sum(c.isdigit() for c in text)
            raise ValueError(
                f"{where}={text[:12]}... has {digits} digits, too many to read") from None
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse parameter value {text!r}") from None


def parse_entry(spec: str) -> Prepotential:
    """Build a catalog prepotential from a selector like 'swlog(lambda=1)'."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"malformed entry selector {spec!r}")
    name, args = m.group(1), m.group(2)
    entry = get_entry(name)
    params = {}
    if args:
        for piece in args.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError(f"parameters must be name=value, got {piece!r}")
            key, val = piece.split("=", 1)
            key = key.strip()
            if key in params:
                raise ValueError(f"catalog entry {name!r} repeats parameter {key!r}")
            params[key] = _parse_value(val, f"{name}: {key}")
    return entry.make(**params)
