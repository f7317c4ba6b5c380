"""Rees construction for filtered vector spaces and the bundles they
induce on the line and on P^1: section counts, splitting type, degree,
slope, semistability and the brute-force purity oracle.

Sections are never materialized as polynomial matrices; everything is
computed from intersection dimensions dim(F^p /\\ Fbar^q), which is exact.
The splitting type reads its degrees off that table; the section counts
h0 are the independent reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .exact import ExactComplex, Subspace
from .hodge import Filtration

__all__ = [
    "InconsistentProfileError",
    "ReesBundle",
    "SplittingType",
    "rees_generators",
    "filtration_from_module",
    "h0",
    "splitting_type",
    "bundle_degree",
    "is_semistable_of_slope",
    "purity_oracle",
]


class InconsistentProfileError(RuntimeError):
    """The table of intersection dimensions gives no degree multiset of
    the right rank and degree (this signals an arithmetic bug; genuine
    filtration pairs always fit)."""


@dataclass(frozen=True)
class ReesBundle:
    """Bundle on P^1 glued from the Rees modules of two complete
    filtrations on the same space; h0's m twists it at infinity."""

    f: Filtration
    fbar: Filtration

    def __post_init__(self):
        if self.f.ambient_dim != self.fbar.ambient_dim:
            raise ValueError("filtrations live on different spaces")

    @property
    def rank(self) -> int:
        return self.f.ambient_dim


@dataclass(frozen=True)
class SplittingType:
    """Weakly decreasing Birkhoff-Grothendieck degrees."""

    degrees: tuple

    def __post_init__(self):
        if any(a < b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError("degrees must be weakly decreasing")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def is_constant(self, w: int) -> bool:
        return all(a == w for a in self.degrees)


def rees_generators(f: Filtration):
    """Minimal generating set of the Rees module: a basis adapted to the
    filtration, each vector tagged with the largest k with v in F^k.

    Extending a basis of F^{k+1} to F^k level by level makes the level-k
    count equal dim Gr^k, which is the fiber-at-zero dimension count."""
    gens = []
    current = Subspace.zero(f.ambient_dim)
    for k in range(f.length - 1, -1, -1):
        for vec in f.step(k).basis:
            grown = current + Subspace.span(f.ambient_dim, [vec])
            if grown.dim > current.dim:
                gens.append((k, vec))
                current = grown
    if not current.is_full():
        raise ValueError("filtration is not complete")
    return gens


def filtration_from_module(ambient_dim: int, generators) -> Filtration:
    """Inverse of rees_generators: F^k = span{v_j : k_j >= k}.

    Redundant generators are harmless; the generators must span the
    space once the grading is forgotten."""
    gens = [(int(k), tuple(ExactComplex.coerce(x) for x in v)) for k, v in generators]
    if any(k < 0 for k, _ in gens):
        raise ValueError("generator exponents must be nonnegative")
    full = Subspace.span(ambient_dim, [v for _, v in gens])
    if not full.is_full():
        raise ValueError("generators do not span the space")
    top = max(k for k, _ in gens)
    proper = []
    for k in range(1, top + 1):
        proper.append(
            Subspace.span(ambient_dim, [v for kk, v in gens if kk >= k])
        )
    return Filtration.from_proper_steps(ambient_dim, proper)


def _meet_dim(a: Subspace, b: Subspace) -> int:
    """dim(a /\\ b) = dim a + dim b - dim(a + b): one n-wide elimination,
    none when a side is 0 or V."""
    return a.dim + b.dim - (a + b).dim


def h0(bundle: ReesBundle, m: int = 0) -> int:
    """Global sections of the twist by m at infinity:
    h^0 = sum_d dim(F^{-d} /\\ Fbar^{d-m}).  For 0 <= d <= m both steps
    are V, so those terms are the rank each; only the at most
    len F + len Fbar others are intersected."""
    f, fbar = bundle.f, bundle.fbar
    hi = m + fbar.length
    others = chain(range(1 - f.length, min(0, hi)), range(max(0, m + 1), hi))
    return bundle.rank * max(m + 1, 0) + sum(
        _meet_dim(f.step(-d), fbar.step(d - m)) for d in others
    )


def bundle_degree(bundle: ReesBundle) -> int:
    """deg = sum_p p dim Gr_F^p + sum_q q dim Gr_Fbar^q."""
    d = 0
    for p, g in enumerate(bundle.f.graded_dims()):
        d += p * g
    for q, g in enumerate(bundle.fbar.graded_dims()):
        d += q * g
    return d


def splitting_type(bundle: ReesBundle) -> SplittingType:
    """Read the degrees off the table d(p, q) = dim(F^p /\\ Fbar^q).

    Two filtrations always have a common adapted basis, and a basis vector
    with exact levels (p, q) spans a summand O(p + q).  So the
    multiplicity of that degree is the second difference
    d(p, q) - d(p+1, q) - d(p, q+1) + d(p+1, q+1).  h0 is the reference:
    h0(m) = sum_i max(a_i + m + 1, 0) over the degrees a_i."""
    f, fbar = bundle.f, bundle.fbar
    lf, lb = f.length, fbar.length
    d = [[_meet_dim(f.step(p), fbar.step(q)) for q in range(lb + 1)] for p in range(lf + 1)]
    degrees = []
    for p in range(lf):
        for q in range(lb):
            mult = d[p][q] - d[p + 1][q] - d[p][q + 1] + d[p + 1][q + 1]
            if mult < 0:
                raise InconsistentProfileError(f"negative multiplicity at {(p, q)}")
            degrees += [p + q] * mult
    if len(degrees) != bundle.rank:
        raise InconsistentProfileError("degree multiset does not match the rank")
    st = SplittingType(tuple(sorted(degrees, reverse=True)))
    if st.degree != bundle_degree(bundle):
        raise InconsistentProfileError("degree cross-check failed")
    return st


def is_semistable_of_slope(bundle: ReesBundle, w: int) -> bool:
    """On P^1 semistable of slope w means splitting type (w, ..., w)."""
    return splitting_type(bundle).is_constant(w)


def purity_oracle(f: Filtration, fbar: Filtration, w: int) -> bool:
    """Brute force: the intersections F^p /\\ Fbar^{w-p} fill the space
    and are independent."""
    if f.ambient_dim != fbar.ambient_dim:
        raise ValueError("filtrations live on different spaces")
    n = f.ambient_dim
    pieces, total_dim = [], 0
    # stop once the pieces outgrow the space: for w far below zero the
    # range is long, but every p in [w, 0] gives the piece V
    for p in range(w - fbar.length + 1, f.length):
        pieces.append(f.step(p) & fbar.step(w - p))
        total_dim += pieces[-1].dim
        if total_dim > n:
            return False
    if total_dim != n:
        return False
    acc = Subspace.zero(n)
    for p in pieces:
        acc = acc + p
    return acc.dim == n
