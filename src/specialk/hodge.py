"""Weight-p Hodge structures over exact scalars, polarizations, the
quaternionic correspondence, and the pointwise variation extracted from
a special Kahler prepotential.

Everything here is tolerance-free: purity and the round trips are exact
verdicts over Q(i).  Float geometry enters only through an explicit
rationalization step whose rounding error is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import geometry
from .exact import (
    ExactComplex,
    ExactMatrix,
    Subspace,
    rationalize_matrix,
    real_rep_antilinear,
    real_rep_linear,
    std_complex_structure,
)

__all__ = [
    "NotPureError",
    "RealStructure",
    "Filtration",
    "Polarization",
    "HodgeStructure",
    "QuaternionicStructure",
    "filtration_to_hodge",
    "hodge_to_filtration",
    "check_polarization",
    "PolarizationReport",
    "quaternionic_from_hodge",
    "hodge_from_quaternionic",
    "QuaternionicChart",
    "tangent_hodge_structure",
    "vhs_from_special_kahler",
]

_ZERO = ExactComplex(0)
_ONE = ExactComplex(1)
_I = ExactComplex(0, 1)


class NotPureError(ValueError):
    """The filtration pair does not define a pure structure."""


def _vec_to_real(vec):
    """C^m vector -> stacked (Re, Im) coordinates of length 2m."""
    return tuple(ExactComplex(e.re) for e in vec) + tuple(ExactComplex(e.im) for e in vec)


def _real_to_vec(coords):
    m = len(coords) // 2
    for c in coords:
        if not c.is_real():
            raise ValueError("real coordinates expected")
    return tuple(ExactComplex(coords[j].re, coords[m + j].re) for j in range(m))


class RealStructure:
    """Antilinear involution of C^m, stored as its real 2m x 2m action
    matrix on stacked (Re v, Im v) coordinates."""

    def __init__(self, matrix: ExactMatrix):
        if matrix.rows != matrix.cols or matrix.rows % 2:
            raise ValueError("real structure matrix must be square of even size")
        if not matrix.is_real():
            raise ValueError("real structure matrix must have real entries")
        m = matrix.rows // 2
        ident = ExactMatrix.identity(2 * m)
        if matrix @ matrix != ident:
            raise ValueError("real structure must be an involution")
        jc = std_complex_structure(m)
        if matrix @ jc != (-(jc @ matrix)):
            raise ValueError("real structure must anticommute with i")
        self.matrix = matrix
        self.m = m

    @classmethod
    def conjugation(cls, m: int) -> "RealStructure":
        """Coordinatewise complex conjugation."""
        rows = []
        for i in range(2 * m):
            sign = _ONE if i < m else ExactComplex(-1)
            rows.append([sign if j == i else _ZERO for j in range(2 * m)])
        return cls(ExactMatrix(rows))

    @classmethod
    def from_antilinear(cls, s: ExactMatrix) -> "RealStructure":
        """Real structure v -> S conj(v) for a complex matrix S."""
        return cls(real_rep_antilinear(s))

    def apply_vec(self, vec):
        vec = tuple(ExactComplex.coerce(v) for v in vec)
        if len(vec) != self.m:
            raise ValueError("vector length mismatch")
        return _real_to_vec(self.matrix @ _vec_to_real(vec))

    def apply_subspace(self, s: Subspace) -> Subspace:
        if s.ambient_dim != self.m:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.m, [self.apply_vec(b) for b in s.basis])

    def __eq__(self, other):
        if not isinstance(other, RealStructure):
            return NotImplemented
        return self.matrix == other.matrix


class Filtration:
    """Complete decreasing filtration V = F^0 >= F^1 >= ... >= F^len = 0."""

    def __init__(self, steps):
        steps = tuple(steps)
        if len(steps) < 2:
            raise ValueError("a complete filtration has at least the full and zero steps")
        ambient = steps[0].ambient_dim
        if not steps[0].is_full():
            raise ValueError("first step must be the full space")
        if not steps[-1].is_zero():
            raise ValueError("last step must be the zero subspace")
        for a, b in zip(steps, steps[1:]):
            if b.ambient_dim != ambient:
                raise ValueError("ambient dimension mismatch between steps")
            if not b.is_subspace_of(a):
                raise ValueError("steps must be decreasing")
        self.ambient_dim = ambient
        self.steps = steps

    @classmethod
    def from_proper_steps(cls, ambient_dim: int, proper):
        """Build from the steps strictly between V and 0 (may be empty)."""
        steps = [Subspace.full(ambient_dim)]
        steps.extend(proper)
        if not steps[-1].is_zero():
            steps.append(Subspace.zero(ambient_dim))
        return cls(steps)

    @property
    def length(self) -> int:
        """Smallest k with F^k = 0."""
        k = len(self.steps) - 1
        while k > 0 and self.steps[k - 1].is_zero():
            k -= 1
        return k

    def step(self, k: int) -> Subspace:
        if k < 0:
            return self.steps[0]
        if k >= len(self.steps):
            return self.steps[-1]
        return self.steps[k]

    def conjugate(self, r: RealStructure) -> "Filtration":
        return Filtration(tuple(r.apply_subspace(s) for s in self.steps))

    def graded_dims(self):
        """dim Gr^k for k = 0..length-1."""
        return tuple(
            self.step(k).dim - self.step(k + 1).dim for k in range(self.length)
        )

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        top = max(len(self.steps), len(other.steps))
        return all(self.step(k) == other.step(k) for k in range(top))

    def __repr__(self):
        dims = [s.dim for s in self.steps]
        return f"Filtration(dims {dims})"

    # -- JSON form used by the CLI ------------------------------------
    def to_json(self):
        return {
            "dim": self.ambient_dim,
            "steps": [
                [[str(e) for e in vec] for vec in s.basis]
                for s in self.steps
                if not s.is_zero()
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Filtration":
        if not isinstance(obj, dict):
            raise ValueError("filtration JSON must be an object")
        try:
            dim = int(obj["dim"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("filtration JSON needs an integer 'dim'") from None
        raw = obj.get("steps")
        if not isinstance(raw, list) or not raw:
            raise ValueError("filtration JSON needs a non-empty 'steps' list")
        subs = []
        for step in raw:
            if not isinstance(step, list):
                raise ValueError("each step must be a list of vectors")
            vecs = []
            for vec in step:
                if not isinstance(vec, list) or len(vec) != dim:
                    raise ValueError(f"vectors must have length {dim}")
                vecs.append([ExactComplex.parse(str(e)) for e in vec])
            subs.append(Subspace.span(dim, vecs))
        if not subs[0].is_full():
            raise ValueError("first step must span the full space")
        return cls.from_proper_steps(dim, subs[1:])


@dataclass(frozen=True)
class Polarization:
    """Nondegenerate bilinear form matrix with the weight-parity symmetry.

    Frozen, so the checks made on construction hold for its lifetime."""

    q: ExactMatrix
    weight: int

    def __post_init__(self):
        if self.q.rows != self.q.cols:
            raise ValueError("polarization matrix must be square")
        sign = ExactComplex((-1) ** self.weight)
        if self.q.T != self.q.scale(sign):
            raise ValueError("polarization must satisfy Q^T = (-1)^p Q")
        if self.q.rank() != self.q.rows:
            raise ValueError("polarization must be nondegenerate")

    def pair(self, x, y) -> ExactComplex:
        qx = self.q @ tuple(ExactComplex.coerce(v) for v in y)
        return sum(
            (ExactComplex.coerce(a) * b for a, b in zip(x, qx)), ExactComplex(0)
        )


class HodgeStructure:
    """Weight-p decomposition V = (+) V^{r,s} with V^{r,s} = r(V^{s,r})."""

    def __init__(self, weight: int, components: dict, real_structure: RealStructure):
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        self.weight = weight
        self.real_structure = real_structure
        self.ambient_dim = real_structure.m
        comps = {}
        for (r, s), sub in components.items():
            if r + s != weight:
                raise ValueError("component indices must sum to the weight")
            if sub.ambient_dim != self.ambient_dim:
                raise ValueError("component ambient dimension mismatch")
            if sub.dim:
                comps[(r, s)] = sub
        self.components = comps
        total = Subspace.zero(self.ambient_dim)
        dim_sum = 0
        for sub in comps.values():
            total = total + sub
            dim_sum += sub.dim
        if dim_sum != self.ambient_dim or not total.is_full():
            raise ValueError("components do not form a direct sum decomposition")
        for (r, s), sub in comps.items():
            image = real_structure.apply_subspace(sub)
            if image != comps.get((s, r), Subspace.zero(self.ambient_dim)):
                raise ValueError("components violate V^{r,s} = r(V^{s,r})")

    def component(self, r: int, s: int) -> Subspace:
        return self.components.get((r, s), Subspace.zero(self.ambient_dim))

    def __repr__(self):
        dims = {k: v.dim for k, v in sorted(self.components.items())}
        return f"HodgeStructure(weight {self.weight}, dims {dims})"


def filtration_to_hodge(f: Filtration, fbar: Filtration, r: RealStructure,
                        weight: int) -> HodgeStructure:
    """Recover the decomposition V^{k,l} = F^k intersect Fbar^l; raises
    NotPureError when some F^k (+) Fbar^{p-k+1} fails to be all of V."""
    if f.ambient_dim != fbar.ambient_dim or f.ambient_dim != r.m:
        raise ValueError("ambient dimension mismatch")
    if f.conjugate(r) != fbar:
        raise ValueError("Fbar must be the conjugate filtration r(F)")
    n = f.ambient_dim
    for k in range(0, weight + 2):
        a = f.step(k)
        b = fbar.step(weight - k + 1)
        if a.dim + b.dim != n or (a + b).dim != n:
            raise NotPureError(f"not pure of weight {weight} (split fails at k={k})")
    comps = {}
    for k in range(0, weight + 1):
        comps[(k, weight - k)] = f.step(k) & fbar.step(weight - k)
    if sum(c.dim for c in comps.values()) != n:
        raise NotPureError(f"not pure of weight {weight} (components do not fill V)")
    return HodgeStructure(weight, comps, r)


def hodge_to_filtration(h: HodgeStructure) -> Filtration:
    """F^k = (+)_{i >= k} V^{i, p-i}."""
    steps = []
    for k in range(0, h.weight + 1):
        acc = Subspace.zero(h.ambient_dim)
        for i in range(k, h.weight + 1):
            acc = acc + h.component(i, h.weight - i)
        steps.append(acc)
    steps.append(Subspace.zero(h.ambient_dim))
    return Filtration(steps)


@dataclass
class PolarizationReport:
    parity: bool
    orthogonality: bool
    positivity: dict

    @property
    def passed(self) -> bool:
        return (
            self.parity
            and self.orthogonality
            and all(self.positivity.values())
        )


def _hermitian_positive_definite(m: ExactMatrix) -> bool:
    if m != m.conj().T:
        return False
    for k in range(1, m.rows + 1):
        minor = ExactMatrix([row[:k] for row in m.entries[:k]])
        d = minor.det()
        if not d.is_real() or d.re <= 0:
            return False
    return True


def check_polarization(h: HodgeStructure, q: Polarization) -> PolarizationReport:
    """Exact polarization check: distinct components are Q-orthogonal and
    i^{k-l} Q(x, r(x)) is a positive-definite hermitian pairing on each
    component (verified via Gram-matrix leading minors).

    With the component bases stacked as the rows of B, every pairing
    Q(x, y) is an entry of B Q B^T, and every Q(x, r(y)) one of
    B Q S conj(B)^T, where r(v) = S conj(v)."""
    if q.q.rows != h.ambient_dim:
        raise ValueError("polarization dimension mismatch")
    parity = q.weight == h.weight
    keys = sorted(h.components)
    spans = {}
    rows = []
    for key in keys:
        basis = h.components[key].basis
        spans[key] = slice(len(rows), len(rows) + len(basis))
        rows.extend(basis)
    b = ExactMatrix(rows)
    m = h.ambient_dim
    rmat = h.real_structure.matrix.entries
    s = ExactMatrix(
        [[rmat[i][j] + _I * rmat[m + i][j] for j in range(m)] for i in range(m)]
    )
    pairs = b @ q.q @ b.T
    conj_pairs = b @ (q.q @ s) @ b.conj().T

    def block(mat, x, y):
        return [row[spans[y]] for row in mat.entries[spans[x]]]

    # conjugate components pair; everything else is orthogonal
    ortho = all(
        e.is_zero()
        for k, l in keys
        for other in keys
        if other != (l, k)
        for row in block(pairs, (k, l), other)
        for e in row
    )
    positivity = {}
    for k, l in keys:
        factor = _I ** (k - l)
        gram = block(conj_pairs, (k, l), (k, l))
        gram = ExactMatrix([[factor * e for e in row] for row in gram])
        positivity[(k, l)] = _hermitian_positive_definite(gram)
    return PolarizationReport(
        parity=parity,
        orthogonality=ortho,
        positivity=positivity,
    )


class QuaternionicStructure:
    """A pair (I, J) of real-linear endomorphisms with I^2 = J^2 = -1 and
    IJ = -JI, both as exact real matrices."""

    def __init__(self, imat: ExactMatrix, jmat: ExactMatrix):
        if imat.shape != jmat.shape or imat.rows != imat.cols:
            raise ValueError("I and J must be square of equal size")
        if not (imat.is_real() and jmat.is_real()):
            raise ValueError("I and J must be real matrices")
        neg_ident = ExactMatrix.identity(imat.rows).scale(ExactComplex(-1))
        if imat @ imat != neg_ident or jmat @ jmat != neg_ident:
            raise ValueError("I^2 = J^2 = -1 fails")
        if imat @ jmat != (-(jmat @ imat)):
            raise ValueError("IJ = -JI fails")
        self.imat = imat
        self.jmat = jmat
        self.real_dim = imat.rows

    @property
    def kmat(self) -> ExactMatrix:
        return self.imat @ self.jmat

    def __eq__(self, other):
        if not isinstance(other, QuaternionicStructure):
            return NotImplemented
        return self.imat == other.imat and self.jmat == other.jmat


def quaternionic_from_hodge(h: HodgeStructure) -> QuaternionicStructure:
    """J(v, w) = (-r(w), r(v)) on V = V^{1,0} (+) V^{0,1}, as a real
    matrix: J = r o (P' - P'')."""
    if h.weight != 1:
        raise ValueError("quaternionic correspondence needs weight 1")
    vp = h.component(1, 0)
    vpp = h.component(0, 1)
    m = h.ambient_dim
    cols = list(vp.basis) + list(vpp.basis)
    b = ExactMatrix([[cols[j][i] for j in range(m)] for i in range(m)])
    sel = ExactMatrix.diagonal(
        [_ONE] * vp.dim + [_ZERO] * vpp.dim
    )
    p_prime = b @ sel @ b.inverse()
    diff = p_prime + p_prime - ExactMatrix.identity(m)  # P' - P'' = 2P' - 1
    jmat = h.real_structure.matrix @ real_rep_linear(diff)
    return QuaternionicStructure(std_complex_structure(m), jmat)


@dataclass
class QuaternionicChart:
    """Result of hodge_from_quaternionic: the weight-1 structure in an
    I-adapted complex chart, plus the chart matrix itself."""

    hodge: HodgeStructure
    chart: ExactMatrix        # original real coords -> (Re xi, Im xi)
    source: QuaternionicStructure

    def recovered_structure(self) -> QuaternionicStructure:
        """Pull the model structure back through the chart; equals the
        source pair exactly when everything is consistent."""
        model = quaternionic_from_hodge(self.hodge)
        inv = self.chart.inverse()
        return QuaternionicStructure(
            inv @ model.imat @ self.chart,
            inv @ model.jmat @ self.chart,
        )


def hodge_from_quaternionic(q: QuaternionicStructure) -> QuaternionicChart:
    """Split V into quaternionic blocks and build the weight-1 Hodge
    structure whose associated J is the given one (exact round trip)."""
    n4 = q.real_dim
    if n4 % 4:
        raise ValueError("quaternionic structures need real dimension 4n")
    k = n4 // 4
    m = n4 // 2
    ident = ExactMatrix.identity(n4)
    std = [tuple(row) for row in ident.entries]
    blocks = []
    span = Subspace.zero(n4)
    for e in std:
        if span.contains(e):
            continue
        v = e
        iv = q.imat @ v
        jv = q.jmat @ v
        ijv = q.imat @ jv
        grown = span + Subspace.span(n4, [v, iv, jv, ijv])
        if grown.dim != span.dim + 4:
            raise ValueError("quaternionic relations fail to generate free blocks")
        blocks.append((v, jv))
        span = grown
        if span.is_full():
            break
    assert len(blocks) == k
    bvecs = [v for v, _ in blocks] + [jv for _, jv in blocks]
    columns = bvecs + [q.imat @ b for b in bvecs]
    basis = ExactMatrix([[columns[j][i] for j in range(n4)] for i in range(n4)])
    chart = basis.inverse()
    vp = Subspace.span(
        m, [tuple(_ONE if t == j else _ZERO for t in range(m)) for j in range(k)]
    )
    vpp = Subspace.span(
        m, [tuple(_ONE if t == k + j else _ZERO for t in range(m)) for j in range(k)]
    )
    swap = ExactMatrix(
        [
            [
                _ONE if (i < k and j == k + i) or (i >= k and j == i - k) else _ZERO
                for j in range(m)
            ]
            for i in range(m)
        ]
    )
    r = RealStructure.from_antilinear(swap)
    h = HodgeStructure(1, {(1, 0): vp, (0, 1): vpp}, r)
    return QuaternionicChart(hodge=h, chart=chart, source=q)


@lru_cache(maxsize=None)
def tangent_hodge_structure(n: int) -> HodgeStructure:
    """The weight-1 structure on the complexified tangent space C^{2n}
    whose (1,0) part is spanned by the holomorphic frame e_j + i e_{n+j}
    and whose real structure is coordinatewise conjugation.

    In special coordinates the frame is constant, so the structure depends
    on n only; it is built on first use and shared (treat it as read-only).
    Raises NotPureError if the frame's filtration is not pure."""
    m = 2 * n
    frame = [
        [_ONE if t == j else _I if t == n + j else _ZERO for t in range(m)]
        for j in range(n)
    ]
    rstruct = RealStructure.conjugation(m)
    filt = Filtration.from_proper_steps(m, [Subspace.span(m, frame)])
    return filtration_to_hodge(filt, filt.conjugate(rstruct), rstruct, 1)


def vhs_from_special_kahler(prep, points, tol: float = 1e-5,
                            max_denominator: int = 10**12):
    """Pointwise weight-1 structure on the complexified tangent space with
    the omega-based polarization (sign convention Q = -omega, flagged in
    the report), plus the holomorphic-subbundle residual.

    Only the polarization depends on the point; the Hodge structure is
    tangent_hodge_structure(n)."""
    reports = []
    for z in points:
        z = prep.as_point(z)
        md = geometry.metric_at(prep, z)
        hol = geometry.vhs_holomorphy_residual(prep, z)
        q_exact, err_q = rationalize_matrix(-md.omega.astype(complex), max_denominator)
        pure = True
        pol = None
        try:
            h = tangent_hodge_structure(prep.n)
            pol = check_polarization(h, Polarization(q_exact, weight=1))
        except NotPureError:
            pure = False
        reports.append(
            {
                "point": [[float(c.real), float(c.imag)] for c in z],
                "holomorphy_residual": hol,
                "holomorphy_pass": bool(hol < tol),
                "pure_weight_1": pure,
                "polarization_pass": bool(pol.passed) if pol is not None else False,
                "rationalization_error": float(err_q),
                "polarization_sign": "Q=-omega",
            }
        )
    return reports
