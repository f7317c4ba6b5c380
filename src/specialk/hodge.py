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
    leading_minors_positive,
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
_I_POWERS = (_ONE, _I, -_ONE, -_I)   # i^k at index k mod 4


class NotPureError(ValueError):
    """The filtration pair does not define a pure structure."""


class RealStructure:
    """Antilinear involution of C^m, stored as its real 2m x 2m action
    matrix on stacked (Re v, Im v) coordinates and as the complex m x m
    matrix S with r(v) = S conj(v)."""

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
        # matrix = [[X, Y], [Y, -X]] is the real form of v -> (X + iY) conj(v)
        self.s = matrix[:m, :m] + matrix[m:, :m].scale(_I)

    @classmethod
    def conjugation(cls, m: int) -> "RealStructure":
        """Coordinatewise complex conjugation."""
        return cls.from_antilinear(ExactMatrix.identity(m))

    @classmethod
    def from_antilinear(cls, s: ExactMatrix) -> "RealStructure":
        """Real structure v -> S conj(v) for a complex matrix S."""
        return cls(real_rep_antilinear(s))

    def apply_vec(self, vec):
        vec = tuple(ExactComplex.coerce(v).conjugate() for v in vec)
        if len(vec) != self.m:
            raise ValueError("vector length mismatch")
        return self.s @ vec

    def apply_subspace(self, s: Subspace) -> Subspace:
        if s.ambient_dim != self.m:
            raise ValueError("ambient dimension mismatch")
        return s.conjugate().apply(self.s)

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
        if self.q.T != (self.q if self.weight % 2 == 0 else -self.q):
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
    return m == m.conj().T and leading_minors_positive(m)


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
    start = 0
    for key in keys:
        spans[key] = slice(start, start + h.components[key].dim)
        start += h.components[key].dim
    b = ExactMatrix.blocks([[h.components[key].basis_matrix] for key in keys])
    pairs = b @ q.q @ b.T
    conj_pairs = b @ (q.q @ h.real_structure.s) @ b.conj().T
    # conjugate components pair; everything else is orthogonal
    ortho = all(
        pairs[spans[(k, l)], spans[other]].is_zero()
        for k, l in keys
        for other in keys
        if other != (l, k)
    )
    positivity = {}
    for k, l in keys:
        gram = conj_pairs[spans[(k, l)], spans[(k, l)]].scale(_I_POWERS[(k - l) % 4])
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
        neg_ident = -ExactMatrix.identity(imat.rows)
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
    # b has the bases of V^{1,0} and V^{0,1} as its columns, so the
    # projection onto V^{1,0} along V^{0,1} is b[:, :d] b^-1[:d, :]
    b = ExactMatrix.blocks([[vp.basis_matrix], [vpp.basis_matrix]]).T
    p_prime = b[:, : vp.dim] @ b.inverse()[: vp.dim, :]
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
    # rows t, n4 + t, 2 n4 + t, 3 n4 + t: e_t and its images under I, J, K
    gens = ExactMatrix.blocks(
        [[ExactMatrix.identity(n4)], [q.imat.T], [q.jmat.T], [q.kmat.T]]
    )
    chosen = []
    span = Subspace.zero(n4)
    for t in range(n4):
        grown = span + Subspace.row_space(gens[t::n4, :])
        if grown.dim == span.dim:
            continue  # e_t lies in span, which is I- and J-invariant
        if grown.dim != span.dim + 4:
            raise ValueError("quaternionic relations fail to generate free blocks")
        chosen.append(t)
        span = grown
        if span.is_full():
            break
    assert len(chosen) == k
    # basis columns: the chosen v = e_t, then J v, then I v, then I J v
    columns = ExactMatrix.blocks(
        [[gens[g * n4 + t : g * n4 + t + 1, :]] for g in (0, 2, 1, 3) for t in chosen]
    )
    chart = columns.T.inverse()
    ident = ExactMatrix.identity(m)
    vp = Subspace.row_space(ident[:k, :])
    vpp = Subspace.row_space(ident[k:, :])
    zero = ExactMatrix.zeros(k, k)
    swap = ExactMatrix.blocks(
        [[zero, ExactMatrix.identity(k)], [ExactMatrix.identity(k), zero]]
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
