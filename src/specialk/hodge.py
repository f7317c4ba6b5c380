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
    _shown_int,
    leading_minors_positive,
    rationalize_matrix,
    real_rep_antilinear,
    std_complex_structure,
)

__all__ = [
    "NotPureError",
    "RealStructure",
    "Filtration",
    "filtration_pair_from_json",
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
    """Antilinear involution r(v) = S conj(v) of C^m, stored and checked as
    the complex m x m matrix S; matrix is its real form [[X, Y], [Y, -X]]
    for S = X + iY, on stacked (Re v, Im v) coordinates."""

    def __init__(self, matrix: ExactMatrix):
        if matrix.rows != matrix.cols or matrix.rows % 2:
            raise ValueError("real structure matrix must be square of even size")
        if not matrix.is_real():
            raise ValueError("real structure matrix must have real entries")
        m = matrix.rows // 2
        x, y = matrix[:m, :m], matrix[m:, :m]
        # a real matrix anticommutes with i exactly when it is [[X, Y], [Y, -X]]
        if matrix[:m, m:] != y or matrix[m:, m:] != -x:
            raise ValueError("real structure must anticommute with i")
        s = x + y.scale(_I)
        # r(r(v)) = S conj(S) v
        if s @ s.conj() != ExactMatrix.identity(m):
            raise ValueError("real structure must be an involution")
        self.s = s
        self.m = m

    @property
    def matrix(self) -> ExactMatrix:
        return real_rep_antilinear(self.s)

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
        return self.s == other.s


def _json_scalar(value) -> ExactComplex:
    """The scalar of a JSON entry, as json.load gives it with
    parse_float=str: a string or a number, read from its text, or an int.
    Any other value is refused with its JSON kind."""
    if isinstance(value, str):
        return ExactComplex.parse(value)
    if type(value) is int:
        return ExactComplex(value)
    kinds = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}
    kind = kinds.get(type(value), f"a Python {type(value).__name__}")
    raise ValueError(f"a scalar must be a JSON string or number, not {kind}")


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
        dim = obj.get("dim")
        # bool is an int subclass; a JSON float such as 2.5 or 1e400 is not
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError("filtration JSON needs an integer 'dim'")
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
                    raise ValueError(f"vectors must have length 'dim' = {_shown_int(dim)}")
                vecs.append([_json_scalar(e) for e in vec])
            subs.append(Subspace.span(dim, vecs))
        if not subs[0].is_full():
            raise ValueError("first step must span the full space")
        return cls.from_proper_steps(dim, subs[1:])


def filtration_pair_from_json(obj):
    """(F, Fbar) of a rees document: F from 'dim' and 'steps', Fbar from
    'conjugate_steps', else the image of F under the 2n x 2n real matrix
    'real_structure', else coordinatewise conjugation.  Both Fbar keys are
    refused, as is any key but these and the legacy 'conjugate' (unread)."""
    filt = Filtration.from_json(obj)
    unknown = set(obj) - {"dim", "steps", "conjugate_steps", "real_structure", "conjugate"}
    if unknown:
        raise ValueError(f"unknown key {min(unknown)!r} in rees document")
    if "conjugate_steps" in obj and "real_structure" in obj:
        raise ValueError("give 'conjugate_steps' or 'real_structure', not both")
    if "conjugate_steps" in obj:
        return filt, Filtration.from_json({"dim": obj["dim"], "steps": obj["conjugate_steps"]})
    if "real_structure" not in obj:
        return filt, filt.conjugate(RealStructure.conjugation(filt.ambient_dim))
    rows = obj["real_structure"]
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)):
        raise ValueError("'real_structure' must be a list of rows")
    entries = [[_json_scalar(e) for e in row] for row in rows]
    return filt, filt.conjugate(RealStructure(ExactMatrix(entries)))


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


def filtration_to_hodge(f: Filtration, r: RealStructure, weight: int) -> HodgeStructure:
    """Recover the decomposition V^{k,l} = F^k intersect Fbar^l, Fbar = r(F);
    raises NotPureError when some F^k (+) Fbar^{p-k+1} fails to be all of V."""
    if f.ambient_dim != r.m:
        raise ValueError("ambient dimension mismatch")
    fbar = f.conjugate(r)
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
    """F^k = F^{k+1} + V^{k, p-k}, that is (+)_{i >= k} V^{i, p-i}."""
    steps = [Subspace.zero(h.ambient_dim)]
    for k in range(h.weight, -1, -1):
        steps.append(steps[-1] + h.component(k, h.weight - k))
    return Filtration(steps[::-1])


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
    Q(x, r(y)) is an entry of B Q S conj(B)^T, where r(v) = S conj(v).
    Since r(V^{a,b}) = V^{b,a}, its block (V^{k,l}, V^{a,b}) holds the
    pairings of V^{k,l} with V^{b,a}: orthogonality is that every
    off-diagonal block vanishes, positivity is read off the diagonal."""
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
    conj_pairs = b @ (q.q @ h.real_structure.s) @ b.conj().T
    ortho = all(
        conj_pairs[spans[key], spans[other]].is_zero()
        for key in keys
        for other in keys
        if other != key
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


@lru_cache(maxsize=None)
def _neg_identity(n: int) -> ExactMatrix:
    """-1 on Q^n, which the relation checks compare against; built on first
    use per size and shared (ExactMatrix is immutable)."""
    return -ExactMatrix.identity(n)


class QuaternionicStructure:
    """A pair (I, J) of real-linear endomorphisms with I^2 = J^2 = -1 and
    IJ = -JI, both as exact real matrices.  The constructor keeps the
    product IJ it forms for that check as K, so treat the pair as
    read-only."""

    def __init__(self, imat: ExactMatrix, jmat: ExactMatrix):
        if imat.shape != jmat.shape or imat.rows != imat.cols:
            raise ValueError("I and J must be square of equal size")
        if not (imat.is_real() and jmat.is_real()):
            raise ValueError("I and J must be real matrices")
        neg_ident = _neg_identity(imat.rows)
        if imat @ imat != neg_ident or jmat @ jmat != neg_ident:
            raise ValueError("I^2 = J^2 = -1 fails")
        kmat = imat @ jmat
        if kmat != (-(jmat @ imat)):
            raise ValueError("IJ = -JI fails")
        self.imat = imat
        self.jmat = jmat
        self.real_dim = imat.rows
        self._kmat = kmat

    @property
    def kmat(self) -> ExactMatrix:
        return self._kmat

    def __eq__(self, other):
        if not isinstance(other, QuaternionicStructure):
            return NotImplemented
        return self.imat == other.imat and self.jmat == other.jmat


def quaternionic_from_hodge(h: HodgeStructure) -> QuaternionicStructure:
    """J(v, w) = (-r(w), r(v)) on V = V^{1,0} (+) V^{0,1}, as a real
    matrix: J = r o (P' - P'').  For the model structure of
    hodge_from_quaternionic, which depends on its size only, the pair is
    built once per size and shared (treat it as read-only)."""
    if h.weight != 1:
        raise ValueError("quaternionic correspondence needs weight 1")
    k, odd = divmod(h.ambient_dim, 2)
    if not odd and h is _chart_hodge_structure(k):
        return _chart_quaternionic_structure(k)
    return _quaternionic_from_hodge(h)


def _quaternionic_from_hodge(h: HodgeStructure) -> QuaternionicStructure:
    """J = r o (P' - P'') with P' - P'' = b diag(1, -1) b^-1, where the
    columns of b are the bases of V^{1,0} and V^{0,1}: the real form of
    the antilinear map v -> S conj(P' - P'') conj(v)."""
    vp = h.component(1, 0)
    d = vp.dim
    b = ExactMatrix.blocks([[vp.basis_matrix], [h.component(0, 1).basis_matrix]]).T
    binv = b.inverse()
    diff = b @ ExactMatrix.blocks([[binv[:d, :]], [-binv[d:, :]]])
    jmat = real_rep_antilinear(h.real_structure.s @ diff.conj())
    return QuaternionicStructure(std_complex_structure(h.ambient_dim), jmat)


@dataclass
class QuaternionicChart:
    """Result of hodge_from_quaternionic: the weight-1 structure in an
    I-adapted complex chart, plus the chart matrix itself."""

    hodge: HodgeStructure
    chart: ExactMatrix        # original real coords -> (Re xi, Im xi)
    source: QuaternionicStructure

    def recovered_structure(self) -> QuaternionicStructure:
        """Pull the model structure back through the chart; equals the
        source pair exactly when everything is consistent.  The chart of
        hodge_from_quaternionic keeps the matrix it inverts, so its inverse
        costs no elimination."""
        model = quaternionic_from_hodge(self.hodge)
        inv = self.chart.inverse()
        return QuaternionicStructure(
            inv @ model.imat @ self.chart,
            inv @ model.jmat @ self.chart,
        )


def hodge_from_quaternionic(q: QuaternionicStructure) -> QuaternionicChart:
    """Split V into quaternionic blocks and build the weight-1 Hodge
    structure whose associated J is the given one (exact round trip).

    Block t is generated by e_t, I e_t, J e_t and K e_t.  The matrix whose
    columns are the generators of the chosen t in chart order (every e_t,
    then every J e_t, I e_t and I J e_t) has row r read straight off row r
    of the identity, J, I and K, and its rank is the dimension of their
    span, so each candidate block costs one elimination and nothing is
    transposed.  The last block is tested on [generators | 1]: when it is
    accepted, the right half is the chart, which keeps the generator
    matrix as its inverse."""
    n4 = q.real_dim
    if n4 % 4:
        raise ValueError("quaternionic structures need real dimension 4n")
    k = n4 // 4
    ident = ExactMatrix.identity(n4)
    chosen = []
    for t in range(n4):
        ts = chosen + [t]
        gens = ExactMatrix.blocks([[m[:, ts] for m in (ident, q.jmat, q.imat, q.kmat)]])
        last = len(ts) == k
        rank = gens._rank_keeping_inverse() if last else gens.rank()
        if rank == 4 * len(chosen):
            continue  # e_t lies in the chosen blocks' span, which is I- and J-invariant
        if rank != 4 * len(ts):
            raise ValueError("quaternionic relations fail to generate free blocks")
        chosen = ts
        if last:
            break
    assert len(chosen) == k
    return QuaternionicChart(hodge=_chart_hodge_structure(k), chart=gens.inverse(), source=q)


@lru_cache(maxsize=None)
def _chart_hodge_structure(k: int) -> HodgeStructure:
    """The model weight-1 structure on C^{2k} in an I-adapted chart:
    V^{1,0} and V^{0,1} are the first and last k coordinates, and the real
    structure swaps them.  It depends on k only, so it is built on first
    use and shared (treat it as read-only)."""
    ident = ExactMatrix.identity(2 * k)
    zero, one = ExactMatrix.zeros(k, k), ExactMatrix.identity(k)
    swap = ExactMatrix.blocks([[zero, one], [one, zero]])
    return HodgeStructure(
        1,
        {(1, 0): Subspace.row_space(ident[:k, :]), (0, 1): Subspace.row_space(ident[k:, :])},
        RealStructure.from_antilinear(swap),
    )


@lru_cache(maxsize=None)
def _chart_quaternionic_structure(k: int) -> QuaternionicStructure:
    """quaternionic_from_hodge of the model structure _chart_hodge_structure(k),
    validated by the QuaternionicStructure constructor when it is built;
    shared like the model (treat it as read-only)."""
    return _quaternionic_from_hodge(_chart_hodge_structure(k))


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
    return filtration_to_hodge(filt, rstruct, 1)


def vhs_from_special_kahler(prep, points, tol: float = 1e-5):
    """Pointwise weight-1 structure tangent_hodge_structure(n), polarized by
    Q = -omega = [[0, G], [-G, 0]] (flagged in the report), plus the
    holomorphic-subbundle residual, each point read as its checked record.
    For symmetric G = Im tau, V^{1,0} is Q-isotropic and x = (a, i a) in it
    has i Q(x, conj x) = 2 a^T G conj(a), so check_polarization passes exactly
    when the rationalized G has positive leading minors.  The bridge is odd,
    so G's rationalization error is that of -omega; purity is a fact of n."""
    try:
        pure = tangent_hodge_structure(prep.n).weight == 1
    except NotPureError:
        pure = False
    reports = []
    for z in points:
        p = geometry._point(prep, z)
        hol = geometry.vhs_holomorphy_residual(prep, p)
        g_exact, err_g = rationalize_matrix(p.imtau)
        reports.append(
            {
                "point": [[float(c.real), float(c.imag)] for c in p.z],
                "holomorphy_residual": hol,
                "holomorphy_pass": bool(hol < tol),
                "pure_weight_1": pure,
                "polarization_pass": pure and leading_minors_positive(g_exact),
                "rationalization_error": float(err_g),
                "polarization_sign": "Q=-omega",
            }
        )
    return reports
