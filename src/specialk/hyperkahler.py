"""Quaternionic data on the cotangent bundle of a special Kahler base:
the flat-connection tangent splitting, the triple (I, J, K), twistor
sphere structures, Nijenhuis integrability residuals, and the closing of
the correspondence with the exact Hodge machinery.

Frame conventions at a point (z, alpha) of T*M:

* horizontal lift h_a = d/du^a + W_{ba} d/dalpha_b with W_{ab} =
  Gamma_flat^c_{ab} alpha_c (constant covector in the flat chart);
* vertical v_b = d/dalpha_b; frame matrix S = [[Id, 0], [W, Id]];
* in the (h, v) frame: I = blockdiag(I_base, I_base^T),
  J = [[0, -g^{-1}], [g, 0]] (the map (v, wbar) -> (-w, vbar) through the
  metric identification of the fiber with the conjugate tangent space),
  K = I J, and the metric gTM = blockdiag(g, g^{-1}).

Every float suite reads one frame record of the point (_frame_blocks),
which builds g^{-1}, I, J, K and gTM on first read, each by one rule, so
every suite that reads J reads the same bits.

The Nijenhuis and closedness suites differentiate these fields by the
chain rule from one frame build per point: the frame matrix moves with
Gamma_flat and its u-derivative (from the catalog's fourth derivatives),
the frame blocks with g and dg, so no finite-difference stencil is taken
and the residuals sit at rounding level.

The twistor normal-bundle check does only the exact work that depends on
the point: it rationalizes G = Im tau and decides its leading minors.
The exact quaternionic pair of the point is accepted for every invertible
G, so the Rees splitting it reports depends on n only and is read from a
table built once per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import geometry, hodge, rees
from .exact import leading_minors_positive, rationalize_matrix
from .prepotentials import Prepotential
from .utils import XorShift

__all__ = [
    "CotangentPoint",
    "HyperkahlerFrame",
    "tangent_split_at",
    "quaternion_residual",
    "orthogonality_residual",
    "J_at",
    "zeta_to_sphere",
    "twistor_structure_at",
    "structure_derivative_stacks",
    "nijenhuis_at",
    "kahler_form_closedness",
    "twistor_normal_bundle_at",
    "correspondence_check",
    "sample_cotangent_points",
]


@dataclass(frozen=True)
class CotangentPoint:
    z: np.ndarray          # base point in C^n
    alpha: np.ndarray      # covector components in the real chart, R^{2n}

    @property
    def coords(self):
        return np.concatenate([geometry.z_to_u(self.z), self.alpha])

    @staticmethod
    def from_coords(t):
        t = np.asarray(t, dtype=float)
        n4 = t.size
        if n4 % 4:
            raise ValueError("cotangent coordinates need length 4n")
        half = n4 // 2
        return CotangentPoint(z=geometry.u_to_z(t[:half]), alpha=t[half:].copy())


class HyperkahlerFrame:
    """The frame record of one cotangent point: the point, the checked
    record of its base point (geometry._point), the frame matrix S
    (columns = horizontal + vertical), S^{-1} and the base metric g_real.
    g^{-1}, I, J, K = IJ and gTM, in coordinates, are built on first read."""

    def __init__(self, point: CotangentPoint, base, s, s_inv):
        self.point = point
        self.base = base
        self.s = s
        self.s_inv = s_inv
        self.g_real = base.g_real

    @cached_property
    def g_inv(self):
        return np.linalg.inv(self.g_real)

    @cached_property
    def imat(self):
        """I = S blockdiag(I_base, I_base^T) S^{-1}."""
        ibase = geometry.complex_structure(len(self.g_real) // 2)
        return self.s @ geometry._blockdiag(ibase, ibase.T) @ self.s_inv

    @cached_property
    def jmat(self):
        """J = S [[0, -g^{-1}], [g, 0]] S^{-1}."""
        return self.s @ geometry._offdiag(-self.g_inv, self.g_real) @ self.s_inv

    @cached_property
    def kmat(self):
        return self.imat @ self.jmat

    @cached_property
    def gtm(self):
        """gTM = S^{-T} blockdiag(g, g^{-1}) S^{-1}."""
        return self.s_inv.T @ geometry._blockdiag(self.g_real, self.g_inv) @ self.s_inv


def _frame_blocks(prep: Prepotential, pt: CotangentPoint) -> HyperkahlerFrame:
    """The frame record of pt: S and S^{-1} from the base record's
    Gamma_flat."""
    p = geometry._point(prep, pt.z)
    n2 = 2 * prep.n
    w = np.einsum("cab,c->ab", p.gamma_flat, pt.alpha)
    s = np.eye(2 * n2)
    s[n2:, :n2] = w
    s_inv = np.eye(2 * n2)
    s_inv[n2:, :n2] = -w
    return HyperkahlerFrame(pt, p, s, s_inv)


def tangent_split_at(prep: Prepotential, pt: CotangentPoint) -> HyperkahlerFrame:
    """Split T(T*M) into the flat-horizontal and vertical subspaces: the
    frame record of the point."""
    return _frame_blocks(prep, pt)


def quaternion_residual(fr: HyperkahlerFrame) -> float:
    """Sup-norm defect of I^2 = J^2 = K^2 = -1 and IJ = -JI; K = IJ, so IJK = K^2."""
    i, j, k = fr.imat, fr.jmat, fr.kmat
    ident = np.eye(i.shape[0])
    defects = (i @ i + ident, j @ j + ident, k @ k + ident, i @ j + j @ i)
    return float(max(np.max(np.abs(d)) for d in defects))


def orthogonality_residual(fr: HyperkahlerFrame) -> float:
    """Sup-norm defect of S^T gTM S = gTM for S in {I, J, K}."""
    return float(
        max(np.max(np.abs(s.T @ fr.gtm @ s - fr.gtm)) for s in (fr.imat, fr.jmat, fr.kmat))
    )


def J_at(prep: Prepotential, pt: CotangentPoint):
    return tangent_split_at(prep, pt).jmat


def zeta_to_sphere(zeta):
    """Inverse stereographic convention: 0 -> (1,0,0) -> I, 1 -> J,
    i -> K, infinity -> -I."""
    if zeta is None or zeta == float("inf"):
        return (-1.0, 0.0, 0.0)
    zeta = complex(zeta)
    n2 = abs(zeta) ** 2
    s = 1.0 + n2
    return ((1.0 - n2) / s, 2.0 * zeta.real / s, 2.0 * zeta.imag / s)


def twistor_structure_at(prep: Prepotential, pt: CotangentPoint, zeta):
    """I_zeta = a I + b J + c K for the sphere point of zeta."""
    fr = tangent_split_at(prep, pt)
    a, b, c = zeta_to_sphere(zeta)
    return a * fr.imat + b * fr.jmat + c * fr.kmat


def structure_derivative_stacks(prep: Prepotential, pt: CotangentPoint, h: float = 1e-4):
    """(I, J, K, gTM) at the point, as the frame, and their exact chain-rule
    derivative stacks over the 4n cotangent coordinates (u, alpha),
    [d, a, b] = d_d M_ab, from one frame build; they carry rounding only.

    Product rule on I = S I_f S^-1, J = S J_f S^-1, K = I J and
    gTM = S^-T G_f S^-1, with dS = -d(S^-1) = [[0, 0], [dW, 0]]:
    dW = dGamma.alpha along u (from the catalog's fourth derivatives) and
    Gamma^c along alpha_c.  The only block of dS is lower left, so
    dS S^-1 = S dS = dS and the conjugations leave commutators with dS.
    nijenhuis_at and kahler_form_closedness take the result as _stacks, so
    one build serves both; h is unused, kept for the callers that pass it."""
    fr = _frame_blocks(prep, pt)
    p = fr.base
    n2 = 2 * prep.n
    n4 = 2 * n2
    ds = np.zeros((n4, n4, n4))
    dgamma = geometry._flat_dgamma(p)
    ds[:n2, n2:, :n2] = np.einsum("dcab,c->dab", dgamma, pt.alpha)
    ds[n2:, n2:, :n2] = p.gamma_flat
    dg = geometry._metric_derivatives(p.third)[0]
    # frame parts: dJ_f = [[0, g^-1 dg g^-1], [dg, 0]], dG_f = blockdiag(dg, -g^-1 dg g^-1)
    dginv = fr.g_inv @ dg @ fr.g_inv
    along_alpha = np.zeros((n2, n4, n4))
    dj_f = np.concatenate([geometry._offdiag(dginv, dg), along_alpha])
    dgtm_f = np.concatenate([geometry._blockdiag(dg, -dginv), along_alpha])
    d_i = ds @ fr.imat - fr.imat @ ds
    d_j = ds @ fr.jmat - fr.jmat @ ds + fr.s @ dj_f @ fr.s_inv
    d_k = d_i @ fr.jmat + fr.imat @ d_j
    ds_t = ds.transpose(0, 2, 1)
    d_gtm = fr.s_inv.T @ dgtm_f @ fr.s_inv - ds_t @ fr.gtm - fr.gtm @ ds
    return fr, (d_i, d_j, d_k, d_gtm)


def _nijenhuis_from(s, ds):
    """Sup-norm of N(X, Y) over coordinate fields, from the pointwise
    structure and its derivative stack ds[d] = d_d S.

    For coordinate fields N(d_a, d_b) = Y(a, b) - Y(b, a) with
    Y(a, b) = (d_{S d_a} S - S d_a S) d_b, and y[a, c, b] = Y(a, b)^c is
    two matrix products: S^T times ds flattened to m x m^2, and the
    stacked S @ ds.  The sup-norm of y - y^(2,1,0) reads N in another
    index order, which it does not see."""
    m = len(s)
    y = (s.T @ ds.reshape(m, m * m)).reshape(m, m, m) - s @ ds
    return float(np.max(np.abs(y - y.transpose(2, 1, 0))))


def nijenhuis_at(prep: Prepotential, pt: CotangentPoint, structure="J",
                 h: float = 1e-4, _stacks=None) -> float:
    """Integrability residual for I, J, K or a twistor-sphere structure
    (pass a complex zeta for I_zeta), from the analytic stacks of
    structure_derivative_stacks (built here unless passed as _stacks);
    h is unused."""
    fr, (d_i, d_j, d_k, _) = _stacks if _stacks is not None else \
        structure_derivative_stacks(prep, pt, h)
    if isinstance(structure, str):
        mats = {"I": (fr.imat, d_i), "J": (fr.jmat, d_j), "K": (fr.kmat, d_k)}
        if structure not in mats:
            raise ValueError("structure must be 'I', 'J', 'K' or a zeta value")
        s, ds = mats[structure]
    else:
        a, b, c = zeta_to_sphere(structure)
        s = a * fr.imat + b * fr.jmat + c * fr.kmat
        ds = a * d_i + b * d_j + c * d_k
    return _nijenhuis_from(s, ds)


def kahler_form_closedness(prep: Prepotential, pt: CotangentPoint, h: float = 1e-4,
                           _stacks=None):
    """Sup-norm of d(omega_S) for S in {I, J, K}, omega_S = gTM(S., .),
    from the analytic stacks of structure_derivative_stacks (built here
    unless passed as _stacks); h is unused."""
    fr, (d_i, d_j, d_k, d_gtm) = _stacks if _stacks is not None else \
        structure_derivative_stacks(prep, pt, h)
    out = {}
    for name, s, ds in (("I", fr.imat, d_i), ("J", fr.jmat, d_j), ("K", fr.kmat, d_k)):
        # dom[a, b, c] = d_a omega_{bc}
        dom = ds.transpose(0, 2, 1) @ fr.gtm + s.T @ d_gtm
        dw = dom - dom.transpose(1, 0, 2) + dom.transpose(1, 2, 0)
        out[name] = float(np.max(np.abs(dw)))
    return out


@lru_cache(maxsize=None)
def _chart_splitting(k: int) -> rees.SplittingType:
    """Splitting type of the Rees bundle of the model weight-1 structure
    hodge._chart_hodge_structure(k) and its conjugate.  It depends on k
    only, so it is computed on first use and shared; SplittingType is
    frozen."""
    h = hodge._chart_hodge_structure(k)
    filt = hodge.hodge_to_filtration(h)
    return rees.splitting_type(rees.ReesBundle(filt, filt.conjugate(h.real_structure)))


def twistor_normal_bundle_at(prep: Prepotential, pt: CotangentPoint) -> rees.SplittingType:
    """Splitting type of the Rees bundle of the pointwise weight-1 Hodge
    structure associated to the quaternionic pair on T(T*M); the normal
    bundle of the twistor line through the point.  Expected (1, ..., 1).

    Per point the work is exact: rationalize the n x n G = Im tau once
    and require its leading minors to be positive, else raise
    MetricDegenerateError.  Nothing else about the pair depends on the
    point.  In the (horizontal, vertical) frame it is
    I = blockdiag(I_base, I_base^T) and J = [[0, -g^{-1}], [g, 0]] with
    g = blockdiag(G, G).  I is fixed and J^2 = -1 for every invertible g.
    The n x n blocks of I_base are 0 and +-Id, so g commutes with I_base
    and I_base^T, and IJ = -JI: every invertible G, definite or not, gives
    an accepted pair.  The coordinate pair is this one conjugated by the
    frame matrix S, an isomorphism of quaternionic structures.

    For an accepted pair on Q^{4n}, hodge_from_quaternionic returns the
    model _chart_hodge_structure(n); only its chart depends on the pair,
    and the splitting type does not read it.  So the splitting is read
    from _chart_splitting(n), computed once per n.  The chart search
    cannot fail on an accepted pair.  I, J and K = IJ make V a module over
    the rational quaternions H = (-1, -1)_Q, and H is a division algebra:
    its norm x^2 + y^2 + z^2 + w^2 has no nonzero rational zero.  Let W be
    the span of the blocks chosen so far, which is H-invariant, and e_t a
    basis vector outside it.  If h e_t lies in W for some h != 0, then
    e_t = h^{-1} (h e_t) lies in W; so H e_t meets W in 0 alone, and each
    new block adds exactly 4 to the rank."""
    g, _ = rationalize_matrix(geometry.metric_at(prep, pt.z).imtau)
    if not leading_minors_positive(g):
        raise geometry.MetricDegenerateError(f"metric degenerate at point {pt.z}")
    return _chart_splitting(prep.n)


@lru_cache(maxsize=None)
def _tangent_hodge_j(n: int):
    """Real matrix of J from the exact quaternionic correspondence applied
    to the pointwise weight-1 structure on the complexified tangent space;
    it depends on n only.  The cached array is read-only."""
    h = hodge.tangent_hodge_structure(n)
    j = hodge.quaternionic_from_hodge(h).jmat.to_numpy().real
    j.setflags(write=False)
    return j


def correspondence_check(prep: Prepotential, pt: CotangentPoint) -> float:
    """Compare J built from the cotangent-fiber identification with J
    reconstructed from the pointwise weight-1 Hodge structure via the
    exact quaternionic correspondence, pushed through the same
    identifications.  Returns the sup-norm difference, or NaN (the point
    fails) when the metric or the identification is numerically singular,
    as for an overflowed frame.

    Of the frame record only S^{-1}, g^{-1} and J are read, so I, K and
    gTM are not built."""
    fr = _frame_blocks(prep, pt)
    n = prep.n
    j_hodge = _tangent_hodge_j(n)

    # identification chi: T(T*M) -> complexified tangent space
    p10, p01 = geometry.type_projectors(n)
    try:
        chi_frame = np.hstack([p10, p01 @ fr.g_inv])
        chi = chi_frame @ fr.s_inv
        chi_real = np.vstack([chi.real, chi.imag])
        j_via_hodge = np.linalg.inv(chi_real) @ j_hodge @ chi_real
    except np.linalg.LinAlgError:
        return float("nan")
    return float(np.max(np.abs(fr.jmat - j_via_hodge)))


def sample_cotangent_points(prep: Prepotential, count: int, seed: int, h: float = 1e-5):
    """Seeded cotangent points: base points from the entry's box, covector
    components uniform in [-1, 1]."""
    base = geometry.sample_points(prep, count, seed, h=h)
    rng = XorShift(seed ^ 0x5DEECE66D)
    pts = []
    for z in base:
        alpha = np.array([rng.uniform(-1.0, 1.0) for _ in range(2 * prep.n)])
        pts.append(CotangentPoint(z=z, alpha=alpha))
    return pts
