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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fd, geometry, hodge, rees
from .exact import ExactMatrix, rationalize_matrix
from .prepotentials import Prepotential

__all__ = [
    "RationalizationError",
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


class RationalizationError(RuntimeError):
    """Float data too far from rational for the exact pipeline."""


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


@dataclass(frozen=True)
class HyperkahlerFrame:
    point: CotangentPoint
    s: np.ndarray          # frame matrix, columns = horizontal + vertical
    s_inv: np.ndarray
    imat: np.ndarray       # coordinate-basis almost complex structures
    jmat: np.ndarray
    kmat: np.ndarray
    gtm: np.ndarray        # induced metric, coordinate basis
    g_real: np.ndarray     # base metric at the projection


def _frame_blocks(prep: Prepotential, pt: CotangentPoint):
    md = geometry.metric_at(prep, pt.z)
    gamma = geometry.flat_connection_at(prep, pt.z)
    n2 = 2 * prep.n
    w = np.einsum("cab,c->ab", gamma, pt.alpha)
    s = np.eye(2 * n2)
    s[n2:, :n2] = w
    s_inv = np.eye(2 * n2)
    s_inv[n2:, :n2] = -w
    return md, s, s_inv


def tangent_split_at(prep: Prepotential, pt: CotangentPoint) -> HyperkahlerFrame:
    """Split T(T*M) into the flat-horizontal and vertical subspaces and
    assemble the quaternionic triple and metric in coordinates."""
    md, s, s_inv = _frame_blocks(prep, pt)
    n2 = 2 * prep.n
    ibase = geometry.complex_structure(prep.n)
    g = md.g_real
    ginv = np.linalg.inv(g)

    i_frame = np.zeros((2 * n2, 2 * n2))
    i_frame[:n2, :n2] = ibase
    i_frame[n2:, n2:] = ibase.T
    j_frame = np.zeros_like(i_frame)
    j_frame[:n2, n2:] = -ginv
    j_frame[n2:, :n2] = g
    gtm_frame = np.zeros_like(i_frame)
    gtm_frame[:n2, :n2] = g
    gtm_frame[n2:, n2:] = ginv

    imat = s @ i_frame @ s_inv
    jmat = s @ j_frame @ s_inv
    return HyperkahlerFrame(
        point=pt,
        s=s,
        s_inv=s_inv,
        imat=imat,
        jmat=jmat,
        kmat=imat @ jmat,
        gtm=s_inv.T @ gtm_frame @ s_inv,
        g_real=g,
    )


def quaternion_residual(fr: HyperkahlerFrame) -> float:
    """Sup-norm defect of I^2 = J^2 = K^2 = IJK = -1 and IJ = -JI."""
    i, j, k = fr.imat, fr.jmat, fr.kmat
    ident = np.eye(i.shape[0])
    defects = (i @ i + ident, j @ j + ident, k @ k + ident, i @ j + j @ i, i @ j @ k + ident)
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


def _coordinate_derivatives(field, pt: CotangentPoint, h: float):
    """Fourth-order stencil derivatives of a stacked field of the cotangent
    coordinates, as [k, d, ...] = d_d field[k]."""
    try:
        jac = fd.jacobian4(field, pt.coords, h=h)
    except fd.FDEvaluationError as exc:
        raise geometry.StencilError(f"shrink step or move point: {exc}") from exc
    return np.ascontiguousarray(np.moveaxis(jac, -1, 1))


def structure_derivative_stacks(prep: Prepotential, pt: CotangentPoint, h: float = 1e-4):
    """(I, J, K) at the point and their derivative stacks over all 4n
    cotangent coordinates.

    Fourth-order stencils: near box corners the frame fields have third
    derivatives of order 1e4, so a second-order stencil at h = 1e-4 would
    leave truncation above the 1e-4 integrability tolerance."""

    def structures_at(t):
        fr = tangent_split_at(prep, CotangentPoint.from_coords(t))
        return np.stack([fr.imat, fr.jmat, fr.kmat])

    d_i, d_j, d_k = _coordinate_derivatives(structures_at, pt, h)
    return tangent_split_at(prep, pt), (d_i, d_j, d_k)


def _nijenhuis_from(s, ds):
    """Sup-norm of N(X, Y) over coordinate fields, from the pointwise
    structure and its derivative stack ds[d] = d_d S."""
    t1 = np.einsum("da,dcb->cab", s, ds)
    t3 = np.einsum("cd,bda->cab", s, ds)
    t4 = np.einsum("cd,adb->cab", s, ds)
    n = t1 - t1.transpose(0, 2, 1) + t3 - t4
    return float(np.max(np.abs(n)))


def nijenhuis_at(prep: Prepotential, pt: CotangentPoint, structure="J",
                 h: float = 1e-4, _stacks=None) -> float:
    """Integrability residual for I, J, K or a twistor-sphere structure
    (pass a complex zeta for I_zeta)."""
    fr, (d_i, d_j, d_k) = _stacks if _stacks is not None else \
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


def kahler_form_closedness(prep: Prepotential, pt: CotangentPoint, h: float = 1e-4):
    """Sup-norm of d(omega_S) for S in {I, J, K}, omega_S = gTM(S., .)."""

    def forms_at(t):
        fr = tangent_split_at(prep, CotangentPoint.from_coords(t))
        return np.stack(
            [fr.imat.T @ fr.gtm, fr.jmat.T @ fr.gtm, fr.kmat.T @ fr.gtm]
        )

    out = {}
    for name, dom in zip(("I", "J", "K"), _coordinate_derivatives(forms_at, pt, h)):
        # dom[a, b, c] = d_a omega_{bc}
        dw = dom - dom.transpose(1, 0, 2) + dom.transpose(1, 2, 0)
        out[name] = float(np.max(np.abs(dw)))
    return out


def _exact_quaternionic_at(prep: Prepotential, pt: CotangentPoint,
                           max_denominator: int, max_error: float):
    """Rationalize the frame data and rebuild (I, J) exactly, so the
    quaternion relations hold on the nose for the exact pipeline."""
    md, s, _ = _frame_blocks(prep, pt)
    n = prep.n
    n2 = 2 * n
    g_exact, err_g = rationalize_matrix(md.g_real.astype(complex), max_denominator)
    s_exact, err_s = rationalize_matrix(s.astype(complex), max_denominator)
    err = max(err_g, err_s)
    if err > max_error:
        raise RationalizationError(
            f"point too ill-conditioned (rationalization error {err:.3e})"
        )
    ibase = rationalize_matrix(geometry.complex_structure(n).astype(complex))[0]
    zero = ExactMatrix.zeros(n2, n2)
    ginv = g_exact.inverse()
    i_frame = ExactMatrix.blocks([[ibase, zero], [zero, ibase.T]])
    j_frame = ExactMatrix.blocks([[zero, -ginv], [g_exact, zero]])
    s_inv = s_exact.inverse()
    imat = s_exact @ i_frame @ s_inv
    jmat = s_exact @ j_frame @ s_inv
    return hodge.QuaternionicStructure(imat, jmat), err


def twistor_normal_bundle_at(prep: Prepotential, pt: CotangentPoint,
                             max_denominator: int = 10**12,
                             max_error: float = 1e-9) -> rees.SplittingType:
    """Splitting type of the Rees bundle of the pointwise weight-1 Hodge
    structure associated to the quaternionic pair on T(T*M); the normal
    bundle of the twistor line through the point.  Expected (1, ..., 1)."""
    qs, _ = _exact_quaternionic_at(prep, pt, max_denominator, max_error)
    chart = hodge.hodge_from_quaternionic(qs)
    filt = hodge.hodge_to_filtration(chart.hodge)
    fbar = filt.conjugate(chart.hodge.real_structure)
    return rees.splitting_type(rees.ReesBundle(filt, fbar))


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
    as for an overflowed frame."""
    fr = tangent_split_at(prep, pt)
    n = prep.n
    j_hodge = _tangent_hodge_j(n)

    # identification chi: T(T*M) -> complexified tangent space
    p10, p01 = geometry.type_projectors(n)
    try:
        ginv = np.linalg.inv(fr.g_real)
        chi_frame = np.hstack([p10, p01 @ ginv])
        chi = chi_frame @ fr.s_inv
        chi_real = np.vstack([chi.real, chi.imag])
        j_via_hodge = np.linalg.inv(chi_real) @ j_hodge @ chi_real
    except np.linalg.LinAlgError:
        return float("nan")
    return float(np.max(np.abs(fr.jmat - j_via_hodge)))


def sample_cotangent_points(prep: Prepotential, count: int, seed: int,
                            h: float = 1e-5, alpha_scale: float = 1.0):
    """Seeded cotangent points: base points from the entry's box, covector
    components uniform in [-alpha_scale, alpha_scale]."""
    from .utils import XorShift

    base = geometry.sample_points(prep, count, seed, h=h)
    rng = XorShift(seed ^ 0x5DEECE66D)
    pts = []
    for z in base:
        alpha = np.array(
            [rng.uniform(-alpha_scale, alpha_scale) for _ in range(2 * prep.n)]
        )
        pts.append(CotangentPoint(z=z, alpha=alpha))
    return pts
