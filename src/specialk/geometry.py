"""Pointwise special Kahler geometry from a prepotential, plus the
residual suites that certify the defining equations.

Conventions (fixed once, everything else is checked against them):

* real chart u = (x, p) = (Re z, Im z) in R^{2n}, with d/dp = i d/dx on
  holomorphic functions: every real-chart array (g, omega and their
  derivatives, the flat-chart Jacobians and second derivatives) is Re or
  Im of this one rule applied to tau, C = d^3 F or d^4 F (_real_chart);
* complex structure matrix I = [[0, Id], [-Id, 0]] acting on coefficient
  vectors (a, b) -> (b, -a).  This is the sign for which the flat-chart
  certificate d(p,q)/d(x,y) = I holds with (x, y) = (Re z, Re w);
* metric g = blockdiag(Im tau, Im tau), Kahler form w = g(I., .), which
  in the flat chart is exactly sum dx_i ^ dy_i;
* Christoffel arrays gamma[k, i, j] = Gamma^k_{ij}; endomorphism-valued
  one-forms t[c, a, b] with c the output, a the form slot, b the input;
* curvature R[c, a, b, d] = coefficient of R(e_a, e_b) e_d along e_c.

Connections are assembled analytically from the catalog's third
derivatives, and their first derivatives (curvature, covariant exterior
derivatives) by the chain rule from the fourth, so the equation suite
takes no stencil and its residuals sit at rounding level.
kahler_potential_residual, the independent check of the metric
convention, differentiates w by Cauchy's integral formula on small
circles around the point, so no check of a sweep takes a finite
difference; curvature_of_connection keeps central differences as the
tests' reference.

Every suite reads one checked record of the point (_point).  It checks
the domain, tau and the metric once, in that order, and builds each other
field (g and omega, C, d^4 F, the flat chart) on first read, so tau, C
and d^4 F are read at most once and the flat chart's check runs only for
a suite that reads the chart, before anything derived from it.  Each
public (prep, z) function also takes a record in place of z, so a sweep
that hands one record to every suite checks and reads the point once.
metric_at returns the record; the twistor point and the raw-z potential
check read its Im tau and build no chart.

complex_structure, type_projectors and holomorphic_frame depend on n
only: each is built once per n and shared as a read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fd import jacobian
from .prepotentials import DomainError, Prepotential
from .utils import XorShift

__all__ = [
    "MetricDegenerateError",
    "FlatChartDegenerateError",
    "StencilError",
    "SamplingError",
    "FlatChart",
    "SpecialKahlerPoint",
    "z_to_u",
    "u_to_z",
    "complex_structure",
    "type_projectors",
    "darboux_matrix",
    "metric_at",
    "flat_chart_at",
    "flat_omega_residual",
    "flat_structure_certificate",
    "flat_connection_at",
    "flat_connection_jet",
    "levi_civita_at",
    "levi_civita_jet",
    "lc_holomorphic",
    "higgs_at",
    "curvature_of_connection",
    "check_equations",
    "check_special_conditions",
    "kahler_potential_residual",
    "vhs_holomorphy_residual",
    "lagrangian_graph_check",
    "sample_points",
    "point_data",
]


# radius of the potential check's Cauchy circles per unit of the entry's
# length scale; the sampler keeps 2 * POTENTIAL_STEP * scale to the boundary
POTENTIAL_STEP = 3e-4

# nodes of the trapezoid rule on each circle: the fourth roots of unity,
# exact in binary, so every node lies on a real-chart axis
_CIRCLE = np.array([1.0, 1j, -1.0, -1j])


class MetricDegenerateError(ValueError):
    pass


class FlatChartDegenerateError(ValueError):
    pass


class StencilError(RuntimeError):
    """A finite-difference stencil left the prepotential domain."""


class SamplingError(RuntimeError):
    """Could not draw the requested number of interior domain points."""


def z_to_u(z):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.concatenate([z.real, z.imag])


def u_to_z(u):
    u = np.asarray(u, dtype=float)
    n = u.size // 2
    return u[:n] + 1j * u[n:]


def _shared(a):
    """a made read-only, so that one cached array can serve every caller."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def complex_structure(n: int):
    """Matrix of I on the real chart.  It depends on n only, so it is built
    on first use and shared; the array is read-only."""
    return _shared(_offdiag(np.eye(n), -np.eye(n)))


@lru_cache(maxsize=None)
def type_projectors(n: int):
    """(P10, P01): projectors onto the +i / -i eigenspaces of I, built once
    per n and shared; both arrays are read-only."""
    im = complex_structure(n)
    p10 = 0.5 * (np.eye(2 * n) - 1j * im)
    return _shared(p10), _shared(np.conj(p10))


@lru_cache(maxsize=None)
def holomorphic_frame(n: int):
    """Columns span T^{1,0}: E_j = e_j + i e_{n+j}, the real-chart stack
    of the holomorphic unit vectors; built once per n and shared
    read-only."""
    return _shared(_real_chart(np.eye(n), (0,)))


def darboux_matrix(n: int):
    """Matrix of sum dx_i ^ dy_i in the flat chart basis (x, y): that of I."""
    return complex_structure(n)


@dataclass(frozen=True)
class FlatChart:
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    q: np.ndarray
    jacobian: np.ndarray   # d(x,y)/du, 2n x 2n
    second: np.ndarray     # second[a, i, j] = d^2 xi^a / du^i du^j

    @property
    def xi(self):
        return np.concatenate([self.x, self.y])


@dataclass(frozen=True)
class SpecialKahlerPoint:
    z: np.ndarray
    tau: np.ndarray
    third: np.ndarray
    metric: _Point         # the record: imtau, g_real and omega
    flat: FlatChart
    imat: np.ndarray
    gamma_flat: np.ndarray
    gamma_lc: np.ndarray
    higgs: np.ndarray
    higgs_bar: np.ndarray
    higgs_offtype: float
    curvature: np.ndarray


def _blockdiag(a, d=None):
    """[[a, 0], [0, d]] over the last two axes, with d = a unless given."""
    n = a.shape[-1]
    out = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = a
    out[..., n:, n:] = a if d is None else d
    return out


def _offdiag(b, c):
    """[[0, b], [c, 0]] over the last two axes."""
    n = b.shape[-1]
    out = np.zeros(b.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, n:] = b
    out[..., n:, :n] = c
    return out


def _real_chart(t, axes):
    """The real-chart rule: each listed axis of a holomorphic derivative
    tensor, a direction z_i, becomes the 2n real directions (x, p) with
    d/dp = i d/dx; i swaps real and imaginary parts, so inf stays inf."""
    t = np.asarray(t, dtype=complex)
    for ax in axes:
        it = np.empty_like(t)
        it.real, it.imag = -t.imag, t.real
        t = np.concatenate([t, it], axis=ax)
    return t


class _Point:
    """One sample point, read and checked once: its shape, the domain, an
    exactly symmetric tau and a positive metric G = Im tau (one read of tau,
    one Cholesky).  It keeps z, tau and imtau = G; every other field is
    built on first read: the metric g_real = blockdiag(G, G) and the
    Kahler form omega, C and d^4 F, and the flat chart.  The chart first
    checks that G is far enough from singular for (x, Re w) to be a chart,
    then builds the Jacobians jac = d(x, Re w)/du and dpq = d(p, Im w)/du;
    jac^{-1}, the chart's second derivatives and Gamma_flat read jac, so
    the chart check runs before anything derived from the chart."""

    def __init__(self, prep: Prepotential, z):
        self.prep = prep
        self.z = z = prep.as_point(z)
        prep.require_domain(z)
        self.tau = tau = np.asarray(prep.hess(z), dtype=complex)
        if not np.array_equal(tau, tau.T):
            raise ValueError(f"{prep.name}: provider returned non-symmetric tau")
        self.imtau = tau.imag
        try:
            np.linalg.cholesky(self.imtau)
        except np.linalg.LinAlgError:
            raise MetricDegenerateError(f"metric degenerate at point {z}") from None

    @cached_property
    def g_real(self):
        return _blockdiag(self.imtau)

    @cached_property
    def omega(self):
        return _offdiag(-self.imtau, self.imtau)

    @cached_property
    def third(self):
        return np.asarray(self.prep.third(self.z), dtype=complex)

    @cached_property
    def fourth(self):
        return np.asarray(self.prep.fourth(self.z), dtype=complex)

    @cached_property
    def _dzw(self):
        """d(z, w)/du, once the singular values of G show a chart."""
        sv = np.linalg.svd(self.imtau, compute_uv=False)
        if sv[-1] <= 1e-9 * sv[0]:
            raise FlatChartDegenerateError(f"flat chart degenerate at point {self.z}")
        return _real_chart(np.concatenate([np.eye(len(self.tau)), self.tau]), (1,))

    @cached_property
    def jac(self):
        return self._dzw.real

    @cached_property
    def dpq(self):
        return self._dzw.imag

    @cached_property
    def jinv(self):
        return np.linalg.inv(self.jac)

    @cached_property
    def second(self):
        return _flat_second(self.third)

    @cached_property
    def gamma_flat(self):
        """Christoffels of the flat connection: jac^{-1} second."""
        return np.einsum("ka,aij->kij", self.jinv, self.second)


def _point(prep: Prepotential, z) -> _Point:
    """The checked record of the point z; a record is returned as it is, so
    every public (prep, z) function also takes one."""
    return z if isinstance(z, _Point) else _Point(prep, z)


def metric_at(prep: Prepotential, z) -> _Point:
    """The checked record of z, read for its metric: imtau = g_{jk} =
    Im tau_{jk}, g_real and omega.  Raises if z is outside the domain or
    the point is metric-degenerate; the flat chart is not built unless
    read."""
    return _point(prep, z)


def _metric_derivatives(c):
    """(dg, dOmega), each [a, b, c] = d_a M_bc, from the third derivatives:
    d Im tau is Im of the real-chart stack of C."""
    dimtau = _real_chart(c, (0,)).imag
    return _blockdiag(dimtau), _offdiag(-dimtau, dimtau)


def flat_chart_at(prep: Prepotential, z) -> FlatChart:
    """Darboux data (x, y) = (Re z, Re w), momenta (p, q) = (Im z, Im w)."""
    p = _point(prep, z)
    w = np.asarray(prep.grad(p.z), dtype=complex)
    return FlatChart(x=p.z.real, y=w.real, p=p.z.imag, q=w.imag, jacobian=p.jac,
                     second=p.second)


def _flat_second(c):
    """second[..., a, i, j] = d^2 xi^a / du^i du^j from third derivatives
    c[..., r, i, j]; only the rows of y = Re w are nonzero.  Linear over
    the reals in c, so it also maps derivatives of c to those of second."""
    d2w = _real_chart(c, (-2, -1)).real
    return np.concatenate([np.zeros_like(d2w), d2w], axis=-3)


def _flat_dgamma(p: _Point):
    """dGamma[d, k, i, j] = d_d Gamma^k_{ij} of the flat connection along the
    real-chart direction d, from the record's fourth derivatives, as
    Jac^{-1} (d second - dJac Gamma), where dJac[d][a, b] = second[a, d, b]
    because Jac = dxi/du."""
    dsecond = _flat_second(_real_chart(p.fourth, (0,)))
    djac_gamma = np.einsum("adb,bij->daij", p.second, p.gamma_flat)
    return np.einsum("ka,daij->dkij", p.jinv, dsecond - djac_gamma)


def flat_omega_residual(prep: Prepotential, z) -> float:
    """Sup-norm distance of the pushed-forward Kahler form from the
    standard Darboux matrix in the flat chart."""
    p = _point(prep, z)
    omega_flat = p.jinv.T @ p.omega @ p.jinv
    return float(np.max(np.abs(omega_flat - darboux_matrix(prep.n))))


def flat_structure_certificate(prep: Prepotential, z) -> float:
    """Residual of d(p,q)/d(x,y) against the matrix of I in the flat
    chart (the numerical certificate that nabla X = I)."""
    p = _point(prep, z)
    lhs = p.dpq @ p.jinv
    rhs = p.jac @ complex_structure(prep.n) @ p.jinv
    return float(np.max(np.abs(lhs - rhs)))


def flat_connection_at(prep: Prepotential, z):
    """Christoffels of the flat connection in the real chart, from the
    transformation out of the chart where it vanishes."""
    return _point(prep, z).gamma_flat


def flat_connection_jet(prep: Prepotential, z):
    """(Gamma, dGamma) of the flat connection from one flat-chart build,
    with dGamma[d, k, i, j] = d_d Gamma^k_{ij} along the real-chart
    direction d."""
    p = _point(prep, z)
    return p.gamma_flat, _flat_dgamma(p)


def _lowered_christoffel(dg):
    """s[..., l, i, j] = (d_i g_lj + d_j g_li - d_l g_ij) / 2 from a metric
    stack dg[..., a, b, c] = d_a g_bc; leading axes are carried along."""
    t = dg.swapaxes(-3, -2)
    return 0.5 * (t + t.swapaxes(-1, -2) - dg)


def _raise_first(ginv, s):
    """g^{kl} s[..., l, i, j]: ginv applied to the first of the last three
    slots, as one matrix product."""
    m = s.shape[-1]
    return (ginv @ s.reshape(s.shape[:-2] + (m * m,))).reshape(s.shape)


def _lc_jet(g_real, c, q=None):
    """(Gamma, dGamma) of the Levi-Civita connection: Gamma = g^{-1} s from
    C, and with the fourth derivatives q (else None) dGamma[d, k, i, j] =
    d_d Gamma^k_{ij}: s is linear in dg, so d(g^{-1}) = -g^{-1} dg g^{-1}
    gives dGamma = g^{-1} (ds - dg Gamma), with ds the s of ddg, which is
    Im of q's real-chart stack."""
    dg, _ = _metric_derivatives(c)
    ginv = np.linalg.inv(g_real)
    gamma = _raise_first(ginv, _lowered_christoffel(dg))
    if q is None:
        return gamma, None
    ddg = _blockdiag(_real_chart(q, (0, 1)).imag)
    n2 = g_real.shape[0]
    dg_gamma = (dg @ gamma.reshape(n2, n2 * n2)).reshape(ddg.shape)
    return gamma, _raise_first(ginv, _lowered_christoffel(ddg) - dg_gamma)


def levi_civita_at(prep: Prepotential, z):
    """Levi-Civita Christoffels of g in the real chart (analytic)."""
    p = _point(prep, z)
    return _lc_jet(p.g_real, p.third)[0]


def levi_civita_jet(prep: Prepotential, z):
    """(Gamma, dGamma) of the Levi-Civita connection at one point, with
    dGamma[d, k, i, j] = d_d Gamma^k_{ij} along the real-chart direction d,
    from tau, C and the fourth derivatives of F."""
    p = _point(prep, z)
    return _lc_jet(p.g_real, p.third, p.fourth)


def lc_holomorphic(prep: Prepotential, z):
    """Chern-connection Christoffels in holomorphic coordinates:
    Gamma^k_{ij} = g^{kl} d_i g_{jl} = (G^{-1} C / 2i)."""
    p = _point(prep, z)
    ginv = np.linalg.inv(p.imtau)
    return np.einsum("kl,ijl->kij", ginv, p.third) / 2j


def higgs_at(prep: Prepotential, z):
    """(A, Abar, off-type residual): A is the (1,0)-form part of
    nabla - D mapping T^{1,0} -> T^{0,1}; Abar its conjugate."""
    p = _point(prep, z)
    return _higgs_split(p.gamma_flat - _lc_jet(p.g_real, p.third)[0])


def _higgs_split(ar):
    """(A, Abar, off-type residual) of nabla - D with Christoffels ar."""
    a = _higgs_part(ar)
    abar = np.conj(a)
    return a, abar, float(np.max(np.abs(ar - a - abar)))


def _higgs_part(ar):
    """Type-(1,0) form part of nabla - D mapping T^{1,0} -> T^{0,1}, as
    three two-operand products; leading axes of ar[..., c, a, b] (such as
    a derivative direction) are carried along."""
    p10, p01 = type_projectors(ar.shape[-1] // 2)
    m = p10.shape[0]
    t = (ar @ p10).swapaxes(-1, -2) @ p10                # [..., x, z, y]
    t = p01 @ t.swapaxes(-1, -2).reshape(t.shape[:-2] + (m * m,))
    return t.reshape(ar.shape)


def _wedge(p, q):
    """(P ^ Q)[c, a, f, b] of endomorphism-valued one-forms."""
    first = np.einsum("cae,efb->cafb", p, q)
    return first - first.transpose(0, 2, 1, 3)


def _project_form_slots(t, pa, pf):
    return np.einsum("cafb,ax,fy->cxyb", t, pa, pf)


def _field_factory(prep: Prepotential, kind: str):
    """Field u -> Levi-Civita Christoffels at the point u of the real
    chart, whose record checks the domain first; "lc" is the only kind."""
    if kind != "lc":
        raise KeyError(kind)

    def field(u):
        return levi_civita_at(prep, u_to_z(u))

    return field


def _curvature(gamma, dg):
    """R[c, a, b, d] from Christoffels and their stack dg[a, c, b, d]."""
    term = dg.transpose(1, 0, 2, 3)            # [c, a, b, d]
    quad = np.einsum("cae,ebd->cabd", gamma, gamma)
    return term - term.transpose(0, 2, 1, 3) + quad - quad.transpose(0, 2, 1, 3)


def curvature_of_connection(gamma_fn, u, h: float):
    """R[c, a, b, d] of the real connection field gamma_fn, with its
    derivative stack by central differences of step h."""
    return _curvature(gamma_fn(u), np.moveaxis(jacobian(gamma_fn, u, h), -1, 0))


def _covariant_ext(t, dt, gamma_d):
    """d_D of an End-valued one-form t with stack dt[d, c, f, b]: output
    [c, a, f, b]."""
    gd = gamma_d.astype(t.dtype)
    # (D_d T)[c, f, b]
    cov = (
        dt.transpose(1, 0, 2, 3)
        + np.einsum("cde,efb->cdfb", gd, t)
        - np.einsum("cfe,edb->cdfb", t, gd)
        - np.einsum("ceb,edf->cdfb", t, gd)
    )
    return cov - cov.transpose(0, 2, 1, 3)


@dataclass(frozen=True)
class EquationReport:
    residuals: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(v < self.tol for v in self.residuals.values())

    def failing(self):
        return {k: v for k, v in self.residuals.items() if v >= self.tol}


def check_equations(prep: Prepotential, z, tol: float = 1e-5, h: float = 1e-5) -> EquationReport:
    """Residuals of the flatness-decomposition equation suite.

    Keys: e2 (dD A + A^A), e3 (dbar Abar + Abar^Abar), e5 (dD A),
    e6 (dbar Abar), e8 (dD Abar), e9 (R_D + A^Abar + Abar^A),
    dbarA (holomorphy of the Higgs field) and the full real flatness
    residual of nabla.

    D is real and Abar = conj(A), and conjugation swaps P10 and P01, so e3,
    e6 and e8 are e2, e5 and dbarA conjugated, and Abar^A = conj(A^Abar);
    IEEE negation is exact, so reading them off keeps every bit.

    Every derivative comes from the analytic jets of the Levi-Civita and
    flat connections at the point, so nothing is evaluated off it.  h is
    unused apart from being validated; it stays for the callers that
    pass the sweep's step.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    p = _point(prep, z)
    p10, p01 = type_projectors(prep.n)

    gamma_d, d_lc = _lc_jet(p.g_real, p.third, p.fourth)
    ar = p.gamma_flat - gamma_d
    d_ar = _flat_dgamma(p) - d_lc
    # the type projection is constant: A's stack is that of nabla - D, projected
    a, abar, _ = _higgs_split(ar)
    r_d = _curvature(gamma_d, d_lc)
    dd_a = _covariant_ext(a, _higgs_part(d_ar), gamma_d)
    dd_ar = _covariant_ext(ar, d_ar, gamma_d)
    w = _wedge(a, abar)

    def sup(t):
        return float(np.max(np.abs(t)))

    e2 = sup(_project_form_slots(dd_a + _wedge(a, a), p10, p10))
    e5 = sup(_project_form_slots(dd_a, p10, p10))
    dbar_a = sup(_project_form_slots(dd_a, p01, p10))
    residuals = {
        "e2": e2, "e3": e2, "e5": e5, "e6": e5, "e8": dbar_a,
        "e9": sup(r_d + w + np.conj(w)),
        "dbarA": dbar_a,
        "flatness": sup(r_d + dd_ar + _wedge(ar, ar)),
    }
    return EquationReport(residuals=residuals, tol=tol)


def check_special_conditions(prep: Prepotential, z, tol: float = 1e-5) -> EquationReport:
    """Residuals of the defining conditions: symmetry of (nabla I),
    nabla omega = 0 and d omega = 0.  The tau-symmetry behind Re Omega = 0
    is a hard check: reading a non-symmetric tau raises ValueError."""
    p = _point(prep, z)
    _, domega = _metric_derivatives(p.third)
    gamma = p.gamma_flat
    im = complex_structure(prep.n)

    comm = np.einsum("cie,ej->cij", gamma, im) - np.einsum("ce,eij->cij", im, gamma)
    sym = comm - comm.transpose(0, 2, 1)

    # (nabla_a omega)_{bc} = d_a O_{bc} - G^e_{ab} O_{ec} - G^e_{ac} O_{be}
    nab = (
        domega
        - np.einsum("eab,ec->abc", gamma, p.omega)
        - np.einsum("eac,be->abc", gamma, p.omega)
    )

    # (d omega)_{abc} = d_a O_{bc} - d_b O_{ac} + d_c O_{ab}
    dw = domega - domega.transpose(1, 0, 2) + domega.transpose(1, 2, 0)

    residuals = {
        "dnabla_I_symmetry": float(np.max(np.abs(sym))),
        "nabla_omega": float(np.max(np.abs(nab))),
        "d_omega": float(np.max(np.abs(dw))),
    }
    return EquationReport(residuals=residuals, tol=tol)


def kahler_potential_residual(prep: Prepotential, z) -> float:
    """|Im tau - dd-bar K| for K = Im(sum w_i conj(z_i)); validates the
    metric convention.

    dd-bar K = (D - D^H) / 2i with D[a, b] = d_a w_b, and each row of D is
    Cauchy's integral for the derivative of w along z_a: the trapezoid sum
    of w / (N r omega^k) over the N nodes z + r omega^k e_a, with
    r = POTENTIAL_STEP * prep.scale.  Its error falls like (r / R)^N for a
    singularity at distance R, and its rounding is about eps |w| / r
    (Lyness & Moler 1967; Trefethen & Weideman 2014).  A node outside the
    domain is a StencilError.  The point's record gives z and Im tau."""
    p = _point(prep, z)
    z = p.z
    n = prep.n
    r = POTENTIAL_STEP * prep.scale
    w = np.empty((n, len(_CIRCLE), n), dtype=complex)
    for a in range(n):
        for k, step in enumerate(r * _CIRCLE):
            node = z.copy()
            node[a] += step
            try:
                prep.require_domain(node)
            except DomainError as exc:
                raise StencilError(f"shrink step or move point: {exc}") from exc
            w[a, k] = prep.grad(node)
    d = (np.conj(_CIRCLE) @ w) / (len(_CIRCLE) * r)
    return float(np.max(np.abs((d - d.conj().T) / 2j - p.imtau)))


def vhs_holomorphy_residual(prep: Prepotential, z) -> float:
    """Sup of the (0,1)-component of nabla_{Ybar} X over the constant
    holomorphic coordinate frames (the holomorphic-subbundle condition)."""
    gamma = flat_connection_at(prep, z).astype(complex)
    frame = holomorphic_frame(prep.n)
    _, p01 = type_projectors(prep.n)
    vals = np.einsum("kab,aJ,bj->kJj", gamma, np.conj(frame), frame)
    return float(np.max(np.abs(np.einsum("ck,kJj->cJj", p01, vals))))


@dataclass(frozen=True)
class LagrangianReport:
    loop_integral: float
    pullback_residual: float

    def passed(self) -> bool:
        return self.loop_integral < 1e-6 and self.pullback_residual < 1e-7


def lagrangian_graph_check(prep: Prepotential, center, radius: float = 0.1) -> LagrangianReport:
    """Loop integral of theta = sum w_r dz_r around a small circle in z_1
    (closed one-form certificate) and the graph pullback residual of
    Omega = sum dz ^ dw, which is the pointwise tau-symmetry defect."""
    center = prep.as_point(center)
    ts = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    total = 0.0 + 0.0j
    pull = 0.0
    for t in ts:
        z = center.copy()
        z[0] += radius * np.exp(1j * t)
        prep.require_domain(z)
        w = np.asarray(prep.grad(z), dtype=complex)
        dz = np.zeros_like(center)
        dz[0] = radius * 1j * np.exp(1j * t)
        total += np.sum(w * dz)
        tau = np.asarray(prep.hess(z), dtype=complex)
        pull = max(pull, float(np.max(np.abs(tau - tau.T))))
    total *= 2.0 * np.pi / len(ts)
    return LagrangianReport(loop_integral=float(abs(total)), pullback_residual=pull)


def sample_points(prep: Prepotential, count: int, seed: int, h: float = 1e-5):
    """Seeded uniform draws from the entry's sample box, rejecting points
    closer than max(10 h, 2 POTENTIAL_STEP scale) to the domain boundary
    (probed coordinatewise), so the potential check's circles stay inside;
    SamplingError after 500 draws per requested point."""
    if count < 1:
        raise ValueError("need count >= 1")
    rng = XorShift(seed)
    box = prep.sample_box
    if len(box) != 2 * prep.n:
        raise ValueError(f"{prep.name}: sample box has wrong length")
    pts = []
    eps = max(10.0 * h, 2.0 * POTENTIAL_STEP * prep.scale)
    tries = 0
    limit = 500 * count
    while len(pts) < count:
        tries += 1
        if tries > limit:
            raise SamplingError(
                f"{prep.name}: found only {len(pts)}/{count} points in {limit} draws"
            )
        u = np.array([rng.uniform(lo, hi) for lo, hi in box])
        z = u_to_z(u)
        probes = (u + s * eps * e for e in np.eye(u.size) for s in (-1.0, 1.0))
        if prep.in_domain(z) and all(prep.in_domain(u_to_z(p)) for p in probes):
            pts.append(z)
    return pts


def point_data(prep: Prepotential, z) -> SpecialKahlerPoint:
    """All pointwise geometry in one structure; the curvature of the
    Levi-Civita connection comes from its analytic jet."""
    p = _point(prep, z)
    gamma_lc, d_lc = _lc_jet(p.g_real, p.third, p.fourth)
    a, abar, offtype = _higgs_split(p.gamma_flat - gamma_lc)
    return SpecialKahlerPoint(
        z=p.z,
        tau=p.tau,
        third=p.third,
        metric=p,
        flat=flat_chart_at(prep, p),
        imat=complex_structure(prep.n),
        gamma_flat=p.gamma_flat,
        gamma_lc=gamma_lc,
        higgs=a,
        higgs_bar=abar,
        higgs_offtype=offtype,
        curvature=_curvature(gamma_lc, d_lc),
    )
