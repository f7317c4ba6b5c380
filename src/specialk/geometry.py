"""Pointwise special Kahler geometry from a prepotential, plus the
residual suites that certify the defining equations.

Conventions (fixed once, everything else is checked against them):

* real chart u = (Re z, Im z) in R^{2n}; x = Re z, p = Im z;
* complex structure matrix I = [[0, Id], [-Id, 0]] acting on coefficient
  vectors (a, b) -> (b, -a).  This is the sign for which the flat-chart
  certificate d(p,q)/d(x,y) = I holds with (x, y) = (Re z, Re w);
* metric g = blockdiag(Im tau, Im tau), Kahler form w = g(I., .), which
  in the flat chart is exactly sum dx_i ^ dy_i;
* Christoffel arrays gamma[k, i, j] = Gamma^k_{ij}; endomorphism-valued
  one-forms t[c, a, b] with c the output, a the form slot, b the input;
* curvature R[c, a, b, d] = coefficient of R(e_a, e_b) e_d along e_c.

Connections are assembled analytically from the catalog's third
derivatives; finite differences enter only one level deep (curvature and
covariant exterior derivatives), so residuals sit far below the 1e-5
acceptance tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fd import FDEvaluationError, hessian
from .prepotentials import DomainError, Prepotential
from .utils import XorShift

__all__ = [
    "MetricDegenerateError",
    "FlatChartDegenerateError",
    "StencilError",
    "SamplingError",
    "MetricData",
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
    "levi_civita_at",
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


# step of the Kahler-potential second differences; its diagonal stencil
# points lie 2 * POTENTIAL_STEP from the sample point
POTENTIAL_STEP = 3e-4


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


def complex_structure(n: int):
    """Matrix of I on the real chart."""
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -np.eye(n)
    return out


def type_projectors(n: int):
    """(P10, P01): projectors onto the +i / -i eigenspaces of I."""
    im = complex_structure(n)
    p10 = 0.5 * (np.eye(2 * n) - 1j * im)
    return p10, np.conj(p10)


def holomorphic_frame(n: int):
    """Columns span T^{1,0}: E_j = e_j + i e_{n+j}."""
    e = np.zeros((2 * n, n), dtype=complex)
    for j in range(n):
        e[j, j] = 1.0
        e[n + j, j] = 1.0j
    return e


def darboux_matrix(n: int):
    """Matrix of sum dx_i ^ dy_i in the flat chart basis (x, y)."""
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.eye(n)
    out[n:, :n] = -np.eye(n)
    return out


@dataclass(frozen=True)
class MetricData:
    imtau: np.ndarray      # n x n real, = hermitian metric components
    g_real: np.ndarray     # 2n x 2n block-diagonal Riemannian metric
    omega: np.ndarray      # 2n x 2n matrix of the Kahler form


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
    metric: MetricData
    flat: FlatChart
    imat: np.ndarray
    gamma_flat: np.ndarray
    gamma_lc: np.ndarray
    higgs: np.ndarray
    higgs_bar: np.ndarray
    higgs_offtype: float
    curvature: np.ndarray | None = field(default=None)


def _tau_blocks(prep: Prepotential, z, check_domain: bool = True):
    if check_domain:
        prep.require_domain(z)
    tau = np.asarray(prep.hess(z), dtype=complex)
    if not np.array_equal(tau, tau.T):
        raise ValueError(f"{prep.name}: provider returned non-symmetric tau")
    return tau, tau.real, tau.imag


def metric_at(prep: Prepotential, z) -> MetricData:
    """g_{jk} = Im tau_{jk}; raises if the point is metric-degenerate.

    Positivity of Im tau is the check this operation owns, so it is
    evaluated wherever tau is defined; the domain predicate is enforced
    by the samplers and the stencil-based checks."""
    tau, _, g = _tau_blocks(prep, z, check_domain=False)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise MetricDegenerateError(f"metric degenerate at point {z}") from None
    n = g.shape[0]
    g_real = np.zeros((2 * n, 2 * n))
    g_real[:n, :n] = g
    g_real[n:, n:] = g
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = -g
    omega[n:, :n] = g
    return MetricData(imtau=g, g_real=g_real, omega=omega)


def _metric_derivatives(prep: Prepotential, z):
    """(dG, dT, dg_real, dOmega) from the analytic third derivatives;
    index a of each stack is the real-chart direction of differentiation."""
    n = prep.n
    c = np.asarray(prep.third(z), dtype=complex)
    dg = np.empty((2 * n, n, n))
    dt = np.empty((2 * n, n, n))
    for i in range(n):
        dg[i] = c[i].imag
        dg[n + i] = c[i].real
        dt[i] = c[i].real
        dt[n + i] = -c[i].imag
    dg_real = np.zeros((2 * n, 2 * n, 2 * n))
    domega = np.zeros((2 * n, 2 * n, 2 * n))
    for a in range(2 * n):
        dg_real[a, :n, :n] = dg[a]
        dg_real[a, n:, n:] = dg[a]
        domega[a, :n, n:] = -dg[a]
        domega[a, n:, :n] = dg[a]
    return dg, dt, dg_real, domega


def flat_chart_at(prep: Prepotential, z) -> FlatChart:
    """Darboux data (x, y) = (Re z, Re w), momenta (p, q) = (Im z, Im w)."""
    z = prep.as_point(z)
    tau, t, g = _tau_blocks(prep, z)
    n = prep.n
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= 1e-9 * sv[0]:
        raise FlatChartDegenerateError(f"flat chart degenerate at point {z}")
    w = np.asarray(prep.grad(z), dtype=complex)
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, :n] = np.eye(n)
    jac[n:, :n] = t
    jac[n:, n:] = -g
    c = np.asarray(prep.third(z), dtype=complex)
    second = np.zeros((2 * n, 2 * n, 2 * n))
    for r in range(n):
        cr = c[r]
        second[n + r, :n, :n] = cr.real
        second[n + r, :n, n:] = -cr.imag
        second[n + r, n:, :n] = -cr.imag
        second[n + r, n:, n:] = -cr.real
    return FlatChart(x=z.real, y=w.real, p=z.imag, q=w.imag, jacobian=jac, second=second)


def flat_omega_residual(prep: Prepotential, z) -> float:
    """Sup-norm distance of the pushed-forward Kahler form from the
    standard Darboux matrix in the flat chart."""
    md = metric_at(prep, z)
    chart = flat_chart_at(prep, z)
    jinv = np.linalg.inv(chart.jacobian)
    omega_flat = jinv.T @ md.omega @ jinv
    return float(np.max(np.abs(omega_flat - darboux_matrix(prep.n))))


def flat_structure_certificate(prep: Prepotential, z) -> float:
    """Residual of d(p,q)/d(x,y) against the matrix of I in the flat
    chart (the numerical certificate that nabla X = I)."""
    z = prep.as_point(z)
    tau, t, g = _tau_blocks(prep, z)
    n = prep.n
    chart = flat_chart_at(prep, z)
    jinv = np.linalg.inv(chart.jacobian)
    dpq_du = np.zeros((2 * n, 2 * n))
    dpq_du[:n, n:] = np.eye(n)
    dpq_du[n:, :n] = g
    dpq_du[n:, n:] = t
    lhs = dpq_du @ jinv
    rhs = chart.jacobian @ complex_structure(n) @ jinv
    return float(np.max(np.abs(lhs - rhs)))


def flat_connection_at(prep: Prepotential, z):
    """Christoffels of the flat connection in the real chart, from the
    transformation out of the chart where it vanishes."""
    chart = flat_chart_at(prep, z)
    jinv = np.linalg.inv(chart.jacobian)
    return np.einsum("ka,aij->kij", jinv, chart.second)


def levi_civita_at(prep: Prepotential, z):
    """Levi-Civita Christoffels of g in the real chart (analytic)."""
    md = metric_at(prep, z)
    _, _, dg_real, _ = _metric_derivatives(prep, z)
    ginv = np.linalg.inv(md.g_real)
    # Gamma^k_ij = (1/2) g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij})
    return 0.5 * (
        np.einsum("kl,ilj->kij", ginv, dg_real)
        + np.einsum("kl,jli->kij", ginv, dg_real)
        - np.einsum("kl,lij->kij", ginv, dg_real)
    )


def lc_holomorphic(prep: Prepotential, z):
    """Chern-connection Christoffels in holomorphic coordinates:
    Gamma^k_{ij} = g^{kl} d_i g_{jl} = (G^{-1} C / 2i)."""
    md = metric_at(prep, z)
    c = np.asarray(prep.third(z), dtype=complex)
    ginv = np.linalg.inv(md.imtau)
    return np.einsum("kl,ijl->kij", ginv, c) / 2j


def higgs_at(prep: Prepotential, z):
    """(A, Abar, off-type residual): A is the (1,0)-form part of
    nabla - D mapping T^{1,0} -> T^{0,1}; Abar its conjugate."""
    ar = flat_connection_at(prep, z) - levi_civita_at(prep, z)
    a = _higgs_part(ar)
    abar = np.conj(a)
    offtype = float(np.max(np.abs(ar - a - abar)))
    return a, abar, offtype


def _higgs_part(ar):
    """Type-(1,0) form part of nabla - D mapping T^{1,0} -> T^{0,1}."""
    p10, p01 = type_projectors(ar.shape[0] // 2)
    return np.einsum("cx,xab,ay,bz->cyz", p01, ar.astype(complex), p10, p10)


def _connections_at(prep: Prepotential, z):
    """(Levi-Civita, nabla - D, A) from one build of each connection."""
    lc = levi_civita_at(prep, z)
    ar = flat_connection_at(prep, z) - lc
    return lc, ar, _higgs_part(ar)


def _wedge(p, q):
    """(P ^ Q)[c, a, f, b] of endomorphism-valued one-forms."""
    first = np.einsum("cae,efb->cafb", p, q)
    return first - first.transpose(0, 2, 1, 3)


def _project_form_slots(t, pa, pf):
    return np.einsum("cafb,ax,fy->cxyb", t, pa, pf)


def _field_factory(prep: Prepotential, kind: str):
    """Field u -> kind at the point u of the real chart, after the domain
    check: "lc" gives the Levi-Civita Christoffels, "connection" the tuple
    of _connections_at."""
    builders = {
        "lc": lambda z: levi_civita_at(prep, z),
        "connection": lambda z: _connections_at(prep, z),
    }
    build = builders[kind]

    def field(u):
        z = u_to_z(u)
        prep.require_domain(z)
        return build(z)

    return field


def _stencil(fn, u, h):
    """[(fn(u + h e_d), fn(u - h e_d)) for each chart direction d]."""
    pairs = []
    for d in range(u.size):
        e = np.zeros_like(u)
        e[d] = h
        pairs.append((fn(u + e), fn(u - e)))
    return pairs


def _central(pairs, h):
    """dF[d, ...] = central difference of the stencil pairs along u_d."""
    return np.stack([(plus - minus) / (2.0 * h) for plus, minus in pairs], axis=0)


def _fd_stack(fn, u, h):
    return _central(_stencil(fn, u, h), h)


def _curvature(gamma, dg):
    """R[c, a, b, d] from Christoffels and their stack dg[a, c, b, d]."""
    term = dg.transpose(1, 0, 2, 3)            # [c, a, b, d]
    quad = np.einsum("cae,ebd->cabd", gamma, gamma)
    return term - term.transpose(0, 2, 1, 3) + quad - quad.transpose(0, 2, 1, 3)


def curvature_of_connection(gamma_fn, u, h: float):
    """R[c, a, b, d] of the connection field gamma_fn (FD one level)."""
    return _curvature(gamma_fn(u), _fd_stack(gamma_fn, u, h))


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


def _covariant_ext_derivative(field_fn, gamma_d, u, h):
    """d_D of an End-valued one-form field: output [c, a, f, b]."""
    return _covariant_ext(field_fn(u), _fd_stack(field_fn, u, h), gamma_d)


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
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    z = prep.as_point(z)
    prep.require_domain(z)
    u = z_to_u(z)
    n = prep.n
    p10, p01 = type_projectors(n)

    # every field is built once per stencil point; conjugation commutes
    # exactly with the central difference, so Abar's stack is conj of A's
    conn_fn = _field_factory(prep, "connection")
    try:
        gamma_d, ar, a = conn_fn(u)
        pairs = _stencil(conn_fn, u, h)
    except (DomainError, MetricDegenerateError, FDEvaluationError) as exc:
        raise StencilError(f"shrink step or move point: {exc}") from exc
    d_lc, d_ar, d_a = (
        _central([(plus[k], minus[k]) for plus, minus in pairs], h) for k in range(3)
    )
    abar = np.conj(a)
    r_d = _curvature(gamma_d, d_lc)
    dd_a = _covariant_ext(a, d_a, gamma_d)
    dd_abar = _covariant_ext(abar, np.conj(d_a), gamma_d)
    dd_ar = _covariant_ext(ar, d_ar, gamma_d)

    def sup(t):
        return float(np.max(np.abs(t)))

    r_endo = r_d.astype(complex)
    residuals = {
        "e2": sup(_project_form_slots(dd_a + _wedge(a, a), p10, p10)),
        "e3": sup(_project_form_slots(dd_abar + _wedge(abar, abar), p01, p01)),
        "e5": sup(_project_form_slots(dd_a, p10, p10)),
        "e6": sup(_project_form_slots(dd_abar, p01, p01)),
        "e8": sup(_project_form_slots(dd_abar, p10, p01)),
        "e9": sup(r_endo + _wedge(a, abar) + _wedge(abar, a)),
        "dbarA": sup(_project_form_slots(dd_a, p01, p10)),
        "flatness": sup(r_d + dd_ar + _wedge(ar, ar)),
    }
    return EquationReport(residuals=residuals, tol=tol)


def check_special_conditions(prep: Prepotential, z, tol: float = 1e-5) -> EquationReport:
    """Residuals of the defining conditions: symmetry of (nabla I),
    nabla omega = 0, d omega = 0 and the exact tau-symmetry that makes
    Re Omega = sum dx^dy - sum dp^dq vanish."""
    z = prep.as_point(z)
    tau, _, _ = _tau_blocks(prep, z)
    md = metric_at(prep, z)
    _, _, _, domega = _metric_derivatives(prep, z)
    gamma = flat_connection_at(prep, z)
    im = complex_structure(prep.n)

    comm = np.einsum("cie,ej->cij", gamma, im) - np.einsum("ce,eij->cij", im, gamma)
    sym = comm - comm.transpose(0, 2, 1)

    # (nabla_a omega)_{bc} = d_a O_{bc} - G^e_{ab} O_{ec} - G^e_{ac} O_{be}
    nab = (
        domega
        - np.einsum("eab,ec->abc", gamma, md.omega)
        - np.einsum("eac,be->abc", gamma, md.omega)
    )

    # (d omega)_{abc} = d_a O_{bc} - d_b O_{ac} + d_c O_{ab}
    dw = domega - domega.transpose(1, 0, 2) + domega.transpose(1, 2, 0)

    residuals = {
        "dnabla_I_symmetry": float(np.max(np.abs(sym))),
        "nabla_omega": float(np.max(np.abs(nab))),
        "d_omega": float(np.max(np.abs(dw))),
        "re_Omega": float(np.max(np.abs(tau - tau.T))),
    }
    return EquationReport(residuals=residuals, tol=tol)


def kahler_potential_residual(prep: Prepotential, z, h: float = POTENTIAL_STEP) -> float:
    """|Im tau - dd-bar K| for K = Im(sum w_i conj(z_i)), by second
    differences; validates the metric convention.

    The step balances second-difference rounding (eps |K| / h^2) against
    truncation for the catalog entries; accuracy floor is about 1e-7."""
    z = prep.as_point(z)
    md = metric_at(prep, z)
    n = prep.n

    def pot(u):
        zz = u_to_z(u)
        prep.require_domain(zz)
        w = np.asarray(prep.grad(zz), dtype=complex)
        return float(np.imag(np.sum(w * np.conj(zz))))

    try:
        hess = hessian(pot, z_to_u(z), h=h)
    except (DomainError, FDEvaluationError) as exc:
        raise StencilError(f"shrink step or move point: {exc}") from exc
    hxx = hess[:n, :n]
    hpp = hess[n:, n:]
    hxp = hess[:n, n:]
    hpx = hess[n:, :n]
    g_fd = 0.25 * (hxx + hpp) + 0.25j * (hxp - hpx)
    return float(np.max(np.abs(g_fd - md.imtau)))


def vhs_holomorphy_residual(prep: Prepotential, z) -> float:
    """Sup of the (0,1)-component of nabla_{Ybar} X over the constant
    holomorphic coordinate frames (the holomorphic-subbundle condition)."""
    gamma = flat_connection_at(prep, z).astype(complex)
    n = prep.n
    frame = holomorphic_frame(n)
    _, p01 = type_projectors(n)
    vals = np.einsum("kab,aJ,bj->kJj", gamma, np.conj(frame), frame)
    return float(np.max(np.abs(np.einsum("ck,kJj->cJj", p01, vals))))


@dataclass(frozen=True)
class LagrangianReport:
    loop_integral: float
    pullback_residual: float

    def passed(self, tol_loop=1e-6, tol_pullback=1e-7) -> bool:
        return self.loop_integral < tol_loop and self.pullback_residual < tol_pullback


def lagrangian_graph_check(prep: Prepotential, center, radius: float = 0.1,
                           coord: int = 0, nodes: int = 256) -> LagrangianReport:
    """Loop integral of theta = sum w_r dz_r around a small circle (closed
    one-form certificate) and the graph pullback residual of
    Omega = sum dz ^ dw, which is the pointwise tau-symmetry defect."""
    center = prep.as_point(center)
    ts = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    total = 0.0 + 0.0j
    pull = 0.0
    for t in ts:
        z = center.copy()
        z[coord] += radius * np.exp(1j * t)
        prep.require_domain(z)
        w = np.asarray(prep.grad(z), dtype=complex)
        dz = np.zeros_like(center)
        dz[coord] = radius * 1j * np.exp(1j * t)
        total += np.sum(w * dz)
        tau = np.asarray(prep.hess(z), dtype=complex)
        pull = max(pull, float(np.max(np.abs(tau - tau.T))))
    total *= 2.0 * np.pi / nodes
    return LagrangianReport(loop_integral=float(abs(total)), pullback_residual=pull)


def sample_points(prep: Prepotential, count: int, seed: int,
                  h: float = 1e-5, margin: float = 10.0, max_tries: int = 500):
    """Seeded uniform draws from the entry's sample box, rejecting points
    closer than max(margin*h, 2*POTENTIAL_STEP) to the domain boundary
    (probed coordinatewise), so the widest stencil of a sweep stays inside."""
    if count < 1:
        raise ValueError("need count >= 1")
    rng = XorShift(seed)
    box = prep.sample_box
    if len(box) != 2 * prep.n:
        raise ValueError(f"{prep.name}: sample box has wrong length")
    pts = []
    eps = max(margin * h, 2.0 * POTENTIAL_STEP)
    tries = 0
    limit = max_tries * count
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


def point_data(prep: Prepotential, z, h: float = 1e-5,
               with_curvature: bool = True) -> SpecialKahlerPoint:
    """All pointwise geometry in one structure."""
    z = prep.as_point(z)
    md = metric_at(prep, z)
    chart = flat_chart_at(prep, z)
    gamma_flat = flat_connection_at(prep, z)
    gamma_lc = levi_civita_at(prep, z)
    a, abar, off = higgs_at(prep, z)
    curv = None
    if with_curvature:
        try:
            curv = curvature_of_connection(_field_factory(prep, "lc"), z_to_u(z), h)
        except (DomainError, FDEvaluationError) as exc:
            raise StencilError(f"shrink step or move point: {exc}") from exc
    return SpecialKahlerPoint(
        z=z,
        tau=np.asarray(prep.hess(z), dtype=complex),
        third=np.asarray(prep.third(z), dtype=complex),
        metric=md,
        flat=chart,
        imat=complex_structure(prep.n),
        gamma_flat=gamma_flat,
        gamma_lc=gamma_lc,
        higgs=a,
        higgs_bar=abar,
        higgs_offtype=off,
        curvature=curv,
    )
