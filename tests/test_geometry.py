"""Pointwise special Kahler data and the residual suites."""

import numpy as np
import pytest

from specialk import geometry as geo
from specialk.fd import jacobian
from specialk.prepotentials import Coupled, Cubic, Quadratic, SWLog

ENTRIES = [Quadratic(), Cubic(), SWLog(), Coupled()]


def entry_points(prep, count, seed=1):
    return geo.sample_points(prep, count, seed=seed)


class TestMetric:
    def test_quadratic_identity(self):
        md = geo.metric_at(Quadratic(), [0.7 - 0.2j])
        assert np.allclose(md.imtau, np.eye(1))
        assert np.allclose(md.g_real, np.eye(2))

    def test_cubic_value_and_degeneracy(self):
        md = geo.metric_at(Cubic(), [1j])
        assert md.imtau[0, 0] == pytest.approx(6.0)
        with pytest.raises(geo.MetricDegenerateError):
            geo.metric_at(Cubic(), [-1j])

    def test_matches_kahler_potential_hessian(self):
        for prep in ENTRIES:
            z = entry_points(prep, 1, seed=5)[0]
            assert geo.kahler_potential_residual(prep, z) < 1e-7

    def test_compatibility_invariants(self):
        for prep in ENTRIES:
            for z in entry_points(prep, 4, seed=9):
                md = geo.metric_at(prep, z)
                imat = geo.complex_structure(prep.n)
                assert np.max(np.abs(imat @ imat + np.eye(2 * prep.n))) == 0.0
                assert np.max(np.abs(imat.T @ md.g_real @ imat - md.g_real)) < 1e-10
                # omega = g(I., .) and antisymmetry
                assert np.allclose(md.omega, imat.T @ md.g_real, atol=1e-12)
                assert np.allclose(md.omega, -md.omega.T)
                assert abs(np.linalg.det(md.omega)) > 1e-12


class TestFlatChart:
    def test_quadratic_values(self):
        chart = geo.flat_chart_at(Quadratic(), [1.0 + 1.0j])
        assert np.allclose(
            np.concatenate([chart.x, chart.y, chart.p, chart.q]),
            [1.0, -1.0, 1.0, 1.0],
        )

    def test_cubic_values(self):
        chart = geo.flat_chart_at(Cubic(), [1j])
        assert np.allclose(
            np.concatenate([chart.x, chart.y, chart.p, chart.q]),
            [0.0, -3.0, 1.0, 0.0],
        )

    def test_reconstructs_point(self):
        prep = Coupled()
        z = entry_points(prep, 1, seed=2)[0]
        chart = geo.flat_chart_at(prep, z)
        assert np.allclose(chart.x + 1j * chart.p, z)
        assert np.allclose(chart.y + 1j * chart.q, prep.grad(z))

    def test_darboux_property(self):
        for prep in ENTRIES:
            for z in entry_points(prep, 6, seed=3):
                assert geo.flat_omega_residual(prep, z) < 1e-8

    def test_nabla_x_certificate(self):
        for prep in ENTRIES:
            for z in entry_points(prep, 6, seed=4):
                assert geo.flat_structure_certificate(prep, z) < 1e-6

    def test_jacobian_matches_fd_of_chart_map(self):
        prep = SWLog()
        z = entry_points(prep, 1, seed=6)[0]
        chart = geo.flat_chart_at(prep, z)

        def chart_map(u):
            c = geo.flat_chart_at(prep, geo.u_to_z(u))
            return c.xi

        fd = jacobian(chart_map, geo.z_to_u(z), h=1e-6)
        assert np.max(np.abs(fd - chart.jacobian)) < 1e-7


class TestConnections:
    def test_quadratic_everything_flat(self):
        prep = Quadratic()
        z = [0.4 + 0.8j]
        assert np.max(np.abs(geo.flat_connection_at(prep, z))) == 0.0
        assert np.max(np.abs(geo.levi_civita_at(prep, z))) == 0.0

    def test_torsion_free(self):
        for prep in ENTRIES:
            z = entry_points(prep, 1, seed=7)[0]
            for gamma in (geo.flat_connection_at(prep, z), geo.levi_civita_at(prep, z)):
                assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-10

    def test_flat_connection_curvature_vanishes(self):
        for prep, seed in ((Cubic(), 1), (SWLog(), 2), (Coupled(), 3)):
            z = entry_points(prep, 1, seed=seed)[0]
            r = geo.curvature_of_connection(
                lambda u: geo.flat_connection_at(prep, geo.u_to_z(u)),
                geo.z_to_u(z),
                1e-5,
            )
            assert np.max(np.abs(r)) < 1e-5

    def test_levi_civita_metric_compatible(self):
        for prep in (Cubic(), Coupled()):
            z = entry_points(prep, 1, seed=11)[0]
            u = geo.z_to_u(z)
            gamma = geo.levi_civita_at(prep, z)
            md = geo.metric_at(prep, z)

            def gfun(uu):
                return geo.metric_at(prep, geo.u_to_z(uu)).g_real

            dg = jacobian(gfun, u, h=1e-5).transpose(2, 0, 1)
            cov = (
                dg
                - np.einsum("eab,ec->abc", gamma, md.g_real)
                - np.einsum("eac,be->abc", gamma, md.g_real)
            )
            assert np.max(np.abs(cov)) < 1e-6

    def test_levi_civita_preserves_complex_structure(self):
        for prep in (Cubic(), SWLog(), Coupled()):
            z = entry_points(prep, 1, seed=13)[0]
            gamma = geo.levi_civita_at(prep, z)
            imat = geo.complex_structure(prep.n)
            di = np.einsum("cie,ej->cij", gamma, imat) - np.einsum(
                "ce,eij->cij", imat, gamma
            )
            assert np.max(np.abs(di)) < 1e-6

    def test_levi_civita_against_fd_metric_oracle(self):
        """Assemble Christoffels from FD metric derivatives and compare
        with the analytic assembly."""
        prep = Coupled()
        z = entry_points(prep, 1, seed=15)[0]
        u = geo.z_to_u(z)
        md = geo.metric_at(prep, z)

        def gfun(uu):
            return geo.metric_at(prep, geo.u_to_z(uu)).g_real

        dg = jacobian(gfun, u, h=1e-5).transpose(2, 0, 1)
        ginv = np.linalg.inv(md.g_real)
        gamma_fd = 0.5 * (
            np.einsum("kl,ilj->kij", ginv, dg)
            + np.einsum("kl,jli->kij", ginv, dg)
            - np.einsum("kl,lij->kij", ginv, dg)
        )
        assert np.max(np.abs(gamma_fd - geo.levi_civita_at(prep, z))) < 1e-6


class TestHiggs:
    def test_quadratic_vanishes(self):
        a, abar, off = geo.higgs_at(Quadratic(), [0.2 + 0.9j])
        assert np.max(np.abs(a)) == 0.0
        assert np.max(np.abs(abar)) == 0.0
        assert off == 0.0

    def test_type_constraints(self):
        for prep in (Cubic(), SWLog(), Coupled()):
            z = entry_points(prep, 1, seed=17)[0]
            a, abar, off = geo.higgs_at(prep, z)
            assert off < 1e-6
            assert np.max(np.abs(abar - np.conj(a))) == 0.0
            # A ^ A = 0 (composition through mismatched types)
            wedge = np.einsum("cae,efb->cafb", a, a)
            wedge = wedge - wedge.transpose(0, 2, 1, 3)
            assert np.max(np.abs(wedge)) < 1e-8

    def test_nonzero_off_flat_locus(self):
        a, _, _ = geo.higgs_at(Cubic(), [1j])
        assert np.max(np.abs(a)) > 1e-3


class TestEquationSuite:
    def test_quadratic_exact(self):
        rep = geo.check_equations(Quadratic(), [0.3 + 0.4j], tol=1e-12)
        assert rep.passed
        assert all(v < 1e-12 for v in rep.residuals.values())

    @pytest.mark.parametrize(
        "prep,z",
        [(Cubic(), [1j]), (SWLog(), [1.0 + 1.0j])],
        ids=("cubic", "swlog"),
    )
    def test_curved_entries_pass(self, prep, z):
        rep = geo.check_equations(prep, z, tol=1e-5, h=1e-5)
        assert rep.passed, rep.failing()
        assert set(rep.residuals) == {
            "e2", "e3", "e5", "e6", "e8", "e9", "dbarA", "flatness",
        }

    def test_coupled_passes(self):
        prep = Coupled()
        z = entry_points(prep, 1, seed=19)[0]
        assert geo.check_equations(prep, z, tol=1e-5).passed

    def test_stencil_error_near_boundary(self):
        with pytest.raises(geo.StencilError):
            geo.check_equations(Cubic(), [0.5 + 1e-7j], tol=1e-5, h=1e-5)

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_rejects_nonpositive_step(self, h):
        with pytest.raises(ValueError):
            geo.check_equations(Cubic(), [1j], h=h)

    @pytest.mark.parametrize(
        "prep,seed",
        [(Cubic(), 3), (SWLog(), 5), (Coupled(), 7), (Quadratic(n=3), 9)],
        ids=("cubic", "swlog", "coupled", "quadratic3"),
    )
    def test_bitwise_equal_to_per_kind_fields(self, prep, seed):
        """One build of every connection per stencil point gives the same
        bits as differencing each field kind on its own."""
        for z in entry_points(prep, 3, seed=seed):
            ref = reference_equation_residuals(prep, z, h=1e-5)
            assert geo.check_equations(prep, z, h=1e-5).residuals == ref


def reference_equation_residuals(prep, z, h):
    """The equation suite with a separate stencil per field kind: Levi-Civita
    for the curvature, then A, Abar and nabla - D for d_D."""
    u = geo.z_to_u(z)

    def field(build):
        def fn(v):
            zz = geo.u_to_z(v)
            prep.require_domain(zz)
            return build(zz)
        return fn

    lc_fn = field(lambda zz: geo.levi_civita_at(prep, zz))
    a_fn = field(lambda zz: geo.higgs_at(prep, zz)[0])
    ar_fn = field(lambda zz: geo.flat_connection_at(prep, zz) - geo.levi_civita_at(prep, zz))
    gamma_d = lc_fn(u)
    a, abar, _ = geo.higgs_at(prep, z)
    r_d = geo.curvature_of_connection(lc_fn, u, h)
    dd_a = geo._covariant_ext_derivative(a_fn, gamma_d, u, h)
    dd_abar = geo._covariant_ext_derivative(lambda v: np.conj(a_fn(v)), gamma_d, u, h)
    dd_ar = geo._covariant_ext_derivative(ar_fn, gamma_d, u, h)
    ar = ar_fn(u)
    p10, p01 = geo.type_projectors(prep.n)
    proj, wedge = geo._project_form_slots, geo._wedge

    def sup(t):
        return float(np.max(np.abs(t)))

    return {
        "e2": sup(proj(dd_a + wedge(a, a), p10, p10)),
        "e3": sup(proj(dd_abar + wedge(abar, abar), p01, p01)),
        "e5": sup(proj(dd_a, p10, p10)),
        "e6": sup(proj(dd_abar, p01, p01)),
        "e8": sup(proj(dd_abar, p10, p01)),
        "e9": sup(r_d.astype(complex) + wedge(a, abar) + wedge(abar, a)),
        "dbarA": sup(proj(dd_a, p01, p10)),
        "flatness": sup(r_d + dd_ar + wedge(ar, ar)),
    }


class TestKahlerPotential:
    def test_stencil_error_near_boundary(self):
        """A point closer to the boundary than the potential stencil
        reaches: leaving the domain is a StencilError, not a traceback."""
        with pytest.raises(geo.StencilError):
            geo.kahler_potential_residual(Cubic(), [0.3 + 1e-4j])


class TestSpecialConditions:
    def test_quadratic_exact(self):
        rep = geo.check_special_conditions(Quadratic(), [1.2 - 0.1j], tol=1e-12)
        assert rep.passed

    def test_cubic_random_points(self):
        prep = Cubic()
        for z in entry_points(prep, 16, seed=21):
            rep = geo.check_special_conditions(prep, z, tol=1e-5)
            assert rep.passed, rep.failing()

    def test_coupled_tau_symmetry_exact(self):
        prep = Coupled()
        for z in entry_points(prep, 8, seed=23):
            rep = geo.check_special_conditions(prep, z, tol=1e-5)
            assert rep.residuals["re_Omega"] == 0.0
            assert rep.passed


class TestLagrangianGraph:
    def test_quadratic_loop(self):
        rep = geo.lagrangian_graph_check(Quadratic(), [0.5 + 0.5j], radius=0.3)
        assert rep.loop_integral < 1e-12

    def test_cubic_circle(self):
        rep = geo.lagrangian_graph_check(Cubic(), [1j], radius=0.1)
        assert rep.loop_integral < 1e-6
        assert rep.pullback_residual < 1e-7

    def test_swlog_small_loop(self):
        rep = geo.lagrangian_graph_check(SWLog(), [1.0 + 0.5j], radius=0.1)
        assert rep.loop_integral < 1e-6

    def test_rejects_path_outside_domain(self):
        from specialk.prepotentials import DomainError

        with pytest.raises(DomainError):
            geo.lagrangian_graph_check(Cubic(), [0.05j], radius=0.2)


class TestSampling:
    def test_deterministic(self):
        a = geo.sample_points(Cubic(), 5, seed=77)
        b = geo.sample_points(Cubic(), 5, seed=77)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = geo.sample_points(Cubic(), 5, seed=78)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_margin_and_domain(self):
        for prep in ENTRIES:
            for z in geo.sample_points(prep, 10, seed=5, h=1e-3, margin=10):
                u = geo.z_to_u(z)
                for d in range(2 * prep.n):
                    for s in (-1, 1):
                        probe = u.copy()
                        probe[d] += s * 1e-2
                        assert prep.in_domain(geo.u_to_z(probe))

    def test_margin_covers_potential_stencil(self):
        """Sampled points stay 2 * POTENTIAL_STEP from the boundary even
        when margin * h is smaller, so the potential stencil stays inside."""
        prep = Cubic()
        prep.sample_box = ((-1.0, 1.0), (2e-4, 1e-3))
        for z in geo.sample_points(prep, 32, seed=3, h=1e-5):
            geo.kahler_potential_residual(prep, z)

    def test_sampling_failure(self):
        prep = Cubic()
        # impossible box: below the upper half plane
        prep.sample_box = ((-1.0, 1.0), (-2.0, -1.0))
        with pytest.raises(geo.SamplingError):
            geo.sample_points(prep, 3, seed=1, max_tries=10)


class TestPointData:
    def test_shapes_and_invariants(self):
        prep = Coupled()
        z = entry_points(prep, 1, seed=25)[0]
        data = geo.point_data(prep, z)
        n2 = 2 * prep.n
        assert data.gamma_flat.shape == (n2, n2, n2)
        assert data.curvature.shape == (n2, n2, n2, n2)
        assert data.higgs_offtype < 1e-6
        assert np.max(np.abs(data.imat @ data.imat + np.eye(n2))) == 0.0

    def test_vhs_holomorphy_zero_for_all_entries(self):
        for prep in ENTRIES:
            z = entry_points(prep, 1, seed=27)[0]
            assert geo.vhs_holomorphy_residual(prep, z) < 1e-10
