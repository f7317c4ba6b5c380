"""Pointwise special Kahler data and the residual suites."""

import numpy as np
import pytest

from specialk import geometry as geo
from specialk import hyperkahler as hk
from specialk.fd import jacobian, jacobian4
from specialk.hodge import vhs_from_special_kahler
from specialk.prepotentials import Coupled, Cubic, Quadratic, SWLog

ENTRIES = [Quadratic(), Cubic(), SWLog(), Coupled()]


def entry_points(prep, count, seed=1):
    return geo.sample_points(prep, count, seed=seed)


class TestSharedConstants:
    """complex_structure, type_projectors and holomorphic_frame depend on n
    only: each is built once per n, shared read-only, and equal to the
    formula it caches, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_built_once_and_equal_to_formula(self, n):
        shared = (geo.complex_structure(n), *geo.type_projectors(n), geo.holomorphic_frame(n))
        im = geo._offdiag(np.eye(n), -np.eye(n))
        p10 = 0.5 * (np.eye(2 * n) - 1j * im)
        fresh = (im, p10, np.conj(p10), geo._real_chart(np.eye(n), (0,)))
        for got, want in zip(shared, fresh):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        again = (geo.complex_structure(n), *geo.type_projectors(n), geo.holomorphic_frame(n))
        assert all(a is b for a, b in zip(again, shared))

    def test_writes_raise(self):
        shared = (geo.complex_structure(2), *geo.type_projectors(2), geo.holomorphic_frame(2),
                  geo.point_data(Cubic(), [1j]).imat)
        for a in shared:
            with pytest.raises(ValueError):
                a[0, 0] = 7.0
            with pytest.raises(ValueError):
                a += 1


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


class TestLeviCivitaJet:
    """The chain-rule jet against the fourth-order stencil of
    levi_civita_at as the reference, on criterion 2's and 4's points."""

    @pytest.mark.parametrize(
        "prep", [Cubic(), SWLog(), Coupled(), Quadratic(n=2)], ids=lambda p: f"{p.name}{p.n}"
    )
    def test_matches_fourth_order_stencil(self, prep):
        def lc(u):
            return geo.levi_civita_at(prep, geo.u_to_z(u))

        for seed in (2, 4):
            for z in entry_points(prep, 64, seed=seed):
                gamma, dgamma = geo.levi_civita_jet(prep, z)
                assert np.array_equal(gamma, geo.levi_civita_at(prep, z))
                stencil = np.moveaxis(jacobian4(lc, geo.z_to_u(z), h=1e-4), -1, 0)
                scale = max(1.0, float(np.max(np.abs(stencil))))
                assert np.max(np.abs(dgamma - stencil)) <= 1e-8 * scale


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

    def test_near_boundary_gets_residuals(self):
        """A point 1e-7 from cubic's boundary, where a stencil of step 1e-5
        would leave the domain, gets residuals: the jets evaluate nothing
        off the point."""
        rep = geo.check_equations(Cubic(), [0.5 + 1e-7j], tol=1e-5, h=1e-5)
        assert set(rep.residuals) == {
            "e2", "e3", "e5", "e6", "e8", "e9", "dbarA", "flatness",
        }
        assert all(np.isfinite(v) for v in rep.residuals.values())

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_rejects_nonpositive_step(self, h):
        with pytest.raises(ValueError):
            geo.check_equations(Cubic(), [1j], h=h)

    @pytest.mark.parametrize(
        "prep,seed",
        [(Cubic(), 3), (SWLog(), 5), (Coupled(), 7), (Quadratic(n=3), 9)],
        ids=("cubic", "swlog", "coupled", "quadratic3"),
    )
    def test_matches_stencil_reference(self, prep, seed):
        """The analytic suite and the central-difference reference both pass
        on the same points, and the analytic stacks of A and nabla - D match
        the stencil stacks within its truncation."""
        for z in entry_points(prep, 3, seed=seed):
            ref, stacks = stencil_equation_suite(prep, z, h=1e-5)
            rep = geo.check_equations(prep, z, tol=1e-5, h=1e-5)
            assert rep.passed, rep.failing()
            assert all(v < 1e-5 for v in ref.values()), ref
            assert set(rep.residuals) == set(ref)
            d_lc = geo.levi_civita_jet(prep, z)[1]
            d_ar = geo.flat_connection_jet(prep, z)[1] - d_lc
            for analytic, stencil in ((d_lc, stacks["lc"]), (d_ar, stacks["ar"]),
                                      (geo._higgs_part(d_ar), stacks["a"])):
                scale = max(1.0, float(np.max(np.abs(stencil))))
                assert np.max(np.abs(analytic - stencil)) <= 1e-7 * scale


# the base points of acceptance criteria 2 and 4, and cubic points nearer
# its boundary than the sampler's margin
def _suite_points():
    for prep in (Cubic(), SWLog()):
        for z in geo.sample_points(prep, 64, seed=2):
            yield prep, z
    for prep in (Cubic(), SWLog(), Coupled()):
        for pt in hk.sample_cotangent_points(prep, 64, seed=4):
            yield prep, pt.z
    for z in (0.5 + 1e-7j, 0.3 + 1e-4j, 1e-3 + 0.5j):
        yield Cubic(), np.array([z])


def test_conjugate_half_equals_long_way():
    """e3, e6, e8 and e9 read off the A half equal, bit for bit, the suite
    that computes every Abar term from Abar on the same analytic stacks."""
    count = 0
    for prep, z in _suite_points():
        gamma_d, d_lc = geo.levi_civita_jet(prep, z)
        gamma_f, d_flat = geo.flat_connection_jet(prep, z)
        d_ar = d_flat - d_lc
        ref = long_way_suite(gamma_d, gamma_f - gamma_d, d_lc, d_ar, geo._higgs_part(d_ar))
        assert geo.check_equations(prep, z).residuals == ref, (prep.name, z)
        count += 1
    assert count == 323


def test_equation_suite_call_counts(monkeypatch):
    """One point of the suite makes 3 projections, 2 covariant exterior
    derivatives and 3 wedges."""
    counts = {}
    for name in ("_project_form_slots", "_covariant_ext", "_wedge"):
        def counted(*args, _name=name, _fn=getattr(geo, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(geo, name, counted)
    geo.check_equations(Coupled(), entry_points(Coupled(), 1, seed=19)[0])
    assert counts == {"_project_form_slots": 3, "_covariant_ext": 2, "_wedge": 3}


def _central_stack(fn, u, h):
    """dF[d, ...] = central difference of fn along the chart direction d;
    fn may be complex-valued."""
    out = []
    for d in range(u.size):
        e = np.zeros_like(u)
        e[d] = h
        out.append((fn(u + e) - fn(u - e)) / (2.0 * h))
    return np.stack(out)


def stencil_equation_suite(prep, z, h):
    """The equation suite with central differences of step h over the
    Levi-Civita connection, nabla - D and A, each rebuilt at the 4n stencil
    points: the reference for the analytic jets.  Returns the residuals
    and the stacks {"lc", "ar", "a"}."""
    u = geo.z_to_u(z)

    def field(build):
        def fn(v):
            zz = geo.u_to_z(v)
            prep.require_domain(zz)
            return build(zz)
        return fn

    lc_fn = field(lambda zz: geo.levi_civita_at(prep, zz))
    ar_fn = field(lambda zz: geo.flat_connection_at(prep, zz) - geo.levi_civita_at(prep, zz))
    a_fn = field(lambda zz: geo.higgs_at(prep, zz)[0])
    stacks = {key: _central_stack(fn, u, h)
              for key, fn in (("lc", lc_fn), ("ar", ar_fn), ("a", a_fn))}
    residuals = long_way_suite(lc_fn(u), ar_fn(u), stacks["lc"], stacks["ar"], stacks["a"])
    return residuals, stacks


def long_way_suite(gamma_d, ar, d_lc, d_ar, d_a):
    """The equation suite with every Abar term computed from Abar itself:
    Abar's own covariant derivative, six projections and the wedges A^Abar
    and Abar^A, from the Levi-Civita Christoffels gamma_d, those of
    nabla - D (ar) and the stacks of both and of A."""
    a = geo._higgs_part(ar)
    abar = np.conj(a)
    r_d = geo._curvature(gamma_d, d_lc)
    dd_a = geo._covariant_ext(a, d_a, gamma_d)
    dd_abar = geo._covariant_ext(abar, np.conj(d_a), gamma_d)
    dd_ar = geo._covariant_ext(ar, d_ar, gamma_d)
    p10, p01 = geo.type_projectors(len(ar) // 2)
    proj, wedge = geo._project_form_slots, geo._wedge

    def sup(t):
        return float(np.max(np.abs(t)))

    residuals = {
        "e2": sup(proj(dd_a + wedge(a, a), p10, p10)),
        "e3": sup(proj(dd_abar + wedge(abar, abar), p01, p01)),
        "e5": sup(proj(dd_a, p10, p10)),
        "e6": sup(proj(dd_abar, p01, p01)),
        "e8": sup(proj(dd_abar, p10, p01)),
        "e9": sup(r_d.astype(complex) + wedge(a, abar) + wedge(abar, a)),
        "dbarA": sup(proj(dd_a, p01, p10)),
        "flatness": sup(r_d + dd_ar + wedge(ar, ar)),
    }
    return residuals


def _acceptance_points():
    """(entry, base point) of acceptance criteria 1 to 4 and 8."""
    for z in geo.sample_points(Quadratic(), 64, seed=1):
        yield Quadratic(), z
    for prep in (Cubic(), SWLog()):
        for z in geo.sample_points(prep, 64, seed=2):
            yield prep, z
    for prep in ENTRIES:
        for z in geo.sample_points(prep, 64, seed=3):
            yield prep, z
    for prep in (Cubic(), SWLog(), Coupled()):
        for seed, count in ((4, 64), (8, 16)):
            for pt in hk.sample_cotangent_points(prep, count, seed=seed):
                yield prep, pt.z


class TestKahlerPotential:
    def test_stencil_error_near_boundary(self):
        """A point closer to the boundary than the potential stencil
        reaches: leaving the domain is a StencilError, not a traceback."""
        with pytest.raises(geo.StencilError):
            geo.kahler_potential_residual(Cubic(), [0.3 + 1e-4j])

    def test_rounding_level_on_acceptance_and_sweep_points(self):
        """The Cauchy integrals hold the check at most 1e-11 on the
        acceptance points and on the seed 1-3 sweep points of every catalog
        entry (second differences floored near 1e-7)."""
        points = list(_acceptance_points())
        for prep in (Cubic(), SWLog(), Coupled(), Quadratic(n=3)):
            for seed in (1, 2, 3):
                points += [(prep, z) for z in geo.sample_points(prep, 32, seed=seed)]
        for prep, z in points:
            assert geo.kahler_potential_residual(prep, z) <= 1e-11, (prep.name, z)

    @pytest.mark.parametrize("lam", [2.0**k for k in range(-40, 41, 10)] + [1e150, 1e-150])
    def test_rounding_level_at_every_scale(self, lam):
        """The radius scales with |lambda|, so swlog(lambda) holds the same
        bound from 2^-40 to 2^40 and at 1e+-150."""
        prep = SWLog(lam)
        for seed in (1, 2, 3):
            for z in geo.sample_points(prep, 16, seed=seed):
                assert geo.kahler_potential_residual(prep, z) <= 1e-11, (lam, z)

    @pytest.mark.parametrize("k", [-40, -3, 2, 10, 40])
    def test_exact_rescaling_oracle(self, k):
        """swlog(2^k) is swlog(1) pulled back by z -> z / 2^k, which is exact
        in binary, and so is every node of the check: the residual at
        (swlog(2^k), 2^k w) is the one at (swlog(1), w), bit for bit."""
        one, scaled = SWLog(1.0), SWLog(2.0**k)
        points = geo.sample_points(one, 16, seed=1)
        values = [geo.kahler_potential_residual(one, z) for z in points]
        assert values == [geo.kahler_potential_residual(scaled, 2.0**k * z) for z in points]
        assert max(values) > 0.0

    @pytest.mark.parametrize("prep", [Cubic(), SWLog(), Coupled()], ids=lambda p: p.name)
    def test_every_node_is_domain_checked(self, prep, monkeypatch):
        """Four nodes per coordinate, each read once after its domain
        check."""
        z = entry_points(prep, 1)[0]
        calls = []

        def recorded(name):
            method = getattr(prep, name)

            def call(zz):
                calls.append((name, tuple(zz)))
                return method(zz)

            return call

        for name in ("require_domain", "grad"):
            monkeypatch.setattr(prep, name, recorded(name))
        geo.kahler_potential_residual(prep, z)
        nodes = [zz for name, zz in calls if name == "require_domain"]
        assert len(set(nodes)) == 4 * prep.n
        assert calls == [(name, zz) for zz in nodes for name in ("require_domain", "grad")]


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
        """tau-symmetry is a hard check, not a residual: the report has no
        re_Omega key, and a provider whose tau is not exactly symmetric is
        refused."""
        prep = Coupled()
        for z in entry_points(prep, 8, seed=23):
            rep = geo.check_special_conditions(prep, z, tol=1e-5)
            assert "re_Omega" not in rep.residuals
            assert rep.passed

        class SkewCoupled(Coupled):
            def hess(self, z):
                tau = super().hess(z)
                tau[0, 1] += 1e-12
                return tau

        with pytest.raises(ValueError, match="non-symmetric tau"):
            geo.check_special_conditions(SkewCoupled(), entry_points(prep, 1, seed=23)[0])


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
            for z in geo.sample_points(prep, 10, seed=5, h=1e-3):
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
            geo.sample_points(prep, 3, seed=1)


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

    @pytest.mark.parametrize("call", [
        geo.flat_omega_residual, geo.point_data,
        lambda prep, z: vhs_from_special_kahler(prep, [z]),
        lambda prep, z: hk.tangent_split_at(
            prep, hk.CotangentPoint(z=np.array(z), alpha=np.zeros(2))),
        geo.levi_civita_at, geo.levi_civita_jet, geo.lc_holomorphic,
    ], ids=("flat_omega_residual", "point_data", "vhs_from_special_kahler",
            "tangent_split_at", "levi_civita_at", "levi_civita_jet", "lc_holomorphic"))
    def test_domain_checked_before_metric(self, call):
        """Cubic at -1j is outside the domain and metric-degenerate; every
        call checks the domain first."""
        from specialk.prepotentials import DomainError

        with pytest.raises(DomainError):
            call(Cubic(), [-1j])

    @pytest.mark.parametrize("call", [geo.levi_civita_at, geo.levi_civita_jet,
                                      geo.lc_holomorphic], ids=lambda f: f.__name__)
    def test_levi_civita_takes_a_record(self, call):
        """Each Levi-Civita function reads the checked record of the point,
        so handed one in place of z it gives the raw-z value, bit for bit."""
        for prep in ENTRIES:
            for z in entry_points(prep, 4, seed=29):
                raw, got = (call(prep, w) for w in (z, geo._point(prep, z)))
                pairs = zip(raw, got) if isinstance(raw, tuple) else [(raw, got)]
                assert all(a.tobytes() == b.tobytes() for a, b in pairs)

    def test_vhs_holomorphy_zero_for_all_entries(self):
        for prep in ENTRIES:
            z = entry_points(prep, 1, seed=27)[0]
            assert geo.vhs_holomorphy_residual(prep, z) < 1e-10


JET_METHODS = ("hess", "third", "fourth", "grad", "in_domain")
ONE_READ_CALLS = {
    "check_equations": lambda prep, z, pt: geo.check_equations(prep, z),
    "check_special_conditions": lambda prep, z, pt: geo.check_special_conditions(prep, z),
    "flat_omega_residual": lambda prep, z, pt: geo.flat_omega_residual(prep, z),
    "flat_structure_certificate": lambda prep, z, pt: geo.flat_structure_certificate(prep, z),
    "higgs_at": lambda prep, z, pt: geo.higgs_at(prep, z),
    "point_data": lambda prep, z, pt: geo.point_data(prep, z),
    "tangent_split_at": lambda prep, z, pt: hk.tangent_split_at(prep, pt),
    "structure_derivative_stacks": lambda prep, z, pt: hk.structure_derivative_stacks(prep, pt),
    "correspondence_check": lambda prep, z, pt: hk.correspondence_check(prep, pt),
    "vhs_from_special_kahler": lambda prep, z, pt: vhs_from_special_kahler(prep, [z]),
    "levi_civita_at": lambda prep, z, pt: geo.levi_civita_at(prep, z),
    "levi_civita_jet": lambda prep, z, pt: geo.levi_civita_jet(prep, z),
    "lc_holomorphic": lambda prep, z, pt: geo.lc_holomorphic(prep, z),
    "flat_connection_jet": lambda prep, z, pt: geo.flat_connection_jet(prep, z),
    "nijenhuis_at": lambda prep, z, pt: hk.nijenhuis_at(prep, pt, "J"),
    "kahler_form_closedness": lambda prep, z, pt: hk.kahler_form_closedness(prep, pt),
    "twistor_normal_bundle_at": lambda prep, z, pt: hk.twistor_normal_bundle_at(prep, pt),
}


@pytest.mark.parametrize("call", sorted(ONE_READ_CALLS))
@pytest.mark.parametrize("cls", [Cubic, SWLog], ids=lambda c: c.__name__)
def test_one_call_reads_each_jet_order_once(cls, call, monkeypatch):
    """Every float quantity is a function of the holomorphic jet (tau, C,
    d^4 F) and of w, so one public call reads each of them, and checks the
    domain, at most once."""
    prep = cls()
    z = entry_points(prep, 1, seed=7)[0]
    pt = hk.sample_cotangent_points(prep, 1, seed=7)[0]
    counts = dict.fromkeys(JET_METHODS, 0)
    for name in JET_METHODS:
        method = getattr(cls, name)

        def counted(self, zz, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, zz)

        monkeypatch.setattr(cls, name, counted)
    ONE_READ_CALLS[call](prep, z, pt)
    assert max(counts.values()) == 1, counts


@pytest.mark.parametrize("call", [geo.flat_omega_residual, geo.flat_structure_certificate],
                         ids=lambda f: f.__name__)
def test_flat_chart_residuals_read_tau_alone(call, monkeypatch):
    """A point's record reads C, and builds Gamma_flat, only for a suite
    that asks: the flat-chart residuals read tau alone."""
    prep = Cubic()
    z = entry_points(prep, 1, seed=7)[0]
    reads = []
    for name in ("third", "fourth"):
        monkeypatch.setattr(Cubic, name, lambda self, zz, _name=name: reads.append(_name))
    call(prep, z)
    assert reads == []
