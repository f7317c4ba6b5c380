"""Hyperkahler triple on the cotangent bundle, twistor structures,
integrability residuals and the correspondence with the Hodge route."""

import dataclasses

import numpy as np
import pytest

from specialk import geometry, hyperkahler as hk
from specialk.prepotentials import Coupled, Cubic, Quadratic, SWLog

ENTRIES = [Quadratic(), Cubic(), SWLog(), Coupled()]


def pt_for(prep, seed=1, alpha_scale=1.0):
    return hk.sample_cotangent_points(prep, 1, seed, alpha_scale=alpha_scale)[0]


class TestTangentSplit:
    def test_quadratic_alpha_zero_constant_split(self):
        prep = Quadratic()
        pt = hk.CotangentPoint(z=np.array([0.3 + 0.4j]), alpha=np.zeros(2))
        fr = hk.tangent_split_at(prep, pt)
        assert np.array_equal(fr.s, np.eye(4))
        # identification matrices constant in z
        pt2 = hk.CotangentPoint(z=np.array([-1.0 + 2.0j]), alpha=np.zeros(2))
        fr2 = hk.tangent_split_at(prep, pt2)
        assert np.array_equal(fr.jmat, fr2.jmat)

    def test_dimensions_and_transversality(self):
        for prep in ENTRIES:
            fr = hk.tangent_split_at(prep, pt_for(prep))
            n2 = 2 * prep.n
            horiz = fr.s[:, :n2]
            vert = fr.s[:, n2:]
            assert np.linalg.matrix_rank(np.hstack([horiz, vert])) == 2 * n2

    def test_metric_hermitian_for_all_structures(self):
        prep = Cubic()
        pt = hk.CotangentPoint(z=np.array([1j]), alpha=np.array([1.0, 0.0]))
        fr = hk.tangent_split_at(prep, pt)
        for s in (fr.imat, fr.jmat, fr.kmat):
            assert np.max(np.abs(s.T @ fr.gtm @ s - fr.gtm)) < 1e-9


class TestResiduals:
    """On the flat model frame (quadratic, alpha = 0) every matrix has
    entries 0 and +-1, so the residuals are exact."""

    def model_frame(self):
        pt = hk.CotangentPoint(z=np.array([0.0j]), alpha=np.zeros(2))
        return hk.tangent_split_at(Quadratic(), pt)

    def test_model_frame_is_exact(self):
        fr = self.model_frame()
        assert hk.quaternion_residual(fr) == 0.0
        assert hk.orthogonality_residual(fr) == 0.0

    def test_quaternion_residual_sees_commuting_pair(self):
        # J = I: I^2 = J^2 = -1 still hold, but IJ + JI = -2 and K = -1
        fr = self.model_frame()
        bad = dataclasses.replace(fr, jmat=fr.imat, kmat=fr.imat @ fr.imat)
        assert hk.quaternion_residual(bad) == 2.0

    def test_orthogonality_residual_sees_non_invariant_metric(self):
        # I swaps the first two coordinates up to sign, so I^T G I moves
        # the 2 to the second diagonal entry
        fr = self.model_frame()
        bad = dataclasses.replace(fr, gtm=np.diag([2.0, 1.0, 1.0, 1.0]))
        assert hk.orthogonality_residual(bad) == 1.0


class TestJ:
    def test_model_matrix_on_flat_entry(self):
        """For tau = i and alpha = 0 the frame is trivial and J is the
        block form of J(v, wbar) = (-w, vbar)."""
        prep = Quadratic()
        pt = hk.CotangentPoint(z=np.array([0.0j]), alpha=np.zeros(2))
        j = hk.J_at(prep, pt)
        expect = np.zeros((4, 4))
        expect[:2, 2:] = -np.eye(2)
        expect[2:, :2] = np.eye(2)
        assert np.array_equal(j, expect)

    def test_quadratic_j_constant_over_cotangent(self):
        prep = Quadratic()
        pt = pt_for(prep, seed=3)
        _, (d_i, d_j, d_k) = hk.structure_derivative_stacks(prep, pt)
        assert np.max(np.abs(d_i)) < 1e-10
        assert np.max(np.abs(d_j)) < 1e-10
        assert np.max(np.abs(d_k)) < 1e-10

    def test_anticommutation_cubic(self):
        prep = Cubic()
        fr = hk.tangent_split_at(prep, pt_for(prep, seed=5))
        assert np.max(np.abs(fr.imat @ fr.jmat + fr.jmat @ fr.imat)) < 1e-12

    def test_quaternion_relations_everywhere(self):
        for prep in ENTRIES:
            for seed in (1, 2):
                fr = hk.tangent_split_at(prep, pt_for(prep, seed=seed))
                assert hk.quaternion_residual(fr) < 1e-12


class TestNijenhuis:
    def test_quadratic_all_structures(self):
        prep = Quadratic()
        pt = pt_for(prep, seed=7)
        for s in ("I", "J", "K", 0.3 + 0.8j):
            assert hk.nijenhuis_at(prep, pt, s) < 1e-10

    def test_cubic_j(self):
        prep = Cubic()
        pt = hk.CotangentPoint(z=np.array([1j]), alpha=np.array([0.5, -0.2]))
        assert hk.nijenhuis_at(prep, pt, "J", h=1e-4) < 1e-4

    def test_generic_twistor_structure(self):
        prep = Cubic()
        pt = hk.CotangentPoint(z=np.array([1j]), alpha=np.array([0.5, -0.2]))
        zeta = (1 + 1j) / np.sqrt(3)
        assert hk.nijenhuis_at(prep, pt, zeta, h=1e-4) < 1e-4

    def test_all_entries_sampled(self):
        for prep in ENTRIES:
            pt = pt_for(prep, seed=9)
            stacks = hk.structure_derivative_stacks(prep, pt, h=1e-4)
            for s in ("I", "J", "K", -0.7 + 0.2j):
                assert hk.nijenhuis_at(prep, pt, s, _stacks=stacks) < 1e-4

    def test_rejects_unknown_structure_name(self):
        with pytest.raises(ValueError):
            hk.nijenhuis_at(Quadratic(), pt_for(Quadratic()), "Q")


class TestTwistorSphere:
    def test_convention_anchors(self):
        prep = Cubic()
        pt = pt_for(prep, seed=11)
        fr = hk.tangent_split_at(prep, pt)
        assert np.allclose(hk.twistor_structure_at(prep, pt, 0.0), fr.imat)
        assert np.allclose(hk.twistor_structure_at(prep, pt, 1.0), fr.jmat)
        assert np.allclose(hk.twistor_structure_at(prep, pt, 1j), fr.kmat)
        assert np.allclose(hk.twistor_structure_at(prep, pt, float("inf")), -fr.imat)

    def test_random_zeta_structures(self):
        prep = Coupled()
        pt = pt_for(prep, seed=13)
        fr = hk.tangent_split_at(prep, pt)
        rng = np.random.default_rng(0)
        for _ in range(8):
            zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a, b, c = hk.zeta_to_sphere(zeta)
            assert abs(a * a + b * b + c * c - 1.0) < 1e-12
            izeta = hk.twistor_structure_at(prep, pt, zeta)
            assert np.max(np.abs(izeta @ izeta + np.eye(izeta.shape[0]))) < 1e-12
            assert np.max(np.abs(izeta.T @ fr.gtm @ izeta - fr.gtm)) < 1e-9


class TestKahlerForms:
    def test_closedness(self):
        for prep in (Cubic(), SWLog(), Coupled()):
            pt = pt_for(prep, seed=15)
            res = hk.kahler_form_closedness(prep, pt, h=1e-4)
            assert max(res.values()) < 1e-4

    def test_omega_j_is_canonical_symplectic_form(self):
        """gTM(J., .) is the canonical cotangent symplectic form in
        coordinates, exactly."""
        prep = Cubic()
        pt = pt_for(prep, seed=17)
        fr = hk.tangent_split_at(prep, pt)
        omega_j = fr.jmat.T @ fr.gtm
        n2 = 2 * prep.n
        expect = np.zeros((2 * n2, 2 * n2))
        expect[:n2, n2:] = np.eye(n2)
        expect[n2:, :n2] = -np.eye(n2)
        assert np.max(np.abs(omega_j - expect)) < 1e-12


class TestNormalBundle:
    @pytest.mark.parametrize(
        "prep", [Quadratic(), Cubic(), Coupled()], ids=lambda p: p.name
    )
    def test_splitting_is_all_ones(self, prep):
        pt = pt_for(prep, seed=19)
        st = hk.twistor_normal_bundle_at(prep, pt)
        assert st.degrees == (1,) * (2 * prep.n)

    def test_rationalization_guard(self):
        prep = Cubic()
        pt = pt_for(prep, seed=21)
        with pytest.raises(hk.RationalizationError):
            hk.twistor_normal_bundle_at(prep, pt, max_denominator=3, max_error=1e-12)


class TestCorrespondence:
    def test_quadratic_tight(self):
        prep = Quadratic()
        assert hk.correspondence_check(prep, pt_for(prep, seed=23)) < 1e-12

    @pytest.mark.parametrize("prep", [Cubic(), SWLog()], ids=lambda p: p.name)
    def test_curved_entries(self, prep):
        for pt in hk.sample_cotangent_points(prep, 4, seed=25):
            assert hk.correspondence_check(prep, pt) < 1e-9


def test_cotangent_point_coords_round_trip():
    pt = hk.CotangentPoint(z=np.array([0.5 + 2.0j]), alpha=np.array([1.0, -3.0]))
    back = hk.CotangentPoint.from_coords(pt.coords)
    assert np.array_equal(back.z, pt.z)
    assert np.array_equal(back.alpha, pt.alpha)
