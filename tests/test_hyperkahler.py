"""Hyperkahler triple on the cotangent bundle, twistor structures,
integrability residuals and the correspondence with the Hodge route."""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from randgen import properties, quaternionic_pair, standard_quaternionic
from test_geometry import count_metric_reads
from test_mutations import negate_g, zero_last_diagonal

from specialk import fd, geometry, hodge, hyperkahler as hk, rees
from specialk.cli import main as cli_main
from specialk.exact import ExactMatrix, rationalize_matrix, std_complex_structure
from specialk.hodge import QuaternionicStructure
from specialk.prepotentials import Coupled, Cubic, Quadratic, SWLog
from specialk.utils import XorShift

ENTRIES = [Quadratic(), Cubic(), SWLog(), Coupled()]


def pt_for(prep, seed=1):
    return hk.sample_cotangent_points(prep, 1, seed)[0]


def exact_frame_pair(g):
    """The exact pair of a cotangent point in the (horizontal, vertical)
    frame, for the n x n ExactMatrix G = Im tau:
    I = blockdiag(I_base, I_base^T) with I_base = -std_complex_structure(n),
    J = [[0, -g^{-1}], [g, 0]] with g = blockdiag(G, G)."""
    n = g.rows
    zero_n, zero = ExactMatrix.zeros(n, n), ExactMatrix.zeros(2 * n, 2 * n)
    ibase = -std_complex_structure(n)
    g2 = ExactMatrix.blocks([[g, zero_n], [zero_n, g]])
    return QuaternionicStructure(ExactMatrix.blocks([[ibase, zero], [zero, ibase.T]]),
                                 ExactMatrix.blocks([[zero, -g2.inverse()], [g2, zero]]))


@st.composite
def rational_g(draw):
    """An n x n rational G, n = 1..3, with entries in [-4, 4] and
    denominators at most 5, either symmetric (as Im tau is) or not."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.fractions(-4, 4, max_denominator=5), min_size=n, max_size=n)
    g = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return g


def rees_splitting(qs):
    """Splitting type of the Rees bundle of the weight-1 structure of a
    quaternionic pair."""
    chart = hodge.hodge_from_quaternionic(qs)
    filt = hodge.hodge_to_filtration(chart.hodge)
    return rees.splitting_type(rees.ReesBundle(filt, filt.conjugate(chart.hodge.real_structure)))


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

    @pytest.mark.parametrize("call", [hk.structure_derivative_stacks, hk.correspondence_check],
                             ids=lambda f: f.__name__)
    def test_one_metric_inverse_per_point(self, call, monkeypatch):
        """The frame keeps g^-1; the derivative stacks and the
        correspondence check use it instead of inverting g again."""
        prep = Coupled()
        pt = pt_for(prep)
        fr = hk.tangent_split_at(prep, pt)
        assert np.array_equal(fr.g_inv, np.linalg.inv(fr.g_real))
        inv = np.linalg.inv
        of_g = []

        def counted(a):
            of_g.append(np.array_equal(a, fr.g_real))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        call(prep, pt)
        assert sum(of_g) == 1


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

    def test_ijk_is_k_squared(self):
        """K is built as IJ, so (IJ)K is K K bit for bit: the IJK = -1
        defect is the K^2 = -1 defect and is not formed separately."""
        for prep in ENTRIES:
            for pt in hk.sample_cotangent_points(prep, 25, seed=13):
                fr = hk.tangent_split_at(prep, pt)
                assert np.array_equal(fr.imat @ fr.jmat @ fr.kmat, fr.kmat @ fr.kmat)

    def test_quaternion_residual_sees_commuting_pair(self):
        # J = I: I^2 = J^2 = -1 still hold, but IJ + JI = -2 and K = -1
        fr = self.model_frame()
        bad = SimpleNamespace(imat=fr.imat, jmat=fr.imat, kmat=fr.imat @ fr.imat)
        assert hk.quaternion_residual(bad) == 2.0

    def test_orthogonality_residual_sees_non_invariant_metric(self):
        # I swaps the first two coordinates up to sign, so I^T G I moves
        # the 2 to the second diagonal entry
        fr = self.model_frame()
        bad = SimpleNamespace(imat=fr.imat, jmat=fr.jmat, kmat=fr.kmat,
                              gtm=np.diag([2.0, 1.0, 1.0, 1.0]))
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
        _, (d_i, d_j, d_k, d_gtm) = hk.structure_derivative_stacks(prep, pt)
        assert np.max(np.abs(d_i)) < 1e-10
        assert np.max(np.abs(d_j)) < 1e-10
        assert np.max(np.abs(d_k)) < 1e-10
        assert np.max(np.abs(d_gtm)) < 1e-10

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


def nijenhuis_einsum(s, ds):
    """The three-einsum form of the Nijenhuis residual, kept as the
    oracle: N[c, a, b] = t1[c, a, b] - t1[c, b, a] + t3[c, a, b] - t4[c, a, b]."""
    t1 = np.einsum("da,dcb->cab", s, ds)
    t3 = np.einsum("cd,bda->cab", s, ds)
    t4 = np.einsum("cd,adb->cab", s, ds)
    return float(np.max(np.abs(t1 - t1.transpose(0, 2, 1) + t3 - t4)))


def nijenhuis_rounding_bound(s, ds):
    """Largest gap two evaluations of the residual can show in any order of
    summation.  Each of the four terms of an entry is a length-m dot
    product of size at most m sup|S| sup|dS|, rounded within
    1.01 m eps times that; the three additions add 12 eps m sup|S| sup|dS|.
    The gap is at most the sum of both evaluations' errors."""
    m = len(s)
    eps = np.finfo(float).eps
    size = m * float(np.max(np.abs(s))) * float(np.max(np.abs(ds)))
    return 2 * (4 * 1.01 * m + 12) * eps * size


class TestNijenhuisOracle:
    """The two-product residual against the three-einsum formula, within
    the rounding bound, on criterion 4's points, on quadratic(n=3) and
    quadratic(n=6) points, and on random stacks of those sizes (quadratic's
    stacks are 0, where both forms read 0 exactly)."""

    @pytest.mark.parametrize(
        "prep", [Cubic(), SWLog(), Coupled(), Quadratic(n=3), Quadratic(n=6)],
        ids=lambda p: f"{p.name}{p.n}",
    )
    def test_agrees_with_einsum_form(self, prep):
        rng = XorShift(44)
        zetas = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
        count = 64 if prep.n < 3 else 4
        for pt in hk.sample_cotangent_points(prep, count, seed=4):
            fr, (d_i, d_j, d_k, _) = hk.structure_derivative_stacks(prep, pt)
            pairs = [(fr.imat, d_i), (fr.jmat, d_j), (fr.kmat, d_k)]
            for zeta in zetas:
                a, b, c = hk.zeta_to_sphere(zeta)
                pairs.append((a * fr.imat + b * fr.jmat + c * fr.kmat, a * d_i + b * d_j + c * d_k))
            for s, ds in pairs:
                new, old = hk._nijenhuis_from(s, ds), nijenhuis_einsum(s, ds)
                assert abs(new - old) <= nijenhuis_rounding_bound(s, ds), (new, old)

    @pytest.mark.parametrize("m", [4, 8, 12, 24])
    def test_agrees_on_random_stacks(self, m):
        gen = np.random.default_rng(m)
        for _ in range(4):
            s = gen.standard_normal((m, m))
            ds = gen.standard_normal((m, m, m))
            new, old = hk._nijenhuis_from(s, ds), nijenhuis_einsum(s, ds)
            assert new > 1.0
            assert abs(new - old) <= nijenhuis_rounding_bound(s, ds)


class TestAnalyticStacks:
    """The chain-rule stacks against the fourth-order stencil as the
    reference, on criterion 4's points."""

    @pytest.mark.parametrize(
        "prep", [Cubic(), SWLog(), Coupled(), Quadratic(n=2)], ids=lambda p: f"{p.name}{p.n}"
    )
    def test_match_stencil_and_residuals_at_rounding(self, prep):
        rng = XorShift(44)
        zetas = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]

        def frame_fields(t):
            fr = hk.tangent_split_at(prep, hk.CotangentPoint.from_coords(t))
            return np.stack([fr.imat, fr.jmat, fr.kmat, fr.gtm])

        for pt in hk.sample_cotangent_points(prep, 64, seed=4):
            _, stacks = hk.structure_derivative_stacks(prep, pt)
            analytic = np.stack(stacks)
            stencil = np.moveaxis(fd.jacobian4(frame_fields, pt.coords, h=1e-4), -1, 1)
            scale = max(1.0, float(np.max(np.abs(stencil))))
            assert np.max(np.abs(analytic - stencil)) <= 1e-8 * scale
            shared = hk.structure_derivative_stacks(prep, pt)
            for s in ("I", "J", "K", *zetas):
                assert hk.nijenhuis_at(prep, pt, s, _stacks=shared) <= 1e-10
            closed = hk.kahler_form_closedness(prep, pt)
            assert max(closed.values()) <= 1e-10
            # one jet serves both suites: the shared stacks give the same bits
            assert hk.kahler_form_closedness(prep, pt, _stacks=shared) == closed


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

    @pytest.mark.parametrize("prep", [Cubic(), SWLog(), Coupled(), Quadratic(n=3)],
                             ids=lambda p: p.name)
    def test_frame_pair_matches_coordinate_pair(self, prep):
        """On the criterion-8 points the exact frame-basis pair and the
        coordinate pair S I S^-1, S J S^-1 (S rationalized as well) have
        the same Rees splitting type, and the frame pair's chart search
        returns the model structure.  The flat quadratic entry has S = 1,
        so there the two pairs coincide."""
        model = hodge._chart_hodge_structure(prep.n)
        for pt in hk.sample_cotangent_points(prep, 16, seed=8):
            g = rationalize_matrix(geometry.metric_at(prep, pt.z).imtau)[0]
            frame_pair = exact_frame_pair(g)
            assert hodge.hodge_from_quaternionic(frame_pair).hodge is model
            s = rationalize_matrix(hk._frame_blocks(prep, pt).s.astype(complex))[0]
            s_inv = s.inverse()
            coord_pair = QuaternionicStructure(
                s @ frame_pair.imat @ s_inv, s @ frame_pair.jmat @ s_inv
            )
            assert (coord_pair.jmat == frame_pair.jmat) == (s == ExactMatrix.identity(s.rows))
            frame, coord = (rees_splitting(q) for q in (frame_pair, coord_pair))
            assert frame == coord == rees.SplittingType((1,) * (2 * prep.n))
            assert hk.twistor_normal_bundle_at(prep, pt) == frame

    @properties
    @given(rational_g())
    @example([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])     # definite
    @example([[Fraction(-2), Fraction(1)], [Fraction(1), Fraction(-2)]])   # negative: -G
    @example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])     # indefinite
    @example([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])     # singular
    def test_every_invertible_g_gives_an_accepted_pair(self, g):
        """What twistor_normal_bundle_at rests on instead of building the
        pair: for every invertible rational G, definite or not, the frame
        pair constructs and charts to the model of the size, so the pair
        cannot tell a positive G from any other.  A singular G is refused
        by the exact inverse."""
        g = ExactMatrix(g)
        if g.rank() < g.rows:
            with pytest.raises(ZeroDivisionError):
                exact_frame_pair(g)
            return
        qs = exact_frame_pair(g)
        assert hodge.hodge_from_quaternionic(qs).hodge is hodge._chart_hodge_structure(g.rows)

    @properties
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 12]))
    def test_accepted_pair_always_charts_to_the_model(self, seed, n4):
        """What twistor_normal_bundle_at rests on: for every pair the
        constructor accepts, the chart search succeeds and its structure is
        the model of the size, whose splitting _chart_splitting holds."""
        qs = quaternionic_pair(XorShift(seed), n4)
        assert hodge.hodge_from_quaternionic(qs).hodge is hodge._chart_hodge_structure(n4 // 4)

    def test_sweep_checks_positivity_at_every_point(self, monkeypatch, capsys):
        """The splitting is shared per n, but every point decides the
        leading minors of its own rationalized Im tau, and builds no
        exact pair."""
        decided, built = [], []
        minors = hk.leading_minors_positive
        init = QuaternionicStructure.__init__

        def counted_minors(g):
            decided.append(g.rows)
            return minors(g)

        def counted_init(self, imat, jmat):
            built.append(imat.rows)
            init(self, imat, jmat)

        monkeypatch.setattr(hk, "leading_minors_positive", counted_minors)
        monkeypatch.setattr(QuaternionicStructure, "__init__", counted_init)
        assert cli_main(["twistor", "normal-bundle", "--entry", "coupled", "--points", "5"]) == 0
        capsys.readouterr()
        assert decided == [2] * 5
        assert built == []

    @pytest.mark.parametrize("prep", [Cubic(), Coupled()], ids=lambda p: p.name)
    @pytest.mark.parametrize("mutant", [negate_g, zero_last_diagonal],
                             ids=lambda f: f.__name__)
    def test_nonpositive_metric_fails_the_point(self, prep, mutant, monkeypatch):
        """A bridge that returns -G, or G with its last diagonal entry 0,
        hands the point a G that is not positive definite, and the point
        raises instead of reading the shared splitting.  The frame pair of
        -G is accepted, so the pair alone would pass it."""
        pt = pt_for(prep, seed=19)
        assert hk.twistor_normal_bundle_at(prep, pt).degrees == (1,) * (2 * prep.n)
        mutant(monkeypatch)
        with pytest.raises(geometry.MetricDegenerateError, match="metric degenerate at point"):
            hk.twistor_normal_bundle_at(prep, pt)

    def test_sweep_reads_tau_once_and_builds_no_chart(self, monkeypatch, capsys):
        """Each twistor point reads Im tau off its base record: one tau read
        and one Cholesky, and no flat-chart SVD (cubic, whose domain test
        reads no tau)."""
        counts = count_metric_reads(monkeypatch)
        assert cli_main(["twistor", "normal-bundle", "--entry", "cubic", "--points", "5"]) == 0
        capsys.readouterr()
        assert counts == {"hess": 5, "cholesky": 5, "svd": 0}

    def test_point_holds_at_every_lambda_scale(self, capsys):
        """swlog(lambda) for lambda = 2^k e^(i theta), k = -1023..1013 in
        steps of 37: Im tau is rationalized and decided at every scale the
        float range holds, with exit 0, the model splitting and nothing
        on stderr."""
        for k in range(-1023, 1014, 37):
            for theta in (0.0, 0.5, 1.5, 3.0, -2.0):
                lam = complex(math.ldexp(math.cos(theta), k), math.ldexp(math.sin(theta), k))
                entry = f"swlog(lambda={lam.real!r}{lam.imag:+}i)"
                argv = ["twistor", "normal-bundle", "--entry", entry, "--points", "1"]
                assert cli_main(argv) == 0, entry
                out, err = capsys.readouterr()
                assert err == ""
                assert json.loads(out)["samples"][0]["splitting"] == [1, 1], entry


class TestSharedConstants:
    """The n-only exact constant of the twistor check is built once per n
    and equals the route it replaces."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chart_splitting_is_the_full_route(self, k):
        got = hk._chart_splitting(k)
        assert hk._chart_splitting(k) is got
        assert got == rees_splitting(standard_quaternionic(4 * k))
        assert got.degrees == (1,) * (2 * k)


def correspondence_from_full_frame(prep, pt):
    """The correspondence formula written out on the frame record that
    tangent_split_at returns."""
    fr = hk.tangent_split_at(prep, pt)
    p10, p01 = geometry.type_projectors(prep.n)
    chi = np.hstack([p10, p01 @ fr.g_inv]) @ fr.s_inv
    chi_real = np.vstack([chi.real, chi.imag])
    j_via_hodge = np.linalg.inv(chi_real) @ hk._tangent_hodge_j(prep.n) @ chi_real
    return float(np.max(np.abs(fr.jmat - j_via_hodge)))


class TestCorrespondence:
    @pytest.mark.parametrize("prep", [Cubic(), SWLog(), Coupled()], ids=lambda p: p.name)
    def test_equals_full_frame_formula(self, prep):
        """On the criterion-8 points, bit for bit."""
        for pt in hk.sample_cotangent_points(prep, 16, seed=8):
            assert hk.correspondence_check(prep, pt) == correspondence_from_full_frame(prep, pt)

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
