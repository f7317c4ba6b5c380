"""Hodge structures, polarizations, the quaternionic correspondence and
the pointwise special Kahler variation."""

import numpy as np
import pytest

from randgen import (
    matrix,
    polarized_weight1,
    quaternionic_pair,
    standard_quaternionic,
    weight1_structure,
)
from specialk.exact import ExactComplex, ExactMatrix, Subspace, std_complex_structure
from specialk.hodge import (
    Filtration,
    HodgeStructure,
    NotPureError,
    Polarization,
    QuaternionicStructure,
    RealStructure,
    check_polarization,
    filtration_to_hodge,
    hodge_from_quaternionic,
    hodge_to_filtration,
    quaternionic_from_hodge,
    tangent_hodge_structure,
    vhs_from_special_kahler,
)
from specialk.prepotentials import Coupled, Cubic, Quadratic, SWLog
from specialk.utils import XorShift


class TestRealStructure:
    def test_conjugation_involutive_antilinear(self):
        r = RealStructure.conjugation(3)
        vec = [ExactComplex(1, 2), ExactComplex(0, -1), ExactComplex(3)]
        assert r.apply_vec(r.apply_vec(vec)) == tuple(ExactComplex.coerce(v) for v in vec)
        ivec = [ExactComplex(0, 1) * ExactComplex.coerce(v) for v in vec]
        expect = [ExactComplex(0, -1) * w for w in r.apply_vec(vec)]
        assert list(r.apply_vec(ivec)) == expect

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            RealStructure(ExactMatrix.identity(4).scale(ExactComplex(2)))

    def test_rejects_linear_map(self):
        # multiplication by i commutes with itself, so it is not a real structure
        with pytest.raises(ValueError):
            RealStructure(std_complex_structure(2))


class TestFiltration:
    def test_validates_chain(self):
        line = Subspace.span(2, [["1", "0"]])
        other = Subspace.span(2, [["0", "1"]])
        with pytest.raises(ValueError):
            Filtration([line, Subspace.full(2), Subspace.zero(2)])
        with pytest.raises(ValueError):
            Filtration([Subspace.full(2), line, other, Subspace.zero(2)])

    def test_step_clamping_and_length(self):
        line = Subspace.span(2, [["1", "0"]])
        f = Filtration.from_proper_steps(2, [line])
        assert f.length == 2
        assert f.step(-5).is_full()
        assert f.step(0).is_full()
        assert f.step(1) == line
        assert f.step(2).is_zero()
        assert f.step(99).is_zero()
        assert f.graded_dims() == (1, 1)

    def test_json_round_trip(self):
        line = Subspace.span(2, [["1", "i"]])
        f = Filtration.from_proper_steps(2, [line, line])
        assert Filtration.from_json(f.to_json()) == f

    def test_json_rejects_bad_input(self):
        for obj in (
            {"steps": [[["1", "0"]]]},
            {"dim": 2, "steps": []},
            {"dim": 2, "steps": [[["1", "0"]]]},        # first step not full
            {"dim": 2, "steps": [[["1", "0", "0"]]]},   # wrong length
        ):
            with pytest.raises(ValueError):
                Filtration.from_json(obj)


class TestFiltrationToHodge:
    def setup_method(self):
        self.r = RealStructure.conjugation(2)

    def test_transverse_line(self):
        f = Filtration.from_proper_steps(2, [Subspace.span(2, [["1", "i"]])])
        h = filtration_to_hodge(f, f.conjugate(self.r), self.r, 1)
        assert h.component(1, 0) == Subspace.span(2, [["1", "i"]])
        assert h.component(0, 1) == Subspace.span(2, [["1", "-i"]])

    def test_not_pure(self):
        f = Filtration.from_proper_steps(2, [Subspace.span(2, [["1", "0"]])])
        with pytest.raises(NotPureError):
            filtration_to_hodge(f, f.conjugate(self.r), self.r, 1)

    def test_round_trip_via_quaternionic(self):
        rng = XorShift(101)
        for _ in range(5):
            h = weight1_structure(rng, 4)
            f = hodge_to_filtration(h)
            fbar = f.conjugate(h.real_structure)
            h2 = filtration_to_hodge(f, fbar, h.real_structure, 1)
            assert h2.component(1, 0) == h.component(1, 0)
            assert h2.component(0, 1) == h.component(0, 1)

    def test_filtration_hodge_inverse(self):
        rng = XorShift(103)
        for _ in range(10):
            h = weight1_structure(rng, 4)
            f = hodge_to_filtration(h)
            h2 = filtration_to_hodge(f, f.conjugate(h.real_structure), h.real_structure, 1)
            assert hodge_to_filtration(h2) == f

    def test_conjugation_dim_symmetry(self):
        rng = XorShift(107)
        for _ in range(10):
            h = weight1_structure(rng, 6)
            for (r, s), sub in h.components.items():
                assert sub.dim == h.component(s, r).dim


class TestPolarization:
    def q_std(self):
        return Polarization(ExactMatrix([["0", "1"], ["-1", "0"]]), weight=1)

    def test_worked_example(self):
        r = RealStructure.conjugation(2)
        f = Filtration.from_proper_steps(2, [Subspace.span(2, [["1", "i"]])])
        h = filtration_to_hodge(f, f.conjugate(r), r, 1)
        rep = check_polarization(h, self.q_std())
        assert rep.passed
        # direct exact evaluation of the positivity value
        q = self.q_std()
        x = (ExactComplex(1), ExactComplex(0, 1))
        xbar = (ExactComplex(1), ExactComplex(0, -1))
        assert q.pair(x, x) == ExactComplex(0)
        assert ExactComplex(0, 1) * q.pair(x, xbar) == ExactComplex(2)

    def test_sign_flip_fails(self):
        r = RealStructure.conjugation(2)
        f = Filtration.from_proper_steps(2, [Subspace.span(2, [["1", "i"]])])
        h = filtration_to_hodge(f, f.conjugate(r), r, 1)
        qneg = Polarization(ExactMatrix([["0", "-1"], ["1", "0"]]), weight=1)
        rep = check_polarization(h, qneg)
        assert not rep.passed
        assert not all(rep.positivity.values())

    def test_weight_two_diagonal(self):
        r = RealStructure.conjugation(1)
        h = HodgeStructure(2, {(1, 1): Subspace.full(1)}, r)
        q = Polarization(ExactMatrix([["1"]]), weight=2)
        rep = check_polarization(h, q)
        assert rep.passed

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            Polarization(ExactMatrix([["1", "0"], ["0", "1"]]), weight=1)
        with pytest.raises(ValueError):
            Polarization(ExactMatrix([["0", "0"], ["0", "0"]]), weight=0)

    def test_checked_form_cannot_be_replaced(self):
        """check_polarization relies on the constructor's rank check, so a
        polarization cannot swap in a degenerate form afterwards."""
        q = self.q_std()
        with pytest.raises(AttributeError):
            q.q = ExactMatrix.zeros(2, 2)

    def test_basis_invariance(self):
        """The verdict only depends on the subspaces, not the generators
        used to present them."""
        r = RealStructure.conjugation(2)
        v10a = Subspace.span(2, [["1", "i"]])
        v10b = Subspace.span(2, [["2+2*i", "-2+2*i"]])  # (1+i) * (1, i)
        assert v10a == v10b
        ha = HodgeStructure(1, {(1, 0): v10a, (0, 1): v10a.conjugate()}, r)
        hb = HodgeStructure(1, {(1, 0): v10b, (0, 1): v10b.conjugate()}, r)
        q = self.q_std()
        assert check_polarization(ha, q) == check_polarization(hb, q)


def pairwise_polarization(h, q):
    """The polarization verdicts from the definition, one Q.pair per pair
    of basis vectors: the oracle for check_polarization."""
    keys = sorted(h.components)
    ortho = all(
        q.pair(x, y).is_zero()
        for k, l in keys
        for other in keys
        if other != (l, k)
        for x in h.components[(k, l)].basis
        for y in h.components[other].basis
    )
    positivity = {}
    for k, l in keys:
        basis = h.components[(k, l)].basis
        factor = ExactComplex(0, 1) ** (k - l)
        gram = ExactMatrix(
            [[factor * q.pair(x, h.real_structure.apply_vec(y)) for y in basis] for x in basis]
        )
        positivity[(k, l)] = gram == gram.conj().T and all(
            ExactMatrix([row[:j] for row in gram.entries[:j]]).det().re > 0
            for j in range(1, gram.rows + 1)
        )
    return ortho, positivity


class TestPolarizationProducts:
    """check_polarization reads every pairing off two matrix products; its
    verdicts must equal the pairwise definition."""

    @pytest.mark.parametrize("m", [2, 4])
    def test_agrees_with_pairwise_definition(self, m):
        rng = XorShift(4242 + m)
        seen = set()
        for _ in range(6):
            h, q = polarized_weight1(rng, m)
            other = matrix(rng, m)
            candidates = [q, q.scale(ExactComplex(-1)), other - other.T]
            # a random structure under a polarization made for another one
            candidates.append(polarized_weight1(rng, m)[1])
            for qm in candidates:
                if qm.rank() != m:
                    continue
                pol = Polarization(qm, weight=1)
                rep = check_polarization(h, pol)
                ortho, positivity = pairwise_polarization(h, pol)
                assert rep.orthogonality == ortho
                assert rep.positivity == positivity
                seen.add(rep.passed)
        assert seen == {True, False}

    def test_negated_polarization_fails_positivity(self):
        rng = XorShift(77)
        for m in (2, 4):
            h, q = polarized_weight1(rng, m)
            assert check_polarization(h, Polarization(q, weight=1)).passed
            neg = check_polarization(h, Polarization(q.scale(ExactComplex(-1)), weight=1))
            assert neg.orthogonality
            assert not any(neg.positivity.values())
            assert not neg.passed


class TestQuaternionicFromHodge:
    def test_eq2_model(self):
        """J(v, wbar) = (-w, vbar) on the standard split of C^2."""
        r = RealStructure.from_antilinear(ExactMatrix([["0", "1"], ["1", "0"]]))
        h = HodgeStructure(
            1,
            {(1, 0): Subspace.span(2, [["1", "0"]]),
             (0, 1): Subspace.span(2, [["0", "1"]])},
            r,
        )
        qs = quaternionic_from_hodge(h)
        e1 = (ExactComplex(1), ExactComplex(0), ExactComplex(0), ExactComplex(0))
        e2 = (ExactComplex(0), ExactComplex(1), ExactComplex(0), ExactComplex(0))
        assert qs.jmat @ e1 == e2
        assert qs.jmat @ e2 == tuple(-v for v in e1)

    def test_anticommutation_random(self):
        rng = XorShift(109)
        for _ in range(10):
            h = weight1_structure(rng, 4)
            qs = quaternionic_from_hodge(h)
            assert qs.imat @ qs.jmat == (-(qs.jmat @ qs.imat))

    def test_wrong_weight_rejected(self):
        r = RealStructure.conjugation(1)
        h = HodgeStructure(2, {(1, 1): Subspace.full(1)}, r)
        with pytest.raises(ValueError):
            quaternionic_from_hodge(h)


class TestHodgeFromQuaternionic:
    def test_standard_pair_r4(self):
        qs = standard_quaternionic(4)
        chart = hodge_from_quaternionic(qs)
        assert chart.hodge.component(1, 0).dim == 1
        assert chart.hodge.component(0, 1).dim == 1
        assert chart.recovered_structure() == qs

    def test_block_sum_r8(self):
        qs = standard_quaternionic(8)
        chart = hodge_from_quaternionic(qs)
        assert chart.hodge.component(1, 0).dim == 2
        assert chart.recovered_structure() == qs

    def test_random_conjugates_round_trip(self):
        rng = XorShift(113)
        for _ in range(5):
            qs = quaternionic_pair(rng, 8)
            chart = hodge_from_quaternionic(qs)
            assert chart.recovered_structure() == qs

    def test_hodge_round_trip_exact(self):
        """H -> J -> H' -> J' returns the same J matrix exactly."""
        rng = XorShift(127)
        for _ in range(10):
            h = weight1_structure(rng, 4)
            qs = quaternionic_from_hodge(h)
            chart = hodge_from_quaternionic(qs)
            qs2 = quaternionic_from_hodge(chart.hodge)
            inv = chart.chart.inverse()
            pulled = inv @ qs2.jmat @ chart.chart
            assert pulled == qs.jmat

    def test_invalid_relations_rejected(self):
        ident = ExactMatrix.identity(4)
        with pytest.raises(ValueError):
            QuaternionicStructure(ident, ident)


class TestVHS:
    def test_quadratic_exact(self):
        reps = vhs_from_special_kahler(Quadratic(), [np.array([0.5 + 0.5j])])
        rep = reps[0]
        assert rep["holomorphy_residual"] == 0.0
        assert rep["pure_weight_1"]
        assert rep["polarization_pass"]
        assert rep["rationalization_error"] == 0.0

    @pytest.mark.parametrize("prep", [Cubic(), SWLog(), Coupled()], ids=lambda p: p.name)
    def test_curved_entries(self, prep):
        from specialk import geometry

        pts = geometry.sample_points(prep, 8, seed=31)
        for rep in vhs_from_special_kahler(prep, pts, tol=1e-5):
            assert rep["holomorphy_pass"]
            assert rep["pure_weight_1"]
            assert rep["polarization_pass"]
            assert rep["polarization_sign"] == "Q=-omega"


class TestTangentHodgeStructure:
    """The weight-1 structure on the complexified tangent space depends on
    n only: one build per dimension serves every sample point."""

    @pytest.mark.parametrize(
        "prep", [Cubic(), Coupled(), Quadratic(n=3)], ids=lambda p: f"{p.name}{p.n}"
    )
    def test_one_build_per_dimension(self, prep):
        from specialk import geometry

        pts = geometry.sample_points(prep, 16, seed=7)
        tangent_hodge_structure.cache_clear()
        cached = vhs_from_special_kahler(prep, pts)
        cached += vhs_from_special_kahler(prep, pts[:4], max_denominator=10**9)
        assert tangent_hodge_structure.cache_info().misses == 1
        fresh = []
        for z in pts:
            tangent_hodge_structure.cache_clear()
            fresh += vhs_from_special_kahler(prep, [z])
        for z in pts[:4]:
            tangent_hodge_structure.cache_clear()
            fresh += vhs_from_special_kahler(prep, [z], max_denominator=10**9)
        assert cached == fresh

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_frame_construction(self, n):
        h = tangent_hodge_structure(n)
        m = 2 * n
        frame = [[ExactComplex(0)] * m for _ in range(n)]
        for j in range(n):
            frame[j][j] = ExactComplex(1)
            frame[j][n + j] = ExactComplex(0, 1)
        v10 = Subspace.span(m, frame)
        assert h.weight == 1
        assert h.component(1, 0) == v10
        assert h.component(0, 1) == v10.conjugate()
        assert h.real_structure == RealStructure.conjugation(m)
