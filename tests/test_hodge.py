"""Hodge structures, polarizations, the quaternionic correspondence and
the pointwise special Kahler variation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from randgen import (
    matrix,
    polarized_weight1,
    properties,
    pure_structure,
    quaternionic_pair,
    standard_quaternionic,
    weight1_structure,
)
from specialk import _kernel
from specialk.exact import (
    ExactComplex,
    ExactMatrix,
    Subspace,
    leading_minors_positive,
    rationalize_matrix,
    real_rep_antilinear,
    real_rep_linear,
    std_complex_structure,
)
from specialk.geometry import _offdiag
from specialk.hodge import (
    Filtration,
    HodgeStructure,
    NotPureError,
    Polarization,
    QuaternionicStructure,
    RealStructure,
    _chart_hodge_structure,
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

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_stored_as_s_with_real_form_on_demand(self, m):
        rng = XorShift(71 + m)
        for _ in range(5):
            r = weight1_structure(rng, m).real_structure
            assert r.matrix == real_rep_antilinear(r.s)
            assert RealStructure(r.matrix) == r

    @pytest.mark.parametrize(
        "entries, message",
        [
            # the identity is an involution but not of the form [[X, Y], [Y, -X]]
            ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "must anticommute with i"),
            ([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], "must anticommute with i"),
            # S = 2: antilinear, but S conj(S) = 4
            ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]], "must be an involution"),
            # S = [[1, 1], [0, 1]]: S conj(S) = [[1, 2], [0, 1]]
            ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, -1], [0, 0, 0, -1]], "must be an involution"),
        ],
        ids=["identity", "not-block-form", "scaled", "shear"],
    )
    def test_each_check_has_its_message(self, entries, message):
        with pytest.raises(ValueError, match=f"real structure {message}$"):
            RealStructure(ExactMatrix([[ExactComplex(e) for e in row] for row in entries]))


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
        h = filtration_to_hodge(f, self.r, 1)
        assert h.component(1, 0) == Subspace.span(2, [["1", "i"]])
        assert h.component(0, 1) == Subspace.span(2, [["1", "-i"]])

    def test_not_pure(self):
        f = Filtration.from_proper_steps(2, [Subspace.span(2, [["1", "0"]])])
        with pytest.raises(NotPureError):
            filtration_to_hodge(f, self.r, 1)

    def test_round_trip_via_quaternionic(self):
        rng = XorShift(101)
        for _ in range(5):
            h = weight1_structure(rng, 4)
            f = hodge_to_filtration(h)
            h2 = filtration_to_hodge(f, h.real_structure, 1)
            assert h2.component(1, 0) == h.component(1, 0)
            assert h2.component(0, 1) == h.component(0, 1)

    def test_filtration_hodge_inverse(self):
        rng = XorShift(103)
        for _ in range(10):
            h = weight1_structure(rng, 4)
            f = hodge_to_filtration(h)
            h2 = filtration_to_hodge(f, h.real_structure, 1)
            assert hodge_to_filtration(h2) == f

    @pytest.mark.parametrize("weight", [0, 1, 2, 3])
    def test_filtration_is_the_nested_sums(self, weight):
        """F^k from the step above equals the sum of every V^{i, p-i}, i >= k."""
        rng = XorShift(89 + weight)
        for m in range(2, 7, 2 if weight % 2 else 1):
            h = pure_structure(rng, weight, m)
            sums = []
            for k in range(weight + 1):
                acc = Subspace.zero(m)
                for i in range(k, weight + 1):
                    acc = acc + h.component(i, weight - i)
                sums.append(acc)
            assert hodge_to_filtration(h).steps == (*sums, Subspace.zero(m))

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
        h = filtration_to_hodge(f, r, 1)
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
        h = filtration_to_hodge(f, r, 1)
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

    @pytest.mark.parametrize("weight", [0, 1, 2, 3])
    def test_agrees_with_pairwise_definition_at_every_weight(self, weight):
        """Random pure structures under random nondegenerate Q of the
        weight's parity: in the stacked component basis b, Q pairs V^{k,l}
        with V^{l,k} only, or with every component."""
        rng = XorShift(5150 + weight)
        sign = ExactComplex(-1 if weight % 2 else 1)
        seen = set()
        for m in (2, 4):
            for _ in range(6):
                h = pure_structure(rng, weight, m)
                keys = sorted(h.components)
                b = ExactMatrix.blocks([[h.components[key].basis_matrix] for key in keys])
                owner = [key for key in keys for _ in range(h.components[key].dim)]
                a = matrix(rng, m)
                masked = ExactMatrix(
                    [[a[i, j] if owner[j] == owner[i][::-1] else 0 for j in range(m)]
                     for i in range(m)]
                )
                bi = b.inverse()
                for q0 in (masked, a):
                    qm = bi @ (q0 + q0.T.scale(sign)) @ bi.T
                    if qm.rank() != m:
                        continue
                    pol = Polarization(qm, weight=weight)
                    rep = check_polarization(h, pol)
                    ortho, positivity = pairwise_polarization(h, pol)
                    assert rep.orthogonality == ortho
                    assert rep.positivity == positivity
                    seen.add(ortho)
        assert seen == ({True, False} if weight else {True})

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

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_j_is_real_form_of_s_conj_projection_difference(self, m):
        """J read off S equals the 2m x 2m product R (2P' - 1)."""
        rng = XorShift(97 + m)
        for _ in range(5):
            h = weight1_structure(rng, m)
            vp, d = h.component(1, 0), m // 2
            b = ExactMatrix.blocks([[vp.basis_matrix], [h.component(0, 1).basis_matrix]]).T
            p_prime = b[:, :d] @ b.inverse()[:d, :]
            diff = p_prime + p_prime - ExactMatrix.identity(m)
            expect = h.real_structure.matrix @ real_rep_linear(diff)
            assert quaternionic_from_hodge(h).jmat == expect

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

    def test_model_structure_built_once_per_k(self):
        """The chart's model structure depends on k = n4/4 only: V^{1,0}
        and V^{0,1} are the first and last k coordinates, swapped by the
        real structure.  One build serves every pair of that size."""
        _chart_hodge_structure.cache_clear()
        rng = XorShift(131)
        charts = [hodge_from_quaternionic(quaternionic_pair(rng, 8)) for _ in range(3)]
        assert _chart_hodge_structure.cache_info().misses == 1
        assert all(c.hodge is charts[0].hodge for c in charts)
        assert all(c.recovered_structure() == c.source for c in charts)
        h = charts[0].hodge
        ident = ExactMatrix.identity(4)
        assert h.component(1, 0) == Subspace.row_space(ident[:2, :])
        assert h.component(0, 1) == Subspace.row_space(ident[2:, :])
        assert h.real_structure.s == ExactMatrix(
            [[int(j == (i + 2) % 4) for j in range(4)] for i in range(4)]
        )

    def test_invalid_relations_rejected(self):
        ident = ExactMatrix.identity(4)
        with pytest.raises(ValueError):
            QuaternionicStructure(ident, ident)

    @properties
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8]))
    def test_chart_equals_inverse_of_transposed_generators(self, seed, n4):
        qs = quaternionic_pair(XorShift(seed), n4)
        gens, chart = chart_from_transposes(qs)
        got = hodge_from_quaternionic(qs).chart
        assert got == chart
        assert got.inverse() == gens

    def test_generated_coordinate_is_skipped(self):
        """With e_1 in the block of e_0, the candidate t = 1 is tested on
        [generators | 1] and skipped; t = 2 completes the chart."""
        qs = coordinates_swapped(standard_quaternionic(8), 1, 2)
        gens, chart = chart_from_transposes(qs)
        got = hodge_from_quaternionic(qs)
        assert got.chart == chart and got.chart.inverse() == gens
        assert got.recovered_structure() == qs

    def test_one_elimination_per_block_and_no_transpose(self, monkeypatch):
        """Each candidate block costs one rref, nothing is transposed, and
        the chart is inverted back for free."""
        qs = quaternionic_pair(XorShift(7), 8)
        skipping = coordinates_swapped(standard_quaternionic(8), 1, 2)
        _chart_hodge_structure(2)
        calls = []
        rref, transpose = _kernel.rref, ExactMatrix.transpose
        monkeypatch.setattr(_kernel, "rref", lambda *a: calls.append("rref") or rref(*a))
        monkeypatch.setattr(
            ExactMatrix, "transpose", lambda m: calls.append("transpose") or transpose(m)
        )
        chart = hodge_from_quaternionic(qs)
        chart.chart.inverse()
        assert calls == ["rref", "rref"]
        calls.clear()
        hodge_from_quaternionic(skipping)
        assert calls == ["rref"] * 3

    def test_recovered_structure_checks_every_relation(self, monkeypatch):
        """Pulling the model back costs its four conjugation products and the
        constructor's four relation products, and no elimination; the
        constructor still rejects broken relations."""
        qs = quaternionic_pair(XorShift(5), 8)
        chart = hodge_from_quaternionic(qs)
        quaternionic_from_hodge(chart.hodge)
        calls = []
        for name in ("rref", "matmul"):
            kernel_fn = getattr(_kernel, name)
            monkeypatch.setattr(
                _kernel, name, lambda *a, _n=name, _f=kernel_fn: calls.append(_n) or _f(*a)
            )
        recovered = chart.recovered_structure()
        assert calls == ["matmul"] * 8
        assert recovered == qs
        with pytest.raises(ValueError, match="I\\^2 = J\\^2 = -1 fails"):
            QuaternionicStructure(recovered.imat.scale(2), recovered.jmat)
        with pytest.raises(ValueError, match="IJ = -JI fails"):
            QuaternionicStructure(recovered.imat, recovered.imat)


def chart_from_transposes(q):
    """(generator matrix, chart) built by transposes and a span grown block
    by block: the chart is the inverse of the transposed generator rows."""
    n4 = q.real_dim
    gens = ExactMatrix.blocks(
        [[ExactMatrix.identity(n4)], [q.imat.T], [q.jmat.T], [q.kmat.T]]
    )
    chosen = []
    span = Subspace.zero(n4)
    for t in range(n4):
        grown = span + Subspace.row_space(gens[t::n4, :])
        if grown.dim > span.dim:
            chosen.append(t)
            span = grown
    columns = ExactMatrix.blocks(
        [[gens[g * n4 + t : g * n4 + t + 1, :]] for g in (0, 2, 1, 3) for t in chosen]
    )
    return columns.T, columns.T.inverse()


def coordinates_swapped(q, a, b):
    """q conjugated by the permutation matrix exchanging coordinates a, b."""
    n4 = q.real_dim
    perm = list(range(n4))
    perm[a], perm[b] = b, a
    p = ExactMatrix([[int(j == perm[i]) for j in range(n4)] for i in range(n4)])
    return QuaternionicStructure(p @ q.imat @ p, p @ q.jmat @ p)


class TestReuse:
    """Results the round trips reuse instead of recomputing: the inverse
    pair, the model pair and K = IJ, each equal to a fresh computation,
    and a public constructor that still checks everything it is given."""

    @properties
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)),
                         min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
    )
    def test_inverse_of_inverse_is_the_matrix(self, raw):
        m = ExactMatrix([[ExactComplex(Fraction(a, d), b) for a, b, d in row] for row in raw])
        assume(m.rank() == m.rows)
        inv = m.inverse()
        assert inv.inverse() == m
        assert m.inverse() is inv
        # a copy of the inverse has no partner yet, so this eliminates
        assert ExactMatrix(inv.entries).inverse() == m
        assert m @ inv == ExactMatrix.identity(m.rows)

    @properties
    @given(st.integers(1, 3))
    def test_cached_model_pair_equals_fresh_one(self, k):
        model = _chart_hodge_structure(k)
        ident = ExactMatrix.identity(2 * k)
        zero, one = ExactMatrix.zeros(k, k), ExactMatrix.identity(k)
        fresh = HodgeStructure(
            1,
            {(1, 0): Subspace.row_space(ident[:k, :]), (0, 1): Subspace.row_space(ident[k:, :])},
            RealStructure.from_antilinear(ExactMatrix.blocks([[zero, one], [one, zero]])),
        )
        assert fresh is not model
        cached = quaternionic_from_hodge(model)
        assert quaternionic_from_hodge(model) is cached
        built = quaternionic_from_hodge(fresh)
        assert built is not cached
        assert (built.imat, built.jmat, built.kmat) == (cached.imat, cached.jmat, cached.kmat)

    def test_round_trip_eliminates_nothing_twice(self, monkeypatch):
        """Once the model pair of its size exists, pulling it back through
        a chart inverts nothing, and K costs no product."""
        qs = quaternionic_pair(XorShift(5), 8)
        chart = hodge_from_quaternionic(qs)
        quaternionic_from_hodge(chart.hodge)
        calls = []
        for name in ("rref", "matmul"):
            kernel_fn = getattr(_kernel, name)

            def counted(*args, _name=name, _fn=kernel_fn):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(_kernel, name, counted)
        kmat = qs.kmat
        quaternionic_from_hodge(chart.hodge)
        assert calls == []
        recovered = chart.recovered_structure()
        assert "rref" not in calls
        assert recovered == qs and recovered.kmat == kmat

    @properties
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8]))
    def test_constructor_checks_every_pair(self, seed, n4):
        qs = quaternionic_pair(XorShift(seed), n4)
        assert qs.kmat == qs.imat @ qs.jmat
        assert QuaternionicStructure(qs.imat, qs.jmat) == qs
        with pytest.raises(ValueError, match="I\\^2 = J\\^2 = -1 fails"):
            QuaternionicStructure(qs.imat.scale(2), qs.jmat)
        with pytest.raises(ValueError, match="I\\^2 = J\\^2 = -1 fails"):
            QuaternionicStructure(qs.imat, qs.jmat + qs.imat)
        with pytest.raises(ValueError, match="IJ = -JI fails"):
            QuaternionicStructure(qs.imat, qs.imat)
        with pytest.raises(ValueError, match="IJ = -JI fails"):
            QuaternionicStructure(qs.jmat, -qs.jmat)


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

    def test_one_jet_read_per_point(self, monkeypatch):
        """tau, C and the domain are read once per point, and the residual
        is the one vhs_holomorphy_residual gives."""
        from specialk import geometry

        prep = Cubic()
        pts = geometry.sample_points(prep, 3, seed=1)
        expect = [geometry.vhs_holomorphy_residual(prep, z) for z in pts]
        counts = {"hess": 0, "third": 0, "in_domain": 0}
        for name in counts:
            method = getattr(Cubic, name)

            def counted(self, z, _name=name, _method=method):
                counts[_name] += 1
                return _method(self, z)

            monkeypatch.setattr(Cubic, name, counted)
        reps = vhs_from_special_kahler(prep, pts)
        assert counts == {"hess": 3, "third": 3, "in_domain": 3}
        assert [r["holomorphy_residual"] for r in reps] == expect


_MAX_DEN = 10**12


@st.composite
def _ratio(draw, bound=1, positive=False):
    """A rational in [-bound, bound], or in (0, bound] if positive, whose
    denominator is at most 10^12."""
    q = draw(st.integers(1, _MAX_DEN))
    return Fraction(draw(st.integers(1 if positive else -bound * q, bound * q)), q)


@st.composite
def _definite(draw, n):
    """Strictly diagonally dominant with a positive diagonal: off-diagonal
    entries in [-1, 1], diagonal entries in (n - 1, n]."""
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = n - 1 + draw(_ratio(positive=True))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(_ratio())
    return g


@st.composite
def symmetric_g(draw):
    """A rational symmetric n x n G, n = 1..4, of one of five kinds:
    positive definite; positive semidefinite and singular (a definite block
    bordered by a zero row and column); indefinite or negative (a definite G
    with one diagonal entry negated); singular of rank at most one (+-v v^T,
    denominators at most 10^12); or any symmetric G."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["definite", "semidefinite", "indefinite", "rank1", "any"]))
    if kind == "definite":
        return draw(_definite(n))
    if kind == "semidefinite":
        g = draw(_definite(n - 1)) if n > 1 else []
        k = draw(st.integers(0, n - 1))
        g = [row[:k] + [Fraction(0)] + row[k:] for row in g]
        return g[:k] + [[Fraction(0)] * n] + g[k:]
    if kind == "indefinite":
        g = draw(_definite(n))
        k = draw(st.integers(0, n - 1))
        g[k][k] = -g[k][k]
        return g
    if kind == "rank1":
        v = [Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**6)))
             for _ in range(n)]
        sign = draw(st.sampled_from([1, -1]))
        return [[sign * a * b for b in v] for a in v]
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(_ratio(10**6))
    return g


def _minors_decide_polarization(g: ExactMatrix, q: ExactMatrix) -> None:
    """check_polarization of tangent_hodge_structure(n) under Q = q passes
    exactly when G has positive leading minors; a singular G makes Q
    degenerate, and then only the minors give a verdict (False)."""
    minors = leading_minors_positive(g)
    try:
        pol = Polarization(q, weight=1)
    except ValueError as exc:
        assert "nondegenerate" in str(exc)
        assert g.rank() < g.rows and not minors
        return
    assert check_polarization(tangent_hodge_structure(g.rows), pol).passed is minors


class TestTangentPolarization:
    """The VHS point decides Q = -omega = [[0, G], [-G, 0]] by the leading
    minors of G = Im tau alone; check_polarization is the oracle."""

    @properties
    @given(symmetric_g())
    @example([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])   # definite
    @example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])   # first minor 0
    @example([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])   # singular
    @example([[Fraction(-1)]])
    def test_minors_of_g_decide_exact_polarization(self, g):
        n = len(g)
        g_exact = ExactMatrix(g)
        zero = ExactMatrix.zeros(n, n)
        _minors_decide_polarization(g_exact, ExactMatrix.blocks([[zero, g_exact],
                                                                 [-g_exact, zero]]))

    @properties
    @given(symmetric_g())
    def test_minors_of_rationalized_g_decide_rationalized_omega(self, g):
        """Through the float bridge, as a sweep point runs it: G and
        -omega rationalize to the same verdict and the same error bits."""
        gf = np.array([[float(x) for x in row] for row in g])
        g_exact, err_g = rationalize_matrix(gf)
        q_exact, err_q = rationalize_matrix(-_offdiag(-gf, gf))
        assert repr(err_g) == repr(err_q)
        _minors_decide_polarization(g_exact, q_exact)


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
        assert tangent_hodge_structure.cache_info().misses == 1
        fresh = []
        for z in pts:
            tangent_hodge_structure.cache_clear()
            fresh += vhs_from_special_kahler(prep, [z])
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
