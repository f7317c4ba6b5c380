"""Rees modules, section counts, splitting types and the purity oracle."""

import pytest
from hypothesis import given, strategies

from randgen import nested_filtration, properties, weight1_structure
from specialk import rees
from specialk.exact import ExactComplex, ExactMatrix, Subspace
from specialk.hodge import Filtration, RealStructure, hodge_to_filtration
from specialk.rees import (
    InconsistentProfileError,
    ReesBundle,
    SplittingType,
    bundle_degree,
    filtration_from_module,
    h0,
    is_semistable_of_slope,
    purity_oracle,
    rees_generators,
    splitting_type,
)
from specialk.utils import XorShift


def line(n, coords):
    return Subspace.span(n, [coords])


def pure_rank_one(k, m):
    """Filtration pair of a one-dimensional structure of type (k, m)."""
    f = Filtration.from_proper_steps(1, [Subspace.full(1)] * k)
    fbar = Filtration.from_proper_steps(1, [Subspace.full(1)] * m)
    return ReesBundle(f, fbar)


class TestGenerators:
    def test_trivial_c1(self):
        f = Filtration.from_proper_steps(1, [])
        assert rees_generators(f) == [(0, (ExactComplex(1),))]

    def test_shifted_c1(self):
        f = Filtration.from_proper_steps(1, [Subspace.full(1)])
        assert rees_generators(f) == [(1, (ExactComplex(1),))]

    def test_adapted_c2(self):
        f = Filtration.from_proper_steps(2, [line(2, ["1", "0"])])
        gens = rees_generators(f)
        assert [k for k, _ in gens] == [1, 0]
        # graded dimensions (1, 1) match the tag counts
        assert f.graded_dims() == (1, 1)

    def test_gr_dimension_count(self):
        rng = XorShift(41)
        for _ in range(10):
            f = nested_filtration(rng, 4)
            gens = rees_generators(f)
            tags = [k for k, _ in gens]
            for level, dim in enumerate(f.graded_dims()):
                assert tags.count(level) == dim


class TestFiltrationFromModule:
    def test_round_trips(self):
        cases = [
            Filtration.from_proper_steps(1, []),
            Filtration.from_proper_steps(1, [Subspace.full(1)]),
            Filtration.from_proper_steps(2, [line(2, ["1", "0"])]),
        ]
        for f in cases:
            assert filtration_from_module(f.ambient_dim, rees_generators(f)) == f

    def test_random_round_trip(self):
        rng = XorShift(43)
        for _ in range(20):
            f = nested_filtration(rng, 4)
            assert filtration_from_module(4, rees_generators(f)) == f

    def test_redundant_generator_harmless(self):
        f = Filtration.from_proper_steps(2, [line(2, ["1", "0"])])
        gens = rees_generators(f)
        gens.append((0, (ExactComplex(1), ExactComplex(1))))  # inside F^0
        assert filtration_from_module(2, gens) == f

    def test_non_spanning_rejected(self):
        with pytest.raises(ValueError):
            filtration_from_module(2, [(0, (ExactComplex(1), ExactComplex(0)))])


class TestSections:
    def test_pure_rank_one_matches_line_bundle(self):
        for k in range(3):
            for m in range(3):
                b = pure_rank_one(k, m)
                w = k + m
                assert h0(b, 0) == w + 1
                assert splitting_type(b).degrees == (w,)

    def test_impure_c2_profile(self):
        f = Filtration.from_proper_steps(2, [line(2, ["1", "0"])])
        b = ReesBundle(f, f)
        assert [h0(b, m) for m in (0, -1, -2)] == [4, 2, 1]

    def test_vanishing_bound(self):
        rng = XorShift(47)
        for _ in range(10):
            f = nested_filtration(rng, 3)
            fbar = nested_filtration(rng, 3)
            b = ReesBundle(f, fbar)
            bound = -(f.length + fbar.length)
            assert h0(b, bound) == 0
            assert h0(b, bound - 3) == 0

    def test_monotone_and_convex(self):
        rng = XorShift(53)
        for _ in range(10):
            f = nested_filtration(rng, 4)
            fbar = nested_filtration(rng, 4)
            b = ReesBundle(f, fbar)
            lo = -(f.length + fbar.length) - 1
            profile = [h0(b, m) for m in range(lo, 6)]
            incs = [y - x for x, y in zip(profile, profile[1:])]
            assert all(i >= 0 for i in incs)
            capped = [min(i, 4) for i in incs]
            assert capped == sorted(capped)

    @properties
    @given(strategies.integers(0, 2**32), strategies.integers(1, 4),
           strategies.sampled_from([-3, 0, 2]))
    def test_matches_the_term_by_term_sum(self, seed, n, offset):
        rng = XorShift(seed)
        b = ReesBundle(nested_filtration(rng, n), nested_filtration(rng, n))
        for m in range(offset - 8, offset + 9):
            naive = sum(rees._meet_dim(b.f.step(-d), b.fbar.step(d - m))
                        for d in range(1 - b.f.length, m + b.fbar.length))
            assert h0(b, m) == naive

    def test_intersects_at_most_len_f_plus_len_fbar_pairs(self, monkeypatch):
        """Near m = 10^9 every term but a few meets V with V and counts as the
        rank, so the count is answered at once."""
        rng = XorShift(67)
        meet, calls = rees._meet_dim, []
        monkeypatch.setattr(rees, "_meet_dim", lambda a, b: calls.append(1) or meet(a, b))
        for m in (10**9 - 3, 10**9, 10**9 + 2):
            b = ReesBundle(nested_filtration(rng, 4), nested_filtration(rng, 4))
            degrees = splitting_type(b).degrees
            calls.clear()
            assert h0(b, m) == sum(max(a + m + 1, 0) for a in degrees)
            assert len(calls) <= b.f.length + b.fbar.length


class TestSplitting:
    def test_pure_weight_one_is_ones(self):
        rng = XorShift(59)
        for m in (2, 4):
            h = weight1_structure(rng, m)
            f = hodge_to_filtration(h)
            fbar = f.conjugate(h.real_structure)
            st = splitting_type(ReesBundle(f, fbar))
            assert st.degrees == (1,) * m
            assert is_semistable_of_slope(ReesBundle(f, fbar), 1)

    def test_impure_c2_with_section_oracle(self):
        f = Filtration.from_proper_steps(2, [line(2, ["1", "0"])])
        b = ReesBundle(f, f)
        st = splitting_type(b)
        assert st.degrees == (2, 0)
        # independent oracle: the max-formula reproduces the counts on a
        # window wider than the recovery scan
        for m in range(-6, 5):
            assert h0(b, m) == sum(max(a + m + 1, 0) for a in st.degrees)

    def test_trivial_filtrations(self):
        f = Filtration.from_proper_steps(3, [])
        st = splitting_type(ReesBundle(f, f))
        assert st.degrees == (0, 0, 0)
        assert st.slope == 0

    def test_degree_formula(self):
        rng = XorShift(61)
        for _ in range(10):
            f = nested_filtration(rng, 3)
            fbar = nested_filtration(rng, 3)
            b = ReesBundle(f, fbar)
            assert splitting_type(b).degree == bundle_degree(b)

    @properties
    @given(strategies.integers(0, 2**32), strategies.integers(1, 4))
    def test_profile_matches_splitting_type(self, seed, n):
        """h0(m) = sum max(a + m + 1, 0) over the recovered degrees on a
        window around the recovery scan, and deg = bundle_degree."""
        rng = XorShift(seed)
        b = ReesBundle(nested_filtration(rng, n), nested_filtration(rng, n))
        split = splitting_type(b)
        assert split.degree == bundle_degree(b)
        reach = b.f.length + b.fbar.length + 2
        for m in range(-reach, reach + 1):
            assert h0(b, m) == sum(max(a + m + 1, 0) for a in split.degrees)

    def test_twist_shifts_every_degree(self):
        """h0's m is the twist at infinity: the sections of the twist by 2
        are those of the bundle whose degrees are each 2 higher."""
        f = Filtration.from_proper_steps(2, [line(2, ["1", "i"])])
        b = ReesBundle(f, f.conjugate(RealStructure.conjugation(2)))
        shifted = [a + 2 for a in splitting_type(b).degrees]
        for m in range(-5, 4):
            assert h0(b, m + 2) == sum(max(a + m + 1, 0) for a in shifted)

    def test_reads_the_table_not_the_profile(self, monkeypatch):
        """splitting_type never counts sections; h0 is only the reference."""

        def no_h0(*args, **kwargs):
            raise AssertionError("splitting_type called h0")

        monkeypatch.setattr(rees, "h0", no_h0)
        f = Filtration.from_proper_steps(2, [line(2, ["1", "0"])])
        assert splitting_type(ReesBundle(f, f)).degrees == (2, 0)
        assert splitting_type(pure_rank_one(2, 1)).degrees == (3,)

    def test_negative_multiplicity_is_inconsistent(self, monkeypatch):
        """A table no filtration pair has (d(1, 1) > d(0, 1)) raises
        instead of yielding degrees."""
        f = Filtration.from_proper_steps(2, [line(2, ["1", "i"])])
        fbar = f.conjugate(RealStructure.conjugation(2))
        table = {(2, 2): 2, (2, 1): 1, (1, 2): 1, (1, 1): 2}  # by (dim a, dim b)
        monkeypatch.setattr(rees, "_meet_dim", lambda a, b: table.get((a.dim, b.dim), 0))
        with pytest.raises(InconsistentProfileError, match="negative multiplicity"):
            splitting_type(ReesBundle(f, fbar))

    @properties
    @given(strategies.integers(0, 2**32), strategies.integers(1, 5),
           strategies.booleans())
    def test_meet_dim_is_intersection_dim(self, seed, n, conjugate):
        """dim a + dim b - dim(a + b) is dim(a /\\ b) on every cell of the
        table, for independent and for conjugate filtration pairs."""
        rng = XorShift(seed)
        f = nested_filtration(rng, n)
        fbar = f.conjugate(RealStructure.conjugation(n)) if conjugate \
            else nested_filtration(rng, n)
        for a in f.steps:
            for b in fbar.steps:
                assert rees._meet_dim(a, b) == (a & b).dim

    def test_splitting_type_validates(self):
        with pytest.raises(ValueError):
            SplittingType((0, 1))


class TestOracleEquivalence:
    def test_worked_examples(self):
        r = RealStructure.conjugation(2)
        pure = Filtration.from_proper_steps(2, [line(2, ["1", "i"])])
        impure = Filtration.from_proper_steps(2, [line(2, ["1", "0"])])
        assert purity_oracle(pure, pure.conjugate(r), 1)
        assert is_semistable_of_slope(ReesBundle(pure, pure.conjugate(r)), 1)
        assert not purity_oracle(impure, impure, 1)
        assert not is_semistable_of_slope(ReesBundle(impure, impure), 1)
        one_dim = pure_rank_one(1, 1)
        assert purity_oracle(one_dim.f, one_dim.fbar, 2)
        assert is_semistable_of_slope(one_dim, 2)

    def test_random_pairs(self):
        rng = XorShift(67)
        for _ in range(40):
            n = rng.randint(2, 4)
            f = nested_filtration(rng, n)
            fbar = nested_filtration(rng, n)
            b = ReesBundle(f, fbar)
            st = splitting_type(b)
            for w in range(-1, f.length + fbar.length + 1):
                assert purity_oracle(f, fbar, w) == st.is_constant(w)

    def test_negative_index_overlap_detected(self):
        """F trivial, Fbar long: the (p, q) = (-1, 2) overlap must spoil
        purity at weight 1, matching the unbalanced splitting."""
        f = Filtration.from_proper_steps(1, [])
        fbar = Filtration.from_proper_steps(1, [Subspace.full(1), Subspace.full(1)])
        b = ReesBundle(f, fbar)
        assert splitting_type(b).degrees == (2,)
        assert not purity_oracle(f, fbar, 1)
        assert purity_oracle(f, fbar, 2)

    def test_far_negative_weight_stops_early(self, monkeypatch):
        """At a weight far below zero every p in [w, 0] gives the piece V,
        so the oracle says no after a handful of intersections instead of
        one per step of the range."""
        calls = []
        intersection = Subspace.intersection
        monkeypatch.setattr(Subspace, "__and__",
                            lambda a, b: calls.append(1) or intersection(a, b))
        r = RealStructure.conjugation(2)
        pure = Filtration.from_proper_steps(2, [line(2, ["1", "i"])])
        assert not purity_oracle(pure, pure.conjugate(r), -10**12)
        assert len(calls) <= pure.length + 2
        one_dim = pure_rank_one(1, 1)
        assert not purity_oracle(one_dim.f, one_dim.fbar, -10**12)

    def test_forced_overlap_unbalanced(self):
        r = RealStructure.conjugation(2)
        f = Filtration.from_proper_steps(
            2, [line(2, ["1", "0"]), line(2, ["1", "0"])]
        )
        fbar = f.conjugate(r)  # span{e1} again: deep overlap
        b = ReesBundle(f, fbar)
        assert not purity_oracle(f, fbar, 2)
        st = splitting_type(b)
        assert not st.is_constant(2)
        assert st.degrees[0] > st.degrees[-1]


class TestInvariance:
    def test_common_change_of_basis(self):
        rng = XorShift(71)
        from randgen import invertible

        for _ in range(5):
            f = nested_filtration(rng, 3)
            fbar = nested_filtration(rng, 3)
            g = invertible(rng, 3)
            fg = Filtration([s.apply(g) for s in f.steps])
            fbarg = Filtration([s.apply(g) for s in fbar.steps])
            assert splitting_type(ReesBundle(f, fbar)) == splitting_type(
                ReesBundle(fg, fbarg)
            )

    def test_direct_sum_additivity(self):
        rng = XorShift(73)

        def embed(sub, n_total, offset):
            vecs = []
            for b in sub.basis:
                vec = [ExactComplex(0)] * n_total
                for i, e in enumerate(b):
                    vec[offset + i] = e
                vecs.append(vec)
            return vecs

        for _ in range(5):
            f1 = nested_filtration(rng, 2)
            fb1 = nested_filtration(rng, 2)
            f2 = nested_filtration(rng, 2)
            fb2 = nested_filtration(rng, 2)

            def direct_sum(a, b):
                top = max(a.length, b.length)
                proper = []
                for k in range(1, top):
                    vecs = embed(a.step(k), 4, 0) + embed(b.step(k), 4, 2)
                    proper.append(Subspace.span(4, vecs))
                return Filtration.from_proper_steps(4, proper)

            fsum = direct_sum(f1, f2)
            fbsum = direct_sum(fb1, fb2)
            d1 = splitting_type(ReesBundle(f1, fb1)).degrees
            d2 = splitting_type(ReesBundle(f2, fb2)).degrees
            dsum = splitting_type(ReesBundle(fsum, fbsum)).degrees
            assert sorted(dsum, reverse=True) == sorted(d1 + d2, reverse=True)

    def test_inconsistent_profile_unreachable_error_type(self):
        assert issubclass(InconsistentProfileError, RuntimeError)
