"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Tolerances and budgets are fixed here, not
configurable.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines."""

import itertools
import json
import time

import numpy as np

from randgen import nested_filtration, quaternionic_pair, weight1_structure
from specialk import geometry as geo, hyperkahler as hk
from specialk.cli import main as cli_main
from specialk.exact import Subspace
from specialk.hodge import (
    Filtration,
    RealStructure,
    hodge_from_quaternionic,
    hodge_to_filtration,
    quaternionic_from_hodge,
    vhs_from_special_kahler,
)
from specialk.prepotentials import Coupled, Cubic, Quadratic, SWLog
from specialk.rees import ReesBundle, h0, purity_oracle, splitting_type
from specialk.utils import XorShift

CURVED = [Cubic(), SWLog(), Coupled()]
ALL_ENTRIES = [Quadratic()] + CURVED


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} {self.label} "
              f"({elapsed:.2f} s / budget {self.budget:.0f} s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_flat_case_exactness():
    with Criterion(1, "flat case exactness (quadratic, 64 points)", 1.0):
        prep = Quadratic()
        worst = 0.0
        for z in geo.sample_points(prep, 64, seed=1):
            a, _, off = geo.higgs_at(prep, z)
            worst = max(worst, float(np.max(np.abs(a))), off)
            gf = geo.flat_connection_at(prep, z)
            gl = geo.levi_civita_at(prep, z)
            worst = max(worst, float(np.max(np.abs(gf - gl))))
            data = geo.point_data(prep, z)
            worst = max(worst, float(np.max(np.abs(data.curvature))))
            rep = geo.check_equations(prep, z, tol=1e-10)
            worst = max(worst, max(rep.residuals.values()))
        assert worst < 1e-10, worst


def test_criterion_2_equation_suite():
    with Criterion(2, "equation suite (cubic + swlog, 64 points each, h=1e-5)", 30.0):
        for prep in (Cubic(), SWLog()):
            for z in geo.sample_points(prep, 64, seed=2):
                eq = geo.check_equations(prep, z, tol=1e-5, h=1e-5)
                assert eq.passed, (prep.name, z, eq.failing())
                sc = geo.check_special_conditions(prep, z, tol=1e-5)
                assert sc.passed, (prep.name, z, sc.failing())


def test_criterion_3_vhs_holomorphy():
    with Criterion(3, "VHS holomorphy < 1e-5 on all catalog entries", 30.0):
        for prep in ALL_ENTRIES:
            pts = geo.sample_points(prep, 64, seed=3)
            for rep in vhs_from_special_kahler(prep, pts, tol=1e-5):
                assert rep["holomorphy_pass"], (prep.name, rep)
                assert rep["pure_weight_1"], (prep.name, rep)


def test_criterion_4_quaternion_algebra_and_nijenhuis():
    with Criterion(4, "quaternion algebra + Nijenhuis (64 pts x 3 entries)", 120.0):
        for prep in CURVED:
            pts = hk.sample_cotangent_points(prep, 64, seed=4)
            zetas = []
            rng = XorShift(44)
            for _ in range(8):
                zetas.append(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            for pt in pts:
                quat = hk.quaternion_residual(hk.tangent_split_at(prep, pt))
                assert quat < 1e-12, (prep.name, quat)
                # derivative stacks are shared across the 11 structures
                stacks = hk.structure_derivative_stacks(prep, pt, h=1e-4)
                for s in ("I", "J", "K", *zetas):
                    res = hk.nijenhuis_at(prep, pt, s, h=1e-4, _stacks=stacks)
                    assert res < 1e-4, (prep.name, s, res)


def _c2_pool():
    lines = [
        ["1", "0"], ["0", "1"], ["1", "1"], ["1", "-1"], ["1", "i"], ["2", "1"],
    ]
    return [Subspace.span(2, [v]) for v in lines]


def _c2_filtrations(pool):
    """All complete filtrations on C^2 with up to two proper steps drawn
    from the pool together with V and 0."""
    steps = [Subspace.full(2)] + pool + [Subspace.zero(2)]
    filts = [Filtration.from_proper_steps(2, [])]
    for s in steps:
        filts.append(Filtration.from_proper_steps(2, [] if s.is_zero() else [s]))
    for s1 in steps:
        for s2 in steps:
            if s2.is_subspace_of(s1):
                proper = [s for s in (s1, s2) if not s.is_zero()]
                filts.append(Filtration.from_proper_steps(2, proper))
    unique = []
    for f in filts:
        if not any(f == g for g in unique):
            unique.append(f)
    return unique


def test_criterion_5_rees_oracle_equivalence():
    with Criterion(5, "Rees purity <-> semistability (exhaustive + 500 random)", 60.0):
        filts = _c2_filtrations(_c2_pool())
        pairs = list(itertools.product(filts, filts))
        checked = 0
        for f, fbar in pairs:
            bundle = ReesBundle(f, fbar)
            st = splitting_type(bundle)
            for w in range(-1, f.length + fbar.length + 1):
                pure = purity_oracle(f, fbar, w)
                assert pure == st.is_constant(w), (f, fbar, w)
                if pure:
                    assert st.degrees == (w,) * 2
                checked += 1
        assert len(pairs) >= 400
        rng = XorShift(5)
        for k in range(500):
            n = 3 if k < 250 else 4
            f = nested_filtration(rng, n)
            fbar = nested_filtration(rng, n)
            st = splitting_type(ReesBundle(f, fbar))
            for w in range(-1, f.length + fbar.length + 1):
                pure = purity_oracle(f, fbar, w)
                assert pure == st.is_constant(w)
                if pure:
                    assert st.degrees == (w,) * n


def test_criterion_6_worked_splitting_example():
    with Criterion(6, "worked impure example: profile (4,2,1), splitting (2,0)", 5.0):
        f = Filtration.from_proper_steps(2, [Subspace.span(2, [["1", "0"]])])
        b = ReesBundle(f, f)
        assert [h0(b, m) for m in (0, -1, -2)] == [4, 2, 1]
        st = splitting_type(b)
        assert st.degrees == (2, 0)
        for m in range(-7, 6):
            assert h0(b, m) == sum(max(a + m + 1, 0) for a in st.degrees)


def test_criterion_7_round_trips():
    with Criterion(7, "Hodge <-> quaternionic round trips (200 + 200, exact)", 30.0):
        rng = XorShift(7)
        for _ in range(200):
            h = weight1_structure(rng, 4)
            qs = quaternionic_from_hodge(h)
            chart = hodge_from_quaternionic(qs)
            qs2 = quaternionic_from_hodge(chart.hodge)
            pulled = chart.chart.inverse() @ qs2.jmat @ chart.chart
            assert pulled == qs.jmat
        for _ in range(200):
            qs = quaternionic_pair(rng, 8)
            chart = hodge_from_quaternionic(qs)
            assert chart.recovered_structure() == qs


def test_criterion_8_correspondence_and_normal_bundle():
    with Criterion(8, "correspondence < 1e-9 and normal bundle (1,..,1)", 60.0):
        for prep in CURVED:
            pts = hk.sample_cotangent_points(prep, 16, seed=8)
            for pt in pts:
                assert hk.correspondence_check(prep, pt) < 1e-9
                st = hk.twistor_normal_bundle_at(prep, pt)
                assert st.degrees == (1,) * (2 * prep.n)


def test_criterion_9_determinism(tmp_path):
    with Criterion(9, "verify reports byte-identical across runs", 30.0):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        argv = ["verify", "--entry", "cubic", "--points", "8", "--seed", "9",
                "--tol", "1e-5", "--step", "1e-5"]
        assert cli_main(argv + ["--out", str(out1)]) == 0
        assert cli_main(argv + ["--out", str(out2)]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        json.loads(b1)  # and it is valid JSON
