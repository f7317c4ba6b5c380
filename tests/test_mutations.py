"""Mutation rows: each mutant monkeypatches one rule and runs a command
through cli.main in-process.  A sweep row names the exit code and the
report keys that must fail at every sampled point, or the exception the
sweep must raise; a verify row names those keys per entry; a rees row
names the fixtures whose report bytes must change.  A row whose keys or fixtures are empty is an equivalent or
a blind mutant for that command; its comment gives the reason, and the
README lists it."""

import json
from pathlib import Path

import numpy as np
import pytest

from specialk import _kernel, exact, geometry as geo, hodge, hyperkahler as hk, rees
from specialk.cli import main
from specialk.exact import ExactMatrix
from specialk.geometry import MetricDegenerateError
from specialk.prepotentials import Coupled

FIXTURES = Path(__file__).parent / "fixtures"
REES_REPORTS = json.loads((FIXTURES / "rees_reports.json").read_text())


def negate_j(monkeypatch):
    """The frame record's J rule negated; K = IJ and every zeta structure
    follow it, their derivative stacks do not."""
    jmat = hk.HyperkahlerFrame.jmat
    monkeypatch.setattr(hk.HyperkahlerFrame, "jmat", property(lambda fr: -jmat.func(fr)))


def _mutate_bridge(monkeypatch, change):
    """Apply change to the matrix the twistor point's float->rational
    bridge returns."""
    rationalize = hk.rationalize_matrix

    def mutated(array):
        g, err = rationalize(array)
        return change(g), err

    monkeypatch.setattr(hk, "rationalize_matrix", mutated)


def negate_g(monkeypatch):
    """The bridge returns -G: negative definite, and still invertible."""
    _mutate_bridge(monkeypatch, lambda g: -g)


def zero_last_diagonal(monkeypatch):
    """The bridge returns G with its last diagonal entry 0, so e^T G e = 0
    for the last basis vector e."""
    def change(g):
        rows = [list(row) for row in g.entries]
        rows[-1][-1] = 0
        return ExactMatrix(rows)

    _mutate_bridge(monkeypatch, change)


def negate_curvature(monkeypatch):
    """The curvature of D, R_D, negated."""
    curvature = geo._curvature
    monkeypatch.setattr(geo, "_curvature", lambda gamma, dg: -curvature(gamma, dg))


def swap_higgs(monkeypatch):
    """_higgs_split returns Abar for A and A for Abar."""
    split = geo._higgs_split

    def mutated(ar):
        a, abar, offtype = split(ar)
        return abar, a, offtype

    monkeypatch.setattr(geo, "_higgs_split", mutated)


def conjugate_chart(monkeypatch):
    """The real-chart rule with d/dp = -i d/dx.  The shared holomorphic
    frame is built first, so the cached frame stays the true one."""
    for n in (1, 2):
        geo.holomorphic_frame(n)

    def mutated(t, axes):
        t = np.asarray(t, dtype=complex)
        for ax in axes:
            it = np.empty_like(t)
            it.real, it.imag = t.imag, -t.real
            t = np.concatenate([t, it], axis=ax)
        return t

    monkeypatch.setattr(geo, "_real_chart", mutated)


def negate_domega(monkeypatch):
    """_metric_derivatives returns the derivative stack of -omega."""
    derivatives = geo._metric_derivatives

    def mutated(c):
        dg, domega = derivatives(c)
        return dg, -domega

    monkeypatch.setattr(geo, "_metric_derivatives", mutated)


def drop_gamma(monkeypatch):
    """_covariant_ext differentiates without the Christoffels of D."""
    ext = geo._covariant_ext
    monkeypatch.setattr(geo, "_covariant_ext",
                        lambda t, dt, gamma_d: ext(t, dt, np.zeros_like(gamma_d)))


def asymmetric_c(monkeypatch):
    """Coupled's C with C[0, 0, 1] moved by 1e-3, so C is no longer
    totally symmetric."""
    third = Coupled.third

    def mutated(self, z):
        c = np.array(third(self, z), dtype=complex)
        c[0, 0, 1] += 1e-3
        return c

    monkeypatch.setattr(Coupled, "third", mutated)


def real_frame(monkeypatch):
    """The holomorphic frame e_j + i e_{n+j} loses its imaginary part."""
    frame = geo.holomorphic_frame
    monkeypatch.setattr(geo, "holomorphic_frame", lambda n: frame(n).real.astype(complex))


def conjugate_frame(monkeypatch):
    """The holomorphic frame conjugated: e_j - i e_{n+j}."""
    frame = geo.holomorphic_frame
    monkeypatch.setattr(geo, "holomorphic_frame", lambda n: np.conj(frame(n)))


def halve_circle(monkeypatch):
    """The potential check's nodes at radius r / 2, while its sum still
    divides by r."""
    monkeypatch.setattr(geo, "_CIRCLE", geo._CIRCLE / 2)


def reverse_circle(monkeypatch):
    """The potential check's nodes in reverse order."""
    monkeypatch.setattr(geo, "_CIRCLE", geo._CIRCLE[::-1].copy())


def swap_projectors(monkeypatch):
    """type_projectors returns (P01, P10)."""
    projectors = geo.type_projectors
    monkeypatch.setattr(geo, "type_projectors", lambda n: projectors(n)[::-1])


def swap_wedge(monkeypatch):
    """_wedge forms Q ^ P for P ^ Q."""
    wedge = geo._wedge
    monkeypatch.setattr(geo, "_wedge", lambda p, q: wedge(q, p))


def farther_candidate(monkeypatch):
    """exact._limit returns the farther of its two candidates: the last
    convergent within the bound or the semiconvergent after it.  They are
    neighbours in the Farey sequence of order MAX_DENOMINATOR, p/q and
    p'/q' with q + q' > MAX_DENOMINATOR, so a rounded entry moves by
    1/(q q') at most."""
    def mutated(x):
        n0, d0 = x.as_integer_ratio()
        if d0 <= exact.MAX_DENOMINATOR:
            return n0, d0, 0.0
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = n0, d0
        while q0 + (n // d) * q1 <= exact.MAX_DENOMINATOR:
            a = n // d
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, d = d, n - a * d
        k = (exact.MAX_DENOMINATOR - q0) // q1
        ps, qs = p0 + k * p1, q0 + k * q1
        e1, es = p1 * d0 - n0 * q1, ps * d0 - n0 * qs
        if abs(e1) * qs <= abs(es) * q1:
            return ps, qs, es / (qs * d0)
        return p1, q1, e1 / (q1 * d0)

    monkeypatch.setattr(exact, "_limit", mutated)


def drop_conjugation(monkeypatch):
    """RealStructure.apply_subspace applies S without conjugating first."""
    monkeypatch.setattr(hodge.RealStructure, "apply_subspace", lambda r, s: s.apply(r.s))


def f_for_fbar(monkeypatch):
    """rees.splitting_type reads F where its table reads Fbar."""
    split = rees.splitting_type
    monkeypatch.setattr(rees, "splitting_type", lambda b: split(rees.ReesBundle(b.f, b.f)))


def unnormalized_pivots(monkeypatch):
    """_kernel.rref returns every pivot row at pivot 2 instead of 1."""
    rref = _kernel.rref

    def mutated(rows, ncols):
        red, pivots = rref(rows, ncols)
        return [[r[0], *(2 * v for v in r[1:])] for r in red], pivots

    monkeypatch.setattr(_kernel, "rref", mutated)


J_KEYS = {"nijenhuis_J", "nijenhuis_K", "domega_J", "domega_K",
          *(f"nijenhuis_zeta{k}" for k in range(8))}
TWISTOR = ["twistor", "normal-bundle"]

# (id, mutant, command, exit code, keys failing at every point)
ROWS = [
    ("negate-j-correspondence", negate_j, ["hk", "correspondence"], 1, {"correspondence"}),
    ("negate-j-nijenhuis", negate_j, ["hk", "nijenhuis"], 1, J_KEYS),
    # equivalent: -J is also a quaternionic structure with I, and g-orthogonal
    ("negate-j-check", negate_j, ["hk", "check"], 0, set()),
    # blind: the twistor point reads no frame, only Im tau
    ("negate-j-twistor", negate_j, TWISTOR, 0, set()),
    # blind: a rounded entry moves by 1/(q q') at most, and Im tau stays
    # positive definite
    ("farther-candidate-twistor", farther_candidate, TWISTOR, 0, set()),
]

EQUATION_KEYS = {"e2", "e3", "e5", "e6"}

# (id, mutant, {entry: keys failing at every point of `verify`}); verify
# exits 1 when a key fails, else 0
VERIFY_ROWS = [
    ("negate-curvature", negate_curvature,
     {"cubic": {"e9", "flatness"}, "coupled": {"e9", "flatness"}}),
    ("swap-higgs", swap_higgs,
     {"cubic": {"dbarA", "e8"}, "coupled": {"dbarA", "e8", *EQUATION_KEYS}}),
    # I = [[0, Id], [-Id, 0]] is fixed, so only the checks that compare
    # with it see the mirrored chart
    ("conjugate-chart", conjugate_chart,
     {"cubic": {"darboux", "flat_structure"}, "coupled": {"darboux", "flat_structure"}}),
    ("negate-domega", negate_domega,
     {"cubic": {"nabla_omega"}, "coupled": {"nabla_omega"}}),
    ("drop-gamma", drop_gamma,
     {"cubic": {"dbarA", "e8", "flatness"},
      "coupled": {"dbarA", "e8", "flatness", *EQUATION_KEYS}}),
    # C has one entry at n = 1.  The chart and the potential check read tau
    # and w alone; the holomorphy residual is the mixed d d-bar part of
    # Gamma_flat, which is zero for any C (see conjugate-frame)
    ("asymmetric-c", asymmetric_c,
     {"coupled": {"dbarA", "e8", "e9", "flatness", "d_omega", "dnabla_I_symmetry",
                  "nabla_omega", *EQUATION_KEYS}}),
    ("real-frame", real_frame, {"cubic": {"vhs_holomorphy"}, "coupled": {"vhs_holomorphy"}}),
    ("halve-circle", halve_circle,
     {"cubic": {"kahler_potential"}, "coupled": {"kahler_potential"}}),
    # equivalent: conjugation swaps P10 and P01, so every tensor the suite
    # projects is conjugated, and each residual is a sup norm, which
    # conjugation keeps
    ("swap-projectors", swap_projectors, {"cubic": set(), "coupled": set()}),
    # equivalent: the suite wedges A and nabla - D each with itself, and
    # reads A ^ Abar only beside its conjugate Abar ^ A
    ("swap-wedge", swap_wedge, {"cubic": set(), "coupled": set()}),
    # equivalent: Gamma_flat is real and symmetric and its y-rows are the
    # second derivatives of Re w, whose mixed d d-bar part vanishes; the
    # residual contracts Gamma_flat with one E and one conj(E), in either
    # order
    ("conjugate-frame", conjugate_frame, {"cubic": set(), "coupled": set()}),
    # equivalent: each node keeps its weight; only the order of the sum
    # changes
    ("reverse-circle", reverse_circle, {"cubic": set(), "coupled": set()}),
    # blind: the rationalized Im tau stays positive definite, and verify
    # reports no rationalization error
    ("farther-candidate", farther_candidate, {"cubic": set(), "coupled": set()}),
]

# (id, mutant, command, exception the sweep raises at its first point)
RAISING_ROWS = [
    ("negate-g-twistor", negate_g, TWISTOR, MetricDegenerateError),
    ("zero-last-diagonal-twistor", zero_last_diagonal, TWISTOR, MetricDegenerateError),
]

# (id, mutant, fixtures whose `rees split|purity` reports change)
REES_ROWS = [
    # the explicit fixture gives its conjugate steps, so no real structure
    ("drop-conjugation", drop_conjugation, {"rees_conjugate.json"}),
    ("f-for-fbar", f_for_fbar, {"rees_conjugate.json", "rees_explicit.json"}),
    # blind: the reports read dimensions only, and a scaled row spans the
    # same line
    ("unnormalized-pivots", unnormalized_pivots, set()),
]


def failed_keys(rep, sample):
    """The report keys a sample fails: a residual at or over its bound, or
    null, a false check, and a twistor splitting other than the expected
    one.  The bound is tol, and max(tol, 1e-7) for the potential check."""
    tol = rep["config"]["tol"]
    bound = {"kahler_potential": max(tol, 1e-7)}
    bad = {k for k, v in sample.get("residuals", {}).items()
           if v is None or v >= bound.get(k, tol)}
    bad |= {k for k, v in sample.get("checks", {}).items() if not v}
    if "splitting" in sample and sample["splitting"] != rep["expected"]:
        bad.add("splitting")
    return bad


@pytest.mark.parametrize("entry", ["cubic", "coupled"])
@pytest.mark.parametrize("mutant, command, code, failing", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_mutant_fails_its_keys(entry, mutant, command, code, failing, monkeypatch, capsys):
    mutant(monkeypatch)
    assert main([*command, "--entry", entry, "--points", "2"]) == code
    rep = json.loads(capsys.readouterr().out)
    for sample in rep["samples"]:
        assert failed_keys(rep, sample) == failing


@pytest.mark.parametrize("mutant, entry, failing", [
    (mutant, entry, failing)
    for _, mutant, by_entry in VERIFY_ROWS for entry, failing in by_entry.items()
], ids=[f"{row[0]}-{entry}" for row in VERIFY_ROWS for entry in row[2]])
def test_verify_mutant_fails_its_keys(mutant, entry, failing, monkeypatch, capsys):
    mutant(monkeypatch)
    assert main(["verify", "--entry", entry, "--points", "2"]) == (1 if failing else 0)
    rep = json.loads(capsys.readouterr().out)
    for sample in rep["samples"]:
        assert failed_keys(rep, sample) == failing


@pytest.mark.parametrize("entry", ["cubic", "coupled"])
@pytest.mark.parametrize("mutant, command, error", [row[1:] for row in RAISING_ROWS],
                         ids=[row[0] for row in RAISING_ROWS])
def test_mutant_raises(entry, mutant, command, error, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(error):
        main([*command, "--entry", entry, "--points", "2"])


@pytest.mark.parametrize("mutant, changed", [row[1:] for row in REES_ROWS],
                         ids=[row[0] for row in REES_ROWS])
def test_mutant_changes_its_fixtures(mutant, changed, monkeypatch, capsys):
    mutant(monkeypatch)
    moved = set()
    for fixture, reports in REES_REPORTS.items():
        for command, want in reports.items():
            code = main(["rees", *command.split(), str(FIXTURES / fixture)])
            if (code, capsys.readouterr().out) != (0, want):
                moved.add(fixture)
    assert moved == changed
