"""Mutation rows: each mutant monkeypatches one private rule and runs a
command through cli.main in-process.  A sweep row names the exit code and
the report keys that must fail at every sampled point, or the exception
the sweep must raise; a rees row names the fixtures whose report bytes
must change.  A row whose keys or fixtures are empty is an equivalent or
a blind mutant for that command; its comment gives the reason, and the
README lists it."""

import json
from pathlib import Path

import pytest

from specialk import _kernel, hodge, hyperkahler as hk, rees
from specialk.cli import main
from specialk.exact import ExactMatrix
from specialk.geometry import MetricDegenerateError

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
    """The report keys a sample fails: a residual at or over tol, or null,
    and a twistor splitting other than the expected one."""
    tol = rep["config"]["tol"]
    bad = {k for k, v in sample.get("residuals", {}).items() if v is None or v >= tol}
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
