"""Mutation rows: each mutant monkeypatches one private rule, runs a sweep
through cli.main in-process, and names the exit code and the report keys
that must fail at every sampled point.  A row whose keys are empty is an
equivalent mutant for that command; its comment gives the identity that
makes it one."""

import json

import pytest

from specialk import hyperkahler as hk
from specialk.cli import main


def negate_j(monkeypatch):
    """The frame record's J rule negated; K = IJ and every zeta structure
    follow it, their derivative stacks do not."""
    jmat = hk.HyperkahlerFrame.jmat
    monkeypatch.setattr(hk.HyperkahlerFrame, "jmat", property(lambda fr: -jmat.func(fr)))


J_KEYS = {"nijenhuis_J", "nijenhuis_K", "domega_J", "domega_K",
          *(f"nijenhuis_zeta{k}" for k in range(8))}

# (id, mutant, command, exit code, keys failing at every point)
ROWS = [
    ("negate-j-correspondence", negate_j, ["hk", "correspondence"], 1, {"correspondence"}),
    ("negate-j-nijenhuis", negate_j, ["hk", "nijenhuis"], 1, J_KEYS),
    # equivalent: -J is also a quaternionic structure with I, and g-orthogonal
    ("negate-j-check", negate_j, ["hk", "check"], 0, set()),
]


@pytest.mark.parametrize("entry", ["cubic", "coupled"])
@pytest.mark.parametrize("mutant, command, code, failing", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_mutant_fails_its_keys(entry, mutant, command, code, failing, monkeypatch, capsys):
    mutant(monkeypatch)
    assert main([*command, "--entry", entry, "--points", "2"]) == code
    rep = json.loads(capsys.readouterr().out)
    tol = rep["config"]["tol"]
    for sample in rep["samples"]:
        res = sample["residuals"]
        assert {k for k, v in res.items() if v is None or v >= tol} == failing
