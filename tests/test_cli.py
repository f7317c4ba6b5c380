"""CLI behavior: exit codes, report schemas, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randgen import properties
from specialk.cli import main
from specialk.utils import stable_json

PURE_C2 = {"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "i"]]]}
IMPURE_C2 = {"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "0"]]]}
FIXTURES = Path(__file__).parent / "fixtures"
# stdout of `rees split|purity` on the fixture filtrations; exact arithmetic
# makes these bytes the same on every platform
REES_REPORTS = json.loads((FIXTURES / "rees_reports.json").read_text())


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if isinstance(obj, dict) else obj)
    return str(path)


def run(args):
    return main(args)


def strict_loads(text):
    """json.loads that refuses the NaN/Infinity extensions."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestCatalog:
    def test_lists_entries(self, capsys):
        assert run(["catalog"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in out["entries"]] == [
            "quadratic", "cubic", "swlog", "coupled",
        ]


class TestVerify:
    def test_quadratic_passes_tight(self, tmp_path):
        out = tmp_path / "r.json"
        code = run([
            "verify", "--entry", "quadratic", "--points", "8",
            "--seed", "1", "--tol", "1e-8", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["pass"] is True
        assert len(rep["samples"]) == 8
        assert rep["config"]["entry"] == "quadratic"
        assert rep["version"]

    def test_unknown_entry(self, capsys):
        assert run(["verify", "--entry", "nosuch"]) == 2

    def test_sampling_failure_exit_code(self, monkeypatch, capsys):
        from specialk import cli, geometry

        def fail(*args, **kwargs):
            raise geometry.SamplingError("domain exhausted")

        monkeypatch.setattr(cli.geometry, "sample_points", fail)
        assert run(["verify", "--entry", "cubic", "--points", "2"]) == 3

    def test_cubic_sweep(self, tmp_path):
        out = tmp_path / "r.json"
        code = run([
            "verify", "--entry", "cubic", "--points", "8",
            "--seed", "7", "--tol", "1e-5", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        names = set(rep["summary"]["max_residuals"])
        assert {"e2", "e3", "e5", "e6", "e8", "e9", "dbarA", "flatness"} <= names

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        code = run([
            "verify", "--entry", "cubic", "--points", "2",
            "--seed", "1", "--tol", "1e-18",
        ])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--points", "0"],
            ["verify", "--points", "-3"],
            ["verify", "--points", "two"],
            ["verify", "--step", "0"],
            ["verify", "--step", "-1"],
            ["verify", "--step", "nan"],
            ["verify", "--step", "inf"],
            ["verify", "--step", "small"],
            ["verify", "--tol", "nan"],
            ["verify", "--tol", "inf"],
            ["verify", "--tol", "0"],
            ["verify", "--tol", "-1"],
            ["hk", "correspondence", "--points", "0"],
            ["hk", "nijenhuis", "--step", "-1e-4"],
            ["twistor", "normal-bundle", "--step", "0"],
            ["verify", "--entry", "quadratic(n=2.5)"],
            ["verify", "--entry", "cubic(x=1)"],
            ["verify", "--entry", "quadratic(n=2,n=3)"],
            ["verify", "--entry", "swlog(lambda=1,lam=2)"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_bad_sweep_flags_are_usage_errors(self, argv, capsys):
        entry = argv[argv.index("--entry") + 1] if "--entry" in argv else None
        if entry:
            # selectors are parsed after argparse, which returns the code
            assert run(argv) == 2
        else:
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--entry", "cubic"])
            assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "Traceback" not in captured.err
        if entry:
            assert entry.split("(")[0] in errors[0]

    def test_stencil_failure_exit_code(self, monkeypatch, capsys):
        """A sample point inside the sampler's margin but closer to the
        boundary than the potential stencil ends in exit 3."""
        from specialk import cli

        monkeypatch.setattr(
            cli.geometry, "sample_points", lambda *a, **k: [np.array([0.3 + 1e-4j])]
        )
        assert run(["verify", "--entry", "cubic", "--points", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: shrink step or move point")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_residual_prints_null_and_fails(self, capsys):
        """swlog's sample box scales with lambda, and near 1e-300 the
        connection terms overflow: the residuals that read NaN print as
        null, fail the point, and stay NaN (null) in the summary instead
        of folding to 0."""
        assert run(["verify", "--entry", "swlog(lambda=1e-300)", "--points", "1"]) == 1
        rep = strict_loads(capsys.readouterr().out)
        assert rep["samples"][0]["residuals"]["dbarA"] is None
        assert rep["summary"]["max_residuals"]["dbarA"] is None
        assert rep["summary"]["pass"] is False

    def test_determinism_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["verify", "--entry", "swlog", "--points", "5", "--seed", "11"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestRees:
    def test_pure_split(self, tmp_path, capsys):
        path = write(tmp_path, "pure.json", PURE_C2)
        assert run(["rees", "split", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["splitting"] == [1, 1]
        assert rep["semistable_of"] == [1]
        assert rep["degree"] == 2 and rep["rank"] == 2 and rep["slope"] == "1"

    def test_impure_split_and_purity(self, tmp_path, capsys):
        path = write(tmp_path, "impure.json", IMPURE_C2)
        assert run(["rees", "split", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["splitting"] == [2, 0]
        assert rep["semistable_of"] == []
        assert run(["rees", "purity", "--weight", "1", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["pure"] is False and rep["semistable"] is False
        assert rep["agree"] is True

    def test_explicit_conjugate_steps(self, tmp_path, capsys):
        obj = dict(PURE_C2)
        obj["conjugate_steps"] = [[["1", "0"], ["0", "1"]], [["1", "-i"]]]
        path = write(tmp_path, "explicit.json", obj)
        assert run(["rees", "split", path]) == 0
        assert json.loads(capsys.readouterr().out)["splitting"] == [1, 1]

    def test_real_structure_input(self, tmp_path, capsys):
        obj = dict(PURE_C2)
        obj["conjugate"] = True
        obj["real_structure"] = [
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"],
        ]
        path = write(tmp_path, "rs.json", obj)
        assert run(["rees", "split", path]) == 0
        assert json.loads(capsys.readouterr().out)["splitting"] == [1, 1]

    def test_empty_steps_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "empty.json", {"dim": 2, "steps": []})
        assert run(["rees", "split", path]) == 4

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{\"dim\": 2, \"steps\": ")
        assert run(["rees", "split", path]) == 2

    def test_inconsistent_chain_is_data_error(self, tmp_path, capsys):
        obj = {
            "dim": 2,
            "steps": [
                [["1", "0"], ["0", "1"]],
                [["1", "0"]],
                [["0", "1"]],  # not contained in the previous step
            ],
        }
        path = write(tmp_path, "chain.json", obj)
        assert run(["rees", "split", path]) == 4

    @pytest.mark.parametrize(
        "fixture,command",
        [(f, c) for f, reports in REES_REPORTS.items() for c in reports],
    )
    def test_fixture_report_bytes(self, fixture, command, capsys):
        """One filtration conjugated by the standard real structure, one
        with explicit conjugate_steps."""
        assert run(["rees", *command.split(), str(FIXTURES / fixture)]) == 0
        assert capsys.readouterr().out == REES_REPORTS[fixture][command]

    def test_zero_denominator_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "zero.json", {"dim": 2, "steps": [[["1/0", "1"]]]})
        assert run(["rees", "split", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: inconsistent filtration: zero denominator in '1/0'\n"


class TestHyperkahler:
    def test_check_quadratic(self, tmp_path):
        out = tmp_path / "hk.json"
        code = run([
            "hk", "check", "--entry", "quadratic", "--points", "4",
            "--tol", "1e-10", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["max_residuals"]["quaternion"] < 1e-10

    def test_correspondence_cubic(self, tmp_path):
        out = tmp_path / "c.json"
        code = run([
            "hk", "correspondence", "--entry", "cubic", "--points", "4",
            "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["max_residuals"]["correspondence"] < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_correspondence_singular_identification_prints_null(self, capsys):
        """Near lambda = 1e-300 the frame overflows and the identification
        matrix is singular: the residual is null and the point fails."""
        argv = ["hk", "correspondence", "--entry", "swlog(lambda=1e-300)", "--points", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        rep = strict_loads(captured.out)
        assert rep["samples"][0]["residuals"]["correspondence"] is None
        assert rep["summary"]["pass"] is False
        assert "Traceback" not in captured.err

    def test_nijenhuis_swlog(self, tmp_path):
        out = tmp_path / "n.json"
        code = run([
            "hk", "nijenhuis", "--entry", "swlog", "--points", "2",
            "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        names = set(rep["summary"]["max_residuals"])
        assert {"nijenhuis_I", "nijenhuis_J", "nijenhuis_K"} <= names
        assert sum(1 for k in names if k.startswith("nijenhuis_zeta")) == 8

    def test_nijenhuis_stencil_failure_exit_code(self, monkeypatch, capsys):
        """The 4th-order stencil at --step 1e-4 reaches Im z - 2e-4 < 0."""
        from specialk import cli, hyperkahler

        pt = hyperkahler.CotangentPoint(z=np.array([0.3 + 1e-4j]), alpha=np.zeros(2))
        monkeypatch.setattr(
            cli.hyperkahler, "sample_cotangent_points", lambda *a, **k: [pt]
        )
        assert run(["hk", "nijenhuis", "--entry", "cubic", "--points", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: shrink step or move point")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_twistor_normal_bundle(self, tmp_path):
        out = tmp_path / "t.json"
        code = run([
            "twistor", "normal-bundle", "--entry", "coupled", "--points", "2",
            "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["expected"] == [1, 1, 1, 1]
        assert all(s["splitting"] == [1, 1, 1, 1] for s in rep["samples"])


class TestReportFormat:
    def test_floats_17_digits_and_sorted_keys(self, tmp_path):
        out = tmp_path / "r.json"
        run(["verify", "--entry", "cubic", "--points", "2", "--seed", "3",
             "--out", str(out)])
        text = out.read_text()
        rep = json.loads(text)
        # keys of every object are sorted
        def check_sorted(obj):
            if isinstance(obj, dict):
                assert list(obj) == sorted(obj)
                for v in obj.values():
                    check_sorted(v)
            elif isinstance(obj, list):
                for v in obj:
                    check_sorted(v)
        check_sorted(rep)
        assert text.rstrip("\n") == text.strip()

    @properties
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text()
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=10,
        )
    )
    def test_stable_json_is_strict_json(self, value):
        """Every output parses as strict JSON and gives the value back,
        with non-finite floats read as null."""

        def expected(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            if isinstance(v, list):
                return [expected(x) for x in v]
            if isinstance(v, dict):
                return {k: expected(x) for k, x in v.items()}
            return v

        assert strict_loads(stable_json(value)) == expected(value)
