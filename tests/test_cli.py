"""CLI behavior: exit codes, report schemas, determinism."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randgen import properties
from specialk.cli import main
from specialk.exact import ExactMatrix
from specialk.utils import stable_json

PURE_C2 = {"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "i"]]]}
IMPURE_C2 = {"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "0"]]]}
FIXTURES = Path(__file__).parent / "fixtures"
# stdout of `rees split|purity` on the fixture filtrations; exact arithmetic
# makes these bytes the same on every platform
REES_REPORTS = json.loads((FIXTURES / "rees_reports.json").read_text())
# stdout of `twistor normal-bundle --points 8 --seed 7` per entry
TWISTOR_REPORTS = json.loads((FIXTURES / "twistor_reports.json").read_text())


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
            ["verify", "--entry", "swlog(lam=2)"],
            ["verify", "--entry", "swlog(lambda=nan)"],
            ["verify", "--entry", "swlog(lambda=inf)"],
            ["verify", "--entry", "quadratic(n=13)"],
            # past int()'s digit limit; float() would read the run as inf
            pytest.param(["verify", "--entry", "quadratic(n=" + "9" * 5000 + ")"],
                         id="verify --entry quadratic(n=<5000 nines>)"),
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

    @pytest.mark.parametrize(
        "entry",
        ["quadratic(n=-" + "1" * 4000 + ")", "swlog(lambda=1" + "0" * 400 + ")"],
        ids=["quadratic(n=-<4000 ones>)", "swlog(lambda=1<400 zeros>)"],
    )
    def test_long_parameter_is_refused_in_one_short_line(self, entry, capsys):
        """An integer parameter far outside its range, or beyond the float
        range, is a usage error whose line shows only its first digits."""
        assert run(["verify", "--entry", entry, "--points", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + entry.split("(")[0])
        assert captured.err.count("\n") == 1
        assert len(captured.err) <= 100

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

    @pytest.mark.parametrize(
        "sweep", [["verify"], ["hk", "check"], ["twistor", "normal-bundle"]],
        ids=" ".join,
    )
    def test_overflowing_lambda_is_a_sampling_failure(self, sweep, capsys):
        """Below lambda ~ 1e-308, z / lambda overflows on the whole sample
        box, so no point is in the domain: one line and exit 3, not a
        traceback from the NaN tau."""
        assert run([*sweep, "--entry", "swlog(lambda=1e-310)", "--points", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: swlog: found only 0/2 points in 1000 draws\n"

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

    @pytest.mark.parametrize(
        "sweep,code",
        [(["verify"], 1), (["hk", "check"], 1), (["hk", "nijenhuis"], 1),
         (["hk", "correspondence"], 1), (["twistor", "normal-bundle"], 0)],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_overflowed_frame_is_silent(self, sweep, code, capsys):
        """Near lambda = 1e-300 the frame overflows: the float sweeps fail
        the point on NaN residuals without a numpy warning, and the exact
        twistor path, which reads only the metric, still passes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([*sweep, "--entry", "swlog(lambda=1e-300)", "--points", "1"]) == code
        captured = capsys.readouterr()
        assert strict_loads(captured.out)["summary"]["pass"] is (code == 0)
        assert captured.err == ""

    def test_determinism_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["verify", "--entry", "swlog", "--points", "5", "--seed", "11"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_one_point_reads_its_jet_once(self, monkeypatch, capsys):
        """One cubic point, the work of --points 3 less that of --points 2,
        reads tau, C and d^4 F once each (the potential check reads the
        record's metric), and runs one metric Cholesky, one chart SVD and
        at most two inverses (g and the flat Jacobian)."""
        from specialk.prepotentials import Cubic

        counts = {}

        def count(owner, name):
            method = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return method(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("hess", "third", "fourth"):
            count(Cubic, name)
        for name in ("cholesky", "svd", "inv"):
            count(np.linalg, name)
        runs = []
        for points in ("2", "3"):
            counts.clear()
            assert run(["verify", "--entry", "cubic", "--points", points]) == 0
            runs.append(dict(counts))
        capsys.readouterr()
        one = {k: runs[1].get(k, 0) - runs[0].get(k, 0) for k in runs[1]}
        assert (one["hess"], one["third"], one["fourth"]) == (1, 1, 1), one
        assert (one["cholesky"], one["svd"]) == (1, 1), one
        assert one["inv"] <= 2, one

    @pytest.mark.parametrize("entry", ["cubic", "coupled"])
    @pytest.mark.parametrize(
        "mutant",
        [
            lambda g: -g,      # Q = +omega, the sign convention flipped
            # the last diagonal entry of G set to 0: on coupled only the
            # last leading minor goes wrong
            lambda g: ExactMatrix([
                [0 if i == j == g.rows - 1 else g[i, j] for j in range(g.cols)]
                for i in range(g.rows)
            ]),
        ],
        ids=["negated", "zero-diagonal"],
    )
    def test_polarization_can_fail(self, entry, mutant, monkeypatch, capsys):
        """A VHS point whose rationalized G = Im tau is not positive definite
        fails checks.polarization, and only that check, at every point."""
        from specialk import hodge

        rationalize = hodge.rationalize_matrix

        def mutated(array):
            g, err = rationalize(array)
            return mutant(g), err

        monkeypatch.setattr(hodge, "rationalize_matrix", mutated)
        assert run(["verify", "--entry", entry, "--points", "2"]) == 1
        rep = strict_loads(capsys.readouterr().out)
        for sample in rep["samples"]:
            assert sample["checks"] == {"pure_weight_1": True, "polarization": False}
            assert all(v < 1e-5 for v in sample["residuals"].values())

    @pytest.mark.parametrize("entry", ["cubic", "swlog", "coupled", "quadratic(n=3)"])
    def test_shared_record_keeps_every_bit(self, entry, capsys):
        """Each sample's residuals and checks are, bit for bit, those of the
        public (prep, z) calls made one by one on the raw point."""
        from specialk import geometry, hodge
        from specialk.prepotentials import parse_entry

        assert run(["verify", "--entry", entry, "--points", "4", "--seed", "7"]) == 0
        samples = strict_loads(capsys.readouterr().out)["samples"]
        prep = parse_entry(entry)
        for sample, z in zip(samples, geometry.sample_points(prep, 4, seed=7), strict=True):
            residuals = dict(geometry.check_equations(prep, z).residuals)
            residuals.update(geometry.check_special_conditions(prep, z).residuals)
            vhs = hodge.vhs_from_special_kahler(prep, [z])[0]
            residuals["kahler_potential"] = geometry.kahler_potential_residual(prep, z)
            residuals["darboux"] = geometry.flat_omega_residual(prep, z)
            residuals["flat_structure"] = geometry.flat_structure_certificate(prep, z)
            residuals["vhs_holomorphy"] = vhs["holomorphy_residual"]
            checks = {"pure_weight_1": vhs["pure_weight_1"],
                      "polarization": vhs["polarization_pass"]}
            assert stable_json(sample["residuals"]) == stable_json(residuals)
            assert sample["checks"] == checks


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

    def test_purity_at_far_negative_weight(self, capsys):
        """A weight of -10^12 is answered at once: the pieces outgrow the
        space after a few steps of the weight range."""
        path = str(FIXTURES / "rees_explicit.json")
        assert run(["rees", "purity", "--weight", str(-10**12), path]) == 0
        rep = strict_loads(capsys.readouterr().out)
        assert rep["pure"] is False and rep["semistable"] is False
        assert rep["config"] == {"command": "rees purity", "weight": -10**12}

    def test_signed_exponent_literal(self, tmp_path, capsys):
        """1e-5 is a scalar literal like 1: it spans the same line."""
        for name, literal in (("exp.json", "1e-5"), ("one.json", "1")):
            path = write(tmp_path, name, {"dim": 1, "steps": [[[literal]]]})
            assert run(["rees", "split", path]) == 0
        exp, one = capsys.readouterr().out.splitlines()
        assert exp == one
        assert strict_loads(exp)["splitting"] == [0]

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

    def test_real_structure_is_applied_without_conjugate_flag(self, tmp_path, capsys):
        """A given real_structure makes Fbar whether or not the document also
        carries "conjugate": true; the coordinate swap splits F = <e1> as
        (1, 1), where coordinate conjugation would give (2, 0)."""
        obj = dict(IMPURE_C2)
        obj["real_structure"] = [
            ["0", "1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "-1", "0"],
        ]
        outputs = []
        for name, doc in (("rs.json", obj), ("flag.json", {**obj, "conjugate": True})):
            assert run(["rees", "split", write(tmp_path, name, doc)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert strict_loads(outputs[0].out)["splitting"] == [1, 1]

    def test_empty_steps_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "empty.json", {"dim": 2, "steps": []})
        assert run(["rees", "split", path]) == 4

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{\"dim\": 2, \"steps\": ")
        assert run(["rees", "split", path]) == 2

    def test_deeply_nested_json_is_one_line_usage_error(self, tmp_path, capsys):
        """The JSON reader raises RecursionError on arrays nested this deep:
        malformed input (exit 2, one line), not a failed check."""
        depth = 200_000
        text = '{"dim": 1, "steps": [[' + "[" * depth + "]" * depth + "]]}"
        assert run(["rees", "split", write(tmp_path, "deep.json", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed input: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b'{"dim": 1, "steps": ', "Expecting value: line 1 column 21 (char 20)"),
        ],
        ids=["not-utf-8", "truncated-json"],
    )
    def test_unreadable_input_is_one_line_usage_error(self, tmp_path, capsys, data, message):
        """Text that does not decode, or is not JSON, is malformed input
        (exit 2), not a data error."""
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert run(["rees", "split", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed input: {message}\n"

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

    @pytest.mark.parametrize("number", ["1e-400", "1e400", "1" + "0" * 4999],
                             ids=["1e-400", "1e400", "5000-digit-integer"])
    def test_bare_number_reads_as_its_string(self, tmp_path, capsys, number):
        """A JSON number is read exactly from its text, as the string of the
        same text is: 1e-400 is not rounded to 0, 1e400 not to inf, and a
        5000-digit integer is not held to Python's 4300-digit limit."""
        doc = '{"dim": 2, "steps": [[[%s, "0"], ["0", "1"]], [[%s, "i"]]]}'
        outputs = []
        for entry in (number, f'"{number}"'):
            path = write(tmp_path, "number.json", doc % (entry, entry))
            assert run(["rees", "split", path]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert strict_loads(outputs[0].out)["splitting"] == [1, 1]

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"dim": 2.5, "steps": [[["1", "0"], ["0", "1"]]]}',
             "filtration JSON needs an integer 'dim'"),
            ('{"dim": true, "steps": [[["1"]]]}', "filtration JSON needs an integer 'dim'"),
            ('{"dim": 1e400, "steps": [[["1"]]]}', "filtration JSON needs an integer 'dim'"),
            ('{"dim": "2", "steps": [[["1", "0"], ["0", "1"]]]}',
             "filtration JSON needs an integer 'dim'"),
            ('{"dim": 2, "steps": [[["1", "0"], ["0", "1"]]], "conjugate": true,'
             ' "real_structure": 5}', "'real_structure' must be a list of rows"),
            ('{"dim": 2, "steps": [[["1", "0"], ["0", "1"]]], "conjugate": true,'
             ' "real_structure": ["1", "0"]}', "'real_structure' must be a list of rows"),
            # one above the exponent bound; a literal like 1e999999999 would
            # build the whole integer before failing
            ('{"dim": 1, "steps": [[["1e4301"]]]}',
             "exponent beyond 4300 in scalar literal '1e4301'"),
            ('{"dim": 1, "steps": [[["1e-4301"]]]}',
             "exponent beyond 4300 in scalar literal '1e-4301'"),
            # one digit over the digit-run bound, in a decimal literal
            ('{"dim": 1, "steps": [[["1.' + "5" * 43001 + '"]]]}',
             f"more than 43000 digits in scalar literal {'1.' + '5' * 38!r}..."),
            # and in a bare JSON integer, read by the same reader
            ('{"dim": 1, "steps": [[[1' + "0" * 43000 + ']]]}',
             f"more than 43000 digits in scalar literal {'1' + '0' * 39!r}..."),
            # a scalar is a JSON string or number: other kinds are named
            ('{"dim": 1, "steps": [[[null]]]}',
             "a scalar must be a JSON string or number, not null"),
            ('{"dim": 1, "steps": [[[true]]]}',
             "a scalar must be a JSON string or number, not a boolean"),
            ('{"dim": 1, "steps": [[[[1]]]]}',
             "a scalar must be a JSON string or number, not an array"),
            ('{"dim": 1, "steps": [[[{"a": 1}]]]}',
             "a scalar must be a JSON string or number, not an object"),
            ('{"dim": 1, "steps": [[[NaN]]]}', "NaN is not a JSON number"),
            ('{"dim": 2, "steps": [[["1", "0"], ["0", "1"]]], "conjugate": true,'
             ' "real_structure": [[null, "1", "0", "0"]]}',
             "a scalar must be a JSON string or number, not null"),
            # 'conjugate' is not read: a given real structure is applied, and
            # the identity fails its own check
            ('{"dim": 2, "steps": [[["1", "0"], ["0", "1"]]], "conjugate": "false",'
             ' "real_structure": [["1", "0", "0", "0"], ["0", "1", "0", "0"],'
             ' ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}',
             "real structure must anticommute with i"),
            # Fbar given twice
            ('{"dim": 1, "steps": [[["1"]]], "conjugate_steps": [[["1"]]],'
             ' "real_structure": [["1", "0"], ["0", "-1"]]}',
             "give 'conjugate_steps' or 'real_structure', not both"),
            # str cannot print an int past 4300 digits; the refusal names dim
            # by its first digits and its digit count
            ('{"dim": 1' + "0" * 4999 + ', "steps": [[["1"]]]}',
             "vectors must have length 'dim' = 100000000000... (5000 digits)"),
            # a misspelled real_structure would silently fall back to
            # coordinate conjugation, splitting (2, 0) in place of (1, 1)
            ('{"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "0"]]],'
             ' "realstructure": [["0", "1", "0", "0"], ["1", "0", "0", "0"],'
             ' ["0", "0", "0", "-1"], ["0", "0", "-1", "0"]]}',
             "unknown key 'realstructure' in rees document"),
        ],
        ids=["float-dim", "bool-dim", "huge-dim", "string-dim", "scalar-real-structure",
             "flat-real-structure", "literal-exponent", "negative-literal-exponent",
             "literal-digit-run", "bare-integer-digit-run", "null-scalar", "boolean-scalar",
             "array-scalar", "object-scalar", "nan-scalar", "null-real-structure-entry",
             "string-conjugate", "both-conjugate-keys", "5000-digit-dim", "unknown-key"],
    )
    def test_bad_input_is_one_line_data_error(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "bad.json", text)
        assert run(["rees", "split", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: inconsistent filtration: {message}\n"


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

    def test_nijenhuis_builds_one_frame_jet_per_point(self, monkeypatch, capsys):
        """The Nijenhuis and closedness suites of a point share one jet."""
        from specialk import hyperkahler

        built = []
        stacks = hyperkahler.structure_derivative_stacks
        monkeypatch.setattr(hyperkahler, "structure_derivative_stacks",
                            lambda *a, **k: built.append(a) or stacks(*a, **k))
        assert run(["hk", "nijenhuis", "--entry", "coupled", "--points", "3"]) == 0
        strict_loads(capsys.readouterr().out)
        assert len(built) == 3

    @pytest.mark.parametrize("suite", ["check", "nijenhuis", "correspondence"])
    @pytest.mark.parametrize("entry", ["cubic", "swlog", "coupled", "quadratic(n=3)"])
    def test_shared_record_keeps_every_bit(self, entry, suite, capsys):
        """Each sample's residuals are, bit for bit, those of the public
        (prep, pt) calls made one by one, each building its own frame."""
        from specialk import hyperkahler as hk
        from specialk.prepotentials import parse_entry
        from specialk.utils import XorShift

        run(["hk", suite, "--entry", entry, "--points", "4", "--seed", "7"])
        samples = strict_loads(capsys.readouterr().out)["samples"]
        prep = parse_entry(entry)
        rng = XorShift(7)
        zetas = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
        for sample, pt in zip(samples, hk.sample_cotangent_points(prep, 4, seed=7),
                              strict=True):
            if suite == "check":
                fr = hk.tangent_split_at(prep, pt)
                residuals = {"quaternion": hk.quaternion_residual(fr),
                             "g_orthogonality": hk.orthogonality_residual(fr)}
            elif suite == "nijenhuis":
                structures = [*"IJK", *zetas]
                names = [f"nijenhuis_{s}" for s in "IJK"] + [f"nijenhuis_zeta{k}" for k in range(8)]
                residuals = {name: hk.nijenhuis_at(prep, pt, s, h=1e-4)
                             for name, s in zip(names, structures)}
                closed = hk.kahler_form_closedness(prep, pt, h=1e-4)
                residuals.update((f"domega_{s}", v) for s, v in closed.items())
            else:
                residuals = {"correspondence": hk.correspondence_check(prep, pt)}
            assert stable_json(sample["residuals"]) == stable_json(residuals)

    def test_nijenhuis_near_boundary_gets_verdict(self, monkeypatch, capsys):
        """A point 1e-4 from cubic's boundary, inside any stencil's reach at
        --step 1e-4, gets a verdict: the derivative stacks are analytic and
        evaluate nothing off the point."""
        from specialk import cli, hyperkahler

        pt = hyperkahler.CotangentPoint(z=np.array([0.3 + 1e-4j]), alpha=np.zeros(2))
        monkeypatch.setattr(
            cli.hyperkahler, "sample_cotangent_points", lambda *a, **k: [pt]
        )
        assert run(["hk", "nijenhuis", "--entry", "cubic", "--points", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rep = strict_loads(captured.out)
        assert rep["summary"]["pass"] is True
        # g = 6e-4 there, so J has entries 1e3 and its stack 1e7: the zeta
        # structures, which mix I, J and K, round at about 1e-6
        worst = rep["summary"]["max_residuals"]
        assert max(worst[f"nijenhuis_{s}"] for s in "IJK") < 1e-9

    @pytest.mark.parametrize("entry", sorted(TWISTOR_REPORTS))
    def test_twistor_report_bytes(self, entry, capsys):
        argv = ["twistor", "normal-bundle", "--entry", entry, "--points", "8", "--seed", "7"]
        assert run(argv) == 0
        assert capsys.readouterr().out == TWISTOR_REPORTS[entry]

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
    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog"],
            ["verify", "--entry", "cubic", "--points", "2"],
            ["hk", "check", "--entry", "cubic", "--points", "1"],
            ["twistor", "normal-bundle", "--entry", "cubic", "--points", "1"],
            ["rees", "split", str(FIXTURES / "rees_conjugate.json")],
            ["rees", "purity", "--weight", "1", str(FIXTURES / "rees_conjugate.json")],
        ],
        ids=lambda a: " ".join(a[:2]),
    )
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_one_line_usage_error(self, argv, target, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: cannot write --out: ")

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
