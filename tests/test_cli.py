"""CLI behavior: exit codes, report schemas, determinism."""

import json

import numpy as np
import pytest

from specialk.cli import main

PURE_C2 = {"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "i"]]]}
IMPURE_C2 = {"dim": 2, "steps": [[["1", "0"], ["0", "1"]], [["1", "0"]]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if isinstance(obj, dict) else obj)
    return str(path)


def run(args):
    return main(args)


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
            ["hk", "correspondence", "--points", "0"],
            ["hk", "nijenhuis", "--step", "-1e-4"],
            ["twistor", "normal-bundle", "--step", "0"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_bad_sweep_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--entry", "cubic"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "Traceback" not in captured.err

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
