"""Schema and smoke tests for the benchmark: python3 -m pytest -q perfbench"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import compare, verdict  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    return proc


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [w for w in WORKLOADS if w != "verify_highdim"]   # opt-in only
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "items_per_s", "item_p50_ms", "item_tail_ms",
                        "peak_rss_mib"}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload, tmp_path):
    out = tmp_path / "runs.jsonl"
    result = _result(run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                               "--trace", "0", "--smoke", "--out", str(out)))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(out.read_text())
    assert record["workload"] == workload
    assert {"cores", "python", "numpy", "kernel_backend", "SPECIALK_PURE",
            "git_commit"} <= set(record["env"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = _result(run_bench("--workload", workload, "--seed", "3", "--seconds", "0.4",
                               "--trace", "1", "--smoke", "--spans", str(spans)))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["trace.unattributed_share"]["value"] < 0.1
    with spans.open() as fh:
        header = json.loads(fh.readline())
        first = json.loads(fh.readline())
    assert header["names"][first[0]] == "bench.item" and first[3] == -1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify_catalog", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.7 for v in parent]
    assert verdict(parent, faster, 0.1, "lower")["verdict"] == "improved"
    assert verdict(parent, faster, 0.1, "higher")["verdict"] == "worse"
    assert verdict(parent, list(parent), 0.1, "lower")["verdict"] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(parent, noisy, 0.1, "lower")["verdict"] == "unresolved"


def test_compare_refuses_mixed_backends(tmp_path):
    def write(path, backend):
        rec = {"workload": "w", "trace": 0, "seconds": 25, "smoke": False,
               "env": {"kernel_backend": backend},
               "attempted": 1, "failed": 0,
               "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}}
        path.write_text(json.dumps(rec) + "\n")
        return str(path)

    lines = []
    a = write(tmp_path / "a.jsonl", "python")
    assert compare(a, write(tmp_path / "b.jsonl", "python"), SPEC, out=lines.append) == 0
    assert any("unchanged" in line for line in lines)
    assert compare(a, write(tmp_path / "c.jsonl", "cython"), SPEC, out=lines.append) == 2
