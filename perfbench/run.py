"""Layered fixed-seed benchmark for specialk.

One workload per process, single-threaded, closed loop: one caller, and
each item starts only after the previous one has finished, as in a sweep.

    python3 perfbench/run.py --workload verify_catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload NAME --trace 1         # per-layer run
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The program is imported from src/ next to this directory.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json when
--trace 0, its per-layer metrics when --trace 1.  --out FILE appends the
full record, with the environment, for compare mode.  See README.md.
"""

from __future__ import annotations

import os

# single-threaded numerical libraries; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

from compare import compare, nearest_rank  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SUBMODULES = ("_kernel", "exact", "fd", "prepotentials", "geometry", "hodge", "rees",
              "hyperkahler", "utils", "cli")


def import_specialk():
    """Fresh import of the package from src/ (earlier imports are dropped,
    so every set-up pays the import)."""
    for name in [m for m in sys.modules if m == "specialk" or m.startswith("specialk.")]:
        del sys.modules[name]
    pkg = importlib.import_module("specialk")
    if Path(pkg.__file__).resolve().parent != SRC / "specialk":
        raise ImportError(f"specialk imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"specialk.{m}")
                                       for m in SUBMODULES})


def setup(workload, seed, smoke):
    """Median over SETUP_REPEATS of import + input generation; returns
    (setup_s, modules, items, group size) of the last set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sk = import_specialk()
        items, group = workload.build(sk, seed, smoke)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), sk, items, group


def git_commit():
    """HEAD of a git checkout, read from the files (no process, no parent
    directories); 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(sk):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "specialk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": sk.pkg.kernel_backend,
        "SPECIALK_PURE": os.environ.get("SPECIALK_PURE", ""),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


class Loop:
    """Closed loop over the item pool, stopping only at group boundaries."""

    def __init__(self, items, group):
        self.items = items
        self.group = group
        self.attempted = 0
        self.failed = Counter()

    def run(self, seconds=None, groups=None, call=None):
        """Run whole groups from the first item on, until `seconds` have
        passed or `groups` are done; returns (per-item times, group end
        times, start time)."""
        clock = time.perf_counter
        times, ends = [], []
        n = len(self.items)
        t0 = clock()
        while True:
            index = len(times)
            label, fn, args = self.items[index % n]
            a = clock()
            try:
                ok = (call(index, fn, args) if call else fn(*args))[0]
            except Exception as exc:  # an item may fail; the sweep goes on
                ok = False
                if not self.failed:
                    traceback.print_exc(file=sys.stderr)
                self.failed[type(exc).__name__] += 1
            else:
                if not ok:
                    self.failed[f"wrong verdict ({label})"] += 1
            b = clock()
            times.append(b - a)
            self.attempted += 1
            if len(times) % self.group == 0:
                ends.append(b)
                if groups is not None and len(ends) >= groups:
                    break
                if groups is None and b - t0 >= seconds:
                    break
        return times, ends, t0


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args, spec):
    workload = WORKLOADS[args.workload]
    setup_s, sk, items, group = setup(workload, args.seed, args.smoke)
    env = environment(sk)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    loop = Loop(items, group)
    loop.run(groups=1)                      # warm-up: lazy imports, caches
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env}

    if not args.trace:
        times, ends, t0 = loop.run(seconds=args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ordered = sorted(times)
        tail, rank = nearest_rank(ordered, workload.tail_pct)
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(times) / (ends[-1] - t0), "1/s"),
            "item_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
            "item_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups (import + inputs)",
            "items_per_s": f"{len(times)} items in {ends[-1] - t0:.1f} s ({len(ends)} groups), "
                           f"closed loop, 1 caller",
            "item_p50_ms": f"{len(times)} items",
            "item_tail_ms": f"p{workload.tail_pct:g} of {len(times)} items, "
                            f"{len(times) - rank} beyond",
            "peak_rss_mib": "ru_maxrss after the measured loop",
        }
        record.update(items=len(times), tail_pct=workload.tail_pct)
        wanted = spec["end_to_end"]
    else:
        times, ends, t0 = loop.run(seconds=args.seconds / 2.0)
        untraced_s = ends[-1] - t0
        tracer = Tracer()
        tracer.install(sk)
        try:
            ttimes, tends, tt0 = loop.run(groups=len(ends), call=tracer.item_runner())
        finally:
            tracer.uninstall()
        layer = tracer.summary(len(ttimes), untraced_s, tends[-1] - tt0)
        if args.spans:
            tracer.write_spans(args.spans)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        notes = {}
        coverage = 1.0 - layer["trace.unattributed_share"]
        print(f"trace: {len(ttimes)} items traced, {len(tracer.sp_start)} spans, "
              f"layers cover {coverage:.1%} of traced item time")
        record.update(items=len(ttimes))
        wanted = spec["per_layer"]

    mismatches = workload.cli_check(sk, args.seed) if workload.cli_check else []
    failed = sum(loop.failed.values())
    print(f"{'failed_frac':<28} {failed / loop.attempted:<14.6g} ratio  "
          f"({failed} of {loop.attempted} items: {dict(loop.failed) or 'none'})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:<14.6g} {unit:<7}{notes.get(name, '')}")
    if workload.cli_check:
        print("cli_check " + ("ok: item bodies match the specialk CLI reports"
                              if not mismatches else "; ".join(mismatches)))
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    if args.out:
        record.update(result)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (tuned on 1-10; 20261017 is held out)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; seconds per workload")
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    ap.add_argument("--spans", help="with --trace 1: write the spans to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two --out files instead of running")
    args = ap.parse_args(argv)
    if not args.compare and not args.workload:
        ap.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    if not (SRC / "specialk" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: needs the specialk sources in {SRC} and {SPEC.name} in {ROOT}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(*args.compare, spec)
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
