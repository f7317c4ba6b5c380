"""Command-line interface: catalog listing, verification sweeps, Rees
computations and hyperkahler/twistor suites, all emitting deterministic
JSON reports.

Exit codes: 0 all checks passed, 1 check failure, 2 usage error
(unknown entry, malformed JSON, bad flags), 3 sampling or stencil
failure, 4 data error (inconsistent filtration input).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, geometry, hodge, hyperkahler, rees
from .exact import ExactComplex, ExactMatrix
from .hodge import Filtration, RealStructure
from .prepotentials import parse_entry
from .utils import XorShift, stable_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SAMPLING = 3
EXIT_DATA = 4


def _emit(report, out_path):
    text = stable_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _point_json(z):
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(z)]


def _sweep(args, command, sampler, sample_at, header=None):
    """The one sample sweep behind verify, hk and twistor: load the entry,
    draw the points with sampler, turn each into a sample record with
    sample_at, fold the verdicts and residuals, emit the report with the
    extra fields header(prep)."""
    try:
        prep = parse_entry(args.entry)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        points = sampler(prep, args.points, args.seed, h=args.step)
        samples = [sample_at(prep, p, args) for p in points]
    except (geometry.SamplingError, geometry.StencilError) as exc:
        # stencil points print as numpy arrays, which wrap for large n
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_SAMPLING
    summary = {"pass": all(s["pass"] for s in samples)}
    if "residuals" in samples[0]:
        max_res = {}
        for s in samples:
            for k, v in s["residuals"].items():
                # np.maximum keeps a NaN residual visible in the summary
                max_res[k] = float(np.maximum(max_res.get(k, v), v))
        summary["max_residuals"] = max_res
    config = {key: getattr(args, key) for key in ("entry", "points", "seed", "tol", "step")}
    report = {
        "tool": "specialk",
        "version": __version__,
        "config": {"command": command, **config},
        **(header(prep) if header else {}),
        "samples": samples,
        "summary": summary,
    }
    _emit(report, args.out)
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


def _verify_at(prep, z, args):
    """One sample point of the verify sweep."""
    eq = geometry.check_equations(prep, z, tol=args.tol, h=args.step)
    sc = geometry.check_special_conditions(prep, z, tol=args.tol)
    vhs = hodge.vhs_from_special_kahler(prep, [z], tol=args.tol)[0]
    residuals = dict(eq.residuals)
    residuals.update(sc.residuals)
    residuals["kahler_potential"] = geometry.kahler_potential_residual(prep, z)
    residuals["darboux"] = geometry.flat_omega_residual(prep, z)
    residuals["flat_structure"] = geometry.flat_structure_certificate(prep, z)
    residuals["vhs_holomorphy"] = vhs["holomorphy_residual"]
    checks = {
        "pure_weight_1": vhs["pure_weight_1"],
        "polarization": vhs["polarization_pass"],
    }
    # the second-difference potential check has a ~1e-7 accuracy floor;
    # everything else is held to the requested tolerance
    ok = (
        all(v < args.tol for k, v in residuals.items() if k != "kahler_potential")
        and residuals["kahler_potential"] < max(args.tol, 1e-7)
        and all(checks.values())
    )
    return {
        "entry": prep.name,
        "point": _point_json(z),
        "residuals": residuals,
        "checks": checks,
        "pass": ok,
    }


def cmd_verify(args) -> int:
    return _sweep(args, "verify", geometry.sample_points, _verify_at,
                  header=lambda prep: {"polarization_sign": "Q=-omega"})


def _load_rees_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    filt = Filtration.from_json(obj)
    n = filt.ambient_dim
    if "conjugate_steps" in obj:
        fbar = Filtration.from_json({"dim": obj["dim"], "steps": obj["conjugate_steps"]})
    else:
        if obj.get("conjugate", False) and "real_structure" in obj:
            rows = [
                [ExactComplex.parse(str(e)) for e in row]
                for row in obj["real_structure"]
            ]
            rstruct = RealStructure(ExactMatrix(rows))
        else:
            rstruct = RealStructure.conjugation(n)
        fbar = filt.conjugate(rstruct)
    return filt, fbar


def cmd_rees(args) -> int:
    try:
        filt, fbar = _load_rees_input(args.file)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: inconsistent filtration: {exc}", file=sys.stderr)
        return EXIT_DATA
    bundle = rees.ReesBundle(filt, fbar)
    try:
        st = rees.splitting_type(bundle)
    except rees.InconsistentProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    report = {
        "tool": "specialk",
        "version": __version__,
        "splitting": list(st.degrees),
        "degree": st.degree,
        "rank": st.rank,
        "slope": str(st.slope),
        "semistable_of": [st.degrees[0]] if st.is_constant(st.degrees[0]) else [],
    }
    if args.rees_command == "purity":
        pure = rees.purity_oracle(filt, fbar, args.weight)
        semi = st.is_constant(args.weight)
        report["config"] = {"command": "rees purity", "weight": args.weight}
        report["pure"] = pure
        report["semistable"] = semi
        report["agree"] = pure == semi
        _emit(report, args.out)
        return EXIT_PASS if report["agree"] else EXIT_FAIL
    report["config"] = {"command": "rees split"}
    _emit(report, args.out)
    return EXIT_PASS


def _hk_check(prep, pt, args):
    fr = hyperkahler.tangent_split_at(prep, pt)
    return {
        "quaternion": hyperkahler.quaternion_residual(fr),
        "g_orthogonality": hyperkahler.orthogonality_residual(fr),
    }


def _hk_nijenhuis(prep, pt, args):
    stacks = hyperkahler.structure_derivative_stacks(prep, pt, h=args.step)
    rng = XorShift(args.seed)
    zetas = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
    structures = {f"nijenhuis_{name}": name for name in ("I", "J", "K")}
    structures.update((f"nijenhuis_zeta{k}", zeta) for k, zeta in enumerate(zetas))
    residuals = {
        key: hyperkahler.nijenhuis_at(prep, pt, s, h=args.step, _stacks=stacks)
        for key, s in structures.items()
    }
    closed = hyperkahler.kahler_form_closedness(prep, pt, h=args.step)
    residuals.update((f"domega_{name}", v) for name, v in closed.items())
    return residuals


def _hk_correspondence(prep, pt, args):
    return {"correspondence": hyperkahler.correspondence_check(prep, pt)}


_HK_SUITES = {
    "check": _hk_check,
    "nijenhuis": _hk_nijenhuis,
    "correspondence": _hk_correspondence,
}


def _cotangent_sample(prep, pt, ok, **fields):
    return {
        "entry": prep.name,
        "point": _point_json(pt.z),
        "alpha": [float(a) for a in pt.alpha],
        "pass": ok,
        **fields,
    }


def cmd_hk(args) -> int:
    residuals_at = _HK_SUITES[args.hk_command]

    def sample_at(prep, pt, args):
        residuals = residuals_at(prep, pt, args)
        ok = all(v < args.tol for v in residuals.values())
        return _cotangent_sample(prep, pt, ok, residuals=residuals)

    return _sweep(args, f"hk {args.hk_command}",
                  hyperkahler.sample_cotangent_points, sample_at)


def _twistor_at(prep, pt, args):
    try:
        degrees = list(hyperkahler.twistor_normal_bundle_at(prep, pt).degrees)
    except hyperkahler.RationalizationError as exc:
        degrees = None
        print(f"warning: {exc}", file=sys.stderr)
    ok = degrees == [1] * (2 * prep.n)
    return _cotangent_sample(prep, pt, ok, splitting=degrees)


def cmd_twistor(args) -> int:
    return _sweep(args, "twistor normal-bundle",
                  hyperkahler.sample_cotangent_points, _twistor_at,
                  header=lambda prep: {"expected": [1] * (2 * prep.n)})


def cmd_catalog(args) -> int:
    from .prepotentials import catalog

    report = {
        "tool": "specialk",
        "version": __version__,
        "entries": [
            {"name": e.name, "description": e.description} for e in catalog()
        ],
    }
    _emit(report, getattr(args, "out", None))
    return EXIT_PASS


def _point_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _add_sweep_flags(p, tol, step, points=8):
    p.add_argument("--entry", required=True, help="catalog selector, e.g. swlog(lambda=1)")
    p.add_argument("--points", type=_point_count, default=points)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=_positive_float, default=tol)
    p.add_argument("--step", type=_positive_float, default=step)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specialk",
        description="special Kahler geometry / Hodge / Rees verification workbench",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog entries")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="run the special Kahler + VHS residual sweep")
    _add_sweep_flags(p, tol=1e-5, step=1e-5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rees", help="Rees bundle computations on filtration files")
    rsub = p.add_subparsers(dest="rees_command", required=True)
    ps = rsub.add_parser("split", help="splitting type of the bundle")
    ps.add_argument("file")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_rees)
    pp = rsub.add_parser("purity", help="purity oracle vs semistability")
    pp.add_argument("file")
    pp.add_argument("--weight", type=int, required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=cmd_rees)

    p = sub.add_parser("hk", help="hyperkahler suites on the cotangent bundle")
    hsub = p.add_subparsers(dest="hk_command", required=True)
    pc = hsub.add_parser("check", help="quaternion algebra and orthogonality")
    _add_sweep_flags(pc, tol=1e-9, step=1e-5)
    pc.set_defaults(func=cmd_hk)
    pn = hsub.add_parser("nijenhuis", help="integrability residuals")
    _add_sweep_flags(pn, tol=1e-4, step=1e-4)
    pn.set_defaults(func=cmd_hk)
    pco = hsub.add_parser("correspondence", help="cotangent-split J vs Hodge-route J")
    _add_sweep_flags(pco, tol=1e-9, step=1e-5)
    pco.set_defaults(func=cmd_hk)

    p = sub.add_parser("twistor", help="twistor line computations")
    tsub = p.add_subparsers(dest="twistor_command", required=True)
    pt = tsub.add_parser("normal-bundle", help="splitting type of twistor-line normal bundles")
    _add_sweep_flags(pt, tol=1e-9, step=1e-5)
    pt.set_defaults(func=cmd_twistor)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
