"""Command-line interface: catalog listing, verification sweeps, Rees
computations and hyperkahler/twistor suites, all emitting deterministic
JSON reports.

Exit codes: 0 all checks passed, 1 check failure, 2 usage error
(unknown entry, malformed JSON, bad flags), 3 sampling failure,
4 data error (inconsistent filtration input).
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


def _config_dict(args, command):
    cfg = {"command": command}
    for key in ("entry", "points", "seed", "tol", "step", "weight"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _point_json(z):
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(z)]


def _load_entry(args):
    try:
        return parse_entry(args.entry)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _sample(prep, args):
    return geometry.sample_points(prep, args.points, args.seed, h=args.step)


def _verify_sample(prep, z, args):
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
    prep = _load_entry(args)
    if prep is None:
        return EXIT_USAGE
    try:
        points = _sample(prep, args)
    except geometry.SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    try:
        samples = [_verify_sample(prep, z, args) for z in points]
    except geometry.StencilError as exc:
        # stencil points print as numpy arrays, which wrap for large n
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_SAMPLING
    max_res = {}
    for s in samples:
        for k, v in s["residuals"].items():
            max_res[k] = max(max_res.get(k, 0.0), v)
    overall = all(s["pass"] for s in samples)
    report = {
        "tool": "specialk",
        "version": __version__,
        "config": _config_dict(args, "verify"),
        "polarization_sign": "Q=-omega",
        "samples": samples,
        "summary": {"max_residuals": max_res, "pass": overall},
    }
    _emit(report, args.out)
    return EXIT_PASS if overall else EXIT_FAIL


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


def _hk_points(prep, args):
    return hyperkahler.sample_cotangent_points(prep, args.points, args.seed, h=args.step)


def cmd_hk(args) -> int:
    prep = _load_entry(args)
    if prep is None:
        return EXIT_USAGE
    try:
        pts = _hk_points(prep, args)
    except geometry.SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    samples = []
    suite = args.hk_command
    for pt in pts:
        residuals = {}
        if suite == "check":
            fr = hyperkahler.tangent_split_at(prep, pt)
            ident = np.eye(fr.imat.shape[0])
            residuals["quaternion"] = float(
                max(
                    np.max(np.abs(fr.imat @ fr.imat + ident)),
                    np.max(np.abs(fr.jmat @ fr.jmat + ident)),
                    np.max(np.abs(fr.kmat @ fr.kmat + ident)),
                    np.max(np.abs(fr.imat @ fr.jmat + fr.jmat @ fr.imat)),
                    np.max(np.abs(fr.imat @ fr.jmat @ fr.kmat + ident)),
                )
            )
            residuals["g_orthogonality"] = float(
                max(
                    np.max(np.abs(s.T @ fr.gtm @ s - fr.gtm))
                    for s in (fr.imat, fr.jmat, fr.kmat)
                )
            )
        elif suite == "nijenhuis":
            stacks = hyperkahler.structure_derivative_stacks(prep, pt, h=args.step)
            for name in ("I", "J", "K"):
                residuals[f"nijenhuis_{name}"] = hyperkahler.nijenhuis_at(
                    prep, pt, name, h=args.step, _stacks=stacks
                )
            rng = XorShift(args.seed)
            for k in range(8):
                zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                residuals[f"nijenhuis_zeta{k}"] = hyperkahler.nijenhuis_at(
                    prep, pt, zeta, h=args.step, _stacks=stacks
                )
            closed = hyperkahler.kahler_form_closedness(prep, pt, h=args.step)
            for name, v in closed.items():
                residuals[f"domega_{name}"] = v
        elif suite == "correspondence":
            residuals["correspondence"] = hyperkahler.correspondence_check(prep, pt)
        ok = all(v < args.tol for v in residuals.values())
        samples.append(
            {
                "entry": prep.name,
                "point": _point_json(pt.z),
                "alpha": [float(a) for a in pt.alpha],
                "residuals": residuals,
                "pass": ok,
            }
        )
    overall = all(s["pass"] for s in samples)
    max_res = {}
    for s in samples:
        for k, v in s["residuals"].items():
            max_res[k] = max(max_res.get(k, 0.0), v)
    report = {
        "tool": "specialk",
        "version": __version__,
        "config": _config_dict(args, f"hk {suite}"),
        "samples": samples,
        "summary": {"max_residuals": max_res, "pass": overall},
    }
    _emit(report, args.out)
    return EXIT_PASS if overall else EXIT_FAIL


def cmd_twistor(args) -> int:
    prep = _load_entry(args)
    if prep is None:
        return EXIT_USAGE
    try:
        pts = _hk_points(prep, args)
    except geometry.SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    expected = [1] * (2 * prep.n)
    samples = []
    for pt in pts:
        try:
            st = hyperkahler.twistor_normal_bundle_at(prep, pt)
            degrees = list(st.degrees)
            ok = degrees == expected
        except hyperkahler.RationalizationError as exc:
            degrees = None
            ok = False
            print(f"warning: {exc}", file=sys.stderr)
        samples.append(
            {
                "entry": prep.name,
                "point": _point_json(pt.z),
                "alpha": [float(a) for a in pt.alpha],
                "splitting": degrees,
                "pass": ok,
            }
        )
    overall = all(s["pass"] for s in samples)
    report = {
        "tool": "specialk",
        "version": __version__,
        "config": _config_dict(args, "twistor normal-bundle"),
        "expected": expected,
        "samples": samples,
        "summary": {"pass": overall},
    }
    _emit(report, args.out)
    return EXIT_PASS if overall else EXIT_FAIL


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


def _step_size(text):
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
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--step", type=_step_size, default=step)
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
