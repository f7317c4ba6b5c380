"""Command-line interface: catalog listing, verification sweeps, Rees
computations and hyperkahler/twistor suites, all emitting deterministic
JSON reports.

Exit codes: 0 all checks passed, 1 check failure, 2 usage error
(unknown entry, malformed JSON, bad flags, an --out that cannot be
written), 3 sampling or stencil failure, 4 data error (inconsistent
filtration input).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, geometry, hodge, hyperkahler, rees
from .exact import ExactComplex
from .prepotentials import catalog, parse_entry
from .utils import XorShift, stable_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SAMPLING = 3
EXIT_DATA = 4


def _emit(report, out_path, code):
    """Print the report with the tool and version fields, or write it to
    out_path; returns code, or the usage-error code with one stderr line
    when out_path cannot be written."""
    text = stable_json({"tool": "specialk", "version": __version__, **report}) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print("error: cannot write --out: " + " ".join(str(exc).split()), file=sys.stderr)
        return EXIT_USAGE
    return code


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
        # an overflowed frame shows up as NaN residuals, which print as
        # null and fail the point; numpy's own warnings would only repeat it
        with np.errstate(all="ignore"):
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
        "config": {"command": command, **config},
        **(header(prep) if header else {}),
        "samples": samples,
        "summary": summary,
    }
    return _emit(report, args.out, EXIT_PASS if summary["pass"] else EXIT_FAIL)


def _verify_at(prep, z, args):
    """One sample point of the verify sweep: every suite reads one checked
    record of it."""
    p = geometry._point(prep, z)
    eq = geometry.check_equations(prep, p, tol=args.tol, h=args.step)
    sc = geometry.check_special_conditions(prep, p, tol=args.tol)
    vhs = hodge.vhs_from_special_kahler(prep, [p], tol=args.tol)[0]
    residuals = dict(eq.residuals)
    residuals.update(sc.residuals)
    residuals["kahler_potential"] = geometry.kahler_potential_residual(prep, p)
    residuals["darboux"] = geometry.flat_omega_residual(prep, p)
    residuals["flat_structure"] = geometry.flat_structure_certificate(prep, p)
    residuals["vhs_holomorphy"] = vhs["holomorphy_residual"]
    checks = {"pure_weight_1": vhs["pure_weight_1"], "polarization": vhs["polarization_pass"]}
    # the potential check keeps the 1e-7 floor of the second differences it
    # replaced as a contract (its Cauchy integrals sit near 1e-12);
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


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _load_rees_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        # numbers keep their text, so each is read as its string form is:
        # exactly, and within the literal bounds however long
        obj = json.load(fh, parse_float=str, parse_constant=_refuse_constant,
                        parse_int=lambda text: ExactComplex.parse(text).re.numerator)
    return hodge.filtration_pair_from_json(obj)


def cmd_rees(args) -> int:
    try:
        filt, fbar = _load_rees_input(args.file)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # undecodable text, bad JSON, or arrays nested too deeply to read
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
        return _emit(report, args.out, EXIT_PASS if report["agree"] else EXIT_FAIL)
    report["config"] = {"command": "rees split"}
    return _emit(report, args.out, EXIT_PASS)


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
    closed = hyperkahler.kahler_form_closedness(prep, pt, _stacks=stacks)
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
    degrees = list(hyperkahler.twistor_normal_bundle_at(prep, pt).degrees)
    ok = degrees == [1] * (2 * prep.n)
    return _cotangent_sample(prep, pt, ok, splitting=degrees)


def cmd_twistor(args) -> int:
    return _sweep(args, "twistor normal-bundle",
                  hyperkahler.sample_cotangent_points, _twistor_at,
                  header=lambda prep: {"expected": [1] * (2 * prep.n)})


def cmd_catalog(args) -> int:
    report = {
        "entries": [
            {"name": e.name, "description": e.description} for e in catalog()
        ],
    }
    return _emit(report, getattr(args, "out", None), EXIT_PASS)


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


def _add_sweep_flags(p, tol, step):
    p.add_argument("--entry", required=True, help="catalog selector, e.g. swlog(lambda=1)")
    p.add_argument("--points", type=_point_count, default=8)
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
