"""The benchmark workloads: seeded inputs, item bodies and their verdicts.

An item is one unit of work a user waits for: one sample point through
the `specialk verify` body, one cotangent point through the hk/twistor
suites, one exact round trip or one Rees filtration pair.  Every item
returns (ok, detail); ok is the verdict the CLI would print.

Inputs are built from the workload seed only.  Float points are drawn
through the package's own samplers; exact inputs come from the seeded
generators below (modelled on the test suite's generators, kept here so
the benchmark does not depend on tests/).

Items are laid out in groups, one group being the fixed mix of item kinds
a workload cycles through.  The runner stops only at group boundaries, so
every run measures the same mix and the median and tail percentile fall
inside fixed bands of that mix.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Tolerances and steps are the CLI defaults of the suites each item runs.
VERIFY_TOL = 1e-5
VERIFY_STEP = 1e-5
KAHLER_POTENTIAL_FLOOR = 1e-7   # documented accuracy floor of that check
HK_STEP = 1e-4                  # `hk nijenhuis` step; also the sampling margin
NIJENHUIS_TOL = 1e-4
CORRESPONDENCE_TOL = 1e-9
ZETAS = 8

CATALOG_ENTRIES = ("cubic", "swlog", "coupled")
# Groups are mixed so that the median and the tail percentile each fall
# inside one item kind's band, away from its edges.  On a shared machine
# whose speed switches between modes about 1.6x apart, a percentile at the
# edge of a band, or at the extreme of one, jumps between runs.
CATALOG_GROUP = [0, 1, 0, 1, 2]        # cubic, swlog, cubic, swlog, coupled
# verify_highdim is opt-in: it is not in BENCHMARK.json, because its
# quartile distance over ten runs was 21-36% of the median here, above the
# largest bound allowed (its few long, cache-heavy items follow the
# machine's speed modes).  Run it by name for before/after numbers.
# Bands n=3 [0, .4), n=4 [.4, .6), n=5 [.6, .8), n=6 [.8, 1): the median is
# the middle n=4 item and the p70 tail the middle n=5 item.  An n=6 point
# takes about 1.7 s, so a run holds too few of them for a tail with ten
# items beyond it inside the n=6 band; the cheap n=3 points bring a run to
# about 40 items.
HIGHDIM_GROUP = (3, 3, 4, 5, 6)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: float          # fixed per workload so runs stay comparable
    build: Callable          # (sk, seed, smoke) -> (items, group size)
    cli_check: Callable | None  # (sk, seed) -> list of mismatches


# -- verify: the per-point body of `specialk verify` ------------------------

def verify_point(sk, prep, z):
    geo = sk.geometry
    eq = geo.check_equations(prep, z, tol=VERIFY_TOL, h=VERIFY_STEP)
    sc = geo.check_special_conditions(prep, z, tol=VERIFY_TOL)
    vhs = sk.hodge.vhs_from_special_kahler(prep, [z], tol=VERIFY_TOL)[0]
    residuals = dict(eq.residuals)
    residuals.update(sc.residuals)
    residuals["kahler_potential"] = geo.kahler_potential_residual(prep, z)
    residuals["darboux"] = geo.flat_omega_residual(prep, z)
    residuals["flat_structure"] = geo.flat_structure_certificate(prep, z)
    residuals["vhs_holomorphy"] = vhs["holomorphy_residual"]
    ok = (
        all(v < VERIFY_TOL for k, v in residuals.items() if k != "kahler_potential")
        and residuals["kahler_potential"] < max(VERIFY_TOL, KAHLER_POTENTIAL_FLOOR)
        and vhs["pure_weight_1"]
        and vhs["polarization_pass"]
    )
    return ok, residuals


def _pooled(preps, pattern, groups, sample):
    """(prep, point) items group by group; pattern lists the prep indices of
    one group and sample(prep, count) draws that prep's points."""
    pools = [iter(sample(p, groups * pattern.count(i))) for i, p in enumerate(preps)]
    return [(preps[i], next(pools[i])) for _ in range(groups) for i in pattern]


def build_verify_catalog(sk, seed, smoke):
    preps = [sk.prepotentials.parse_entry(e) for e in CATALOG_ENTRIES]
    pairs = _pooled(preps, CATALOG_GROUP, 1 if smoke else 64,
                    lambda p, count: sk.geometry.sample_points(p, count, seed, h=VERIFY_STEP))
    return [(p.name, verify_point, (sk, p, z)) for p, z in pairs], len(CATALOG_GROUP)


def build_verify_highdim(sk, seed, smoke):
    group = (3,) if smoke else HIGHDIM_GROUP
    dims = sorted(set(group))
    preps = [sk.prepotentials.parse_entry(f"quadratic(n={n})") for n in dims]
    pairs = _pooled(preps, [dims.index(n) for n in group], 1 if smoke else 16,
                    lambda p, count: sk.geometry.sample_points(p, count, seed, h=VERIFY_STEP))
    return [(f"quadratic(n={p.n})", verify_point, (sk, p, z)) for p, z in pairs], len(group)


def _run_cli(sk, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = sk.cli.main(argv)
    return code, json.loads(buf.getvalue())


def _max_residuals(residual_dicts):
    out = {}
    for res in residual_dicts:
        for k, v in res.items():
            out[k] = max(out.get(k, 0.0), v)
    return out


def _compare_sweep(label, code, report, results):
    """Per-point pass, summary.max_residuals and exit code of a CLI sweep
    against the item bodies run on the same points."""
    bad = []
    passes = [ok for ok, _ in results]
    if [s["pass"] for s in report["samples"]] != passes:
        bad.append(f"{label}: per-point pass differs")
    if code != (0 if all(passes) else 1):
        bad.append(f"{label}: exit code {code}")
    if report["summary"]["max_residuals"] != _max_residuals(r for _, r in results):
        bad.append(f"{label}: summary.max_residuals differs")
    return bad


def _verify_check(sk, seed, specs, points):
    bad = []
    for spec in specs:
        prep = sk.prepotentials.parse_entry(spec)
        pts = sk.geometry.sample_points(prep, points, seed, h=VERIFY_STEP)
        results = [verify_point(sk, prep, z) for z in pts]
        code, report = _run_cli(sk, [
            "verify", "--entry", spec, "--points", str(points), "--seed", str(seed),
            "--tol", repr(VERIFY_TOL), "--step", repr(VERIFY_STEP),
        ])
        bad += _compare_sweep(f"verify {spec}", code, report, results)
    return bad


def check_verify_catalog(sk, seed):
    return _verify_check(sk, seed, CATALOG_ENTRIES, 2)


def check_verify_highdim(sk, seed):
    return _verify_check(sk, seed, ["quadratic(n=4)"], 1)


# -- cotangent bundle: hk nijenhuis + correspondence + twistor --------------

def zetas_for(sk, seed):
    """The twistor parameters `specialk hk nijenhuis --seed` draws."""
    rng = sk.utils.XorShift(seed)
    return [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(ZETAS)]


def cotangent_point(sk, prep, pt, zetas):
    hk = sk.hyperkahler
    nij = {}
    stacks = hk.structure_derivative_stacks(prep, pt, h=HK_STEP)
    for name in ("I", "J", "K"):
        nij[f"nijenhuis_{name}"] = hk.nijenhuis_at(prep, pt, name, h=HK_STEP, _stacks=stacks)
    for k, zeta in enumerate(zetas):
        nij[f"nijenhuis_zeta{k}"] = hk.nijenhuis_at(prep, pt, zeta, h=HK_STEP, _stacks=stacks)
    for name, v in hk.kahler_form_closedness(prep, pt, h=HK_STEP).items():
        nij[f"domega_{name}"] = v
    corr = hk.correspondence_check(prep, pt)
    degrees = list(hk.twistor_normal_bundle_at(prep, pt).degrees)
    ok = (
        all(v < NIJENHUIS_TOL for v in nij.values())
        and corr < CORRESPONDENCE_TOL
        and degrees == [1] * (2 * prep.n)
    )
    return ok, {"nijenhuis": nij, "correspondence": corr, "splitting": degrees}


def build_cotangent_twistor(sk, seed, smoke):
    preps = [sk.prepotentials.parse_entry(e) for e in CATALOG_ENTRIES]
    pairs = _pooled(preps, CATALOG_GROUP, 1 if smoke else 64,
                    lambda p, count: sk.hyperkahler.sample_cotangent_points(
                        p, count, seed, h=HK_STEP))
    zetas = zetas_for(sk, seed)
    return [(p.name, cotangent_point, (sk, p, pt, zetas)) for p, pt in pairs], len(CATALOG_GROUP)


def check_cotangent_twistor(sk, seed):
    points = 2
    bad = []
    zetas = zetas_for(sk, seed)
    for spec in CATALOG_ENTRIES:
        prep = sk.prepotentials.parse_entry(spec)
        pts = sk.hyperkahler.sample_cotangent_points(prep, points, seed, h=HK_STEP)
        details = [cotangent_point(sk, prep, pt, zetas)[1] for pt in pts]
        common = ["--entry", spec, "--points", str(points), "--seed", str(seed),
                  "--step", repr(HK_STEP)]
        code, report = _run_cli(sk, ["hk", "nijenhuis", *common, "--tol", repr(NIJENHUIS_TOL)])
        nij = [(all(v < NIJENHUIS_TOL for v in d["nijenhuis"].values()), d["nijenhuis"])
               for d in details]
        bad += _compare_sweep(f"hk nijenhuis {spec}", code, report, nij)
        code, report = _run_cli(
            sk, ["hk", "correspondence", *common, "--tol", repr(CORRESPONDENCE_TOL)])
        corr = [(d["correspondence"] < CORRESPONDENCE_TOL,
                 {"correspondence": d["correspondence"]}) for d in details]
        bad += _compare_sweep(f"hk correspondence {spec}", code, report, corr)
        code, report = _run_cli(sk, ["twistor", "normal-bundle", *common])
        if [s["splitting"] for s in report["samples"]] != [d["splitting"] for d in details]:
            bad.append(f"twistor normal-bundle {spec}: splitting differs")
        if code != 0:
            bad.append(f"twistor normal-bundle {spec}: exit code {code}")
    return bad


# -- exact side: Hodge <-> quaternionic round trips and Rees pairs ----------

def _rational(rng, num):
    return Fraction(rng.randint(-num, num))


def _invertible(sk, rng, n, num=4, real=False):
    """Random invertible n x n matrix with small integer entries."""
    ec = sk.exact.ExactComplex
    while True:
        m = sk.exact.ExactMatrix([
            [ec(_rational(rng, num), 0 if real else _rational(rng, num)) for _ in range(n)]
            for _ in range(n)
        ])
        if m.rank() == n:
            return m


def _columns(m):
    return [tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]


def _half_swap(sk, m, sign=1):
    """Exchange the halves of C^m; sign=-1 negates the upper-right block."""
    ec = sk.exact.ExactComplex
    k = m // 2
    return sk.exact.ExactMatrix([
        [ec(sign) if (i < k and j == k + i) else ec(1) if (i >= k and j == i - k) else ec(0)
         for j in range(m)]
        for i in range(m)
    ])


def weight1_structure(sk, rng, m):
    """Random pure weight-1 Hodge structure on C^m: the standard split and
    swap conjugation pushed through a random invertible map."""
    ex, hodge = sk.exact, sk.hodge
    g = _invertible(sk, rng, m)
    r = hodge.RealStructure(
        ex.real_rep_linear(g)
        @ ex.real_rep_antilinear(_half_swap(sk, m))
        @ ex.real_rep_linear(g.inverse())
    )
    v10 = ex.Subspace.span(m, _columns(g)[: m // 2])
    return hodge.HodgeStructure(1, {(1, 0): v10, (0, 1): r.apply_subspace(v10)}, r)


def quaternionic_pair(sk, rng, n4):
    """Random real conjugate g (I0, J0) g^-1 of left multiplication by i, j
    on H^(n4/4)."""
    ex = sk.exact
    m = n4 // 2
    imat = ex.std_complex_structure(m)
    jmat = ex.real_rep_antilinear(_half_swap(sk, m, sign=-1))
    g = _invertible(sk, rng, n4, real=True)
    gi = g.inverse()
    return sk.hodge.QuaternionicStructure(g @ imat @ gi, g @ jmat @ gi)


def nested_filtration(sk, rng, n, max_extra_steps=3):
    """Random complete filtration: spans of leading columns of a random
    invertible matrix, with weakly decreasing random dimensions."""
    cols = _columns(_invertible(sk, rng, n))
    proper = []
    dim = n
    for _ in range(max_extra_steps):
        dim = rng.randint(0, dim)
        if dim == 0:
            break
        proper.append(sk.exact.Subspace.span(n, cols[:dim]))
    return sk.hodge.Filtration.from_proper_steps(n, proper)


def hodge_round_trip(sk, h):
    hodge = sk.hodge
    qs = hodge.quaternionic_from_hodge(h)
    chart = hodge.hodge_from_quaternionic(qs)
    qs2 = hodge.quaternionic_from_hodge(chart.hodge)
    return chart.chart.inverse() @ qs2.jmat @ chart.chart == qs.jmat, None


def quaternionic_round_trip(sk, qs):
    chart = sk.hodge.hodge_from_quaternionic(qs)
    return chart.recovered_structure() == qs, None


def rees_pair(sk, f, fbar):
    """Splitting type against the purity oracle at every weight in range."""
    rees = sk.rees
    st = rees.splitting_type(rees.ReesBundle(f, fbar))
    ok = True
    for w in range(-1, f.length + fbar.length + 1):
        pure = rees.purity_oracle(f, fbar, w)
        ok = ok and pure == st.is_constant(w)
        if pure:
            ok = ok and st.degrees == (w,) * f.ambient_dim
    return ok, None


def build_exact_correspondence(sk, seed, smoke):
    groups = 1 if smoke else 32
    rng = sk.utils.XorShift(seed)
    items = []
    for _ in range(groups):
        h = weight1_structure(sk, rng, 4)
        qs = quaternionic_pair(sk, rng, 8)
        items += [("hodge_round_trip", hodge_round_trip, (sk, h)),
                  ("quaternionic_round_trip", quaternionic_round_trip, (sk, qs))]
        for n in (3, 4, 3, 4):
            f, fbar = nested_filtration(sk, rng, n), nested_filtration(sk, rng, n)
            items.append((f"rees_n{n}", rees_pair, (sk, f, fbar)))
    return items, 6


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_catalog",
            "verify body on cubic, swlog and coupled: the sweep users run; exact VHS and stencil field builds dominate",
            95, build_verify_catalog, check_verify_catalog,
        ),
        Workload(
            "verify_highdim",
            "verify body on quadratic(n=3..6): multi-operand einsum contractions and stencil stacks at n=4..6 dominate",
            70, build_verify_highdim, check_verify_highdim,
        ),
        Workload(
            "exact_correspondence",
            "exact Hodge-quaternionic round trips and Rees splitting/purity on small-integer data: boxing, kernel, Rees only",
            95, build_exact_correspondence, None,
        ),
        Workload(
            "cotangent_twistor",
            "hk Nijenhuis, closedness, correspondence and twistor normal bundle per cotangent point: stencils and the 1e12 bridge",
            95, build_cotangent_twistor, check_cotangent_twistor,
        ),
    )
}
