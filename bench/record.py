"""Record the input pools and their reference outputs (``bench/ref/*.json``).

Run from the repository root, once, when the benchmark's inputs change:

    python3 bench/record.py [workload ...]

Pools are generated from fixed seeds without looking at outcomes or run
times.  Each expected output is taken from splitrad at recording time and
cross-checked by an independent route (see ``oracle``): archimedean parts
come from mpmath, radicals and heights of triples from sympy, preperiodic
sets are re-iterated in Fractions, and ratios of logarithms are stored as
their true values.  Where the independent route disagrees with splitrad,
the independent value is recorded and the disagreement is printed, so the
defect counts as a failed op in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import TOL  # noqa: E402

import splitrad as sr  # noqa: E402
from splitrad import cli  # noqa: E402

ACCEPTANCE_MAPS = ["z^3 + (1/5)*z^2", "-(2/9)*z^3 - z^2", "z^2 - 1"]
SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23]
DISAGREEMENTS: list[str] = []


def note(msg: str) -> None:
    DISAGREEMENTS.append(msg)
    print("  disagreement:", msg, file=sys.stderr)


def primes_between(lo: int, hi: int) -> list[int]:
    import sympy

    return list(sympy.primerange(lo, hi))


def outcome_of(fn):
    try:
        return "ok", fn()
    except sr.UndeterminedError as e:
        return "undetermined", str(e)


# ---------------------------------------------------------------------------
# library references
# ---------------------------------------------------------------------------

def canonical_entry(poly: str, z: Fraction, extra: dict | None = None) -> dict:
    f = sr.parse_poly(poly)
    coeffs = oracle.parse_q_poly(poly)
    arch = oracle.mp_escape_rate(coeffs, z)
    args = {"poly": poly, "z": str(z), **(extra or {})}
    status, val = outcome_of(lambda: sr.canonical_height(f, z, TOL).to_json())
    if status != "ok":
        return {"call": "canonical_height", "args": args,
                "expect": {"kind": "undetermined",
                           "why": f"no reference: splitrad gave up at recording ({val})"}}
    ref = oracle.logvalue_ref(val, arch)
    why = oracle.check_logvalue(val, ref, TOL)
    if why:
        note(f"canonical_height({poly}, {z}): {why}")
    # exact parts: primes are those of the denominator and of the map
    allowed = set(sr.candidate_bad_primes(f)) | set(oracle.logs_of_int(z.denominator))
    if not {int(p) for p in ref["logs"]} <= allowed:
        note(f"canonical_height({poly}, {z}): primes {sorted(ref['logs'])} outside {sorted(allowed)}")
    return {"call": "canonical_height", "args": args, "expect": {"kind": "tree", "value": ref}}


def crit_entry(call: str, poly: str, place: int | None = None) -> dict:
    f = sr.parse_poly(poly)
    coeffs = oracle.parse_q_poly(poly)
    arch = oracle.mp_crit_escape_rate(coeffs) if not place else 0
    args = {"poly": poly} if place is None else {"poly": poly, "place": place}
    if call == "critical_height_global":
        status, val = outcome_of(lambda: sr.critical_height_global(f, TOL).to_json())
    else:
        pl = sr.Place.arch() if not place else sr.Place.finite(place)
        status, val = outcome_of(lambda: sr.critical_height_local(f, pl, TOL).to_json())
    if status != "ok":
        if place:
            return {"call": call, "args": args,
                    "expect": {"kind": "undetermined",
                               "why": f"no independent value at p={place}; splitrad gave up at recording"}}
        if call == "critical_height_local":
            # the archimedean value is known independently even when splitrad gives up
            val = {"const": "0", "logs": {}}
        else:
            return {"call": call, "args": args,
                    "expect": {"kind": "undetermined",
                               "why": f"no reference: splitrad gave up at recording ({val})"}}
    ref = oracle.logvalue_ref(val, arch)
    if status == "ok":
        why = oracle.check_logvalue(val, ref, TOL)
        if why:
            note(f"{call}({poly}): {why}")
    return {"call": call, "args": args, "expect": {"kind": "tree", "value": ref}}


def ratio_refs_for_family(family: str, value: Fraction) -> dict:
    """achieved_delta reference for one family member, from its exact weights."""
    f = sr.parse_poly(family.replace("a", f"(({value.numerator})/({value.denominator}))"))
    pts = sr.preperiodic_points(f)
    T = [pp.value for pp in pts]
    why = oracle.check_preperiodic(
        oracle.parse_q_poly(sr.print_poly(f)),
        [{"value": str(pp.value), "preperiod": pp.preperiod, "period": pp.period} for pp in pts])
    if why:
        note(f"preperiodic_points({sr.print_poly(f)}): {why}")
    rep = sr.equidistribution_report(f, T, Fraction(1, 2), 1, TOL).to_json()
    return oracle.ratio_ref(oracle.logvalue_ref(rep["passing_weight"], 0), oracle.logvalue_ref(rep["total_weight"], 0))


def check_abc_row(row: dict) -> None:
    """h, rad and quality of an experiment row's triple, against sympy.factorint."""
    if not row["triple"]:
        return
    ref = oracle.abc_q_reference([Fraction(c) for c in row["triple"].strip("()").split(",")])
    for key in ("h", "rad", "quality"):
        want = repr(sr.LogValue(Fraction(ref[key]["const"]),
                                {int(p): Fraction(q) for p, q in ref[key]["logs"].items()}))
        if row[key] != want:
            note(f"abc row {row['triple']} {key}: {row[key]} != {want}")


def experiment_entry(family: str, value: int) -> dict:
    rows, skips = sr.theorem_experiment(family, "a", [Fraction(value)], tol=TOL)
    expect_rows = []
    for row in rows:
        check_abc_row(row)
        r = dict(row)
        r["achieved_delta"] = ratio_refs_for_family(family, Fraction(r["family_param"]))
        why = oracle.check_ratio(row["achieved_delta"], r["achieved_delta"])
        if why:
            note(f"theorem_experiment({family}, {value}): {why}")
        expect_rows.append(r)
    return {"call": "theorem_experiment", "args": {"family": family, "value": str(value)},
            "expect": {"kind": "tree",
                       "value": {"rows": expect_rows, "skips": [list(s) for s in skips]}}}


def random_point(rng: random.Random, big_primes: list[int]) -> Fraction:
    den = rng.choice([1, 2, 3, 5, 7, 10, 15, 49, 125])
    if rng.random() < 0.125:  # two primes above 10^6: trial division ends, rho runs
        p, q = rng.sample(big_primes, 2)
        den *= p * q
    return Fraction(rng.randint(-60, 60), den)


def record_height_batch() -> dict:
    rng = random.Random("height_batch-pool")
    big = primes_between(10 ** 6, 10 ** 6 + 20000)
    # Points are sorted by mathematical class, so that every round holds a
    # fixed number of each: two prime factors above 10^6 in the denominator
    # ("rho"), an orbit that escapes at infinity by mpmath ("escaping"), or
    # one that stays bounded, which splitrad must certify ("bounded").
    heights: dict[str, list[dict]] = {"escaping": [], "bounded": [], "rho": []}
    for _ in range(1500):
        entry = canonical_entry(rng.choice(ACCEPTANCE_MAPS), random_point(rng, big))
        if Fraction(entry["args"]["z"]).denominator > 10 ** 6:
            heights["rho"].append(entry)
        elif entry["expect"]["value"]["arch"] == "0":
            heights["bounded"].append(entry)
        else:
            heights["escaping"].append(entry)
    # Cubics with irrational critical points that all escape (by mpmath), and
    # denominators prime to 6: the certified side.  Near-parabolic cubics and
    # pushforward-depth cases at p <= 3 belong to give_up.
    cubics = []
    while len(cubics) < 300:
        c2, c1, c0 = (Fraction(rng.randint(-k, k), rng.choice([1, 5, 7])) for k in (5, 9, 9))
        coeffs = [c0, c1, c2, Fraction(1)]
        disc = 4 * c2 * c2 - 12 * c1  # discriminant of f'; a rational square means rational critical points
        if disc >= 0 and _is_rational_square(disc):
            continue
        if min(oracle.mp_crit_escape_rates(coeffs)) == 0:
            continue
        cubics.append(crit_entry("critical_height_global", oracle.format_q_poly(coeffs)))
    return {**heights, "critical_height_global": cubics}


def _is_rational_square(q: Fraction) -> bool:
    import math

    a, b = q.numerator, q.denominator
    return math.isqrt(a) ** 2 == a and math.isqrt(b) ** 2 == b


def record_family_scan() -> dict:
    return {"cubic": [experiment_entry("z^3 + (1/a)*z^2", p) for p in primes_between(7, 1000)],
            "quintic": [experiment_entry("z^5 + (1/a)*z^2", p) for p in primes_between(7, 400)]}


def record_give_up() -> dict:
    rng = random.Random("give_up-pool")
    halves = [Fraction(k, 2) for k in range(-8, 9)]
    real = [crit_entry("critical_height_local",
                       oracle.format_q_poly(oracle.conjugate([Fraction(1, 4), 0, Fraction(1)],
                                                             Fraction(a), b)), 0)
            for a in (1, -1) for b in halves]
    cplx = [crit_entry("critical_height_local",
                       oracle.format_q_poly(oracle.conjugate([0, Fraction(1), 0, Fraction(1)],
                                                             Fraction(a), b)), 0)
            for a in (1, -1) for b in halves]
    push = [crit_entry("critical_height_local", "z^3 - (3/2)*z + (1/3)", 2)]
    # nonarch_maxiter=0 leaves only the step-0 test.  A point k/(5 m) with 5
    # not dividing k has v_5(z) = -1, exactly the escape exponent of F5 at 5,
    # and v_5(f'(z)) = -2 < 0, so neither the escape test nor an invariant
    # disk certifies it before one iteration.  The reference is the value
    # under the default cap.
    tiny_rng = random.Random("give_up-nonarch_tiny")
    points: list[Fraction] = []
    while len(points) < 60:
        k = tiny_rng.choice([k for k in range(-60, 61) if k % 5])
        z = Fraction(k, 5 * tiny_rng.choice([1, 2, 3, 7]))
        if z not in points:
            points.append(z)
    tiny = [canonical_entry(ACCEPTANCE_MAPS[0], z, {"nonarch_maxiter": 0}) for z in points]
    factor = []
    import sympy

    for _ in range(16):
        p = sympy.nextprime(rng.randrange(10 ** 21, 10 ** 22))
        q = sympy.nextprime(rng.randrange(10 ** 21, 10 ** 22))
        factor.append(factor_entry(p, q))
    return {"parabolic_real": real, "parabolic_complex": cplx, "pushforward_depth": push,
            "nonarch_tiny": tiny, "factor_budget": factor}


def factor_entry(p: int, q: int) -> dict:
    """canonical_height(F5, 1/(p q)); the value is assembled place by place."""
    poly = ACCEPTANCE_MAPS[0]
    f = sr.parse_poly(poly)
    z = Fraction(1, p * q)
    total = sr.LogValue.zero()
    for ell in sorted(set(sr.candidate_bad_primes(f)) | {p, q}):
        lam = sr.escape_rate_nonarch(f, ell, z)
        if ell in (p, q) and lam != sr.LogValue.from_log(ell, 1):
            note(f"lambda_{ell}(1/(pq)) = {lam!r}, closed form gives log({ell})")
        total = total + lam
    arch = oracle.mp_escape_rate(oracle.parse_q_poly(poly), z)
    ref = oracle.logvalue_ref(total.to_json(), arch)
    return {"call": "canonical_height", "args": {"poly": poly, "z": str(z)},
            "expect": {"kind": "tree", "value": ref}}


# ---------------------------------------------------------------------------
# CLI references
# ---------------------------------------------------------------------------

def run_cli(argv: list[str], out_path: str | None) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if out_path:
        with open(out_path, encoding="utf-8") as fh:
            return rc, fh.read()
    return rc, buf.getvalue()


def refify(obj, arch):
    """Replace each LogValue JSON (it has "approx") by its reference with archimedean part ``arch``."""
    if isinstance(obj, dict):
        if "approx" in obj:
            return oracle.logvalue_ref(obj, arch)
        return {k: refify(v, arch) for k, v in obj.items()}
    if isinstance(obj, list):
        return [refify(v, arch) for v in obj]
    return obj


def cli_expect(kind: str, args: dict, text: str) -> dict:
    argv = args["argv"]
    opt = {}
    for i, a in enumerate(argv):
        if a.startswith("--") and "=" in a:
            key, val = a.split("=", 1)
            opt[key] = val
        elif a.startswith("--") and i + 1 < len(argv):
            opt[a] = argv[i + 1]
    if kind == "disk-chain":
        return {"kind": "text", "value": text}
    if kind == "equipotential":
        import hashlib

        return {"kind": "sha256", "value": hashlib.sha256(text.encode()).hexdigest()}
    if kind == "experiment":
        import csv

        rows = list(csv.DictReader(io.StringIO(text)))
        family = opt["--family"]
        for r in rows:
            check_abc_row(r)
            ref = ratio_refs_for_family(family, Fraction(r["family_param"]))
            why = oracle.check_ratio(r["achieved_delta"], ref)
            if why:
                note(f"experiment {r['family_param']}: {why}")
            r["achieved_delta"] = ref
        return {"kind": "csv", "value": rows}
    data = json.loads(text)
    if kind == "preperiodic":
        why = oracle.check_preperiodic(oracle.parse_q_poly(opt["--poly"]), data["preperiodic"])
        if why:
            note(f"preperiodic {opt['--poly']}: {why}")
        return {"kind": "json", "value": data}
    if kind == "wings":
        if sum(Fraction(c["mass"]) for c in data["clusters"]) != 1:
            note(f"wings {opt['--poly']}: masses do not sum to 1")
        return {"kind": "json", "value": data}
    if kind == "abc-quality":
        parts = opt["--triple"].split(",")
        ref = (oracle.abc_qt_reference(parts) if opt.get("--field") == "Qt"
               else oracle.abc_q_reference([Fraction(c) for c in parts]))
        for key in ("h", "rad", "quality"):
            why = oracle.check_logvalue(data[key], ref[key], TOL)
            if why:
                note(f"abc-quality {opt['--triple']} {key}: {why}")
        return {"kind": "json", "value": ref}
    coeffs = oracle.parse_q_poly(opt["--poly"])
    if kind == "canonical-height":
        arch = oracle.mp_escape_rate(coeffs, Fraction(opt["--point"]))
        ref = refify(data, arch)
    elif kind in ("analyze", "hcrit"):
        arch = oracle.mp_crit_escape_rate(coeffs)
        ref = dict(data)
        ref["h_crit"] = oracle.logvalue_ref(data["h_crit"], arch)
        if kind == "analyze":
            ref["places"] = {label: refify(pl, arch if label == "arch" else 0)
                             for label, pl in data["places"].items()}
    else:  # equidistribution: every weight is exact and finite
        ref = refify(data, 0)
        ref["achieved_delta"] = oracle.ratio_ref(ref["passing_weight"], ref["total_weight"])
    why = oracle.check_value(text, {"kind": "json", "value": ref}, TOL)
    if why:
        note(f"{kind} {argv[1:]}: {why}")
    return {"kind": "json", "value": ref}


def small_map(rng: random.Random) -> tuple[str, int]:
    a = rng.choice(SMALL_PRIMES)
    sign = rng.choice(["+", "-"])
    return f"z^3 {sign} (1/{a})*z^2", a


def qt_poly(rng: random.Random) -> list[int]:
    return [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)]


def fmt_qt(cs: list[int]) -> str:
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        mon = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        body = (str(abs(c)) if (abs(c) != 1 or k == 0) else "") + ("*" if mon and abs(c) != 1 else "") + mon
        terms.append(("-" if c < 0 else "+", body))
    s = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        s += sign + body
    return s


def cli_args(kind: str, rng: random.Random) -> dict:
    poly, a = small_map(rng)
    if kind in ("analyze", "hcrit", "preperiodic"):
        return {"argv": [kind, "--poly", poly]}
    if kind == "canonical-height":
        z = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, a, a * a]))
        return {"argv": [kind, "--poly", poly, f"--point={z}"]}
    if kind == "disk-chain":
        return {"argv": [kind, "--poly", poly, "--place", str(a), "--depth", str(rng.randint(3, 6))]}
    if kind == "wings":
        return {"argv": [kind, "--poly", poly, "--place", str(a)]}
    if kind == "equidistribution":
        pts = sorted({Fraction(rng.randint(-9, 9), rng.choice([1, a, a * a])) for _ in range(6)})
        return {"argv": [kind, "--poly", poly, f"--points={','.join(map(str, pts))}",
                         "--eps", "1/2", "--m0", "1"]}
    if kind == "abc-quality":
        while True:
            p1, p2 = qt_poly(rng), qt_poly(rng)
            n = max(len(p1), len(p2))
            p3 = [-(x + y) for x, y in zip(p1 + [0] * (n - len(p1)), p2 + [0] * (n - len(p2)))]
            if any(p3):
                break
        return {"argv": [kind, "--field", "Qt", f"--triple={fmt_qt(p1)},{fmt_qt(p2)},{fmt_qt(p3)}"]}
    if kind == "experiment":
        vals = sorted(rng.sample(primes_between(5, 60), 3))
        return {"argv": [kind, "--family", "z^3 + (1/a)*z^2", "--param", "a",
                         "--values", ",".join(map(str, vals))]}
    if kind == "equipotential":
        return {"argv": [kind, "--poly", poly, "--grid", str(rng.choice([60, 80]))], "out": True}
    raise ValueError(kind)


def cli_entry(kind: str, args: dict, workdir: str) -> dict:
    out = os.path.join(workdir, "record.svg") if args.get("out") else None
    rc, text = run_cli(workloads.cli_argv(args, out), out)
    if rc == 3:
        return {"call": "cli", "args": args,
                "expect": {"kind": "undetermined", "why": "splitrad gave up at recording"}}
    if rc != 0:
        raise SystemExit(f"generated CLI input fails with exit {rc}: {args}")
    return {"call": "cli", "args": args, "expect": cli_expect(kind, args, text)}


def record_cli_mix() -> dict:
    rng = random.Random("cli_mix-pool")
    kinds: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for kind in workloads.CLI_KINDS:
            kinds[kind] = [cli_entry(kind, cli_args(kind, rng), workdir) for _ in range(12)]
        # ROADMAP 5a: a float ratio printed as an exact rational
        five_a = {"argv": ["equidistribution", "--poly", "z^3 + (1/35)*z^2",
                           "--points=0,-1/35,1/5,2", "--eps", "1/2", "--m0", "1"]}
        kinds["equidistribution-5a"] = [cli_entry("equidistribution", five_a, workdir)]
        # abc over Q: radicals of six-digit coordinates, cross-checked with sympy.factorint
        kinds["abc-quality-q"] = [cli_entry("abc-quality", abc_q_args(rng), workdir)
                                  for _ in range(12)]
    return kinds


def abc_q_args(rng: random.Random) -> dict:
    a, b = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
    return {"argv": ["abc-quality", f"--triple={a},{b},{-(a + b)}"]}


RECORDERS = {"cli_mix": record_cli_mix, "height_batch": record_height_batch,
             "family_scan": record_family_scan, "give_up": record_give_up}


def main(argv: list[str]) -> int:
    names = argv or list(RECORDERS)
    for name in names:
        DISAGREEMENTS.clear()
        print(f"recording {name} ...", file=sys.stderr)
        pool = {"workload": name, "tol": TOL, "kinds": RECORDERS[name](),
                "disagreements": list(DISAGREEMENTS)}
        with open(workloads.pool_path(name), "w", encoding="utf-8") as fh:
            json.dump(pool, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        sizes = {k: len(v) for k, v in pool["kinds"].items()}
        print(f"  {sizes}, {len(DISAGREEMENTS)} disagreements", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
