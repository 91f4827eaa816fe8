"""The four workloads: why each exists, what one round holds, and how an op runs.

Every workload is closed-loop with one client.  A run draws whole rounds
from the workload's recorded pool (``bench/ref/<workload>.json``) with
``random.Random(seed)``; within a kind, entries are dealt without
replacement and the deck is reshuffled when it runs out.  A round has a
fixed number of ops of each kind, so the mix of op kinds is the same in
every run and only the drawn inputs depend on the seed.  No entry is ever
filtered by its outcome or its run time.

An op may end in UndeterminedError only if its kind is in the workload's
``may_give_up``; elsewhere every pool entry has an answer, and giving up
is a failed op.  ``known_defects`` names the kinds that fail at the seed
(ROADMAP 5a, 5b) and the reason they fail with; those failures count in
``failed`` like any other, but only a failure outside that list makes a
run incorrect.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-9

CLI_KINDS = ["analyze", "hcrit", "canonical-height", "preperiodic", "disk-chain",
             "wings", "equidistribution", "abc-quality", "experiment", "equipotential"]

WORKLOADS = {
    "cli_mix": {
        "why": "fresh `python -m splitrad.cli` processes over all ten subcommands; "
               "start-up, imports and the sieve dominate, kernels are a small share",
        # one of each subcommand (abc-quality over Q(t)), plus the ROADMAP 5a
        # equidistribution case and abc-quality over Q
        "round": {**{k: 1 for k in CLI_KINDS}, "equidistribution-5a": 1, "abc-quality-q": 1},
        "limit_s": {},
        "default_limit_s": 60.0,
        "known_defects": {"equidistribution-5a": (
            "$.achieved_delta: exact ratio",
            "ROADMAP 5a: an irrational ratio of logs printed as an exact rational")},
    },
    "height_batch": {
        "why": "warm canonical heights on the acceptance maps and critical heights of cubics "
               "with irrational, escaping critical points; interval forms and factorize dominate",
        # canonical heights by class of point (see record.py).  Escaping
        # points cost about 1 ms, rho and bounded ones 5-40 ms; with as many
        # escaping as bounded points the median op falls among the rho and
        # bounded ones, where op times are dense, not in the gap between
        # the classes
        "round": {"escaping": 16, "bounded": 16, "rho": 8, "critical_height_global": 1},
        "limit_s": {},
        "default_limit_s": 30.0,
    },
    "family_scan": {
        "why": "warm theorem_experiment over prime parameters of z^3 + z^2/a and "
               "z^5 + z^2/a; Fraction orbits and interpolation dominate",
        "round": {"cubic": 3, "quintic": 1},
        "limit_s": {},
        "default_limit_s": 30.0,
    },
    "give_up": {
        "why": "warm inputs that must end in UndeterminedError: parabolic conjugates, "
               "pushforward depth, a tiny iteration cap and a 44-digit factorization",
        # the real parabolic ops (1.3-3.2 s each) are most of a round, so
        # that the median falls in the middle of their times, over 12 draws
        "round": {"parabolic_real": 6, "parabolic_complex": 1, "pushforward_depth": 1,
                  "nonarch_tiny": 1, "factor_budget": 1},
        # ROADMAP 5b: a budgeted factorizer gives up within this limit, which
        # sits below the real parabolic ops so that op_p50_s measures those
        "limit_s": {"factor_budget": 1.0, "parabolic_complex": 60.0},
        "default_limit_s": 30.0,
        "may_give_up": ["parabolic_real", "parabolic_complex", "pushforward_depth",
                        "nonarch_tiny", "factor_budget"],
        "known_defects": {"factor_budget": (
            "timeout", "ROADMAP 5b: Pollard rho has no budget")},
        # untraced runs do at least this many rounds: a round takes 15-25 s,
        # and two give 20 ops, whose 7th to 18th fastest are real parabolic ops
        "min_rounds": 2,
    },
}

# Untimed calls that fill lazy caches (sieve, sympy import, _factor_cached)
# on inputs that are not in any pool.
_HEIGHTS_WARMUP = [("canonical_height", {"poly": "z^3 + (1/5)*z^2", "z": "1/2"}),
                   ("critical_height_global", {"poly": "z^3 + 2*z + 1"})]
WARMUP = {
    "cli_mix": _HEIGHTS_WARMUP,
    "height_batch": _HEIGHTS_WARMUP,
    "family_scan": [("theorem_experiment", {"family": "z^3 + (1/a)*z^2", "value": "5"}),
                    ("theorem_experiment", {"family": "z^5 + (1/a)*z^2", "value": "5"})],
    "give_up": _HEIGHTS_WARMUP,
}


def pool_path(workload: str) -> str:
    return os.path.join(HERE, "ref", f"{workload}.json")


def load_pool(workload: str) -> dict:
    with open(pool_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def rounds(pool: dict, workload: str, seed: int):
    """Endless seeded stream of rounds; each op is (kind, index into the pool)."""
    rng = random.Random(f"{workload}:{seed}")
    decks: dict[str, list[int]] = {}
    spec = WORKLOADS[workload]["round"]
    while True:
        ops = []
        for kind, count in spec.items():
            for _ in range(count):
                deck = decks.get(kind)
                if not deck:
                    deck = list(range(len(pool["kinds"][kind])))
                    rng.shuffle(deck)
                    decks[kind] = deck
                ops.append((kind, deck.pop()))
        rng.shuffle(ops)
        yield ops


def limit_s(workload: str, kind: str) -> float:
    w = WORKLOADS[workload]
    return w["limit_s"].get(kind, w["default_limit_s"])


def may_give_up(workload: str, kind: str) -> bool:
    return kind in WORKLOADS[workload].get("may_give_up", ())


def known_defect(workload: str, kind: str, why: str) -> str | None:
    """The ROADMAP note if this failure is the kind's known seed defect, else None."""
    defect = WORKLOADS[workload].get("known_defects", {}).get(kind)
    return defect[1] if defect and why.startswith(defect[0]) else None


def min_rounds(workload: str) -> int:
    return WORKLOADS[workload].get("min_rounds", 1)


# ---------------------------------------------------------------------------
# running one library op inside a warm process
# ---------------------------------------------------------------------------

def prepare(sr, call: str, args: dict, maps: dict | None = None):
    """Parse an op's inputs into splitrad objects (set-up work, untimed).

    ``maps`` memoizes parsed maps by their text.
    """
    if call == "theorem_experiment":
        return (args["family"], "a", [Fraction(args["value"])])
    maps = {} if maps is None else maps
    f = maps.get(args["poly"])
    if f is None:
        f = maps[args["poly"]] = sr.parse_poly(args["poly"])
    if call == "canonical_height":
        return (f, Fraction(args["z"]))
    if call == "critical_height_local":
        place = sr.Place.arch() if args["place"] == 0 else sr.Place.finite(args["place"])
        return (f, place)
    return (f,)


def invoke(sr, call: str, parsed, args: dict):
    """Run one library call; the result is returned in JSON form."""
    fn = getattr(sr, call)
    if call == "theorem_experiment":
        rows, skips = fn(*parsed, tol=TOL)
        return {"rows": rows, "skips": [list(s) for s in skips]}
    if call == "canonical_height":
        kw = {"nonarch_maxiter": args["nonarch_maxiter"]} if "nonarch_maxiter" in args else {}
        return fn(*parsed, TOL, **kw).to_json()
    return fn(*parsed, TOL).to_json()


def cli_argv(args: dict, out_path: str | None) -> list[str]:
    argv = list(args["argv"])
    if args.get("out") and out_path:
        argv += ["--out", out_path]
    return argv
