"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 undetermined
certificate.  Artifacts are JSON/CSV/SVG on stdout or --out.  A --config
file of key=value lines supplies defaults (tol, m0, eps, depth, grid,
nonarch_maxiter, arch_maxiter).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import DomainError, UndeterminedError, Value
from .dynamics import parse_ground, parse_poly, preperiodic_points, print_poly
from .localheights import analyze, canonical_height, critical_height_global


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


class RunConfig(Value):
    """Validated run parameters shared by the subcommands."""

    tol: float = 1e-9
    nonarch_maxiter: int = 30
    arch_maxiter: int = 400
    depth: int = 6
    m0: int = 1
    eps: Fraction = Fraction(1, 2)
    grid: int = 600

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.tol > 0:
            raise DomainError("tolerance must be positive")
        if min(self.nonarch_maxiter, self.arch_maxiter, self.depth, self.m0, self.grid) < 1:
            raise DomainError("iteration caps and sizes must be >= 1")
        # disk-chain builds depth levels and the m0 reports m0 + 1; up to the
        # default depth no chain reaches the cap, so berkovich stays unloaded
        chain_depth = max(self.depth, self.m0 + 1)
        if chain_depth > RunConfig.depth:
            from .berkovich import _MAX_CHAIN_DEPTH
            if chain_depth > _MAX_CHAIN_DEPTH:
                raise DomainError(f"depth and m0 + 1 must be at most the chain depth cap of "
                                  f"{_MAX_CHAIN_DEPTH}; got depth {self.depth}, m0 {self.m0}")


def _read_config(path: str | None) -> dict:
    cfg: dict[str, str] = {}
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    return cfg


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_points(text: str, field: str):
    return [parse_ground(part, field) for part in text.split(",") if part.strip()]


def build_parser() -> _Parser:
    ap = _Parser(prog="splitrad", description=__doc__)
    ap.add_argument("--config", default=None, help="key=value defaults file")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("--poly", required=True, help="polynomial in z")
        p.add_argument("--field", choices=("Q", "Qt"), default="Q")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "svg"),
                       default=None)

    p = sub.add_parser("analyze", help="per-place reduction data and h_crit")
    common(p)

    p = sub.add_parser("hcrit", help="global critical height")
    common(p)

    p = sub.add_parser("canonical-height", help="canonical height of a point")
    common(p)
    p.add_argument("--point", required=True)

    p = sub.add_parser("preperiodic", help="all Q-rational preperiodic points")
    common(p)

    p = sub.add_parser("disk-chain", help="descending disk chain at a bad prime")
    common(p)
    p.add_argument("--place", required=True, type=int)
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("wings", help="wing clusters at a bad prime")
    common(p)
    p.add_argument("--place", required=True, type=int)

    p = sub.add_parser("equidistribution", help="annulus/wing report for a point set")
    common(p)
    p.add_argument("--points", required=True, help="comma-separated rationals")
    p.add_argument("--eps", default=None)
    p.add_argument("--m0", type=int, default=None)

    p = sub.add_parser("abc-quality", help="height/radical/quality of an abc triple")
    common(p, poly=False)
    p.add_argument("--triple", required=True, help="comma-separated coordinates")

    p = sub.add_parser("experiment", help="one-parameter family pipeline, CSV")
    common(p, poly=False)
    p.add_argument("--family", required=True)
    p.add_argument("--param", default="a")
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--eps", default=None)
    p.add_argument("--m0", type=int, default=None)

    p = sub.add_parser("equipotential", help="escape-rate contour SVG")
    common(p)
    p.add_argument("--window", default="-7,7,-6,6")
    p.add_argument("--levels", default="0.02,0.1,0.5,1,2")
    p.add_argument("--grid", type=int, default=None)
    return ap


_NATURAL_FORMAT = {
    "analyze": "json", "hcrit": "json", "canonical-height": "json",
    "preperiodic": "json", "disk-chain": "csv", "wings": "json",
    "equidistribution": "json", "abc-quality": "json", "experiment": "csv",
    "equipotential": "svg",
}


def _build_config(args, cfg) -> RunConfig:
    """A flag wins over the --config value, which wins over RunConfig's default.

    A --config file may set any RunConfig field (the two maxiter caps have no
    flag); each value is read as the type of the field's default.
    """
    unknown = sorted(set(cfg) - set(RunConfig._fields))
    if unknown:
        raise DomainError(f"unknown --config key(s) {', '.join(unknown)}; "
                          f"accepted: {', '.join(RunConfig._fields)}")
    given = {}
    for key in RunConfig._fields:
        v = getattr(args, key, None)
        if v is None:
            v = cfg.get(key)
        if v is not None:
            given[key] = type(getattr(RunConfig, key))(v)
    return RunConfig(**given)


def _run(args) -> int:
    cfg = _read_config(args.config)
    rc = _build_config(args, cfg)
    tol = rc.tol
    natural = _NATURAL_FORMAT[args.command]
    if args.fmt is not None and args.fmt != natural:
        raise DomainError(f"{args.command} emits {natural}, not {args.fmt}")

    # out is the JSON payload, or the CSV/SVG text; berkovich, stats and
    # plotting (numpy) load only in the branches that use them
    f = parse_poly(args.poly, args.field) if hasattr(args, "poly") else None
    if args.command == "analyze":
        profiles, hcrit = analyze(f, tol)
        out = {
            "poly": print_poly(f),
            "places": {pr.place.label(): pr.to_json() for pr in profiles},
            "h_crit": hcrit.to_json(),
        }
    elif args.command == "hcrit":
        out = {"poly": print_poly(f), "h_crit": critical_height_global(f, tol).to_json()}
    elif args.command == "canonical-height":
        z = parse_ground(args.point, args.field)
        h = canonical_height(f, z, tol, nonarch_maxiter=rc.nonarch_maxiter,
                             arch_maxiter=rc.arch_maxiter)
        out = {"poly": print_poly(f), "point": str(z), "canonical_height": h.to_json()}
    elif args.command == "preperiodic":
        out = {
            "poly": print_poly(f),
            "preperiodic": [{"value": str(pp.value), "preperiod": pp.preperiod,
                             "period": pp.period} for pp in preperiodic_points(f)],
        }
    elif args.command == "disk-chain":
        from .berkovich import inner_disk_chain
        chain = inner_disk_chain(f, args.place, rc.depth)
        lines = ["level,t,k,mass,q,modulus"]
        for i, lv in enumerate(chain.levels, start=1):
            modulus = str(chain.moduli[i - 1]) if i - 1 < len(chain.moduli) else ""
            lines.append(f"{i},{lv.t},{lv.k},{lv.mass},{lv.q},{modulus}")
        out = "\n".join(lines) + "\n"
    elif args.command == "wings":
        from .berkovich import wing_clusters
        w = wing_clusters(f, args.place)
        out = {
            "poly": print_poly(f),
            "place": {"kind": "finite", "p": w.p},
            "cross_distance_logp": str(w.g),
            "clusters": [c.to_json() for c in w.clusters],
        }
    elif args.command == "equidistribution":
        from .stats import equidistribution_report
        pts = _parse_points(args.points, args.field)
        out = equidistribution_report(f, pts, rc.eps, rc.m0, tol).to_json()
    elif args.command == "abc-quality":
        from .stats import AbcTriple, abc_quality
        coords = _parse_points(args.triple, args.field)
        out = abc_quality(AbcTriple(coords, args.field)).to_json()
    elif args.command == "experiment":
        from .stats import rows_to_csv, theorem_experiment
        values = [Fraction(v) for v in args.values.split(",") if v.strip()]
        rows, skips = theorem_experiment(args.family, args.param, values, rc.m0,
                                         rc.eps, tol)
        for label, reason in skips:
            sys.stderr.write(f"skipped {label}: {reason}\n")
        out = rows_to_csv(rows)
    else:  # equipotential, the one command left in _NATURAL_FORMAT
        from .plotting import equipotential_svg
        window = tuple(float(x) for x in args.window.split(","))
        levels = tuple(float(x) for x in args.levels.split(","))
        out = equipotential_svg(f, window, levels, rc.grid)
    _emit(args, json.dumps(out, indent=2, sort_keys=True) + "\n" if natural == "json" else out)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _run(args)
    except (DomainError, ValueError, ZeroDivisionError) as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 2
    except UndeterminedError as e:
        sys.stderr.write(f"undetermined: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
