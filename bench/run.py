"""splitrad benchmark: one seeded command per workload, run from the repository root.

    python3 bench/run.py --workload {cli_mix,height_batch,family_scan,give_up} \
        --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer counts and self times from a traced run, whose ops are replayed
untraced to give ``trace.overhead_ratio``.  Earlier lines print every metric
by name with its unit, the run stamp, and each failed op with its reason.

``attempted`` counts the ops run; ``failed`` those that gave a wrong value,
an unexpected exit code or exception, or ran past their time limit.  An op
that ends in UndeterminedError (exit 3) counts in ``undetermined_share``
where its workload lets it give up (``give_up``), and as failed elsewhere.
``correct`` is false when any op fails other than by its kind's known seed
defect (ROADMAP 5a in ``cli_mix``, 5b in ``give_up``); those known
failures still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 5
HARD_LIMIT_S = 170.0

# layers each workload must exercise; the smoke test asserts nonzero calls
EXPECTED_LAYERS = {
    "cli_mix": ["cli.main", "exact.factorize", "dynamics.parse_poly",
                "localheights.critical_height_global", "berkovich.wing_clusters",
                "stats.abc_quality", "plotting.equipotential_svg"],
    "height_batch": ["localheights.canonical_height", "localheights.escape_rate_arch",
                     "localheights.escape_rate_arch_box", "intervals.taylor_enclosures",
                     "exact.factorize"],
    "family_scan": ["stats.theorem_experiment", "dynamics.preperiodic_points",
                    "dynamics.poly_eval", "qpoly.lagrange_interpolate",
                    "berkovich.wing_clusters"],
    "give_up": ["localheights.critical_height_local", "intervals.horner_centered",
                "intervals.chorner_centered", "exact.factorize"],
}


def per_layer_names() -> list[tuple[str, str]]:
    names = [("cli.import_s", "s"), ("cli.import_numpy_s", "s"), ("cli.import_sympy_s", "s"),
             ("cli.main_s", "s")]
    names += [(f"cli.{k}.p50_s", "s") for k in wl.CLI_KINDS]
    for _, _, stem in tracing.TARGETS:
        if stem == "cli.main":
            continue
        names += [(f"{stem}.calls", "count/op"), (f"{stem}.self_s", "s/op")]
        if stem == "exact.factorize":
            names.append((f"{stem}.first_call_s", "s"))
    names += [("intervals.centered_per_escape", "ratio"), ("qpoly.resultants_per_wing", "ratio"),
              ("dynamics.evals_per_preperiodic", "ratio"), ("localheights.certified_ratio", "ratio"),
              ("trace.overhead_ratio", "ratio"), ("outcome.failed_share", "share"),
              ("outcome.undetermined_share", "share")]
    return names


END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"), ("ok_share", "share")]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SPLITRAD_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def worker_cmd(args, out: str | None, setup_only: bool) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if out:
        cmd += ["--out", out]
    return cmd + (["--setup-only"] if setup_only else [])


def start_worker(args, env, root, out, setup_only):
    """Spawn a worker and wait for READY; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, out, setup_only), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    line = proc.stdout.readline().strip()
    dt = time.perf_counter() - t0
    if line != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, dt


def measure_setups(args, env, root, count) -> list[float]:
    out = []
    for _ in range(count):
        proc, dt = start_worker(args, env, root, None, True)
        proc.wait(timeout=60)
        out.append(dt)
    return out


def run_library(args, env, root, work) -> dict:
    setups = measure_setups(args, env, root, SETUP_REPS - 1)
    out = os.path.join(work, "result.json")
    proc, dt = start_worker(args, env, root, out, False)
    setups.append(dt)
    try:
        proc.stdin.write("GO\n")
        proc.stdin.flush()
        line = proc.stdout.readline().strip()
        proc.wait(timeout=HARD_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "DONE":
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    ops = [dict(zip(("kind", "idx", "status", "detail", "value", "wall", "cpu"), r))
           for r in res["records"]]
    return {"ops": ops, "wall": res["wall"], "setups": setups,
            "peak_rss_mb": res["maxrss_kb"] / 1024.0, "trace": res.get("trace"),
            "overhead": (res["traced_wall"] / res["untraced_wall"]) if args.trace else None}


def run_cli_op(cmd, env, root, limit, out_path):
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=root, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=limit)
        status = {0: "ok", 3: "undetermined"}.get(proc.returncode, "error")
        detail = "" if status == "ok" else f"exit {proc.returncode}: {stderr.strip()[-200:]}"
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        status, detail = "timeout", f"over {limit} s"
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    value = stdout
    if status == "ok" and out_path:
        with open(out_path, encoding="utf-8") as fh:
            value = fh.read()
        os.remove(out_path)
    return status, detail, value, wall, cpu, stderr


def importtime_us(stderr: str, package: str) -> float | None:
    """Cumulative import time of a package from ``-X importtime`` output.

    A nested import is indented in the name column, so the name is stripped.
    """
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return float(parts[1])
    return None


def run_cli_mix(args, env, root, work) -> dict:
    pool = wl.load_pool("cli_mix")
    stream = wl.rounds(pool, "cli_mix", args.seed)
    # compile bytecode once so no timed process pays for it
    subprocess.run([sys.executable, "-c", "import splitrad.cli"], env=env, cwd=root, check=True)
    seconds = max(1.0, args.seconds / 2) if args.trace else args.seconds
    ops, children, plan = [], [], []
    start = time.perf_counter()
    for round_ops in stream:
        for kind, idx in round_ops:
            entry = pool["kinds"][kind][idx]
            out_path = os.path.join(work, "out.svg")
            argv = wl.cli_argv(entry["args"], out_path)
            if args.trace:
                tfile = os.path.join(work, f"trace-{len(ops)}.json")
                cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "launcher.py"),
                       "--trace-out", tfile, "--"] + argv
            else:
                cmd = [sys.executable, "-m", "splitrad.cli"] + argv
            status, detail, value, wall, cpu, stderr = run_cli_op(
                cmd, env, root, wl.limit_s("cli_mix", kind), out_path if entry["args"].get("out") else None)
            ops.append({"kind": kind, "idx": idx, "status": status, "detail": detail,
                        "value": value, "wall": wall, "cpu": cpu})
            plan.append(argv)
            if args.trace and os.path.exists(tfile):
                with open(tfile, encoding="utf-8") as fh:
                    child = json.load(fh)
                child["numpy_us"] = importtime_us(stderr, "numpy")
                child["sympy_us"] = importtime_us(stderr, "sympy")
                children.append(child)
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    overhead = None
    if args.trace:
        t0 = time.perf_counter()
        for argv in plan:
            run_cli_op([sys.executable, "-m", "splitrad.cli"] + argv, env, root, 60.0,
                       argv[-1] if "--out" in argv else None)
        overhead = wall / (time.perf_counter() - t0)
    setups = measure_setups(args, env, root, SETUP_REPS)
    return {"ops": ops, "wall": wall, "setups": setups, "peak_rss_mb": peak,
            "children": children, "overhead": overhead}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with >= 10 beyond.

    Below 20 samples no percentile above the median has ten beyond it; the
    maximum is reported with 0 beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(res: dict, counts: dict) -> dict:
    walls = [op["wall"] for op in res["ops"]]
    n = len(walls)
    tail_v, tail_q, beyond = tail(walls)
    m = {
        "setup_s": statistics.median(res["setups"]),
        "ops_per_s": n / res["wall"],
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_v,
        "cpu_s_per_op": sum(op["cpu"] for op in res["ops"]) / n,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": (n - counts["failed"]) / n,
    }
    print(f"op_tail_s is p{tail_q:.2f} of {n} ops, {beyond} beyond it")
    return m


def per_layer(res: dict, counts: dict, workload: str) -> tuple[dict, list[str], list[str]]:
    n = len(res["ops"])
    if workload == "cli_mix":
        merged = tracing.merge([c["trace"] for c in res["children"]])
    else:
        merged = tracing.merge([res["trace"]])
    stats = merged["stats"]

    def get(stem, key):
        return stats.get(stem, {}).get(key, 0)

    m = {}
    for name, unit in per_layer_names():
        stem, _, key = name.rpartition(".")
        if unit == "count/op":
            m[name] = get(stem, "calls") / n
        elif unit == "s/op":
            m[name] = get(stem, "self_s") / n
        elif key == "first_call_s":
            m[name] = get(stem, "first_call_s")
    children = res.get("children", [])

    def med(vals):
        vals = [v for v in vals if v is not None]
        return statistics.median(vals) if vals else 0.0

    m["cli.import_s"] = med([c["import_s"] for c in children])
    m["cli.import_numpy_s"] = med([c["numpy_us"] / 1e6 for c in children if c["numpy_us"]])
    m["cli.import_sympy_s"] = med([c["sympy_us"] / 1e6 for c in children if c["sympy_us"]])
    m["cli.main_s"] = med([c["main_s"] for c in children])
    for k in wl.CLI_KINDS:
        m[f"cli.{k}.p50_s"] = med([c["main_s"] for c in children if c["command"] == k])

    def ratio(a, b):
        return a / b if b else 0.0

    escapes = ("localheights.escape_rate_arch", "localheights.escape_rate_arch_box")
    m["intervals.centered_per_escape"] = ratio(
        get("intervals.horner_centered", "calls") + get("intervals.chorner_centered", "calls"),
        sum(get(s, "calls") for s in escapes))
    m["qpoly.resultants_per_wing"] = ratio(get("qpoly.resultant", "calls"),
                                           get("berkovich.wing_clusters", "calls"))
    m["dynamics.evals_per_preperiodic"] = ratio(get("dynamics.poly_eval", "calls"),
                                                get("dynamics.preperiodic_points", "calls"))
    attempts = escapes + ("localheights.escape_rate_nonarch",)
    m["localheights.certified_ratio"] = ratio(
        sum(get(s, "calls") - get(s, "raised") for s in attempts),
        sum(get(s, "calls") for s in attempts))
    m["trace.overhead_ratio"] = res["overhead"]
    m["outcome.failed_share"] = counts["failed"] / n
    m["outcome.undetermined_share"] = counts["undetermined"] / n
    silent = [s for s in EXPECTED_LAYERS[workload]
              if s not in merged["absent"] and get(s, "calls") == 0]
    return {name: m[name] for name, _ in per_layer_names()}, merged["absent"], silent


def classify(res: dict, pool: dict, workload: str) -> dict:
    """Counts of ok, undetermined and failed ops, and of failures that are no known defect."""
    counts = {"ok": 0, "undetermined": 0, "failed": 0, "unexpected": 0}
    reasons: dict[str, int] = {}
    for op in res["ops"]:
        expect = pool["kinds"][op["kind"]][op["idx"]]["expect"]
        try:
            verdict, why = oracle.check(op, expect, pool["tol"],
                                        wl.may_give_up(workload, op["kind"]))
        except Exception as e:  # noqa: BLE001 - an output the checker cannot read is a failed op
            verdict, why = "failed", f"unreadable output ({type(e).__name__}: {e})"
        counts[verdict] += 1
        if verdict == "failed":
            known = wl.known_defect(workload, op["kind"], why)
            if known is None:
                counts["unexpected"] += 1
            key = f"{op['kind']}: {why}"[:240] + (f" [known defect, {known}]" if known else "")
            reasons[key] = reasons.get(key, 0) + 1
    for why, k in sorted(reasons.items()):
        print(f"failed x{k}: {why}")
    return counts


def stamp(seed: int, root: str) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"), "mpmath": version("mpmath"),
            "commit": commit, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "splitrad", "__init__.py")):
        sys.stderr.write("bench: no splitrad sources under ./src; run from the repository root\n")
        return 2
    pool = wl.load_pool(args.workload)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_env(root)
    try:
        runner = run_cli_mix if args.workload == "cli_mix" else run_library
        res = runner(args, env, root, work)
    finally:
        import shutil

        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    print("stamp:", json.dumps(stamp(args.seed, root), sort_keys=True))
    print(f"workload {args.workload}: {wl.WORKLOADS[args.workload]['why']}")
    counts = classify(res, pool, args.workload)
    n = len(res["ops"])
    print(f"ops: {n} attempted, {counts['ok']} ok, {counts['undetermined']} undetermined, "
          f"{counts['failed']} failed, {counts['unexpected']} of them not a known defect")
    if args.trace:
        metrics, absent, silent = per_layer(res, counts, args.workload)
        units = dict(per_layer_names())
        if absent:
            print("absent (reported as 0):", ", ".join(absent))
        if silent:
            print("self-check: expected layers with no calls:", ", ".join(silent))
    else:
        metrics = end_to_end(res, counts)
        units = dict(END_TO_END)
        print(f"failed_share {counts['failed'] / n:.6g} share")
        print(f"undetermined_share {counts['undetermined'] / n:.6g} share")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": counts["unexpected"] == 0, "attempted": n, "failed": counts["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
