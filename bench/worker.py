"""Warm worker process for the library workloads (and set-up timing of all).

Protocol with ``run.py``: the worker imports splitrad, loads the pool,
parses the workload's maps and runs the warm-up calls, then prints
``READY``.  With ``--setup-only`` it exits there.  Otherwise it waits for
``GO`` on stdin, runs whole rounds for ``--seconds`` seconds, writes its
results as JSON to ``--out`` and prints ``DONE``.

With ``--trace 1`` the timed rounds run with the tracer installed for half
the time, and the same ops are then replayed untraced, so the trace
overhead is measured on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


class OpTimeout(BaseException):
    """The per-operation time limit expired (a BaseException, so no library handler eats it)."""


def _alarm(signum, frame):
    raise OpTimeout()


def clear_caches() -> None:
    """Empty every functools cache in splitrad, so both trace phases start alike."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("splitrad"):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_ops(sr, wl, workload, plan, pool, parsed, seconds=None, rounds_iter=None, rounds_min=1):
    """Run ops: whole rounds from ``rounds_iter`` until ``seconds`` have passed and at
    least ``rounds_min`` rounds are done, or else the fixed ``plan``."""
    records = []
    done_plan = []
    start = time.perf_counter()
    hard_stop = start + (seconds or 0) + 60.0

    def one(kind, idx):
        entry = pool["kinds"][kind][idx]
        call, args = entry["call"], entry["args"]
        status, detail, value = "ok", "", None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, wl.limit_s(workload, kind))
            try:
                value = wl.invoke(sr, call, parsed[(kind, idx)], args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            status, detail = "timeout", f"over {wl.limit_s(workload, kind)} s"
        except sr.UndeterminedError as e:
            status, detail = "undetermined", str(e)
        except Exception as e:  # noqa: BLE001 - every other exception is a failed op
            status, detail = "error", f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        records.append([kind, idx, status, detail, value, wall, cpu])

    if plan is not None:
        for kind, idx in plan:
            one(kind, idx)
    else:
        for done, ops in enumerate(rounds_iter, 1):
            for kind, idx in ops:
                if time.perf_counter() > hard_stop:
                    break
                one(kind, idx)
                done_plan.append((kind, idx))
            if time.perf_counter() - start >= seconds and done >= rounds_min:
                break
    return records, time.perf_counter() - start, done_plan


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()

    import splitrad as sr
    import splitrad.cli  # noqa: F401 - the CLI's import cost is part of set-up everywhere
    import workloads as wl

    workload = a.workload
    pool = wl.load_pool(workload)
    parsed, maps = {}, {}
    if workload != "cli_mix":
        for kind, entries in pool["kinds"].items():
            for idx, entry in enumerate(entries):
                parsed[(kind, idx)] = wl.prepare(sr, entry["call"], entry["args"], maps)
    for call, args in wl.WARMUP[workload]:
        wl.invoke(sr, call, wl.prepare(sr, call, args), args)
    print("READY", flush=True)
    if a.setup_only:
        return 0
    if sys.stdin.readline().strip() != "GO":
        return 1

    signal.signal(signal.SIGALRM, _alarm)
    result = {}
    stream = wl.rounds(pool, workload, a.seed)
    if a.trace:
        from tracer import Tracer

        clear_caches()
        tracer = Tracer().install()
        try:
            records, traced_wall, plan = run_ops(sr, wl, workload, None, pool, parsed,
                                                 seconds=max(1.0, a.seconds / 2), rounds_iter=stream)
        finally:
            tracer.uninstall()
        clear_caches()
        _, untraced_wall, _ = run_ops(sr, wl, workload, plan, pool, parsed)
        result.update(trace=tracer.to_json(), traced_wall=traced_wall, untraced_wall=untraced_wall)
        wall = traced_wall
    else:
        records, wall, _ = run_ops(sr, wl, workload, None, pool, parsed, seconds=a.seconds,
                                   rounds_iter=stream, rounds_min=wl.min_rounds(workload))
    result.update(records=records, wall=wall,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
