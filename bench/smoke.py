"""Smoke test of the benchmark itself; run from the repository root:

    python3 bench/smoke.py

Runs every workload for one round with tracing off and on, and checks the
result line against BENCHMARK.json, the tracer self-check (each workload's
expected layers record calls), and that the benchmark refuses to run in a
directory without the splitrad sources.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            p = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)], root)
            label = f"{w['name']} trace={trace}"
            if p.returncode != 0:
                problems.append(f"{label}: exit {p.returncode}: {p.stderr[-400:]}")
                continue
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(res)}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{label}: correct={res['correct']} attempted={res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want[trace]))}")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            problems += [f"{label}: {ln}" for ln in lines if ln.startswith("self-check:")]
            print(f"{label}: {res['attempted']} ops, {res['failed']} failed", flush=True)
    with tempfile.TemporaryDirectory(dir=root) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, os.path.join(bare, "bench", "run.py"), "--workload",
                            spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        if p.returncode == 0 or p.stdout.strip():
            problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    for msg in problems:
        print("FAIL", msg)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
