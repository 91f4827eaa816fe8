"""Replay a fixed slice of the recorded benchmark pools and check each result.

The pools (``bench/ref/*.json``) hold inputs with independent references;
``bench/oracle.py`` holds the checker and ``bench/workloads.py`` runs an op
the way the benchmark does.  Both are imported read-only.  Every stride-th
entry of a kind is replayed, so the slice never depends on an outcome.
"""

import importlib.util
from pathlib import Path

import pytest

import splitrad as sr

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
wl = _load("workloads")

# (workload, kind, stride): about 15 entries of each kind
SLICES = [("family_scan", "cubic", 11), ("family_scan", "quintic", 5),
          ("height_batch", "critical_height_global", 20), ("give_up", "pushforward_depth", 1)]


def _entries():
    for workload, kind, stride in SLICES:
        pool = wl.load_pool(workload)
        for idx in range(0, len(pool["kinds"][kind]), stride):
            yield pytest.param(workload, kind, pool["kinds"][kind][idx], pool["tol"],
                               id=f"{workload}-{kind}-{idx}")


@pytest.mark.parametrize("workload, kind, entry, tol", list(_entries()))
def test_pool_entry(workload, kind, entry, tol):
    call, args = entry["call"], entry["args"]
    try:
        outcome = {"status": "ok",
                   "value": wl.invoke(sr, call, wl.prepare(sr, call, args), args)}
    except sr.UndeterminedError as e:
        outcome = {"status": "undetermined", "detail": str(e)}
    verdict, why = oracle.check(outcome, entry["expect"], tol,
                                wl.may_give_up(workload, kind))
    assert verdict != "failed", why
