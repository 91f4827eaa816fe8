"""Replay the recorded benchmark pools and check each result; check escape rates against mpmath.

The pools (``bench/ref/*.json``) hold inputs with independent references;
``bench/oracle.py`` holds the checker and ``bench/workloads.py`` runs an op
the way the benchmark does.  Both are imported read-only.  Every stride-th
entry of a kind is replayed, so the slice never depends on an outcome.

``test_full_pool_entry`` replays every entry of every pool instead, except
``factor_budget``, whose factorization does not end; it is marked
``full_pools`` and deselected by default:

    python -m pytest -m full_pools tests/test_pools.py
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import splitrad as sr
from splitrad import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
wl = _load("workloads")
POOLS = {workload: wl.load_pool(workload) for workload in wl.WORKLOADS}

# (workload, kind, stride): about 15 entries of each fast kind, one of each slow one
SLICES = [("family_scan", "cubic", 11), ("family_scan", "quintic", 5),
          ("height_batch", "critical_height_global", 20), ("height_batch", "bounded", 33),
          ("height_batch", "escaping", 55), ("height_batch", "rho", 12),
          ("give_up", "pushforward_depth", 1), ("give_up", "nonarch_tiny", 4),
          ("give_up", "parabolic_real", 34),
          ("cli_mix", "equidistribution-5a", 1)]


def _params(slices):
    for workload, kind, stride in slices:
        for idx in range(0, len(POOLS[workload]["kinds"][kind]), stride):
            yield pytest.param(workload, kind, idx, id=f"{workload}-{kind}-{idx}")


def _outcome(call, args, out_path):
    """Run one pool op in this process, as the benchmark's status/value/detail record."""
    if call != "cli":
        try:
            return {"status": "ok", "value": wl.invoke(sr, call, wl.prepare(sr, call, args), args)}
        except sr.UndeterminedError as e:
            return {"status": "undetermined", "detail": str(e)}
    stdout, stderr = io.StringIO(), io.StringIO()
    out = str(out_path) if args.get("out") else None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(wl.cli_argv(args, out))
    if code != 0:
        status = "undetermined" if code == 3 else "error"
        return {"status": status, "detail": f"exit {code}: {stderr.getvalue().strip()}"}
    return {"status": "ok", "value": Path(out).read_text(encoding="utf-8") if out
            else stdout.getvalue()}


def _replay(workload, kind, idx, tmp_path):
    pool = POOLS[workload]
    entry = pool["kinds"][kind][idx]
    outcome = _outcome(entry["call"], entry["args"], tmp_path / "out")
    verdict, why = oracle.check(outcome, entry["expect"], pool["tol"],
                                wl.may_give_up(workload, kind))
    assert verdict != "failed", why


@pytest.mark.parametrize("workload, kind, idx", list(_params(SLICES)))
def test_pool_entry(workload, kind, idx, tmp_path):
    _replay(workload, kind, idx, tmp_path)


@pytest.mark.full_pools
@pytest.mark.parametrize("workload, kind, idx", list(_params(
    (workload, kind, 1) for workload, pool in POOLS.items() for kind in pool["kinds"]
    if kind != "factor_budget")))  # ROADMAP 5b: unbudgeted Pollard rho does not end
def test_full_pool_entry(workload, kind, idx, tmp_path):
    _replay(workload, kind, idx, tmp_path)


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=3, max_size=5).filter(lambda cs: cs[-1] != 0), small)
def test_escape_rate_arch_encloses_mpmath(coeffs, z):
    f = sr.Poly(coeffs)
    try:
        lam = sr.escape_rate_arch(f, z)
    except sr.UndeterminedError:
        return  # no certificate, nothing claimed
    ref = oracle.mp_escape_rate(coeffs, z)
    ref = Fraction(int(ref.man)) * Fraction(2) ** int(ref.exp)  # the binary value, exactly
    assert Fraction(lam.err.lo) <= ref <= Fraction(lam.err.hi)
