"""wing_clusters against a reference copy of its earlier two-assembly form.

``_ref_wing_clusters`` keeps the earlier implementation: F_p roots by a
full scan for p <= 100 000, multiplicities by repeated division, extension
residues by distinct-degree factorization, and fractional g through the
squarefree decomposition over Q, with the close pairs of ramified roots
counted on the difference polynomial.  The helpers that did not change
(preconditions, component counts) are imported.
"""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from splitrad.berkovich import (WingCluster, WingClusters, _check_chain_preconditions,
                                _count_components, _side_roots_apart, wing_clusters)
from splitrad.dynamics import Poly, candidate_bad_primes, newton_polygon, parse_poly
from splitrad.exact import UndeterminedError, valuation
from splitrad.qpoly import QPoly, _mod_reduce
from splitrad.stats import _superattracting_normalization
from test_power_sums import reference_difference_poly

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# reference copy
# ---------------------------------------------------------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _mod(a, b, p):
    a = a[:]
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        for j, y in enumerate(b):
            a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _trim(a)


def _div(a, b, p):
    out = [0] * (len(a) - len(b) + 1)
    a = a[:]
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        out[len(a) - 1 - db] = c
        off = len(a) - 1 - db
        for j, y in enumerate(b):
            a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _trim(out)


def _gcd(a, b, p):
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pow(a, e, mod, p):
    result, base = [1], _mod(a, mod, p)
    while e:
        if e & 1:
            result = _mod(_mul(result, base, p), mod, p)
        base = _mod(_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _squarefree(a, p):
    if len(a) - 1 < 1:
        return []
    inv = pow(a[-1], -1, p)
    a = [c * inv % p for c in a]
    da = _trim([i * c % p for i, c in enumerate(a)][1:])
    if not da:
        return [(q, m * p) for q, m in _squarefree(_trim(a[::p]), p)]
    out = []
    g = _gcd(a, da, p)
    b = _div(a, g, p)
    m = 1
    while len(b) - 1 >= 1:
        c = _gcd(b, g, p)
        piece = _div(b, c, p)
        if len(piece) - 1 >= 1:
            out.append((piece, m))
        b, g, m = c, _div(g, c, p), m + 1
    if len(g) - 1 >= 1:
        out.extend((q, mm * p) for q, mm in _squarefree(_trim(g[::p]), p))
    return out


def _roots(a, p):
    a = _trim(a[:])
    if len(a) - 1 < 1:
        return []
    lin = _gcd(_sub(_pow([0, 1], p, a, p), [0, 1], p), a, p)
    if len(lin) - 1 <= 0:
        return []
    if p <= 100_000:
        return [r for r in range(p) if _eval(lin, r, p) == 0]
    rng, out, stack = random.Random(0x526F), [], [lin]
    while stack:
        h = stack.pop()
        dh = len(h) - 1
        if dh == 1:
            out.append((-h[0] * pow(h[1], -1, p)) % p)
        elif dh > 1:
            while True:
                t = _sub(_pow([rng.randrange(p), 1], (p - 1) // 2, h, p), [1], p)
                s = _gcd(t, h, p)
                if 0 < len(s) - 1 < dh:
                    stack += [s, _div(h, s, p)]
                    break
    return sorted(out)


def _distinct_degree(a, p):
    out, h, e = [], a[:], 0
    x_power = _mod([0, 1], h, p)
    while len(h) - 1 >= 1:
        e += 1
        if len(h) - 1 < 2 * e:
            out.append((len(h) - 1, len(h) - 1))
            break
        x_power = _pow(x_power, p, h, p)
        g = _gcd(_sub(x_power, [0, 1], p), h, p)
        if len(g) - 1 >= 1:
            out.append((e, len(g) - 1))
            h = _div(h, g, p)
            x_power = _mod(x_power, h, p)
    return out


def _yun(q):
    """Squarefree decomposition over Q: [(g_k, k)] with q = lc * prod g_k^k."""
    if q.degree() <= 0:
        return []
    q = q.monic()
    dq = q.derivative()
    a = q.gcd(dq)
    b = q.exact_div(a)
    c = dq.exact_div(a) - b.derivative()
    out, k = [], 1
    while b.degree() > 0:
        g = b.gcd(c)
        if g.degree() > 0:
            out.append((g, k))
        b2 = b.exact_div(g)
        c = c.exact_div(g) - b2.derivative()
        b, k = b2, k + 1
    return out


def _size(r, p):
    return F(-valuation(r, p))


def _close_big_pairs(fq, p, g, small_count):
    """Number of ordered pairs of roots at distance < p^g beyond the small block.

    Reads the multiset of pairwise root differences off the difference
    polynomial; differences within the small block account for
    small_count*(small_count-1) of the sub-p^g entries, the rest are
    uncertifiable proximities among the outer roots.
    """
    cs = list(reference_difference_poly(fq).coeffs)
    ord0 = next(i for i, c in enumerate(cs) if c)  # the i = j pairs and coincident roots
    reduced = QPoly(cs[ord0:])
    below = ord0 - fq.degree()
    if reduced.degree() >= 1:
        below += newton_polygon(reduced, p).roots_with_size_less(g)
    return max(0, below - small_count * (small_count - 1))


def _ref_wing_clusters(f, p):
    g = _check_chain_preconditions(f, p)
    d = f.degree
    fq = f.as_qpoly()
    rational = fq.rational_roots()
    small_members = [(r, m) for r, m in rational if r == 0 or _size(r, p) < g]
    big_members = [(r, m) for r, m in rational if r != 0 and _size(r, p) == g]
    if any(r != 0 and _size(r, p) > g for r, _ in rational):
        raise UndeterminedError("rational root outside the splitting disk; inconsistent data")
    residual = fq.monic()
    for r, m in rational:
        residual = residual.exact_div(QPoly([-r, 1]) ** m)
    clusters = []
    if g.denominator != 1:
        small_count = sum(m for _, m in small_members)
        big_irr = []
        if residual.degree() >= 1:
            npres = newton_polygon(residual, p)
            small_count += npres.roots_with_size_less(g)
            seg = [length for s, length in npres.segments if s == g]
            if seg and seg[0] == 1:
                big_irr.append(1)
            elif seg:
                if _close_big_pairs(fq, p, g, small_count) > 0:
                    raise UndeterminedError("cannot certify the splitting of ramified wing roots")
                for piece, mult in _yun(residual):
                    for s, length in newton_polygon(piece, p).segments:
                        if s == g:
                            big_irr.extend([mult] * length)
        n_small = (None if small_count != sum(m for _, m in small_members)
                   else _count_components(f, p, g, small_members))
        clusters = [WingCluster(F(0), small_count, F(small_count, d), n_small,
                                tuple(small_members))]
        clusters += [WingCluster(None, c, F(c, d), 1 if c == 1 else None, ()) for c in big_irr]
        if sum(c.count for c in clusters) != d:
            raise UndeterminedError("cluster masses fail to account for every preimage")
        return WingClusters(p, d, g, tuple(clusters))
    gi = int(g)
    scaled = [f[j] * F(p) ** (-gi * j) for j in range(d + 1)]
    vmin = min(valuation(c, p) for c in scaled if c != 0)
    hbar = _trim([_mod_reduce(c / F(p) ** vmin, p) for c in scaled])
    if len(hbar) - 1 != d:
        raise UndeterminedError("scaled reduction degenerated; root outside splitting disk")
    small_count = next(i for i, c in enumerate(hbar) if c != 0)
    rest = hbar[small_count:]
    residue_counts = {}
    for r in _roots(rest, p):
        mult = 0
        while _eval(rest, r, p) == 0:
            rest = _div(rest, [(-r) % p, 1], p)
            mult += 1
        residue_counts[r] = mult
    ext_counts = []
    if len(rest) - 1 >= 1:
        for piece, mult in _squarefree(rest, p):
            for e, deg_total in _distinct_degree(piece, p):
                if e == 1:
                    raise UndeterminedError("unexpected linear residue left over")
                ext_counts.extend([mult] * deg_total)
    small_rat = sum(m for _, m in small_members)
    n_small = _count_components(f, p, g, small_members) if small_rat == small_count else None
    clusters.append(WingCluster(F(0), small_count, F(small_count, d), n_small,
                                tuple(small_members)))
    for r, cnt in sorted(residue_counts.items()):
        members = [(root, m) for root, m in big_members
                   if _mod_reduce(root * F(p) ** gi, p) == r]
        if members:
            center, precision = members[0][0], None
        else:
            center, precision = F(r) / F(p) ** gi, g - 1
        n_comp = (_count_components(f, p, g, members) if sum(m for _, m in members) == cnt
                  else (1 if cnt == 1 else None))
        clusters.append(WingCluster(center, cnt, F(cnt, d), n_comp, tuple(members), precision))
    for cnt in ext_counts:
        clusters.append(WingCluster(None, cnt, F(cnt, d), 1 if cnt == 1 else None, ()))
    if sum(c.count for c in clusters) != d:
        raise UndeterminedError("cluster masses fail to account for every preimage")
    if len(clusters) < 2:
        raise UndeterminedError("bad place produced a single cluster; inconsistent data")
    return WingClusters(p, d, g, tuple(clusters))


def _outcome(fn, f, p):
    try:
        return fn(f, p)
    except Exception as e:  # the exception type and text are part of the contract
        return type(e), str(e)


# ---------------------------------------------------------------------------
# random maps z^2 * prod(factor^multiplicity), monic with f(0) = f'(0) = 0
# ---------------------------------------------------------------------------

PRIMES = [2, 3, 5, 7, 13, 101, 100_003]


@st.composite
def _factor(draw, p):
    n = 2 * min(p, 101)  # small numerators: rational_roots factors them
    num = st.integers(-n, n)
    unit = num.filter(lambda c: c % p != 0)
    kind = draw(st.sampled_from(["linear", "quadratic", "ramified"]))
    if kind == "linear":
        return [-F(draw(num), p ** draw(st.integers(0, 2))), F(1)]
    if kind == "ramified":  # z^2 + c/p^(2s-1): roots of size p^(s-1/2)
        s = draw(st.integers(1, 2))
        return [F(draw(unit), p ** (2 * s - 1)), F(0), F(1)]
    s = draw(st.integers(0, 2))  # z^2 + b/p^s z + c/p^(2s): roots of size p^s, residues
    return [F(draw(unit), p ** (2 * s)), F(draw(num), p ** s), F(1)]  # in F_p or F_p^2


@st.composite
def maps(draw):
    p = draw(st.sampled_from(PRIMES))
    poly = QPoly([0, 0, 1])
    for _ in range(draw(st.integers(1, 3))):
        factor = QPoly(draw(_factor(p))) ** draw(st.integers(1, 3))
        if poly.degree() + factor.degree() <= 9:
            poly = poly * factor
    if poly.degree() % p == 0:  # p | d has no verdict; one more root at 0 avoids it
        poly = poly * QPoly([0, 1])
    return Poly(list(poly.coeffs)), p


@settings(max_examples=200, deadline=None)
@given(maps())
def test_wing_clusters_match_reference(fp):
    f, p = fp
    assert _outcome(wing_clusters, f, p) == _outcome(_ref_wing_clusters, f, p)


# maps the random search reaches only rarely: extension residues with
# multiplicity >= p, repeated F_p residues, p = 2 and p > 100 000
EDGE_MAPS = [
    ("z^2*(z^2 + 2/25)^5", 5), ("z^2*(z^2 + z/3 + 2/9)^3", 3),
    ("z^2*(z + 1/2)^3*(z^2 + z/2 + 1/4)", 2), ("z^2*(z - 3/5)^2*(z - 8/5)^3", 5),
    ("z^2*(z^2 + 2/100003)^2*(z - 7/100003)", 100003),
    ("z^2*(z^2 + 5/100003^2)*(z + 1/100003)^2", 100003),
    ("z^2*(z^2 + 1/3)^3", 3), ("z^2*(z^2 - 1/5)^2", 5), ("z^4 + (1/9)*z^2", 3),
]


@pytest.mark.parametrize("text, p", EDGE_MAPS)
def test_wing_clusters_match_reference_on_edge_maps(text, p):
    f = parse_poly(text)
    assert _outcome(wing_clusters, f, p) == _outcome(_ref_wing_clusters, f, p)


# ---------------------------------------------------------------------------
# pinned values for paths that no other test or pool entry reaches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, p, expect", [
    ("z^4 + (1/9)*z^2", 3, [(0, 2, 1), (None, 1, 1), (None, 1, 1)]),
    ("z^6 + (4/25)*z^4 + (4/625)*z^2", 5, [(0, 2, 1), (None, 2, None), (None, 2, None)]),
    ("z^2*(z^2 + 2/25)^5", 5, [(0, 2, 1), (None, 5, None), (None, 5, None)]),
    ("z^3 + (1/2)*z^2", 2, [(0, 2, 1), (F(-1, 2), 1, 1)]),
])
def test_wing_clusters_pinned(text, p, expect):
    w = wing_clusters(parse_poly(text), p)
    assert [(c.center, c.count, c.n_components) for c in w.clusters] == expect


def test_wing_clusters_repeated_ramified_roots_undetermined():
    with pytest.raises(UndeterminedError, match="ramified wing roots"):
        wing_clusters(parse_poly("z^2*(z^2 - 1/5)^2"), 5)


# ---------------------------------------------------------------------------
# the residual-polynomial criterion against the close-pair count
# ---------------------------------------------------------------------------

@st.composite
def ramified_maps(draw):
    """z^m (z - a)^s O(z), m in {2, 3}, s in {0, 1}, |a| <= 4 an integer, and O monic
    with every root of size p^(u/e), e >= 2.

    O = sum_j (r_j + p t_j) p^(-(k-j)u) z^(je), plus at most one term strictly
    above the slope-u/e side, so its residual polynomial is R = sum_j r_j y^j
    over F_p.  Each draw takes p | e, a repeated root of R, R squarefree of
    degree >= 2, or any R.
    """
    kind = draw(st.sampled_from(["p_divides_e", "repeated", "squarefree", "any"]))
    if kind == "p_divides_e":
        p = draw(st.sampled_from([2, 3, 5]))
        e = p * draw(st.integers(1, 2 if p < 5 else 1))
    else:
        p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        e = draw(st.integers(2, 4))
    u = draw(st.sampled_from([u for u in (1, 2, 3) if math.gcd(u, e) == 1]))
    residue = st.integers(1, p - 1)
    if kind == "repeated":
        a = draw(residue)
        r = [a * a % p, -2 * a % p, 1]
    elif kind == "squarefree" and p == 2:
        r = [1, 1, 1]  # y^2 + y + 1, irreducible over F_2
    elif kind == "squarefree":
        a = draw(residue)
        b = draw(residue.filter(lambda b: b != a))
        r = [a * b % p, -(a + b) % p, 1]
    else:
        r = draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=8 // e - 1))
        r = [draw(residue)] + r + [1]
    k = len(r) - 1
    cs = [F(0)] * (k * e + 1)
    for j, rj in enumerate(r):
        lift = rj + p * draw(st.integers(-2, 2)) if j < k else 1
        cs[j * e] = lift * F(p) ** (-(k - j) * u)
    if draw(st.booleans()):  # one term strictly above the side
        i = draw(st.integers(1, k * e - 1))
        cs[i] += draw(st.integers(1, 9)) * F(p) ** (math.floor(F(i * u, e) - k * u) + 1)
    small = QPoly([0, 0, 1]) * QPoly([-draw(st.integers(-4, 4)), 1]) ** draw(st.integers(0, 1))
    f = QPoly(cs) * small
    if f.degree() % p == 0:
        f = f * QPoly([0, 1])
    return Poly(list(f.coeffs)), p


@settings(max_examples=100, deadline=None)
@given(ramified_maps())
@example((parse_poly("z^16 + (1/11)*z^5 + (1/11)*z^2"), 11))  # e = 11 = p: gives up
@example((parse_poly("z^2*(z^2 - 1/5)^2"), 5))  # R = (y - 1)^2 over F_5: gives up
@example((parse_poly("z^17 + (1/11)*z^5 + (1/11)*z^2"), 11))  # e = 12: 13 clusters
def test_side_roots_apart_matches_the_close_pair_count(fp):
    f, p = fp
    g = _check_chain_preconditions(f, p)
    fq = f.as_qpoly()
    npf = newton_polygon(fq, p)
    i0, i1 = npf.roots_with_size_less(g), npf.roots_with_size_at_most(g)
    assert g.denominator > 1 and i1 - i0 >= 2
    assert _side_roots_apart(fq.coeffs[i0:i1 + 1], p, g) == (_close_big_pairs(fq, p, g, i0) == 0)


# ---------------------------------------------------------------------------
# budgets: the degree-d^2 difference polynomial took 5.6 s at degree 32 and
# ran past 60 s at degree 64; the timeouts end such a run early
# ---------------------------------------------------------------------------

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
DEGREE_32 = """
import time
from splitrad.berkovich import wing_clusters
from splitrad.dynamics import parse_poly
f = parse_poly("z^32 + (1/11)*z^5 + (1/11)*z^2")
start = time.perf_counter()
w = wing_clusters(f, 11)
print(time.perf_counter() - start, len(w.clusters))
"""


def test_wings_at_degree_64_exits_0_within_2_s_as_a_fresh_process():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "splitrad.cli", "wings", "--poly",
                           "z^64 + (1/11)*z^5 + (1/11)*z^2", "--place", "11"],
                          env=ENV, capture_output=True, text=True, timeout=10)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["clusters"]) == 60
    assert elapsed < 2.0, elapsed


def test_wing_clusters_at_degree_32_within_1_s():
    proc = subprocess.run([sys.executable, "-c", DEGREE_32], env=ENV, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    elapsed, n_clusters = proc.stdout.split()
    assert int(n_clusters) == 28
    assert float(elapsed) < 1.0, elapsed


# ---------------------------------------------------------------------------
# full replay: every pool map at every candidate bad place, and random maps
# ---------------------------------------------------------------------------

def _pool_maps():
    """(label, text) of the wings, equidistribution and experiment maps of
    bench/ref/cli_mix.json and the quintic maps of bench/ref/family_scan.json."""
    def arg(argv, name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    def family(text, param, value):
        return re.sub(rf"\b{re.escape(param)}\b", f"({value})", text)

    out = []
    kinds = json.loads((ROOT / "bench/ref/cli_mix.json").read_text(encoding="utf-8"))["kinds"]
    for kind in ("wings", "equidistribution", "equidistribution-5a", "experiment"):
        for idx, entry in enumerate(kinds[kind]):
            argv = entry["args"]["argv"]
            if kind == "experiment":
                texts = [family(arg(argv, "--family"), arg(argv, "--param", "a"), v)
                         for v in arg(argv, "--values").split(",")]
            else:
                texts = [arg(argv, "--poly")]
            out += [(f"cli_mix-{kind}-{idx}", text) for text in texts]
    quintic = json.loads((ROOT / "bench/ref/family_scan.json").read_text(encoding="utf-8"))
    for idx, entry in enumerate(quintic["kinds"]["quintic"]):
        args = entry["args"]
        out.append((f"family_scan-quintic-{idx}", family(args["family"], "a", args["value"])))
    return out


@pytest.mark.full_pools
@pytest.mark.parametrize("label, text", _pool_maps())
def test_wing_clusters_match_reference_on_pool_maps(label, text):
    f, _, _ = _superattracting_normalization(parse_poly(text))
    for p in candidate_bad_primes(f):
        assert _outcome(wing_clusters, f, p) == _outcome(_ref_wing_clusters, f, p), (text, p)


@pytest.mark.full_pools
@settings(max_examples=1500, deadline=None)
@given(maps())
def test_wing_clusters_match_reference_on_many_maps(fp):
    f, p = fp
    assert _outcome(wing_clusters, f, p) == _outcome(_ref_wing_clusters, f, p)
