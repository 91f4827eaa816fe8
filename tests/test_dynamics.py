import json
import math
import pickle
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from splitrad import dynamics
from splitrad.dynamics import (ParseError, Poly, PreperiodicPoint, candidate_bad_primes, center,
                               conjugate, critical_points, iterate, parse_ground,
                               parse_poly, preperiodic_points, print_poly,
                               superattracting_cycles)
from splitrad.exact import DomainError, UndeterminedError, divisors
from splitrad.places import FIELD_QT
from splitrad.qpoly import RatFunc, poly_horner, poly_mul


def test_parse_examples():
    f = parse_poly("z^3 + (1/5)*z^2")
    assert f.coeffs == (F(0), F(0), F(1, 5), F(1))
    g = parse_poly("-(2/9)*z^3 - z^2")
    assert g.coeffs == (F(0), F(0), F(-1), F(-2, 9))
    h = parse_poly("z^2 + t*z", FIELD_QT)
    assert h.coeffs == (RatFunc.const(0), RatFunc.t(), RatFunc.const(1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_poly("z^3 + $")
    assert ei.value.pos == 6
    with pytest.raises(DomainError):
        parse_poly("z + 1")  # degree < 2
    with pytest.raises(DomainError):
        parse_poly("0*z^3 + z")  # degree collapses below 2
    with pytest.raises(ParseError):
        parse_poly("z^2/(z+1)")  # division by z
    with pytest.raises(ParseError):
        parse_poly("t*z^2")  # t outside Q(t) mode


def test_print_parse_roundtrip():
    texts = ["z^3 + (1/5)*z^2", "-(2/9)*z^3 - z^2", "z^2 - 1", "7*z^5 - (3/2)*z + 4"]
    for text in texts:
        f = parse_poly(text)
        assert parse_poly(print_poly(f)) == f
    h = parse_poly("z^2 + t*z - (1/(t+1))*z^3", FIELD_QT)
    assert parse_poly(print_poly(h), FIELD_QT) == h


def test_iterate_examples():
    f = parse_poly("z^3 + (1/5)*z^2")

    def horner(poly, z):  # independent evaluator
        acc = F(0)
        for c in reversed(poly.coeffs):
            acc = acc * z + c
        return acc

    orbit = iterate(f, 1, 2)
    assert orbit == [F(1), F(6, 5), F(252, 125)]
    assert orbit[1] == horner(f, F(1)) and orbit[2] == horner(f, orbit[1])

    g = parse_poly("-(2/9)*z^3 - z^2")
    assert iterate(g, F(-9, 2), 1) == [F(-9, 2), F(0)]
    assert iterate(f, 0, 5) == [F(0)] * 6  # fixed point


def test_iterate_qt():
    h = parse_poly("z^2 + t*z", FIELD_QT)
    t = RatFunc.t()
    orbit = iterate(h, t, 2)
    assert orbit[1] == t * t + t * t  # t^2 + t*t
    assert orbit[2] == orbit[1] * orbit[1] + t * orbit[1]


def test_conjugate_example_against_expansion():
    f = parse_poly("z^3 + (1/5)*z^2")
    got = conjugate(f, 1, F(1, 15))
    # independent oracle: expand f(z - 1/15) + 1/15 with sympy
    import sympy
    z = sympy.Symbol("z")
    expr = sympy.expand((z - sympy.Rational(1, 15)) ** 3
                        + sympy.Rational(1, 5) * (z - sympy.Rational(1, 15)) ** 2
                        + sympy.Rational(1, 15))
    poly = sympy.Poly(expr, z)
    expect = [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    assert list(got.coeffs) == expect
    assert got == parse_poly("z^3 - (1/75)*z + (227/3375)")


def test_conjugate_identity_and_errors():
    f = parse_poly("z^3 + (1/5)*z^2")
    assert conjugate(f, 1, 0) == f
    with pytest.raises(DomainError):
        conjugate(f, 0, 1)


def test_conjugation_functoriality():
    rng = random.Random(31)
    f = parse_poly("z^3 - 2*z^2 + (1/3)*z - 1")
    for _ in range(25):
        a1 = F(rng.randint(1, 6), rng.randint(1, 6))
        b1 = F(rng.randint(-6, 6), rng.randint(1, 6))
        a2 = F(rng.randint(1, 6), rng.randint(1, 6))
        b2 = F(rng.randint(-6, 6), rng.randint(1, 6))
        # mu2 o mu1 (z) = a2*(a1 z + b1) + b2
        lhs = conjugate(conjugate(f, a1, b1), a2, b2)
        rhs = conjugate(f, a2 * a1, a2 * b1 + b2)
        assert lhs == rhs


def test_preperiodic_transport_under_conjugation():
    f = parse_poly("z^2 - 1")
    mu_a, mu_b = F(2), F(1, 3)
    g = conjugate(f, mu_a, mu_b)
    pf = {pp.value for pp in preperiodic_points(f)}
    pg = {pp.value for pp in preperiodic_points(g)}
    assert {mu_a * x + mu_b for x in pf} == pg


def test_center_examples():
    f = parse_poly("z^3 + (1/5)*z^2")
    g, shift = center(f)
    assert shift == F(1, 15)
    assert g == parse_poly("z^3 - (1/75)*z + (227/3375)")
    g2, s2 = center(g)
    assert (g2, s2) == (g, F(0))
    h, _ = center(parse_poly("z^3 + 3*z^2"))
    assert h[2] == 0
    with pytest.raises(DomainError):
        center(parse_poly("2*z^3 + z^2"))


def test_critical_points_examples():
    f = parse_poly("z^3 + (1/5)*z^2")
    roots, leftover = critical_points(f)
    assert roots == [(F(-2, 15), 1), (F(0), 1)] and leftover == []
    roots, leftover = critical_points(parse_poly("z^4"))
    assert roots == [(F(0), 3)] and leftover == []
    roots, leftover = critical_points(parse_poly("-(2/9)*z^3 - z^2"))
    assert roots == [(F(-3), 1), (F(0), 1)] and leftover == []
    # irrational critical points come back as irreducible factors
    roots, leftover = critical_points(parse_poly("z^3 + z"))
    assert roots == [] and len(leftover) == 1 and leftover[0].degree() == 2


@pytest.mark.parametrize("text", ["z^3 + (1/5)*z^2", "z^4 - (2/9)*z^3 + (3/7)*z + 1/10",
                                  "z^3 + z"])
def test_per_map_data_is_kept_once_and_handed_out_fresh(text):
    # critical points, centre and bad primes are kept on the Poly after the first call
    f = parse_poly(text)
    assert critical_points(f) == critical_points(f)
    assert center(f) == center(f)
    assert candidate_bad_primes(f) == candidate_bad_primes(f)
    roots, leftovers = critical_points(f)
    roots.append((F(99), 1))
    leftovers.clear()
    candidate_bad_primes(f).append(101)
    fresh = parse_poly(text)
    assert critical_points(f) == critical_points(fresh)
    assert candidate_bad_primes(f) == candidate_bad_primes(fresh)
    assert center(f) == center(fresh)
    # the filled memo is invisible: equality, hash, repr and pickling see only the map
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    assert pickle.dumps(f) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(f))
    assert back == f and critical_points(back) == critical_points(f)


def test_per_map_memo_keeps_no_failure():
    f = parse_poly("2*z^3 + z^2")
    for _ in range(2):
        with pytest.raises(DomainError):
            center(f)
    g = parse_poly("z^2 + t*z", FIELD_QT)
    for fn in (critical_points, candidate_bad_primes):
        for _ in range(2):
            with pytest.raises(DomainError):
                fn(g)


def test_superattracting_cycles():
    f = parse_poly("z^3 + (1/5)*z^2")
    assert superattracting_cycles(f, 3) == [((F(0),), 1)]
    g = parse_poly("-(2/9)*z^3 - z^2")
    cycles = superattracting_cycles(g, 3)
    assert ((F(0),), 1) in cycles and ((F(-3),), 1) in cycles and len(cycles) == 2
    assert superattracting_cycles(parse_poly("z^2 + 1"), 4) == []


def test_preperiodic_sets():
    f = parse_poly("z^3 + (1/5)*z^2")
    assert {(pp.value, pp.preperiod, pp.period) for pp in preperiodic_points(f)} == {
        (F(0), 0, 1), (F(-1, 5), 1, 1)}

    g = parse_poly("-(2/9)*z^3 - z^2")
    got = {(pp.value, pp.preperiod, pp.period) for pp in preperiodic_points(g)}
    assert {(F(0), 0, 1), (F(-3), 0, 1), (F(-9, 2), 1, 1)} <= got
    # the full set of this map, locked by the exhaustive search
    assert got == {(F(0), 0, 1), (F(-3), 0, 1), (F(-9, 2), 1, 1),
                   (F(-3, 2), 0, 1), (F(3, 2), 1, 1)}

    q = parse_poly("z^2 - 1")
    assert {(pp.value, pp.preperiod, pp.period) for pp in preperiodic_points(q)} == {
        (F(0), 0, 2), (F(-1), 0, 2), (F(1), 1, 2)}


def test_preperiodic_points_verify_exactly():
    for text in ("z^3 + (1/5)*z^2", "-(2/9)*z^3 - z^2", "z^2 - 1"):
        f = parse_poly(text)
        pts = preperiodic_points(f)
        values = {pp.value for pp in pts}
        for pp in pts:
            orbit = iterate(f, pp.value, pp.preperiod + pp.period)
            assert orbit[pp.preperiod + pp.period] == orbit[pp.preperiod]
            # minimality of the period
            for per in range(1, pp.period):
                assert orbit[pp.preperiod + per] != orbit[pp.preperiod]
            # minimality of the preperiod
            if pp.preperiod > 0:
                k = pp.preperiod - 1
                assert iterate(f, pp.value, k + pp.period)[-1] != orbit[k]
            # f-invariance of the set
            assert f(pp.value) in values


@pytest.mark.parametrize("text, size", [
    ("z^2 + 1000000000", 2 * 1000000002 + 1),
    ("z^2 - (1/1000000007)*z", 5 + 2 * (2 * 1000000007 + 1) + 1),
    ("1000003*z^3 + z^2", 3 + 2 * 1000003 + 1),
])
def test_preperiodic_box_above_the_cap_gives_up(text, size):
    start = time.perf_counter()
    with pytest.raises(UndeterminedError, match=f"box holds {size} starting points"):
        preperiodic_points(parse_poly(text))
    assert time.perf_counter() - start < 1.0


def test_preperiodic_box_cap_is_inclusive(monkeypatch):
    f = parse_poly("z^2 - 1")  # R = 3, B = 1: seven starting points
    monkeypatch.setattr(dynamics, "_MAX_BOX_POINTS", 7)
    assert len(preperiodic_points(f)) == 3
    monkeypatch.setattr(dynamics, "_MAX_BOX_POINTS", 6)
    with pytest.raises(UndeterminedError, match="box holds 7 starting points"):
        preperiodic_points(f)


def test_preperiodic_box_just_under_the_cap_is_searched():
    # R = 499992, B = 1: 999985 starting points, none of them preperiodic
    assert preperiodic_points(parse_poly("z^2 + 499990")) == []


def test_preperiodic_box_just_over_the_cap_gives_up_before_the_search():
    # the search calls math.gcd once per start point, from preperiodic_points itself
    tried = []

    def profile(frame, event, arg):
        if (event == "c_call" and arg is math.gcd
                and frame.f_code is preperiodic_points.__code__):
            tried.append(1)

    sys.setprofile(profile)
    try:
        preperiodic_points(parse_poly("z^2 - 1"))  # R = 3, B = 1: seven start points
        assert len(tried) == 7
        tried.clear()
        with pytest.raises(UndeterminedError, match="box holds 1000001 starting points"):
            preperiodic_points(parse_poly("z^2 + 499998"))  # R = 500000
    finally:
        sys.setprofile(None)
    assert tried == []


def test_preperiodic_search_keeps_no_visited_points():
    # R = 19992, B = 1: 39985 start points; only the orbit being walked is held
    f = parse_poly("z^2 + 19990")
    tracemalloc.start()
    try:
        assert preperiodic_points(f) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def _in_box(x, R, B, F_):
    if abs(x) > R:
        return False
    if B % x.denominator != 0:
        return False
    return x.numerator % F_ == 0


def _preperiodic_reference(f):
    """The search as it ran on Fraction orbits, before orbits ran on integer numerators."""
    R, B, F_ = dynamics._search_box(f)
    results = []
    decided = {}

    def orbit_is_bounded(x):
        if x in decided:
            return decided[x]
        seen = {x: 0}
        orbit = [x]
        verdict = None
        while verdict is None:
            nxt = f(orbit[-1])
            if not _in_box(nxt, R, B, F_):
                verdict = False
            elif nxt in seen:
                verdict = True
            else:
                seen[nxt] = len(orbit)
                orbit.append(nxt)
        for y in orbit:
            decided[y] = verdict
        return verdict

    for b in divisors(B):
        nmax = int(R * b)
        for a in range(-nmax, nmax + 1):
            if math.gcd(a, b) != 1 or (F_ > 1 and a % F_ != 0):
                continue
            x = F(a, b)
            if not orbit_is_bounded(x):
                continue
            seen = {x: 0}
            orbit = [x]
            while True:
                nxt = f(orbit[-1])
                if nxt in seen:
                    results.append(PreperiodicPoint(x, seen[nxt], len(orbit) - seen[nxt]))
                    break
                seen[nxt] = len(orbit)
                orbit.append(nxt)
    return sorted(results)


_prime_powers = st.sampled_from([1, 2, 3, 4, 5, 8, 9, 25])
_maps = st.builds(
    lambda low, lc: Poly(low + [lc]),
    st.lists(st.builds(F, st.integers(-6, 6), _prime_powers), min_size=2, max_size=4),
    st.one_of(st.just(F(1)),  # monic; B > 1 from the lower denominators
              st.builds(F, st.sampled_from([-2, -1, 1, 3]), _prime_powers)))  # F > 1 too


@settings(max_examples=150, deadline=None)
@given(_maps)
@example(parse_poly("z^3 + (1/5)*z^2"))       # F5: B = 5
@example(parse_poly("-(2/9)*z^3 - z^2"))      # the PCF map: B = 2, F = 3
@example(parse_poly("z^2 - 29/16"))           # B = 4, a 3-cycle with its tails
@example(parse_poly("(1/5)*z^2 - 5"))         # F = 5: 5 times the orbits of z^2 - 1
def test_preperiodic_points_match_the_fraction_search(f):
    R, B, F_ = dynamics._search_box(f)
    assume(sum(2 * int(R * b) + 1 for b in divisors(B)) <= 20_000)
    event(f"B > 1: {B > 1}, F > 1: {F_ > 1}")
    got = preperiodic_points(f)
    event(f"preperiodic points found: {bool(got)}")
    assert got == _preperiodic_reference(f)


# (q, e) with q^e <= 2000, so every residue mod q^e can be tried
_PRIME_POWERS = [(q, e) for q in (2, 3, 5, 7) for e in range(1, 11) if q ** e <= 2000]


@st.composite
def _lifting_case(draw):
    """q^j times a product of (x - r)^m times a rest: j > 0 vanishes mod q, m > 1 repeats."""
    q, e = draw(st.sampled_from(_PRIME_POWERS))
    P = [q ** draw(st.integers(0, e))]
    for r, m in draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 3)), max_size=3)):
        for _ in range(m):
            P = poly_mul(P, [-r, 1])
    P = poly_mul(P, draw(st.lists(st.integers(-30, 30), max_size=2)) + [draw(st.integers(1, 30))])
    return P, q, e


@settings(max_examples=200, deadline=None)
@given(_lifting_case())
@example(([0, 0, 4], 2, 5))                 # 4 n^2: vanishes mod 2, a double root
@example(([-1, 3, -3, 1], 3, 6))            # (n - 1)^3, a triple root
@example(([0, 28, 28, 7], 7, 3))            # 7 n (n + 2)^2
@example(([8], 2, 3))                       # a constant: every n
@example(([8], 2, 4))                       # a constant: no n
@example(([2, 0, 1], 3, 6))                 # n^2 + 2: no root mod 3
@example(([0, 0, 1, 0, 0, 5], 5, 4))        # n^2 (5 n^3 + 1)
def test_root_classes_match_every_residue(case):
    P, q, e = case
    qe = q ** e
    classes = dynamics._root_classes(P, q, e)
    assert all(0 <= r < q ** k and k <= e for r, k in classes)
    covered = sorted(n for r, k in classes for n in range(r, qe, q ** k))  # a repeat: overlap
    assert covered == [n for n in range(qe) if poly_horner(P, n) % qe == 0]


_filter_dens = st.sampled_from([2, 3, 4, 8, 9, 27, 5, 25])
_filter_maps = st.builds(
    lambda low, lc: Poly(low + [lc]),
    st.lists(st.builds(F, st.integers(-6, 6), _filter_dens), min_size=2, max_size=5),
    st.one_of(st.just(F(1)), st.builds(F, st.sampled_from([-3, -2, -1, 2, 3]), _filter_dens)))


@settings(max_examples=150, deadline=None)
@given(_filter_maps)
@example(parse_poly("z^4 + (1/30)*z^3 + (1/7)*z^2"))  # four primes in D, combined by CRT
@example(parse_poly("z^3 + (1/1024)*z^2"))            # D = 2^30, eleven layers
@example(parse_poly("-(1/3)*z^3 + (1/9)*z"))          # leading coefficient -1/3, B = 1
def test_preperiodic_residue_filter_matches_the_fraction_search(f):
    R, B, F_ = dynamics._search_box(f)
    assume(sum(2 * int(R * b) + 1 for b in divisors(B)) <= 20_000)
    event(f"degree {f.degree}, monic: {f.is_monic()}")
    got = preperiodic_points(f)
    event(f"preperiodic points found: {bool(got)}")
    assert got == _preperiodic_reference(f)


def _starts_tried(f):
    """How many start points preperiodic_points(f) walks: it calls math.gcd once for each."""
    tried = []

    def profile(frame, event, arg):
        if (event == "c_call" and arg is math.gcd
                and frame.f_code is preperiodic_points.__code__):
            tried.append(1)

    sys.setprofile(profile)
    try:
        preperiodic_points(f)
    finally:
        sys.setprofile(None)
    return len(tried)


def test_preperiodic_search_walks_only_the_residue_classes():
    # B = 997 and D = 997^3: 3996 points in the box, 11 of them in the classes
    assert _starts_tried(parse_poly("z^3 + (1/997)*z^2")) <= 20


_BENCH_REF = Path(__file__).resolve().parent.parent / "bench" / "ref"


def _pool_maps():
    """Every map of the family_scan pool and of the cli_mix preperiodic and experiment kinds."""
    def load(name):
        return json.loads((_BENCH_REF / f"{name}.json").read_text(encoding="utf-8"))["kinds"]

    def substitute(family, param, value):
        return re.sub(rf"\b{re.escape(param)}\b", f"({value})", family)

    texts = {substitute(e["args"]["family"], "a", e["args"]["value"])
             for entries in load("family_scan").values() for e in entries}
    mix = load("cli_mix")
    for e in mix["preperiodic"] + mix["experiment"]:
        argv = e["args"]["argv"]
        flag = dict(zip(argv[1::2], argv[2::2]))
        if "--poly" in flag:
            texts.add(flag["--poly"])
        else:
            texts |= {substitute(flag["--family"], flag["--param"], v)
                      for v in flag["--values"].split(",")}
    return sorted(texts)


@pytest.mark.full_pools
@pytest.mark.parametrize("text", _pool_maps())
def test_pool_map_preperiodic_points_match_the_fraction_search(text):
    f = parse_poly(text)
    assert preperiodic_points(f) == _preperiodic_reference(f)


def test_superattracting_cycles_derivative_vanishes():
    for text in ("z^3 + (1/5)*z^2", "-(2/9)*z^3 - z^2"):
        f = parse_poly(text)
        dcoeffs = f.derivative_coeffs()

        def deriv(z):
            acc = F(0)
            for c in reversed(dcoeffs):
                acc = acc * z + c
            return acc

        for cycle, m in superattracting_cycles(f, 4):
            prod = F(1)
            for pt in cycle:
                prod *= deriv(pt)
            assert prod == 0


def test_parse_ground():
    assert parse_ground("-1/5") == F(-1, 5)
    assert parse_ground("(3/7)") == F(3, 7)
    assert parse_ground("t^2 - 1", FIELD_QT) == RatFunc.t() ** 2 - RatFunc.const(1)
    with pytest.raises(DomainError):
        parse_ground("z + 1")
