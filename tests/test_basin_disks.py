"""Exact basin disks at rational superattracting cycles (localheights._basin_disks).

Maps are built with a rational superattracting cycle alpha_0 -> ... -> alpha_{m-1}
of period m = 1, 2 or 3: f = L + P*(c + (z - alpha_0)*q), where L interpolates
the cycle, P = prod (z - alpha_j) vanishes on it, c makes f'(alpha_0) = 0 and q
is drawn.  Each disk is checked against its defining inequality in exact
complex arithmetic, and the escape rates that use the disks are checked
against the same calls with no disks at all: they agree wherever that path
answers, and where it gives up the disks may certify an exact 0, which an
independent interval iteration in mpmath must then reproduce.
"""

from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings, strategies as st
from mpmath import iv

import splitrad.localheights as lh
from splitrad.dynamics import Poly, parse_poly, superattracting_cycles
from splitrad.exact import LogValue, UndeterminedError
from splitrad.localheights import critical_height_local, escape_rate_arch
from splitrad.places import Place
from splitrad.qpoly import QPoly

small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
nonzero = small.filter(lambda c: c != 0)


def _interpolate(xs, ys) -> QPoly:
    out = QPoly.const(0)
    for i, (x, y) in enumerate(zip(xs, ys)):
        term = QPoly.const(y)
        for j, xj in enumerate(xs):
            if j != i:
                term = term * QPoly([-xj / (x - xj), 1 / (x - xj)])
        out = out + term
    return out


@st.composite
def superattracting_maps(draw):
    """A map over Q with a superattracting cycle of period 1, 2 or 3 through a rational point."""
    m = draw(st.sampled_from([1, 2, 3]))
    cycle = draw(st.lists(small, min_size=m, max_size=m, unique=True))
    # d^m <= 64 keeps the cycle within the disks' period cap: d <= 7, 8, 4 for m = 1, 2, 3
    q = QPoly(draw(st.lists(small, min_size=0, max_size={1: 5, 2: 5, 3: 1}[m])))
    L = _interpolate(cycle, cycle[1:] + cycle[:1])
    P = QPoly.const(1)
    for a in cycle:
        P = P * QPoly([-a, 1])
    c = -L.derivative().eval(cycle[0]) / P.derivative().eval(cycle[0])
    f = L + P * (QPoly.const(c) + QPoly([-cycle[0], 1]) * q)
    if f.degree() < 2:  # c = 0 and q = 0 with m <= 2: bend it
        f = f + P * QPoly([-cycle[0], 1]) * QPoly.const(draw(nonzero))
    return Poly(f.coeffs)


def _period(f: Poly, alpha: F) -> int:
    z, m = f(alpha), 1
    while z != alpha:
        z, m = f(z), m + 1
    return m


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ceval(coeffs, w):
    acc = (F(0), F(0))
    for c in reversed(coeffs):
        re, im = _cmul(acc, w)
        acc = (re + c, im)
    return acc


# directions u with |u| = 1: 1, i, (3 + 4i)/5, (-5 + 12i)/13
DIRECTIONS = [(F(1), F(0)), (F(0), F(1)), (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))]


@settings(max_examples=60, deadline=None)
@given(superattracting_maps(), st.fractions(min_value=-1, max_value=1, max_denominator=16))
@example(parse_poly("z^2 - 1"), F(1))                 # period 2
@example(parse_poly("-(2/9)*z^3 - z^2"), F(-1))       # fixed at 0 and at -3
@example(parse_poly("z^3 + (1/5)*z^2"), F(1))
@example(parse_poly("z^5 + (1/7)*z^2"), F(1, 2))      # f' = z (5 z^3 + 2/7)
@example(parse_poly("2^1100*z^2"), F(1))              # r = 2^-1101, below the float range
def test_basin_disks_contract_and_enclose(f, s):
    disks = lh._basin_disks(f)
    basins = lh._arch(f).basins
    m_max = max([1] + [m for m in range(2, 7) if f.degree ** m <= lh._BASIN_MAX_DEGREE])
    centres = {alpha for cycle, _ in superattracting_cycles(f, m_max) for alpha in cycle}
    assert {alpha for alpha, _ in disks} == centres
    for (alpha, r), (A, r_lo) in zip(disks, basins):
        assert r.numerator == 1 or r.denominator == 1
        assert r <= 2 ** lh._BASIN_MAX_EXP
        assert A.contains(alpha) and F(r_lo) <= r
        m = _period(f, alpha)
        F_m = f.as_qpoly()
        for _ in range(m - 1):
            F_m = F_m.eval(f.as_qpoly())
        b = F_m.shift(alpha).coeffs
        assert b[0] == alpha and b[1] == 0
        # r is the largest power of 2 below the cap that passes the sum test
        assert sum(abs(c) * r ** (i - 1) for i, c in enumerate(b) if i >= 2) <= F(1, 2)
        if r < 2 ** lh._BASIN_MAX_EXP:
            assert sum(abs(c) * (2 * r) ** (i - 1) for i, c in enumerate(b) if i >= 2) > F(1, 2)
        # |F(alpha + w) - alpha| <= |w|/2 on |w| <= r, at w = r*s*u (boundary when s = +-1)
        if r < F(1, 2 ** 64):
            continue  # the exact powers grow too large to be a quick check
        for u in DIRECTIONS:
            w = (r * s * u[0], r * s * u[1])
            re, im = _ceval(b, w)
            re -= alpha
            assert 4 * (re * re + im * im) <= w[0] * w[0] + w[1] * w[1]


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except UndeterminedError as e:
        return f"UndeterminedError: {e}"


def _without_disks(call, f, *args):
    """call on a fresh copy of f while _basin_disks finds no disk."""
    with mock.patch.object(lh, "_basin_disks", lambda g: ()):
        return _outcome(call, Poly(f.coeffs), *args)


def _meets_a_disk(f: Poly, z: F, steps: int = 400, prec: int = 3000) -> bool:
    """Whether a certified mpmath interval orbit of z enters a disk of _basin_disks(f)."""
    old_prec = iv.prec
    iv.prec = prec
    try:
        coeffs = [iv.mpf([c.numerator, c.numerator]) / c.denominator for c in f.coeffs]
        disks = [(iv.mpf([a.numerator, a.numerator]) / a.denominator,
                  iv.mpf([r.numerator, r.numerator]) / r.denominator)
                 for a, r in lh._basin_disks(f)]
        X = iv.mpf([z.numerator, z.numerator]) / z.denominator
        for _ in range(steps + 1):
            if any(abs(X - A).b <= R.a for A, R in disks):
                return True
            if X.delta > 1:
                return False
            acc = iv.mpf(0)
            for c in reversed(coeffs):
                acc = acc * X + c
            X = acc
        return False
    finally:
        iv.prec = old_prec


GIVE_UP = "UndeterminedError"


def _refines(with_disks: str, without_disks: str) -> bool:
    """The disks answer where the path without them gave up."""
    return without_disks.startswith(GIVE_UP) and not with_disks.startswith(GIVE_UP)


points = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                   st.fractions(min_value=-1, max_value=1, max_denominator=1000))

# a period-3 cycle -1 -> 1/2 -> 2; the orbit of 1 wanders for about 50 steps before
# settling on it, and the interval iteration without disks loses precision first
SLOW_SETTLING = parse_poly("-(5/9)*z^3 - (1/6)*z^2 + (4/3)*z + (13/9)")


@settings(max_examples=60, deadline=None)
@given(superattracting_maps(), points)
@example(parse_poly("z^2 - 1"), F(1, 3))
@example(parse_poly("-(2/9)*z^3 - z^2"), F(1, 10))
@example(parse_poly("-(2/9)*z^3 - z^2"), F(-29, 10))
@example(parse_poly("z^3 + (1/5)*z^2"), F(-2, 15))
@example(parse_poly("z^5 + (1/7)*z^2"), F(1, 3))
@example(SLOW_SETTLING, F(1))
def test_escape_rates_match_the_path_without_disks(f, z):
    got, ref = _outcome(escape_rate_arch, f, z), _without_disks(escape_rate_arch, f, z)
    if _refines(got, ref):
        assert got == repr(LogValue.zero()) and _meets_a_disk(f, z)
    else:
        assert got == ref
    got = _outcome(critical_height_local, f, Place.arch())
    ref = _without_disks(critical_height_local, f, Place.arch())
    assert got == ref or _refines(got, ref)


def test_disks_certify_an_orbit_the_path_without_disks_loses():
    assert escape_rate_arch(SLOW_SETTLING, F(1)).is_exactly_zero()
    assert _without_disks(escape_rate_arch, SLOW_SETTLING, F(1)) == (
        "UndeterminedError: archimedean interval iteration lost precision")
    assert _meets_a_disk(SLOW_SETTLING, F(1))


def test_disks_end_bounded_orbits_before_the_search():
    f = parse_poly("z^3 + (1/5)*z^2")
    with mock.patch.object(lh, "_try_invariant", side_effect=AssertionError("searched")):
        assert escape_rate_arch(f, F(1, 10)).is_exactly_zero()
        assert escape_rate_arch(parse_poly("z^2 - 1"), F(-9, 10)).is_exactly_zero()
        assert critical_height_local(parse_poly("z^5 + (1/7)*z^2"), Place.arch()).is_exactly_zero()


def test_f_m_is_composed_once_across_basin_disks_and_equidistribution(monkeypatch):
    # z^2 - 1 has the superattracting 2-cycle 0 -> -1 -> 0: both need f^2
    from splitrad.stats import _superattracting_normalization, equidistribution_report

    compositions = []
    real = QPoly.eval
    monkeypatch.setattr(QPoly, "eval", lambda self, x: (
        compositions.append(x) if isinstance(x, QPoly) else None) or real(self, x))
    f = parse_poly("z^2 - 1")
    assert lh._basin_disks(f) == ((0, F(1, 8)), (-1, F(1, 16)))
    assert _superattracting_normalization(f) == (parse_poly("z^4 - 2*z^2"), 0, 2)
    equidistribution_report(f, [0, 1, 2], F(1, 2), 1)
    assert len(compositions) == 1
