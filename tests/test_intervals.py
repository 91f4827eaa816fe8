import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from splitrad.intervals import CBox, Interval, horner, horner_centered

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
widths = st.fractions(min_value=0, max_value=2, max_denominator=12)
polys = st.lists(rationals, min_size=3, max_size=6)  # degree 2..5
SAMPLES = (F(0), F(1), F(1, 2), F(1, 3), F(5, 7))    # corners, centre, interior
MAX = sys.float_info.max
INF = math.inf
SPECIAL = (0.0, -0.0, 1.0, -1.0, INF, -INF, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
           1e300, -1e300, MAX, -MAX, 0.1, -3.5)
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))


def enclosure(lo: F, hi: F) -> Interval:
    return Interval.from_fraction(lo).hull(Interval.from_fraction(hi))


def exact_eval(coeffs, x: F) -> F:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def same(a, b) -> bool:
    """Equal endpoints (==) of two Intervals or two CBoxes."""
    if isinstance(a, CBox):
        return same(a.re, b.re) and same(a.im, b.im)
    return a.lo == b.lo and a.hi == b.hi


def shared_inputs_agree(coeffs, X):
    """Pre-enclosed coefficients and a shared rows dict change no endpoint."""
    enclosed = [X.enclose(c) for c in coeffs]
    assert same(horner(enclosed, X), horner(coeffs, X))
    rows = {}
    # the same ball twice, a wider ball about the same centre, another centre
    for Y in (X, X, X.ball(X.mid, 2 * X.span + 1), X + X.enclose(F(1)), X):
        plain = horner_centered(coeffs, Y)
        assert same(horner_centered(enclosed, Y), plain)
        assert same(horner_centered(enclosed, Y, rows), plain)


def exact_ceval(coeffs, x: F, y: F) -> tuple[F, F]:
    re, im = F(0), F(0)
    for c in reversed(coeffs):
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


@settings(max_examples=60, deadline=None)
@given(polys, rationals, widths)
def test_real_evaluators_enclose_exact_values(coeffs, lo, w):
    X = enclosure(lo, lo + w)
    for ev in (horner, horner_centered):
        Y = ev(coeffs, X)
        assert isinstance(Y, Interval)
        for s in SAMPLES:
            assert Y.contains(exact_eval(coeffs, lo + s * w))
    shared_inputs_agree(coeffs, X)


@settings(max_examples=40, deadline=None)
@given(polys, rationals, widths, rationals, widths)
def test_complex_evaluators_enclose_exact_values(coeffs, x0, wx, y0, wy):
    Z = CBox(enclosure(x0, x0 + wx), enclosure(y0, y0 + wy))
    for ev in (horner, horner_centered):
        W = ev(coeffs, Z)
        assert isinstance(W, CBox)
        for sx in SAMPLES:
            for sy in (F(0), F(1), F(1, 2)):
                re, im = exact_ceval(coeffs, x0 + sx * wx, y0 + sy * wy)
                assert W.re.contains(re) and W.im.contains(im)
    shared_inputs_agree(coeffs, Z)


def test_shared_protocol():
    X = Interval(1.0, 2.0)
    Z = CBox(Interval(1.0, 2.0), Interval(-1.0, 3.0))
    assert X.span == 1.0 and Z.span == 4.0
    assert Interval.ball(1.5, 1.0).encloses(X) and not X.encloses(Interval.ball(1.5, 1.0))
    assert CBox.ball(Z.mid, 2.0).encloses(Z) and not CBox.ball(Z.mid, 1.0).encloses(Z)
    assert X.modulus() == X and Interval(-3.0, 2.0).modulus() == Interval(0.0, 3.0)
    assert Z.modulus().contains(1.0) and Z.modulus().contains(abs(2 + 3j))
    assert (Z - Z.mid).mid == 0j and (X - X.mid).mid == 0.0
    assert Interval.enclose(F(1, 3)).contains(F(1, 3)) and Interval.enclose(X) is X
    assert CBox.enclose(F(1, 3)).re.contains(F(1, 3)) and CBox.enclose(Z) is Z


# The formulas of Interval +, - and * before they were inlined: the reference
# the current ones must match bit for bit.

def _ref_up(x):
    return x if x == INF or x != x else math.nextafter(x, INF)


def _ref_down(x):
    return x if x == -INF or x != x else math.nextafter(x, -INF)


def ref_add(x, o):
    if o.lo == 0.0 == o.hi:
        return x
    if x.lo == 0.0 == x.hi:
        return o
    return Interval(_ref_down(x.lo + o.lo), _ref_up(x.hi + o.hi))


def ref_sub(x, o):
    if o.lo == 0.0 == o.hi:
        return x
    if x.lo == 0.0 == x.hi:
        return -o
    return Interval(_ref_down(x.lo - o.hi), _ref_up(x.hi - o.lo))


def ref_mul(x, o):
    if o.lo == 0.0 == o.hi or x.lo == 0.0 == x.hi:
        return Interval.zero()
    if o.lo == 1.0 == o.hi:
        return x
    if x.lo == 1.0 == x.hi:
        return o
    cands = (x.lo * o.lo, x.lo * o.hi, x.hi * o.lo, x.hi * o.hi)
    cands = tuple(0.0 if c != c else c for c in cands)
    return Interval(_ref_down(min(cands)), _ref_up(max(cands)))


def outcome(fn, x, o):
    try:
        r = fn(x, o)
    except ValueError:
        return "ValueError"
    return r.lo.hex(), r.hi.hex()  # hex tells -0.0 from 0.0


@settings(max_examples=300, deadline=None)
@given(floats, floats, floats, floats)
def test_arithmetic_matches_reference_formulas(a, b, c, d):
    x, o = Interval(min(a, b), max(a, b)), Interval(min(c, d), max(c, d))
    for op, ref in ((Interval.__add__, ref_add), (Interval.__sub__, ref_sub),
                    (Interval.__mul__, ref_mul)):
        for u, v in ((x, o), (o, x), (x, x)):
            assert outcome(op, u, v) == outcome(ref, u, v)


def test_unordered_sum_still_raises():
    with pytest.raises(ValueError):
        Interval.point(INF) + Interval.point(-INF)
    with pytest.raises(ValueError):
        Interval.point(INF) - Interval.point(INF)
    assert Interval(0.0, 0.0) * Interval(-INF, INF) == Interval.zero()
    assert Interval(0.0, 1.0) * Interval(2.0, INF) == Interval(-5e-324, INF)  # 0*inf -> 0


def test_huge_rationals_are_enclosed():
    big = F(10 ** 400)
    assert Interval.from_fraction(big) == Interval(MAX, INF)
    assert Interval.from_fraction(-big) == Interval(-INF, -MAX)
    for q in (big, -big):
        X = Interval.from_fraction(q)
        assert X.contains(q) and not X.contains(F(0)) and not X.contains(-q)
    assert Interval(0.0, INF).contains(big) and not Interval(-INF, 0.0).contains(big)
    assert Interval(-INF, 1.0).contains(F(1)) and not Interval(-INF, 1.0).contains(F(1) + F(1, 10 ** 30))
    assert not Interval(INF, INF).contains(big) and not Interval(-INF, -INF).contains(-big)
