import cmath
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from splitrad.intervals import CBox, Interval, horner, horner_centered, taylor_enclosures

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


# The evaluators as they were before they ran on float pairs: one Interval or
# CBox per operation, through the reference formulas above.  The float-pair
# kernels must give the same endpoints (sign of zero included) and raise the
# same errors.

def ref_cadd(z, w):
    return CBox(ref_add(z.re, w.re), ref_add(z.im, w.im))


def ref_cmul(z, w):
    return CBox(ref_sub(ref_mul(z.re, w.re), ref_mul(z.im, w.im)),
                ref_add(ref_mul(z.re, w.im), ref_mul(z.im, w.re)))


def ref_ops(x):
    return (ref_add, ref_mul) if isinstance(x, Interval) else (ref_cadd, ref_cmul)


def ref_horner(coeffs, x):
    add, mul = ref_ops(x)
    rest = reversed(coeffs)
    acc = x.enclose(next(rest, 0))
    for c in rest:
        acc = add(mul(acc, x), x.enclose(c))
    return acc


def ref_taylor(coeffs, m):
    add, mul = ref_ops(m)
    cs = [m.enclose(c) for c in coeffs]
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] = add(cs[j], mul(m, cs[j + 1]))
    return cs


def ref_horner_centered(coeffs, x, rows=None):
    m = x.mid
    if not cmath.isfinite(m) or x.span == 0.0:
        return ref_horner(coeffs, x)
    if isinstance(x, Interval):
        shifted = ref_sub(x, Interval.point(m))
    else:
        shifted = CBox(ref_sub(x.re, Interval.point(m.real)), ref_sub(x.im, Interval.point(m.imag)))
    if rows is None:
        return ref_horner(ref_taylor(coeffs, x.point(m)), shifted)
    t = rows.get(m)
    if t is None:
        t = rows[m] = ref_taylor(coeffs, x.point(m))
    return ref_horner(t, shifted)


def bits(v):
    """Endpoints in hex (which tells -0.0 from 0.0) of an enclosure, its float form or a list."""
    if isinstance(v, list):
        return [bits(u) for u in v]
    if isinstance(v, (Interval, CBox)):
        v = v.pair
    if isinstance(v[0], tuple):
        return bits(v[0]), bits(v[1])
    return v[0].hex(), v[1].hex()


def result(fn, *args):
    try:
        return bits(fn(*args))
    except ValueError as e:
        return type(e), str(e)


special = st.sampled_from(SPECIAL)
intervals = st.builds(lambda a, b: Interval(min(a, b), max(a, b)), special, special)
boxes = st.builds(CBox, intervals, intervals)
exact_coeffs = st.one_of(st.integers(-3, 3), st.fractions(min_value=-4, max_value=4,
                                                          max_denominator=12))


def kernels_agree(coeffs, x):
    assert result(horner, coeffs, x) == result(ref_horner, coeffs, x)
    m = x.point(x.mid)  # never NaN; may be infinite
    assert result(taylor_enclosures, coeffs, m) == result(ref_taylor, coeffs, m)
    assert result(horner_centered, coeffs, x) == result(ref_horner_centered, coeffs, x)
    # a shared rows dict: the same ball twice, then a wider ball about the same centre
    rows, ref_rows = {}, {}
    for y in (x, x, x.ball(x.mid, 2.0)):
        assert (result(horner_centered, coeffs, y, rows)
                == result(ref_horner_centered, coeffs, y, ref_rows))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(intervals, exact_coeffs), max_size=5), intervals)
@example([Interval(INF, INF), Interval(-INF, -INF)], Interval.point(1.0))  # inf - inf
@example([Interval(0.0, 1.0), Interval(-INF, INF)], Interval(0.0, INF))  # 0*inf
@example([F(2), F(0), F(1)], Interval.point(1.0))                   # x = 1, a zero coefficient
@example([F(2), F(3), F(1)], Interval(-0.0, 0.0))                   # x = 0
@example([Interval(-0.0, -0.0), F(1)], Interval(-1.0, 1.0))         # the sign of a zero sum
def test_real_kernels_match_reference(coeffs, x):
    kernels_agree(coeffs, x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(boxes, exact_coeffs), max_size=4), boxes)
@example([CBox(Interval(INF, INF), Interval(0.0, 1.0)), F(-1)],
         CBox(Interval(INF, INF), Interval(0.0, 0.0)))
@example([F(1), F(1), F(1)], CBox(Interval(0.0, 1.0), Interval(-INF, 0.0)))
@example([CBox(Interval(-0.0, -0.0), Interval(-0.0, 0.0)), F(1)],
         CBox(Interval(-1.0, 1.0), Interval(-1.0, 1.0)))
def test_complex_kernels_match_reference(coeffs, z):
    kernels_agree(coeffs, z)


def test_reference_paths_are_reached():
    """The examples above reach the error path and the 0*inf rule."""
    assert result(ref_horner, [Interval(INF, INF), Interval(-INF, -INF)],
                  Interval.point(1.0))[0] is ValueError
    assert result(ref_horner, [CBox(Interval(INF, INF), Interval(0.0, 1.0)), F(-1)],
                  CBox(Interval(INF, INF), Interval(0.0, 0.0)))[0] is ValueError
    assert ref_horner([Interval(0.0, 1.0), Interval(-INF, INF)], Interval(0.0, INF)) == \
        Interval(-INF, INF)
