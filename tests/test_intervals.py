from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from splitrad.intervals import CBox, Interval, horner, horner_centered

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
widths = st.fractions(min_value=0, max_value=2, max_denominator=12)
polys = st.lists(rationals, min_size=3, max_size=6)  # degree 2..5
SAMPLES = (F(0), F(1), F(1, 2), F(1, 3), F(5, 7))    # corners, centre, interior


def enclosure(lo: F, hi: F) -> Interval:
    return Interval.from_fraction(lo).hull(Interval.from_fraction(hi))


def exact_eval(coeffs, x: F) -> F:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
