"""Affine conjugation and parsing over Q(t), and conjugation against its earlier form.

``_ref_conjugate`` keeps the earlier implementation: f((z - b)/a) built by
Horner's rule on coefficient lists, multiplying by the linear polynomial
(z - b)/a one step at a time, then a*( ) + b.  ``conjugate`` now scales
the coefficients by powers of 1/a and Taylor-shifts by -b.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from splitrad.dynamics import Poly, conjugate, iterate, parse_ground, parse_poly
from splitrad.places import FIELD_Q, FIELD_QT
from splitrad.qpoly import QPoly, RatFunc


def _ref_conjugate(f, a, b):
    if f.field == FIELD_QT:
        a = a if isinstance(a, RatFunc) else RatFunc.const(a)
        b = b if isinstance(b, RatFunc) else RatFunc.const(b)
        zero, one = RatFunc.const(0), RatFunc.const(1)
    else:
        a, b = F(a), F(b)
        zero, one = F(0), F(1)
    inv = [-b / a, one / a]
    acc = [zero]
    for c in reversed(f.coeffs):
        acc = _ref_mul_linear(acc, inv, zero)
        acc[0] = acc[0] + c
    out = [a * c for c in acc]
    out[0] = out[0] + b
    return Poly(out, f.field)


def _ref_mul_linear(poly_coeffs, lin, zero):
    c0, c1 = lin
    out = [zero] * (len(poly_coeffs) + 1)
    for i, c in enumerate(poly_coeffs):
        out[i] = out[i] + c * c0
        out[i + 1] = out[i + 1] + c * c1
    return out


_q = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_q_nonzero = _q.filter(bool)
_tpoly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(QPoly)
_rf = st.builds(RatFunc, _tpoly, _tpoly.filter(lambda p: not p.is_zero()))
_rf_nonzero = _rf.filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(_q, min_size=3, max_size=7).filter(lambda cs: cs[-1] != 0), _q_nonzero, _q)
def test_conjugate_matches_reference_over_q(coeffs, a, b):
    f = Poly(coeffs)
    assert conjugate(f, a, b) == _ref_conjugate(f, a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(_rf, min_size=3, max_size=4).filter(lambda cs: cs[-1]), _rf_nonzero, _rf)
def test_conjugate_matches_reference_over_qt(coeffs, a, b):
    f = Poly(coeffs, FIELD_QT)
    assert conjugate(f, a, b) == _ref_conjugate(f, a, b)


def test_conjugation_functoriality_over_qt():
    rng = random.Random(47)
    t = RatFunc.t()
    f = parse_poly("z^3 + (1/t)*z^2 + (t - 1)", FIELD_QT)

    def draw():
        return RatFunc(QPoly([rng.randint(-3, 3), rng.randint(-2, 2)]),
                       QPoly([rng.randint(1, 3), rng.randint(0, 1)]))

    for _ in range(6):
        a1, b1, a2, b2 = draw() + t, draw(), draw() + 1, draw()
        if not a1 or not a2:
            continue
        lhs = conjugate(conjugate(f, a1, b1), a2, b2)
        rhs = conjugate(f, a2 * a1, a2 * b1 + b2)
        assert lhs == rhs
        # the conjugate carries orbits along mu(z) = a1 z + b1
        g = conjugate(f, a1, b1)
        z = draw()
        assert g(a1 * z + b1) == a1 * f(z) + b1


def test_parses_with_an_internal_zero_slot():
    t = RatFunc.t()
    f = parse_poly("(z*z)/t + z", FIELD_QT)
    assert f.coeffs == (RatFunc.const(0), RatFunc.const(1), t ** -1)
    assert parse_poly("(z^3 + z)/t - z", FIELD_QT).coeffs == (
        RatFunc.const(0), t ** -1 - 1, RatFunc.const(0), t ** -1)
    assert parse_poly("z^2*(1 - 1) + z^3", FIELD_QT).coeffs == (RatFunc.const(0),) * 3 + (
        RatFunc.const(1),)
    assert parse_poly("(z*z)/2 + z").coeffs == (F(0), F(1), F(1, 2))
    assert iterate(f, t, 1)[1] == t + t


def test_parse_ground_of_zero_and_of_cancelled_terms():
    for field in (FIELD_Q, FIELD_QT):
        for text in ("1-1", "0", "(1-1)^2", "0*z", "z - z", "t - t" if field == FIELD_QT else "2*0"):
            zero = parse_ground(text, field)
            assert not zero
            assert zero == (RatFunc.const(0) if field == FIELD_QT else F(0))
    assert parse_ground("(t^2 - 1)/(t - 1) - t", FIELD_QT) == RatFunc.const(1)
    assert parse_ground("z^2 - z*z + 3/4") == F(3, 4)
