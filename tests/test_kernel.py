"""The coefficient-list kernel in qpoly against sympy, over Q and over F_p.

Lists are lowest degree first.  sympy's polynomials over GF(p) print
symmetric residues, which are reduced mod p before comparing.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from splitrad import exact
from splitrad.exact import prime_support
from splitrad.qpoly import (QPoly, RatFunc, _fp_roots, poly_derivative, poly_divmod, poly_gcd,
                            poly_horner, poly_mul, poly_powmod, poly_shift, poly_trim)

_x = sympy.Symbol("x")


def _to_sympy(a, p=None):
    rev = [sympy.Rational(c.numerator, c.denominator) for c in reversed(a)] if p is None \
        else list(reversed(a))
    opts = {"modulus": p} if p else {"domain": sympy.QQ}
    return sympy.Poly(rev or [0], _x, **opts)


def _from_sympy(poly, p=None):
    cs = reversed(poly.all_coeffs())
    if p:
        return poly_trim([int(c) % p for c in cs])
    return poly_trim([F(int(c.p), int(c.q)) for c in cs])


_q = st.fractions(min_value=-20, max_value=20, max_denominator=9)
_qlist = st.lists(_q, max_size=6).map(lambda cs: poly_trim(list(cs)))
_qnonzero = _qlist.filter(bool)


@settings(max_examples=150, deadline=None)
@given(_qlist, _qnonzero, _q)
def test_kernel_over_q_matches_sympy(a, b, s):
    A, B = _to_sympy(a), _to_sympy(b)
    assert poly_mul(a, b) == _from_sympy(A * B)
    q, r = poly_divmod(a, b)
    sq, sr = A.div(B)
    assert (q, r) == (_from_sympy(sq), _from_sympy(sr))
    assert poly_gcd(a, b) == _from_sympy(A.gcd(B).monic())
    assert poly_derivative(a) == _from_sympy(A.diff(_x))
    assert poly_trim(poly_shift(a, s)) == _from_sympy(A.shift(sympy.Rational(s.numerator,
                                                                             s.denominator)))


@st.composite
def _fp_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101]))
    fp = st.lists(st.integers(0, p - 1), max_size=7).map(lambda cs: poly_trim(list(cs)))
    return p, draw(fp), draw(fp.filter(bool)), draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None)
@given(_fp_case())
def test_kernel_over_fp_matches_sympy(case):
    p, a, b, e = case
    A, B = _to_sympy(a, p), _to_sympy(b, p)
    assert poly_mul(a, b, p) == _from_sympy(A * B, p)
    q, r = poly_divmod(a, b, p)
    sq, sr = A.div(B)
    assert (q, r) == (_from_sympy(sq, p), _from_sympy(sr, p))
    assert poly_gcd(a, b, p) == _from_sympy(A.gcd(B).monic(), p)
    assert poly_derivative(a, p) == _from_sympy(A.diff(_x), p)
    assume(len(b) > 1)
    assert poly_powmod(a, e, b, p) == _from_sympy((A ** e).rem(B), p)


@st.composite
def _fp_roots_case(draw):
    """A prime and a product of linear factors
    (the root 0 and repeated roots included) times a random rest."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101, 211, 997, 7919]))
    a = [1]
    for r in draw(st.lists(st.integers(0, p - 1), max_size=4)):
        a = poly_mul(a, [-r % p, 1], p)
    rest = draw(st.lists(st.integers(0, p - 1), max_size=4).map(lambda cs: poly_trim(list(cs))))
    a = poly_mul(a, rest or [1], p)
    assume(a)
    return p, [c + p * draw(st.integers(-3, 3)) for c in a]  # any lift of a to Z


@settings(max_examples=150, deadline=None)
@given(_fp_roots_case())
def test_fp_roots_match_trying_every_residue(case):
    p, a = case
    assert _fp_roots(a, p) == [t for t in range(p) if poly_horner(a, t) % p == 0]


def test_negative_power_of_a_qpoly_raises():
    with pytest.raises(ValueError, match="negative power"):
        QPoly([1, 1]) ** -1
    assert QPoly([1, 1]) ** 0 == QPoly.const(1)


def test_ratfunc_truth_and_scalar_sums():
    t = RatFunc.t()
    assert not RatFunc.const(0) and not (t - t)
    assert t and RatFunc.const(F(1, 3))
    one_plus_t = RatFunc(QPoly([1, 1]))
    assert t + 1 == 1 + t == F(1) + t == one_plus_t
    assert t / (t + F(1, 2)) + 2 == RatFunc(QPoly([1, 3]), QPoly([F(1, 2), 1]))


def test_qpoly_scalar_sums_and_composition():
    x = QPoly.var()
    assert x + 1 == 1 + x == QPoly([1, 1])
    assert (x * x + 1).eval(x + 1) == QPoly([2, 2, 1])
    assert QPoly.const(3).eval(RatFunc.t()) == RatFunc.const(3)
    assert QPoly.const(3).eval(x) == QPoly.const(3)
    assert QPoly().eval(1j) == 0j


def test_prime_support_factors_in_argument_order(monkeypatch):
    calls = []
    factorize = exact.factorize

    def spy(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(exact, "factorize", spy)
    assert prime_support(F(-6, 35), 1, 22) == [2, 3, 5, 7, 11]
    assert calls == [-6, 35, 22]
