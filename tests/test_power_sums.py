"""Polynomials built from power sums of roots, checked against rational roots and against
the earlier Fraction form of the difference polynomial."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from splitrad.berkovich import _difference_poly
from splitrad.dynamics import Poly
from splitrad.localheights import _pushforward
from splitrad.qpoly import QPoly, poly_from_power_sums, poly_power_sums

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
nonzero = rationals.filter(lambda c: c != 0)
roots = st.lists(rationals, min_size=1, max_size=5)
maps = st.builds(lambda low, lc: Poly(low + [lc]),
                 st.lists(rationals, min_size=2, max_size=4), nonzero)  # degree 2..4


def from_roots(rs, lc=F(1)) -> QPoly:
    out = QPoly.const(lc)
    for r in rs:
        out = out * QPoly([-r, 1])
    return out


@settings(max_examples=60, deadline=None)
@given(roots, nonzero, st.integers(min_value=0, max_value=12))
def test_power_sums_of_rational_roots(rs, lc, n):
    ps = from_roots(rs, lc).power_sums(n)
    assert ps == [sum((r ** k for r in rs), F(0)) for k in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=6), nonzero)
def test_from_power_sums_round_trip(low, lc):
    h = QPoly(low + [lc])
    assert QPoly.from_power_sums(h.power_sums(h.degree())) == h.monic()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=0, max_size=8))
def test_integer_round_trip_stays_in_z(low):
    b = low + [1]  # monic: every division by k in Newton's identities is exact
    ps = poly_power_sums(b, len(low))
    assert all(type(c) is int for c in ps)
    back = poly_from_power_sums(ps)
    assert back == b and all(type(c) is int for c in back)


def test_integer_power_sums_of_non_integral_roots_raise():
    # x^2 - x + 1/2 has power sums [2, 1, 0]: over Z the division by 2 is not exact
    assert QPoly.from_power_sums([2, 1, 0]) == QPoly([F(1, 2), -1, 1])
    with pytest.raises(ValueError, match="not algebraic integers"):
        poly_from_power_sums([2, 1, 0])


@settings(max_examples=60, deadline=None)
@given(roots, maps)
def test_pushforward_maps_roots(rs, f):
    assert _pushforward(from_roots(rs), f) == from_roots([f(r) for r in rs])


@settings(max_examples=40, deadline=None)
@given(roots.filter(lambda rs: len(rs) <= 4), nonzero)
def test_difference_poly_of_rational_roots(rs, lc):
    expect = from_roots([a - b for a in rs for b in rs])
    assert _difference_poly(from_roots(rs, lc)) == expect


def reference_difference_poly(fq: QPoly) -> QPoly:
    """The earlier _difference_poly: Newton's identities on Fractions throughout."""
    n = fq.degree() ** 2
    s = fq.power_sums(n)
    return QPoly.from_power_sums([
        sum((math.comb(k, l) * (-1) ** (k - l) * s[l] * s[k - l] for l in range(k + 1)), F(0))
        for k in range(n + 1)])


# denominators with large primes and prime powers, so that the integer scaling matters
coeffs = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 7, 5 ** 6, 1000003]))
leading = coeffs.filter(bool)
# no rational root at degree 2 or 3: irreducible, every root irrational
irreducible = st.builds(lambda low, lc: QPoly(low + [lc]), st.lists(coeffs, min_size=2, max_size=3),
                        leading).filter(lambda q: not q.rational_roots())
general = st.builds(lambda low, lc: QPoly(low + [lc]), st.lists(coeffs, min_size=2, max_size=5),
                    leading)  # degree 2..5, any leading coefficient


@settings(max_examples=80, deadline=None)
@given(st.one_of(irreducible, general))
def test_difference_poly_matches_the_fraction_reference(fq):
    assert _difference_poly(fq) == reference_difference_poly(fq)
