"""Polynomials built from power sums of roots, checked against rational roots; and the
difference polynomial that tests/test_wing_clusters.py uses as its close-pair reference."""

import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from splitrad.dynamics import Poly
from splitrad.localheights import _pushforward
from splitrad.qpoly import QPoly, poly_power_sums

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
def test_integer_power_sums_stay_in_z(low):
    b = low + [1]  # monic over Z, so Newton's identities give integer power sums
    ps = poly_power_sums(b, len(low))
    assert all(type(c) is int for c in ps)
    assert QPoly.from_power_sums(ps) == QPoly(b)


@settings(max_examples=60, deadline=None)
@given(roots, maps)
def test_pushforward_maps_roots(rs, f):
    assert _pushforward(from_roots(rs), f) == from_roots([f(r) for r in rs])


def reference_difference_poly(fq: QPoly) -> QPoly:
    """Monic prod_{i,j} (x - (a_i - a_j)) over the roots a_i of fq, whose power sums are
    sum_l C(k,l) (-1)^(k-l) s_l s_(k-l) for the power sums s_l of the a_i (Bostan,
    Flajolet, Salvy and Schost, J. Symbolic Comput. 41, 2006): Newton's identities
    on Fractions throughout."""
    n = fq.degree() ** 2
    s = fq.power_sums(n)
    return QPoly.from_power_sums([
        sum((math.comb(k, l) * (-1) ** (k - l) * s[l] * s[k - l] for l in range(k + 1)), F(0))
        for k in range(n + 1)])


@settings(max_examples=40, deadline=None)
@given(roots.filter(lambda rs: len(rs) <= 4), nonzero)
def test_difference_poly_of_rational_roots(rs, lc):
    expect = from_roots([a - b for a in rs for b in rs])
    assert reference_difference_poly(from_roots(rs, lc)) == expect
