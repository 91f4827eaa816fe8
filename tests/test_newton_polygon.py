"""The Newton polygon readers against reference copies of the loops they replaced.

Each reference below is an earlier scan of valuation over the coefficients:
the escape exponent, the splitting exponent, the Gauss norm of the
pushforward bound, the Gauss-norm solve of the disk chain and of the
component radii, the minimum valuation of the scaled wing reduction, and
the good-place test.  Each must agree with the read of the one polygon that
replaced it.
"""

import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import splitrad.localheights
from splitrad.dynamics import (NewtonPolygon, Poly, center, escape_exponent, newton_polygon,
                               parse_poly)
from splitrad.exact import DomainError, valuation
from splitrad.localheights import splitting_exponent


# ---------------------------------------------------------------------------
# reference copies of the six loops
# ---------------------------------------------------------------------------

def ref_escape_exponent(f, p):
    d = f.degree
    vd = valuation(f.lc, p)
    s = F(vd, d - 1)
    for i in range(d):
        if f[i] != 0:
            s = max(s, F(vd - valuation(f[i], p), d - i))
    return s


def ref_splitting_exponent(g, p):
    """On the centered form g."""
    d = g.degree
    s = None
    for i in range(d - 1):
        c = g[i]
        if c != 0:
            cand = F(-valuation(c, p), d - i)
            s = cand if s is None else max(s, cand)
    return s if s is not None else F(-10 ** 9)


def ref_gauss(f, p, t):
    """b_exp of the pushforward bound, at t = the escape exponent there."""
    return max(F(i) * t - valuation(f[i], p) for i in range(f.degree + 1) if f[i] != 0)


def ref_gauss_solve(coeffs, p, target):
    return min((target + valuation(c, p)) / i for i, c in enumerate(coeffs) if i and c)


def ref_wing_vmin(f, p, g):
    """Integer g only."""
    scaled = [f[j] * F(p) ** (-int(g) * j) for j in range(f.degree + 1)]
    return min(valuation(c, p) for c in scaled if c != 0)


def ref_integral_with_unit_lc(f, q):
    integral = all(valuation(c, q) >= 0 for c in f.coeffs if c != 0)
    return integral and valuation(f.lc, q) == 0


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

PRIMES = [2, 3, 5, 7, 11]


@st.composite
def maps(draw):
    """(f, p): degree 2-9, zero coefficients, denominators and numerators with powers of p."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(2, 9))

    def coeff():
        if draw(st.booleans()):
            return F(0)
        return (F(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 2, 3, 7])))
                * F(p) ** draw(st.integers(-3, 3)))

    coeffs = [coeff() for _ in range(d)]
    if draw(st.booleans()):
        coeffs[0] = F(0)  # the solve of the disk chain and of the component radii
    lc = F(1) if draw(st.booleans()) else F(draw(st.integers(1, 9))) * F(p) ** draw(st.integers(-2, 2))
    return Poly(coeffs + [lc]), p


rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(maps(), rationals)
@example((parse_poly("z^5"), 3), F(1, 2))  # splitting exponent -10^9
@example((parse_poly("(1/5)*z^2"), 5), F(0))  # one vertex: max_slope() is None
@example((parse_poly("z^3 + (1/5)*z^2"), 5), F(1))
@example((parse_poly("z^3 + (1/5)*z^2"), 3), F(-1))
@example((parse_poly("z^2 + 1/5"), 5), F(0))  # the i = 0 vertex alone gives the Gauss norm 1
def test_polygon_reads_match_the_loops_they_replaced(fp, t):
    f, p = fp
    npf = newton_polygon(f, p)
    assert escape_exponent(f, p) == ref_escape_exponent(f, p)
    if f.is_monic() and f.degree % p:
        assert splitting_exponent(f, p) == ref_splitting_exponent(center(f)[0], p)
    assert npf.gauss(t) == ref_gauss(f, p, t)
    s_esc = escape_exponent(f, p)
    assert npf.gauss(s_esc) == ref_gauss(f, p, s_esc)
    g = F(t.numerator // t.denominator)
    assert -npf.gauss(g) == ref_wing_vmin(f, p, g)
    assert (npf.gauss(0) <= 0 and npf.vertices[-1][1] == 0) == ref_integral_with_unit_lc(f, p)
    # solve reads the vertices with i >= 1: exact when a_0 = 0.  With a_0 != 0
    # it stays exact for target >= -v_p(a_0), the Gauss norm at the first slope,
    # where the terms hidden behind the first segment never reach target.
    target = t if f[0] == 0 else -valuation(f[0], p) + abs(t)
    assert npf.solve(target) == ref_gauss_solve(f.coeffs, p, target)


def test_pinned_polygon_values():
    assert splitting_exponent(parse_poly("z^5"), 3) == F(-10 ** 9)
    assert newton_polygon(parse_poly("(1/5)*z^2"), 5).max_slope() is None
    assert escape_exponent(parse_poly("(1/5)*z^2"), 5) == F(-1)
    assert newton_polygon(parse_poly("z^2 + 1/5"), 5).gauss(0) == F(1)
    assert newton_polygon(parse_poly("z^2 + 1/5"), 5).solve(F(1)) == F(1, 2)


# ---------------------------------------------------------------------------
# one polygon per map and prime
# ---------------------------------------------------------------------------

def test_polygon_of_a_poly_is_kept_per_prime():
    f = parse_poly("z^3 + (1/5)*z^2 + 7")
    assert newton_polygon(f, 5) is newton_polygon(f, 5)
    assert newton_polygon(f, 7) is newton_polygon(f, 7)
    assert newton_polygon(f, 5) != newton_polygon(f, 7)
    # a QPoly is not kept: each call builds its polygon
    fq = f.as_qpoly()
    assert newton_polygon(fq, 5) == newton_polygon(f, 5)
    assert newton_polygon(fq, 5) is not newton_polygon(fq, 5)


def test_non_prime_leaves_nothing_in_the_memo():
    f = parse_poly("z^3 + (1/5)*z^2")
    with pytest.raises(DomainError, match="4 is not prime"):
        newton_polygon(f, 4)
    assert not getattr(f, "_memo", None)


def test_q_t_maps_raise_domain_error():
    f = parse_poly("z^2 + 1/(t+1)", "Qt")
    for call in (newton_polygon, escape_exponent):
        with pytest.raises(DomainError, match="over Q"):
            call(f, 5)
    assert not getattr(f, "_memo", None)


def test_polygon_still_resolves_from_localheights():
    assert splitrad.localheights.newton_polygon is newton_polygon
    assert splitrad.localheights.NewtonPolygon is NewtonPolygon
    assert NewtonPolygon.__module__ == "splitrad.dynamics"
    # a pickle made when the class lived in localheights names it there
    npf = newton_polygon(parse_poly("z^3 + (1/5)*z^2"), 5)
    old = pickle.dumps(npf, 2).replace(b"splitrad.dynamics", b"splitrad.localheights")
    assert b"splitrad.localheights" in old and pickle.loads(old) == npf
