"""Rational roots by brackets and irreducible factors, against reference copies.

The references are the earlier forms: rational_roots by trying every
divisor pair of the end coefficients, and irreducible_factors as one direct
sympy factor_list call.
"""

import math
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from splitrad import qpoly
from splitrad.dynamics import critical_points, parse_ground, parse_poly
from splitrad.exact import divisors
from splitrad.qpoly import QPoly, irreducible_factors


def divisor_rational_roots(p: QPoly) -> list[tuple[F, int]]:
    """The earlier rational_roots: every divisor pair, with deflation."""
    if p.degree() <= 0:
        return []
    roots: dict[F, int] = {}
    k = 0
    while p.degree() >= 0 and p[0] == 0 and not p.is_zero():
        p = QPoly(p.coeffs[1:])
        k += 1
    if k:
        roots[F(0)] = k
    if p.degree() <= 0:
        return sorted(roots.items())
    den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
    ip = [int(c * den_lcm) for c in p.coeffs]
    for num in divisors(abs(ip[0])):
        for den in divisors(abs(ip[-1])):
            if math.gcd(num, den) != 1:
                continue
            for cand in (F(num, den), F(-num, den)):
                mult = 0
                while p.eval(cand) == 0:
                    p = p.exact_div(QPoly([-cand, 1]))
                    mult += 1
                if mult:
                    roots[cand] = mult
                if p.degree() <= 0:
                    return sorted(roots.items())
    return sorted(roots.items())


def sympy_factors(p: QPoly) -> list[tuple[QPoly, int]]:
    """The earlier irreducible_factors: sympy's factor_list of the whole polynomial."""
    if p.degree() <= 0:
        return []
    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      x, domain="QQ")
    out = [(QPoly([F(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]).monic(), int(m))
           for fac, m in expr.factor_list()[1]]
    return sorted(out, key=lambda fm: (fm[0].degree(), fm[0].coeffs))


def from_roots(rs, lc=F(1)) -> QPoly:
    out = QPoly.const(lc)
    for r in rs:
        out = out * QPoly([-r, 1])
    return out


def tpoly(text: str) -> QPoly:
    return parse_ground(text, "Qt").num


# with small integer roots and a small a_n, roots stay less than one apart
# after the scaling y = a_n x, so one bracket of the derivative can hold two
# roots (or a double one) of the polynomial
rationals = st.one_of(st.integers(-4, 4).map(F),
                      st.fractions(min_value=-9, max_value=9, max_denominator=8))
root_lists = st.lists(st.tuples(rationals, st.integers(1, 3)), max_size=4)
small_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda cs: cs[-1])
leading = st.sampled_from([F(1), F(-1), F(3), F(-2, 7), F(5, 3)])


def product(lc, rs, rests) -> QPoly:
    p = QPoly.const(lc)
    for r, m in rs:
        p = p * QPoly([-r, 1]) ** m
    for cs in rests:
        p = p * QPoly(cs)
    return p


@settings(max_examples=150, deadline=None)
@given(leading, root_lists, st.lists(small_polys, max_size=2))
def test_rational_roots_match_divisor_search(lc, rs, rests):
    p = product(lc, rs, rests)
    assert p.rational_roots() == divisor_rational_roots(p)


@settings(max_examples=150, deadline=None)
@given(leading, root_lists, st.lists(small_polys, max_size=2))
def test_irreducible_factors_match_sympy(lc, rs, rests):
    p = product(lc, rs, rests)
    assert irreducible_factors(p) == sympy_factors(p)


EXAMPLES = [
    # rational roots of multiplicity 1-3, with and without a rest
    "t - 3/2",
    "(t - 3/2)^2*(t + 5)",
    "(7*t - 2)^3*(t + 1)^2*t",
    "(t - 1/3)^2*(t - 1/2)^2",
    "(t - 1)*(t - 2)*(t - 3)*(t - 4)*(t - 5)",
    # irreducible quadratic and cubic rests
    "t^2 + 1",
    "(t^2 - 2)*(t - 1)^2",
    "t^3 - 2",
    "(t^3 + 3*t + 7)*(2*t + 1)^3",
    "(t^2 + t + 1)*(t^3 - 5)",  # a degree-5 rest: goes to sympy
    # degree >= 4 rests
    "(t^2 + 1)^2",
    "t^4 + 1",
    "(t^2 + 1)*(t^2 + 2)",
    "(t^2 + 1)^2*(t - 4)",
    "(t^3 - 2)^2",
    "t^6 - 1",
    "(t^4 + 1)*(t^2 - 3)*(t + 1/5)^2",
]


@pytest.mark.parametrize("text", EXAMPLES)
def test_examples_match_references(text):
    p = tpoly(text)
    assert p.rational_roots() == divisor_rational_roots(p)
    assert irreducible_factors(p) == sympy_factors(p)


def test_sympy_only_for_a_rest_of_degree_four_or_more(monkeypatch):
    calls = []
    real = qpoly._factor_cached

    def spy(coeffs):
        calls.append(len(coeffs) - 1)
        return real(coeffs)

    monkeypatch.setattr(qpoly, "_factor_cached", spy)
    for text in ("(t - 3/2)^2*(t + 5)", "(t^2 - 2)*(t - 1)^2", "(t^3 + 3*t + 7)*(2*t + 1)^3"):
        irreducible_factors(tpoly(text))
    assert calls == []
    irreducible_factors(tpoly("(t^2 + 1)^2*(t - 4)"))
    assert calls == [4]


def reference_critical_points(f):
    """The earlier critical_points: rational roots of f', then sympy on the rest."""
    fp = f.derivative_qpoly()
    roots = divisor_rational_roots(fp)
    rest = fp.monic()
    for r, m in roots:
        rest = rest.exact_div(QPoly([-r, 1]) ** m)
    return roots, [g for g, m in sympy_factors(rest) for _ in range(m)]


@pytest.mark.parametrize("text", [
    "z^3 + (1/5)*z^2", "z^5 + (1/7)*z^2", "z^7 - z^5", "-(2/9)*z^3 - z^2", "z^4",
    "3*z^4 - 4*z^3 - 12*z^2 + 5",  # f' = 12 z (z - 2) (z + 1), roots out of coefficient order
    "z^5 + (5/3)*z^3 + 5*z",  # f' = 5 (z^2 + z + 1) (z^2 - z + 1): a degree-4 rest
    "z^6 - 3*z^2 + (1/11)*z",
])
def test_critical_points_match_reference(text):
    f = parse_poly(text)
    assert critical_points(f) == reference_critical_points(f)


def test_huge_constant_terms_are_fast():
    # the divisor search took seconds here: 10^400 has 160 801 divisors
    start = time.perf_counter()
    roots, leftovers = critical_points(parse_poly("z^3 + 10^400*z"))
    assert roots == [] and [g.degree() for g in leftovers] == [2]
    rs = sorted([F(-3, 7), F(10 ** 60 + 7, 10 ** 30 + 1), F(2, 10 ** 40 + 9)])
    p = from_roots(rs) * QPoly([720720 ** 3, 0, 1])
    assert p.rational_roots() == [(r, 1) for r in rs]
    assert time.perf_counter() - start < 2.0
