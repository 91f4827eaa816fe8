"""Property tests of the canonical and critical heights over random maps and rational points.

Coefficients and points have small numerators and denominators, so every
number that gets factored lies far inside the rho budget; neither height
enumerates a preperiodic box.  No drawn map is filtered out: an input only
escapes the check by ending in UndeterminedError, which claims nothing.
"""

from fractions import Fraction as F

from hypothesis import event, given, settings, strategies as st

from splitrad.dynamics import Poly, conjugate
from splitrad.exact import UndeterminedError
from splitrad.localheights import canonical_height, critical_height_global

small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
nonzero = small.filter(lambda c: c != 0)
points = st.fractions(min_value=-4, max_value=4, max_denominator=9)
maps = st.builds(lambda low, lc: Poly(low + [lc]),
                 st.lists(small, min_size=2, max_size=4),          # degree 2..4
                 st.one_of(st.just(F(1)), nonzero))                # monic or not


@settings(max_examples=60, deadline=None)
@given(maps, points)
def test_functional_equation(f, z):
    """h(f(z)) = d h(z): equal exact finite parts, overlapping archimedean enclosures."""
    try:
        h, h_next = canonical_height(f, z), canonical_height(f, f(z))
    except UndeterminedError:
        event("undetermined")
        return
    scaled = h * f.degree
    assert h_next.formal_equal(scaled)
    assert h_next.err.overlaps(scaled.err)


@settings(max_examples=40, deadline=None)
@given(maps, points, nonzero, small)
def test_conjugation_invariance(f, z, a, b):
    """h_g(mu(z)) = h_f(z) for g = mu o f o mu^-1, mu(z) = a z + b.

    Each local escape rate is invariant (log|a|_v / d^n vanishes in the limit), so
    the exact finite parts agree and the archimedean enclosures overlap.
    """
    g = conjugate(f, a, b)
    try:
        h, h_conj = canonical_height(f, z), canonical_height(g, a * z + b)
    except UndeterminedError:
        event("undetermined")
        return
    assert h_conj.formal_equal(h)
    assert h_conj.err.overlaps(h.err)


@settings(max_examples=40, deadline=None)
@given(maps)
def test_critical_height_is_nonnegative(f):
    """h_crit = sum over places of max over critical points of an escape rate >= 0."""
    try:
        h = critical_height_global(f)
    except UndeterminedError:
        event("undetermined")
        return
    assert h.const >= 0 and all(q >= 0 for q in h.logs.values())
    assert h.to_interval().hi >= 0
