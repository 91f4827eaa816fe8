"""Property tests of the canonical height over random maps and rational points.

Coefficients and points have small numerators and denominators, so every
number that gets factored lies far inside the rho budget; canonical
heights never enumerate a preperiodic box.  No drawn map is filtered out:
an input only escapes the check by ending in UndeterminedError, which
claims nothing.
"""

from fractions import Fraction as F

from hypothesis import event, given, settings, strategies as st

from splitrad.dynamics import Poly
from splitrad.exact import UndeterminedError
from splitrad.localheights import canonical_height

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
