"""The invariant-disk search prunes radii with the point orbit and answers as the full search.

``full_search`` below is the search without that pruning: every radius of
the grid runs its W-loop up to max_period.  The pruned search in
``localheights._try_invariant`` must find the same certificate (the first
radius that works, and its period), or none, on every input.
"""

import cmath
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import splitrad.localheights as lh
from splitrad.dynamics import parse_poly
from splitrad.intervals import CBox, Interval, horner_centered

small = st.fractions(min_value=-1, max_value=1, max_denominator=8)
coords = st.fractions(min_value=-1, max_value=1, max_denominator=16)
widths = st.sampled_from([F(0), F(1, 10 ** 6), F(1, 1000), F(1, 20)])
scales = st.integers(1, 10).map(lambda k: F(1, 2 ** k))  # distance of the start from p


@st.composite
def maps(draw):
    """Coefficients of p + m(z - p) + sum_k c_k (z - p)^k, k = 2..d, d in 2..5.

    A fixed point p of multiplier m, attracting or not, so that both
    answers of the search occur near it.
    """
    p, m = draw(coords), draw(small)
    local = [p, m] + draw(st.lists(small, min_size=1, max_size=4))
    if local[-1] == 0:
        local[-1] = F(1, 2)
    coeffs = [F(0)] * len(local)
    power = [F(1)]  # coefficients of (z - p)^k
    for c in local:
        for i, a in enumerate(power):
            coeffs[i] += c * a
        power = [F(0)] + power
        for i in range(len(power) - 1):
            power[i] -= p * power[i + 1]
    return coeffs, p


def full_search(coeffs, Z, max_period=4):
    mid = Z.mid
    if not cmath.isfinite(mid):
        return None
    r = max(Z.span, 1e-9 * (1.0 + abs(mid)))
    limit = 4.0 * (1.0 + abs(mid))
    rows = {}
    while r <= limit:
        D = Z.ball(mid, r)
        if D.encloses(Z):
            W = D
            for j in range(1, max_period + 1):
                W = horner_centered(coeffs, W, rows)
                if D.encloses(W):
                    return r, j
                if W.span > 64.0 * r + 64.0:
                    break
        r *= 2.0
    return None


def interval(x, w):
    return Interval.from_fraction(x).hull(Interval.from_fraction(x + w))


def agree(coeffs, Z, period):
    enclosed = [Z.enclose(c) for c in coeffs]  # as the escape rate passes them
    found = full_search(enclosed, Z, period)
    assert lh._try_invariant(enclosed, Z, period) == found
    return found is not None


@settings(max_examples=150, deadline=None)
@given(maps(), small, scales, widths, st.integers(1, 4))
def test_pruned_search_matches_full_search_on_intervals(fp, dx, s, w, period):
    coeffs, p = fp
    agree(coeffs, interval(p + dx * s, w * s), period)


@settings(max_examples=60, deadline=None)
@given(maps(), small, small, scales, widths, st.integers(1, 4))
def test_pruned_search_matches_full_search_on_boxes(fp, dx, dy, s, w, period):
    coeffs, p = fp
    agree(coeffs, CBox(interval(p + dx * s, w * s), interval(dy * s, w * s)), period)


def test_both_answers_occur():
    # an attracting fixed point at 0 and a repelling one at 1 of z^2
    square = [F(0), F(0), F(1)]
    assert agree(square, Interval.point(0.25), 4)
    assert not agree(square, Interval.point(1.0), 4)
    assert agree(square, CBox(Interval.point(0.1), Interval.point(-0.05)), 2)


def test_pruning_cuts_centred_form_calls(monkeypatch):
    # z^3 + z: a neutral fixed point at 0, near which no radius certifies
    coeffs = [Interval.enclose(c) for c in parse_poly("z^3 + z").coeffs]
    Z = Interval.point(0.01)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return horner_centered(*args)

    monkeypatch.setattr(lh, "horner_centered", counted)
    assert lh._try_invariant(coeffs, Z) is None
    pruned = calls[0]
    monkeypatch.setattr(lh, "_point_orbit", lambda coeffs, P, n: [])  # nothing to prune with
    assert lh._try_invariant(coeffs, Z) is None
    assert 0 < pruned < calls[0] - pruned
