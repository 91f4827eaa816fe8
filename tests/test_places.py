import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from splitrad import exact
from splitrad.dynamics import parse_poly
from splitrad.exact import INFINITY, DomainError, LogValue, prime_support, valuation
from splitrad.places import (FIELD_Q, FIELD_QT, Place, ProjectivePoint, local_abs_log,
                             naive_height, places_below,
                             product_formula_check, radical, support)
from splitrad.qpoly import QPoly, RatFunc, irreducible_factors
from splitrad.stats import epsilon_good_sum

T = RatFunc.t()
ONE = RatFunc.const(1)


def tpoly(*coeffs):
    return RatFunc(QPoly(coeffs))


def test_support_examples():
    pt = ProjectivePoint([1, 8, -9])
    assert {v.label() for v in support(pt)} == {"2", "3"}
    assert support(ProjectivePoint([1, 1])) == set()
    qt = ProjectivePoint([T ** 2, -((T - ONE) ** 2), RatFunc.const(-2) * T + ONE], FIELD_QT)
    assert {v.label() for v in support(qt)} == {"t", "t-1", "t-1/2", "t_infinity"}


def test_unknown_field_rejected():
    with pytest.raises(DomainError, match="^unknown field 'q'$"):
        ProjectivePoint([1, 2], "q")
    with pytest.raises(DomainError, match="^unknown field 'QT'$"):
        parse_poly("z^2", "QT")


def test_support_zero_coordinate_rejected():
    with pytest.raises(DomainError):
        support(ProjectivePoint([0, 1]))


def test_naive_height_examples():
    assert naive_height(ProjectivePoint([F(1, 2), 1])) == LogValue.from_log(2, 1)
    assert naive_height(ProjectivePoint([1, 1])).is_exactly_zero()
    qt = ProjectivePoint([T ** 2, -((T - ONE) ** 2), RatFunc.const(-2) * T + ONE], FIELD_QT)
    assert naive_height(qt) == LogValue.from_const(2)


def test_radical_examples():
    assert radical(ProjectivePoint([1, 8, -9])) == LogValue.from_log(2, 1) + LogValue.from_log(3, 1)
    assert radical(ProjectivePoint([1, -1])).is_exactly_zero()
    qt = ProjectivePoint([T ** 2, -((T - ONE) ** 2), RatFunc.const(-2) * T + ONE], FIELD_QT)
    assert radical(qt) == LogValue.from_const(4)


def test_product_formula_examples():
    for x in (F(6, 5), F(1)):
        v = product_formula_check(x)
        assert v.is_formally_zero()
        assert v.err.contains_zero()
    v = product_formula_check(T - ONE)
    assert v.is_exactly_zero()


def test_product_formula_factors_once(monkeypatch):
    seen = []
    factorize = exact.factorize

    def spy(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(exact, "factorize", spy)
    v = product_formula_check(F(6, 35))
    assert sorted(seen) == [6, 35]  # each of numerator and denominator once
    assert v.is_formally_zero()


def test_epsilon_good_sum_factors_once(monkeypatch):
    seen = []
    factorize = exact.factorize

    def spy(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(exact, "factorize", spy)
    s = epsilon_good_sum(parse_poly("z^2 + 1"), F(6, 35))
    assert sorted(seen) == [6, 35]  # each of numerator and denominator once
    # every place of 6/35 counts (2 is in S_2, 3, 5 and 7 are good): the sum is 0
    assert s.is_formally_zero()


def _random_rational(rng):
    n = rng.randint(-10 ** 6, 10 ** 6)
    return F(n if n else 1, rng.randint(1, 10 ** 5))


def _random_ratfunc(rng):
    def rpoly():
        return QPoly([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))] + [F(rng.randint(1, 9))])
    return RatFunc(rpoly(), rpoly())


def test_product_formula_random_q():
    rng = random.Random(71)
    for _ in range(100):
        assert product_formula_check(_random_rational(rng)).is_formally_zero()


def test_product_formula_random_qt():
    rng = random.Random(72)
    for _ in range(100):
        x = _random_ratfunc(rng)
        if x.is_zero():
            continue
        assert product_formula_check(x).is_exactly_zero()


def test_scale_invariance():
    rng = random.Random(73)
    for _ in range(50):
        coords = [_random_rational(rng) for _ in range(3)]
        lam = _random_rational(rng)
        p1 = ProjectivePoint(coords)
        p2 = ProjectivePoint([lam * c for c in coords])
        assert naive_height(p1).formal_equal(naive_height(p2))
        assert radical(p1).formal_equal(radical(p2))
        assert p1 == p2


def test_scale_invariance_qt():
    rng = random.Random(74)
    for _ in range(20):
        coords = [_random_ratfunc(rng) for _ in range(3)]
        if any(c.is_zero() for c in coords):
            continue
        lam = _random_ratfunc(rng)
        if lam.is_zero():
            continue
        p1 = ProjectivePoint(coords, FIELD_QT)
        p2 = ProjectivePoint([lam * c for c in coords], FIELD_QT)
        assert naive_height(p1) == naive_height(p2)
        assert radical(p1) == radical(p2)


def test_height_nonnegative_and_matches_weil():
    # independent classical Weil height: log max(|a'|, b') in lowest terms
    rng = random.Random(75)
    for _ in range(200):
        a = _random_rational(rng)
        h = naive_height(ProjectivePoint([a, 1]))
        direct = LogValue.log_abs(max(abs(a.numerator), a.denominator))
        assert h == direct
        assert h.to_interval().hi >= 0
        assert h.compare(LogValue.zero()) in (0, 1)


def test_places_below():
    assert [v.p for v in places_below(3)] == [2, 3]
    assert [v.p for v in places_below(10)] == [2, 3, 5, 7]
    assert places_below(5, FIELD_QT) == []


def test_place_json_roundtrip():
    for v in (Place.finite(5), Place.arch(), Place.t_infinity(),
              Place.finite_poly(QPoly([F(-1, 2), 1]))):
        assert Place.from_json(v.to_json()) == v
    assert Place.finite(5).to_json() == {"kind": "finite", "p": 5}
    assert Place.arch().to_json() == {"kind": "arch"}
    assert Place.finite_poly(QPoly([-1, 1])).to_json() == {"kind": "finite_poly", "pi": "t-1"}
    assert Place.t_infinity().to_json() == {"kind": "t_infinity"}


def test_weight_normalization():
    assert Place.finite(7).weight() == LogValue.from_log(7, 1)
    assert Place.finite_poly(QPoly([1, 0, 1])).weight() == LogValue.from_const(2)
    assert Place.t_infinity().weight() == LogValue.from_const(1)


# ---------------------------------------------------------------------------
# property tests against reference copies of the per-field code that every
# non-archimedean place (t = infinity included) now shares
# ---------------------------------------------------------------------------

def _ref_local_abs_log(x, v):
    if isinstance(x, RatFunc):
        if x.is_zero():
            raise DomainError("log|0|_v is undefined")
        if v.kind == Place.FINITE_POLY:
            return LogValue.from_const(-x.valuation_at(v.pi) * v.pi.degree())
        if v.kind == Place.T_INFINITY:
            return LogValue.from_const(-x.valuation_at_infinity())
        raise DomainError(f"place {v!r} does not apply to Q(t)")
    x = F(x)
    if x == 0:
        raise DomainError("log|0|_v is undefined")
    if v.kind == Place.FINITE:
        return LogValue.from_log(v.p, -valuation(x, v.p))
    if v.kind == Place.ARCH:
        return LogValue.log_abs(x)
    raise DomainError(f"place {v!r} does not apply to Q")


def _ref_coord_valuation(z, v):
    if isinstance(z, RatFunc):
        if v.kind == Place.FINITE_POLY:
            return z.valuation_at(v.pi)
        if v.kind == Place.T_INFINITY:
            return z.valuation_at_infinity()
        raise DomainError(f"place {v!r} does not apply to Q(t)")
    return valuation(F(z), v.p)


def _ref_candidate_finite_places(P):
    if P.field == FIELD_QT:
        pis = set()
        for c in P.coords:
            for part in (c.num, c.den):
                for pi, _ in irreducible_factors(part):
                    pis.add(pi)
        return [Place.finite_poly(pi) for pi in sorted(pis, key=lambda q: (q.degree(), q.coeffs))]
    return [Place.finite(p) for p in prime_support(*P.coords)]


def _ref_support(P):
    if not P.all_nonzero():
        raise DomainError("support needs all coordinates nonzero")
    out = set()
    for v in _ref_candidate_finite_places(P):
        vals = [_ref_coord_valuation(z, v) for z in P.coords]
        if any(val != vals[0] for val in vals):
            out.add(v)
    if P.field == FIELD_QT:
        vinf = [z.valuation_at_infinity() for z in P.coords]
        if any(v != vinf[0] for v in vinf):
            out.add(Place.t_infinity())
    return out


def _ref_naive_height(P):
    h = LogValue.zero()
    for v in _ref_candidate_finite_places(P):
        m = min(_ref_coord_valuation(z, v) for z in P.coords)
        if m != 0 and m != INFINITY:
            h = h + v.weight() * F(-m)
    if P.field == FIELD_QT:
        m = min(z.valuation_at_infinity() for z in P.coords)
        if m != INFINITY and m != 0:
            h = h + LogValue.from_const(-m)
    else:
        big = max(abs(z) for z in P.coords)
        if big != 0 and big != 1:
            h = h + LogValue.log_abs(big)
    return h


def _ref_radical(P):
    if not P.all_nonzero():
        raise DomainError("radical needs all coordinates nonzero")
    r = LogValue.zero()
    for v in sorted(_ref_support(P)):
        r = r + v.weight()
    return r


def _outcome(fn, *args):
    """The value, or the DomainError text, so that errors compare too."""
    try:
        return fn(*args)
    except DomainError as e:
        return ("DomainError", str(e))


# Numerators and denominators stay below 10^6, so trial division factors
# every number and the rho budget never binds.
rationals = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
# Polynomials of degree <= 4 over small rationals: num/den share factors,
# the t-degrees differ, and constants and 0 occur.
tpolys = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                  min_size=1, max_size=5).map(QPoly)
ratfuncs = st.builds(lambda n, d, c: RatFunc(n * c, d * c), tpolys,
                     tpolys.filter(lambda q: not q.is_zero()),
                     st.sampled_from([QPoly([1]), QPoly([-1, 1]), QPoly([1, 0, 1])]))
q_points = st.lists(rationals, min_size=2, max_size=4)
qt_points = st.lists(ratfuncs, min_size=2, max_size=4)
PI_PLACES = [Place.finite_poly(QPoly(c)) for c in ([0, 1], [-1, 1], [1, 0, 1], [F(1, 2), 1])]
FIXED_PLACES = ([Place.arch(), Place.t_infinity()] + PI_PLACES
                + [Place.finite(p) for p in (2, 3, 5, 7)])


def _check_point(coords, field):
    if not any(coords):
        with pytest.raises(DomainError, match="cannot be all zero"):
            ProjectivePoint(coords, field)
        return
    P = ProjectivePoint(coords, field)
    for new, ref in ((support, _ref_support), (naive_height, _ref_naive_height),
                     (radical, _ref_radical)):
        assert _outcome(new, P) == _outcome(ref, P)


@settings(max_examples=80, deadline=None)
@given(q_points)
def test_heights_match_reference_q(coords):
    _check_point(coords, FIELD_Q)


@settings(max_examples=50, deadline=None)
@given(qt_points)
def test_heights_match_reference_qt(coords):
    _check_point(coords, FIELD_QT)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rationals, ratfuncs), st.sampled_from(FIXED_PLACES))
def test_local_abs_log_matches_reference(x, v):
    """Every place of either field, on elements of either field and on 0."""
    places = [v]
    if x and isinstance(x, RatFunc):
        places += [Place.finite_poly(pi) for part in (x.num, x.den)
                   for pi, _ in irreducible_factors(part)]
    elif x:
        places += [Place.finite(p) for p in prime_support(x)]
    for w in places:
        assert _outcome(local_abs_log, x, w) == _outcome(_ref_local_abs_log, x, w)


def test_local_abs_log_error_texts():
    """The arch place on Q(t) names the field, not the missing weight."""
    with pytest.raises(DomainError, match=r"^place Place\(arch\) does not apply to Q\(t\)$"):
        local_abs_log(T, Place.arch())
    with pytest.raises(DomainError, match=r"^place Place\(t_infinity\) does not apply to Q$"):
        local_abs_log(F(2), Place.t_infinity())
    with pytest.raises(DomainError, match=r"^place Place\(p=2\) does not apply to Q\(t\)$"):
        local_abs_log(T, Place.finite(2))
    with pytest.raises(DomainError, match=r"^log\|0\|_v is undefined$"):
        local_abs_log(RatFunc.const(0), Place.t_infinity())
    with pytest.raises(DomainError, match="^archimedean place has no finite weight$"):
        Place.arch().weight()


@settings(max_examples=80, deadline=None)
@given(rationals.filter(bool))
def test_product_formula_property_q(x):
    v = product_formula_check(x)
    assert v.is_formally_zero()
    assert v.err.contains_zero()


@settings(max_examples=80, deadline=None)
@given(ratfuncs.filter(bool))
def test_product_formula_property_qt(x):
    assert product_formula_check(x).is_exactly_zero()
