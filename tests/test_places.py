import random
from fractions import Fraction as F

import pytest

from splitrad import exact
from splitrad.exact import DomainError, LogValue
from splitrad.places import (FIELD_QT, Place, ProjectivePoint,
                             naive_height, places_below,
                             product_formula_check, radical, support)
from splitrad.qpoly import QPoly, RatFunc

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
