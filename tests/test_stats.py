import math
import random
from fractions import Fraction as F

import pytest

from splitrad.dynamics import parse_poly
from splitrad.exact import DomainError, LogValue
from splitrad.intervals import Interval
from splitrad.localheights import critical_height_global
from splitrad.places import FIELD_QT
from splitrad.qpoly import QPoly, RatFunc
from splitrad.stats import (AbcTriple, abc_quality, epsilon_good_fraction,
                            epsilon_good_sum, equidistribution_report,
                            pair_moment, rows_to_csv, theorem_experiment)
import splitrad.dynamics
import splitrad.stats
from splitrad import exact
from splitrad.stats import _weight_ratio

F5 = parse_poly("z^3 + (1/5)*z^2")
PCF = parse_poly("-(2/9)*z^3 - z^2")

# a 9-point set engineered against the chain of F5 at p = 5:
# two units in the level-1 annulus, four points below it, the three
# points -1/5, -1/5+5, -1/5-5 in the other wing
T9 = [1, 2, 5, 10, 15, 0, F(-1, 5), F(24, 5), F(-26, 5)]


def test_report_failing_example():
    rep = equidistribution_report(F5, [0, F(-1, 5)], F(1, 2), 1)
    assert rep.n_points == 2
    (pr,) = rep.places
    assert pr.place.p == 5
    assert pr.annulus_count == 0
    assert pr.annulus_mass == F(2, 9)
    assert pr.verdict is False
    assert rep.achieved_delta == 0


def test_report_passing_regression():
    rep = equidistribution_report(F5, T9, F(1, 2), 1)
    (pr,) = rep.places
    assert pr.annulus_count == 2
    assert pr.annulus_mass == F(2, 9)
    assert dict(pr.wing_counts) == {"0": 6, "-1/5": 3}
    assert pr.verdict is True
    assert rep.achieved_delta == 1
    assert rep.passing_weight == LogValue.from_log(5, 1)


def test_report_monotone_in_eps():
    # dropping one unit from T9: the annulus ratio 1/8 passes iff eps > 7/16
    T8 = [z for z in T9 if z != 2]
    grid = [F(1, 10), F(1, 4), F(7, 16), F(1, 2), F(9, 10)]
    verdicts = [equidistribution_report(F5, T8, e, 1).places[0].verdict for e in grid]
    assert verdicts == [False, False, False, True, True]
    for i in range(len(verdicts) - 1):
        assert verdicts[i] <= verdicts[i + 1]


def test_report_eps_near_one_needs_only_populated_wings():
    T = [1, F(24, 5), 5]
    rep = equidistribution_report(F5, T, F(9, 10), 1)
    assert rep.places[0].verdict is True


def test_report_no_bad_places():
    # z^2 - 1 has the superattracting 2-cycle {0, -1} but is integral monic:
    # no bad place at all, so the report is empty and delta is undefined
    rep = equidistribution_report(parse_poly("z^2 - 1"), [0, 1], F(1, 2), 1)
    assert rep.places == () and rep.achieved_delta is None
    rep = equidistribution_report(parse_poly("z^3 + z^2"), [0, 1], F(1, 2), 1)
    assert rep.places == () and rep.achieved_delta is None


def test_report_period_two_cycle():
    # 0 -> -1/5 -> 0 is a superattracting 2-cycle; the report passes to the
    # square of the map (degree 9) and still finds the bad place 5
    g = parse_poly("z^3 + (26/5)*z^2 - (1/5)")
    assert g(F(0)) == F(-1, 5) and g(F(-1, 5)) == 0
    rep = equidistribution_report(g, [0, F(-1, 5), 1, 5], F(1, 2), 1)
    (pr,) = rep.places
    assert pr.place.p == 5
    assert pr.annulus_count == 1
    assert pr.annulus_mass == F(14, 81)
    assert pr.verdict is True
    assert rep.achieved_delta == 1


def test_irrational_weight_ratio_is_a_labelled_interval():
    # lambda_crit is log 5 at the passing place 5 and log 7 at the failing 7
    rep = equidistribution_report(parse_poly("z^3 + (1/35)*z^2"), [0, F(-1, 35), F(1, 5), 2],
                                  F(1, 2), 1)
    delta = rep.achieved_delta
    assert isinstance(delta, Interval)
    assert delta.lo <= math.log(5) / math.log(35) <= delta.hi and delta.width < 1e-12
    assert rep.to_json()["achieved_delta"] == {"interval": [delta.lo, delta.hi]}


def test_experiment_writes_an_irrational_delta_as_its_json(monkeypatch):
    delta = Interval(0.25, 0.5)
    monkeypatch.setattr(splitrad.stats, "_weight_ratio", lambda num, den: delta)
    rows, _ = theorem_experiment("z^3 + (1/a)*z^2", "a", [35])
    assert rows and all(r["achieved_delta"] == '{"interval": [0.25, 0.5]}' for r in rows)


def test_weight_ratio_is_exact_only_when_rational():
    log = LogValue.from_log
    assert _weight_ratio(log(5, 2), log(5, 3)) == F(2, 3)
    assert _weight_ratio(log(2, 1) + log(3, 1), log(2, 2) + log(3, 2)) == F(1, 2)
    assert _weight_ratio(LogValue(F(1, 2), {7: 1}), LogValue(1, {7: 2})) == F(1, 2)
    assert _weight_ratio(LogValue.zero(), log(5, 1)) == 0
    assert _weight_ratio(log(5, 1), LogValue.zero()) is None
    # not proportional term by term, or not exact: an enclosure of the true ratio
    for num, den, true in ((log(5, 1), log(7, 1), math.log(5) / math.log(7)),
                           (LogValue(1, {2: 1}), LogValue(2, {2: 1}), (1 + math.log(2)) / (2 + math.log(2))),
                           (log(2, 1), LogValue(err=Interval(1.0, 1.0)) + log(2, 1), math.log(2) / (1 + math.log(2)))):
        ratio = _weight_ratio(num, den)
        assert isinstance(ratio, Interval) and ratio.lo <= true <= ratio.hi


def test_report_rejects_maps_without_superattracting_cycle():
    with pytest.raises(DomainError):
        equidistribution_report(parse_poly("z^2 + 1"), [0, 1], F(1, 2), 1)


def test_epsilon_good_threshold():
    s = epsilon_good_sum(F5, F(-1, 5))
    assert s == LogValue.from_log(5, 1)  # the archimedean term log 5
    hc = critical_height_global(F5, 1e-9)
    # eps-good iff eps >= log5/log15 ~ 0.5937
    res_hi = epsilon_good_fraction(F5, [0, F(-1, 5)], F(3, 5))
    assert all(w.is_good for w in res_hi.witnesses)
    assert res_hi.fraction == 1
    res_lo = epsilon_good_fraction(F5, [0, F(-1, 5)], F(59, 100))
    assert all(w.is_good is False for w in res_lo.witnesses)
    assert res_lo.fraction == 0
    # consistency with a direct interval comparison at the two epsilons
    assert s.certified_leq(hc * F(3, 5)) is True
    assert s.certified_leq(hc * F(59, 100)) is False


def test_epsilon_good_unit_difference_trivial():
    res = epsilon_good_fraction(F5, [0, 1], F(1, 1000))
    by_alpha = {w.alpha: w for w in res.witnesses}
    assert by_alpha[F(1)].size_sum.is_exactly_zero()
    assert by_alpha[F(1)].is_good is True


def test_epsilon_good_degenerate_pcf():
    res = epsilon_good_fraction(PCF, [0, -3], F(1, 10))
    assert res.degenerate is True
    assert res.h_crit.is_exactly_zero()
    assert all(w.is_good for w in res.witnesses)  # both sums are exactly 0


def test_pair_moment_example():
    pm = pair_moment(F5, [0, F(-1, 5)], F(1, 10))
    assert pm.average == LogValue.from_log(5, 1)
    assert pm.n_pairs == 2
    # threshold (1/9 - 1/10) log 15 ~ 0.0301 < log 5: both ordered pairs exceed it
    assert pm.count_above == 2


def test_pair_moment_units():
    pm = pair_moment(F5, [1, 2, 3])
    assert pm.average.is_exactly_zero()


def test_pair_moment_excludes_small_primes():
    # differences supported on 2 and 3 only do not contribute for d = 3
    pm = pair_moment(F5, [0, F(1, 2), F(1, 3)])
    assert pm.average.is_exactly_zero()


def test_abc_quality_examples():
    q = abc_quality(AbcTriple([1, 8, -9]))
    assert q.h == LogValue.from_log(3, 2)
    assert q.rad == LogValue.from_log(2, 1) + LogValue.from_log(3, 1)
    assert q.quality == LogValue.from_log(3, 1) - LogValue.from_log(2, 1)
    assert q.quality.compare(LogValue.zero()) == 1

    q2 = abc_quality(AbcTriple([3, 5, -8]))
    assert q2.h == LogValue.from_log(2, 3)
    assert q2.rad == (LogValue.from_log(2, 1) + LogValue.from_log(3, 1)
                      + LogValue.from_log(5, 1))
    assert q2.quality.compare(LogValue.zero()) == -1

    t = RatFunc.t()
    one = RatFunc.const(1)
    q3 = abc_quality(AbcTriple([t ** 2, -((t - one) ** 2),
                                RatFunc.const(-2) * t + one], FIELD_QT))
    assert q3.h == LogValue.from_const(2)
    assert q3.rad == LogValue.from_const(4)
    assert q3.quality == LogValue.from_const(-2)
    # classical function-field bound h <= rad_finite - 1 met with equality:
    # the radical includes the weight-1 infinity place, so rad_finite = rad - 1
    assert q3.h.const == (q3.rad.const - 1) - 1


def test_abc_triple_validation():
    with pytest.raises(DomainError):
        AbcTriple([1, 1, 1])
    with pytest.raises(DomainError):
        AbcTriple([0, 1, -1])


def test_abc_quality_scaling_invariance():
    rng = random.Random(81)
    for _ in range(30):
        a = F(rng.randint(1, 50), rng.randint(1, 20))
        b = F(rng.randint(1, 50), rng.randint(1, 20))
        lam = F(rng.randint(1, 30), rng.randint(1, 30))
        t1 = AbcTriple([a, b, -(a + b)])
        t2 = AbcTriple([lam * a, lam * b, -lam * (a + b)])
        assert abc_quality(t1).quality.formal_equal(abc_quality(t2).quality)


def _random_tpoly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [F(rng.randint(-5, 5)) for _ in range(deg)] + [F(rng.randint(1, 5))]
    return QPoly(coeffs)


def test_mason_stothers_on_random_triples():
    # unconditional function-field abc as an oracle for the height/radical stack
    rng = random.Random(82)
    checked = 0
    while checked < 50:
        a = _random_tpoly(rng, 4)
        b = _random_tpoly(rng, 4)
        if a.degree() == 0 and b.degree() == 0:
            continue
        if a.gcd(b).degree() > 0:
            continue
        c = -(a + b)
        if c.is_zero():
            continue
        triple = AbcTriple([RatFunc(a), RatFunc(b), RatFunc(c)], FIELD_QT)
        q = abc_quality(triple)
        assert q.quality.const <= -1, (a, b, c, q.quality)
        checked += 1


def test_theorem_experiment_family():
    rows, skips = theorem_experiment("z^3 + (1/a)*z^2", "a", [5, 7, 11], 1, F(1, 2))
    assert skips == []
    assert len(rows) == 3
    for row, p in zip(rows, (5, 7, 11)):
        assert row["family_param"] == str(p)
        assert row["n_preperiodic"] == 2
        # h_crit = log 3 + log p >= log p for these members
        assert f"log({p})" in row["h_crit"]
        assert row["triple"] == ""  # only one nonzero preperiodic point
        assert f"{p}:False" in row["verdicts"]
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ("family_param,h_crit,n_preperiodic,triple,"
                                        "h,rad,quality,achieved_delta,verdicts")
    # deterministic across reruns
    rows2, _ = theorem_experiment("z^3 + (1/a)*z^2", "a", [5, 7, 11], 1, F(1, 2))
    assert rows_to_csv(rows2) == csv_text


def test_theorem_experiment_csv_regression():
    rows, _ = theorem_experiment("z^3 + (1/a)*z^2", "a", [5], 1, F(1, 2))
    assert rows_to_csv(rows) == (
        "family_param,h_crit,n_preperiodic,triple,h,rad,quality,achieved_delta,verdicts\n"
        "5,log(3) + log(5),2,,,,,0,5:False\n"
    )


@pytest.mark.parametrize("family", ["z^3 + (1/a)*z^2", "z^5 + (1/a)*z^2"])
def test_theorem_experiment_runs_miller_rabin_once_per_prime(monkeypatch, family):
    """Every entry point proves its p, and the is_prime cache makes each proof run once."""
    witnesses = []
    real = exact._mr_witness

    def _mr_witness(n, a):
        witnesses.append((n, a))
        return real(n, a)

    monkeypatch.setattr(exact, "_mr_witness", _mr_witness)
    exact.is_prime.cache_clear()
    rows, skips = theorem_experiment(family, "a", [101])
    assert rows and not skips
    assert (101, 2) in witnesses  # the parameter prime was proved, by Miller-Rabin
    assert len(witnesses) == len(set(witnesses))  # and no (n, base) round ran twice


@pytest.mark.parametrize("family", ["z^3 + (1/a)*z^2", "z^5 + (1/a)*z^2"])
def test_theorem_experiment_factors_each_derivative_once(monkeypatch, family):
    # the critical points of a map are kept on it, so f' is factored once per value
    calls = []
    real = splitrad.dynamics.irreducible_factors

    def irreducible_factors(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(splitrad.dynamics, "irreducible_factors", irreducible_factors)
    rows, skips = theorem_experiment(family, "a", [7, 11, 13])
    assert rows and not skips
    assert len(calls) == 3


def test_theorem_experiment_skips():
    _, skips = theorem_experiment("z^3 + (1/a)*z^2", "a", [1], 1, F(1, 2))
    assert skips == [("1", "no bad place")]
    _, skips = theorem_experiment("a*z^3 - z^2", "a", [F(-2, 9)], 1, F(1, 2))
    assert skips == [("-2/9", "not monic")]


def test_theorem_experiment_triples_emitted():
    # z^3 - (24/5) z^2 fixes 5 and -1/5 and sends 24/5 to 0: four preperiodic
    # points give 3*2 ordered triples (-P1, P2, P1-P2) with nonzero entries
    rows, skips = theorem_experiment("z^3 - (a/5)*z^2", "a", [24], 1, F(1, 2))
    assert skips == []
    assert len(rows) == 6
    assert all(r["n_preperiodic"] == 4 for r in rows)
    by_triple = {r["triple"]: r for r in rows}
    r = by_triple["(-24/5,5,-1/5)"]
    assert r["h"] == "2*log(5)"
    assert r["rad"] == "log(2) + log(3) + log(5)"
    assert r["quality"] == "-1*log(2) + -1*log(3) + log(5)"  # log(5/6) < 0
    # members with a single nonzero preperiodic point emit one empty-triple row
    rows1, _ = theorem_experiment("z^3 - (a/5)*z^2", "a", [1], 1, F(1, 2))
    assert len(rows1) == 1 and rows1[0]["triple"] == ""


def test_m0_above_the_chain_depth_cap_raises_before_any_work(monkeypatch):
    # uncapped, every critical height and preperiodic search ran, then every value was
    # filed as a certificate-failure skip when inner_disk_chain refused m0 + 1 levels
    calls = []

    def spy(name):
        real = getattr(splitrad.stats, name)
        monkeypatch.setattr(splitrad.stats, name,
                            lambda *args: calls.append(name) or real(*args))

    spy("critical_height_global")
    spy("_superattracting_normalization")
    with pytest.raises(DomainError, match="m0 \\+ 1 = 5001 is above the chain depth cap of 1000"):
        theorem_experiment("z^3 + (1/a)*z^2", "a", [5, 7], m0=5000)
    with pytest.raises(DomainError, match="m0 \\+ 1 = 1001 is above the chain depth cap of 1000"):
        equidistribution_report(F5, [0, 1], F(1, 2), 1000)
    assert calls == []
    assert equidistribution_report(F5, [0, 1], F(1, 2), 999).m0 == 999
    assert calls == ["_superattracting_normalization"]
