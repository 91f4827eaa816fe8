"""Contract of the value classes, which all share one field list per class.

For a __slots__ class the fields are its public slots; for a record built on
``exact.Value`` they are its annotated names.  ``==``, ``hash`` (where the
class hashes) and pickling read that list, and so do the constructor,
``repr`` and ``to_json`` of an ``exact.Value``.  This file checks each:
immutability of the frozen records, pickle round trips that give back an
``==`` copy from the state protocols 2-5 build by default, and the shared
JSON form against the per-class bodies it replaced.
"""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from splitrad import (AbcTriple, CBox, Interval, LogValue, Place, ProjectivePoint, QPoly,
                      RatFunc, abc_quality, analyze, equidistribution_report, parse_poly)
from splitrad.berkovich import ChainLevel, DiskChain, WingCluster, WingClusters
from splitrad.cli import RunConfig
from splitrad.dynamics import PreperiodicPoint
from splitrad.localheights import LocalProfile, NewtonPolygon
from splitrad.stats import (AbcQuality, EpsilonGoodResult, EpsilonGoodWitness,
                            EquidistributionReport, PairMomentResult, PlaceReport)

LEVEL = ChainLevel(F(1, 2), 3, F(1, 3), 2)
CLUSTER = WingCluster(F(3), 2, F(2, 7), 1, ((F(3), 2),))
REPORT = PlaceReport("5", 3, F(1, 3), (("3", 1),), True, F(1))
WITNESS = EpsilonGoodWitness(F(1, 7), F(2), None)

# One instance of each class and its exact repr.  Plain field values stand in
# for LogValue and Place, whose pickling SLOTTED below covers.
CASES = [
    (LEVEL, "ChainLevel(t=Fraction(1, 2), k=3, mass=Fraction(1, 3), q=2)"),
    (DiskChain(5, 3, F(1, 2), (LEVEL,), ()),
     "DiskChain(p=5, degree=3, g=Fraction(1, 2), levels=(ChainLevel(t=Fraction(1, 2), k=3, "
     "mass=Fraction(1, 3), q=2),), moduli=())"),
    (CLUSTER, "WingCluster(center=Fraction(3, 1), count=2, mass=Fraction(2, 7), n_components=1, "
              "rational_roots=((Fraction(3, 1), 2),), center_precision=None)"),
    (WingClusters(7, 7, F(1, 5), ()), "WingClusters(p=7, degree=7, g=Fraction(1, 5), clusters=())"),
    (REPORT, "PlaceReport(place='5', annulus_count=3, annulus_mass=Fraction(1, 3), "
             "wing_counts=(('3', 1),), verdict=True, lambda_crit=Fraction(1, 1))"),
    (EquidistributionReport(4, F(1, 2), 1, (), None, 0, 0),
     "EquidistributionReport(n_points=4, eps=Fraction(1, 2), m0=1, places=(), "
     "achieved_delta=None, passing_weight=0, total_weight=0)"),
    (WITNESS, "EpsilonGoodWitness(alpha=Fraction(1, 7), size_sum=Fraction(2, 1), is_good=None)"),
    (EpsilonGoodResult(F(1), (WITNESS,), False, 0),
     "EpsilonGoodResult(fraction=Fraction(1, 1), witnesses=(EpsilonGoodWitness(alpha=Fraction(1, 7), "
     "size_sum=Fraction(2, 1), is_good=None),), degenerate=False, h_crit=0)"),
    (PairMomentResult(F(1, 2), 6, None, None),
     "PairMomentResult(average=Fraction(1, 2), n_pairs=6, threshold=None, count_above=None)"),
    (AbcQuality(1, 2, -1), "AbcQuality(h=1, rad=2, quality=-1)"),
    (NewtonPolygon(((0, F(1)), (3, F(0))), ((F(-1, 3), 3),), 0, 3),
     "NewtonPolygon(vertices=((0, Fraction(1, 1)), (3, Fraction(0, 1))), "
     "segments=((Fraction(-1, 3), 3),), ord_zero=0, degree=3)"),
    (LocalProfile("5", True, F(1), F(2)),
     "LocalProfile(place='5', is_bad=True, g_v=Fraction(1, 1), lambda_crit=Fraction(2, 1))"),
    (PreperiodicPoint(F(-1, 2), 1, 2), "PreperiodicPoint(value=Fraction(-1, 2), preperiod=1, period=2)"),
    (RunConfig(), "RunConfig(tol=1e-09, nonarch_maxiter=30, arch_maxiter=400, depth=6, m0=1, "
                  "eps=Fraction(1, 2), grid=600)"),
]
FROZEN = (ChainLevel, DiskChain, NewtonPolygon, PreperiodicPoint)
IDS = [type(obj).__name__ for obj, _ in CASES]


@pytest.mark.parametrize("obj, text", CASES, ids=IDS)
def test_repr_and_equality(obj, text):
    assert repr(obj) == text
    cls, fields = type(obj), vars(obj)
    assert cls(*fields.values()) == obj == cls(**fields)
    first = next(iter(fields))
    assert cls(**{**fields, first: F(99)}) != obj
    assert obj != tuple(fields.values())


@pytest.mark.parametrize("obj, text", CASES, ids=IDS)
def test_hash_and_immutability(obj, text):
    first = next(iter(vars(obj)))
    if isinstance(obj, FROZEN):
        assert hash(obj) == hash(tuple(vars(obj).values()))
        with pytest.raises(AttributeError):
            setattr(obj, first, 0)
        with pytest.raises(AttributeError):
            delattr(obj, first)
    else:
        with pytest.raises(TypeError):
            hash(obj)
        changed = pickle.loads(pickle.dumps(obj))
        setattr(changed, first, F(99))
        assert getattr(changed, first) == F(99) and changed != obj


@pytest.mark.parametrize("obj, text", CASES, ids=IDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(obj, text, protocol):
    back = pickle.loads(pickle.dumps(obj, protocol=protocol))
    assert type(back) is type(obj) and back == obj
    assert list(vars(back).items()) == list(vars(obj).items())


# one instance of each exported __slots__ class (three kinds of Place)
SLOTTED = [LogValue(F(1, 3), {2: F(1, 2), 5: -1}, Interval(-1e-9, 2e-9)), Place.arch(),
           Place.finite(7), Place.finite_poly(QPoly([1, 0, 1])), QPoly([F(1, 2), 0, -3, 1]),
           RatFunc(QPoly([1, 1]), QPoly([-2, 1])), Interval(0.1, 0.3),
           CBox(Interval(-1, 1), Interval(0.5, 2.5)), ProjectivePoint([1, F(2, 3), -5]),
           AbcTriple([1, 8, -9])]
SLOTTED_IDS = [f"{type(obj).__name__}{i}" for i, obj in enumerate(SLOTTED)]


def slot_items(obj):
    return [(name, getattr(obj, name)) for name in type(obj).__slots__]


@pytest.mark.parametrize("obj", SLOTTED, ids=SLOTTED_IDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_slotted_pickle_round_trip(obj, protocol):
    back = pickle.loads(pickle.dumps(obj, protocol=protocol))
    assert type(back) is type(obj) and slot_items(back) == slot_items(obj)
    assert back == obj
    try:
        h = hash(obj)
    except TypeError:  # a ProjectivePoint, and an AbcTriple that holds one
        with pytest.raises(TypeError):
            hash(back)
    else:
        assert hash(back) == h


@pytest.mark.skipif(sys.version_info < (3, 11), reason="object.__getstate__ is new in 3.11")
@pytest.mark.parametrize("obj", SLOTTED, ids=SLOTTED_IDS)
def test_slotted_state_is_the_default_state(obj):
    # the state protocols 2-5 build without a __getstate__, in the same slot
    # order, so those protocols pickle to the same bytes as before
    state, default = obj.__getstate__(), object.__getstate__(obj)
    assert state == default and list(state[1]) == list(default[1])


def test_equal_slotted_values_are_equal_and_hash_alike():
    assert CBox(Interval(0, 1), Interval(0, 1)) == CBox(Interval(0, 1), Interval(0, 1))
    assert hash(CBox(Interval(0, 1), Interval(0, 1))) == hash(CBox(Interval(0, 1), Interval(0, 1)))
    assert CBox(Interval(0, 1), Interval(0, 1)) != CBox(Interval(0, 1), Interval(0, 2))
    assert AbcTriple([1, 8, -9]) == AbcTriple([2, 16, -18]) != AbcTriple([1, -9, 8])
    assert Interval(0, 1) != (0.0, 1.0) and Place.finite(5) != 5
    assert {Place.finite(5), Place.finite(5), Place.arch()} == {Place.arch(), Place.finite(5)}


def test_value_pickle_script_covers_every_class():
    # the stand-alone script that the Python-floor CI job runs
    here = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": str(here.parent / "src")}
    run = subprocess.run([sys.executable, str(here / "check_value_pickles.py")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("23 value classes")


# The to_json bodies of these four classes before they shared Value.to_json,
# kept to pin its output: same keys, order and values.
def ratio_json(r):
    if isinstance(r, Interval):
        return {"interval": [r.lo, r.hi]}
    return None if r is None else str(r)


def place_report_json(r):
    return {"place": r.place.to_json(), "annulus_count": r.annulus_count,
            "annulus_mass": str(r.annulus_mass),
            "wing_counts": [[label, c] for label, c in r.wing_counts],
            "verdict": r.verdict, "lambda_crit": r.lambda_crit.to_json()}


def report_json(r):
    return {"n_points": r.n_points, "eps": str(r.eps), "m0": r.m0,
            "places": [place_report_json(p) for p in r.places],
            "achieved_delta": ratio_json(r.achieved_delta),
            "passing_weight": r.passing_weight.to_json(), "total_weight": r.total_weight.to_json()}


def profile_json(r):
    return {"place": r.place.to_json(), "is_bad": r.is_bad,
            "g_v": r.g_v.to_json() if r.g_v is not None else None,
            "lambda_crit": r.lambda_crit.to_json()}


def abc_json(q):
    return {"h": q.h.to_json(), "rad": q.rad.to_json(), "quality": q.quality.to_json()}


REFERENCE_JSON = {PlaceReport: place_report_json, EquidistributionReport: report_json,
                  LocalProfile: profile_json, AbcQuality: abc_json}

SPLASH = parse_poly("z^3 + (1/5)*z^2")
LAM = LogValue(F(1, 3), {5: F(1, 2)}, Interval(-1e-9, 2e-9))
PLACE_REPORT = PlaceReport(Place.finite(5), 1, F(1, 3), (("0", 1), ("cluster1", 0)), False, LAM)
JSON_CASES = [
    PLACE_REPORT,
    EquidistributionReport(2, F(1, 2), 1, (PLACE_REPORT,), Interval(0.25, 0.5), LAM, LAM * 2),
    EquidistributionReport(2, F(1, 2), 1, (PLACE_REPORT, PLACE_REPORT), F(1, 2), LAM, LAM * 2),
    EquidistributionReport(1, F(1, 3), 2, (), None, LogValue.zero(), LogValue.zero()),
    LocalProfile(Place.finite(5), True, LogValue.from_log(5, F(-1, 2)), LAM),
    LocalProfile(Place.arch(), None, None, LogValue.from_interval(Interval(0.1, 0.2))),
    LocalProfile(Place.finite_poly(QPoly([1, 0, 1])), False, None, LogValue.zero()),
    AbcQuality(LogValue.log_abs(9), LogValue.log_abs(6), LogValue.log_abs(F(3, 2))),
    equidistribution_report(SPLASH, [0, F(-1, 5)], F(1, 2), 1),
    *analyze(SPLASH)[0],
    abc_quality(AbcTriple([1, 8, -9])),
]


@pytest.mark.parametrize("obj", JSON_CASES, ids=[f"{type(obj).__name__}{i}"
                                                 for i, obj in enumerate(JSON_CASES)])
def test_shared_to_json_matches_the_per_class_bodies(obj):
    assert json.dumps(obj.to_json()) == json.dumps(REFERENCE_JSON[type(obj)](obj))


def test_field_json_forms():
    assert Interval(0, 1).to_json() == {"interval": [0.0, 1.0]}
    assert LEVEL.to_json() == {"t": "1/2", "k": 3, "mass": "1/3", "q": 2}
    assert RunConfig().to_json()["eps"] == "1/2"


def test_preperiodic_points_order_by_value_then_preperiod_then_period():
    pts = [PreperiodicPoint(F(1), 0, 2), PreperiodicPoint(F(-1), 1, 1),
           PreperiodicPoint(F(1), 0, 1), PreperiodicPoint(F(0), 2, 1)]
    assert [(p.value, p.preperiod, p.period) for p in sorted(pts)] == [
        (-1, 1, 1), (0, 2, 1), (1, 0, 1), (1, 0, 2)]
    a, b = pts[2], pts[0]
    assert a < b and a <= b and b > a and b >= a and not b < a
    with pytest.raises(TypeError):
        a < (1, 0, 1)


def test_keyword_default_and_bad_construction():
    c = WingCluster(count=1, mass=F(1, 7), center=None, n_components=None, rational_roots=())
    assert c.center_precision is None and "center_precision" in vars(c)
    assert WingCluster(None, 1, F(1, 7), None, (), F(2)).center_precision == F(2)
    assert RunConfig(depth=3).depth == 3 and RunConfig(depth=3).grid == 600
    for args, kwargs in [((F(3), 2, F(2, 7), 1), {}),              # missing a field
                         ((F(3), 2, F(2, 7), 1, (), None, 0), {}),  # one too many
                         ((F(3),), {"center": F(3)}),              # given twice
                         ((F(3), 2, F(2, 7), 1, ()), {"radius": 1})]:  # no such field
        with pytest.raises(TypeError):
            WingCluster(*args, **kwargs)
