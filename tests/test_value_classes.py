"""Contract of the plain value classes: constructor, ==, repr, hash, immutability, pickling."""

import pickle
import sys
from fractions import Fraction as F

import pytest

from splitrad import CBox, Interval, LogValue, Place, ProjectivePoint, QPoly, RatFunc
from splitrad.berkovich import ChainLevel, DiskChain, WingCluster, WingClusters
from splitrad.cli import RunConfig
from splitrad.dynamics import PreperiodicPoint
from splitrad.localheights import LocalProfile, NewtonPolygon
from splitrad.stats import (AbcQuality, AbcTriple, EpsilonGoodResult, EpsilonGoodWitness,
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="object.__getstate__ is new in 3.11")
@pytest.mark.parametrize("obj", SLOTTED, ids=SLOTTED_IDS)
def test_slotted_state_is_the_default_state(obj):
    # the state protocols 2-5 build without a __getstate__, in the same slot
    # order, so those protocols pickle to the same bytes as before
    state, default = obj.__getstate__(), object.__getstate__(obj)
    assert state == default and list(state[1]) == list(default[1])


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
