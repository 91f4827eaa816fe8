"""Pickle one instance of each splitrad value class at every protocol and check the copy is ==.

A stand-alone script, with no third-party imports, for the oldest supported
Python (3.10 lacks ``object.__getstate__``, the one pickling difference):

    PYTHONPATH=src python3 tests/check_value_pickles.py

It exits 1 if a class is missing from the instances below or a round trip
fails.  ``tests/test_value_classes.py`` runs it under the test interpreter.
"""

import pickle
import sys
from fractions import Fraction as F

import splitrad as sr
from splitrad.cli import RunConfig
from splitrad.intervals import Slotted


def instances() -> list:
    f = sr.parse_poly("z^3 + (1/5)*z^2")
    chain = sr.inner_disk_chain(f, 5, 3)
    wings = sr.wing_clusters(f, 5)
    profiles, _ = sr.analyze(f)
    report = sr.equidistribution_report(f, [0, F(-1, 5)], F(1, 2), 1)
    good = sr.epsilon_good_fraction(f, [0, 1, F(-1, 5)], F(1, 2))
    triple = sr.AbcTriple([1, 8, -9])
    return [sr.Interval(0.1, 0.3), sr.CBox(sr.Interval(-1, 1), sr.Interval(0.5, 2.5)),
            sr.LogValue(F(1, 3), {2: F(1, 2), 5: -1}, sr.Interval(-1e-9, 2e-9)),
            sr.Place.arch(), sr.Place.finite(7), sr.Place.finite_poly(sr.QPoly([1, 0, 1])),
            sr.QPoly([F(1, 2), 0, -3, 1]), sr.RatFunc(sr.QPoly([1, 1]), sr.QPoly([-2, 1])),
            f, sr.parse_poly("z^2 + 1/(t + 1)", "Qt"), sr.ProjectivePoint([1, F(2, 3), -5]),
            triple, sr.abc_quality(triple), chain, chain.levels[0], wings, wings.clusters[0],
            *profiles, report, report.places[0], good, good.witnesses[0],
            sr.pair_moment(f, [0, 1, 2], F(1, 2)), sr.newton_polygon(f, 5),
            sr.preperiodic_points(f)[0], RunConfig(depth=3)]


def value_classes() -> set:
    todo, found = [Slotted], set()
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            found.add(cls)
    return found - {sr.exact.Value, sr.exact.Frozen}


def main() -> int:
    objs = instances()
    missing = value_classes() - {type(obj) for obj in objs}
    if missing:
        print("no instance of", ", ".join(sorted(cls.__name__ for cls in missing)))
        return 1
    bad = [f"{type(obj).__name__} at protocol {protocol}"
           for obj in objs for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
           if pickle.loads(pickle.dumps(obj, protocol)) != obj]
    for line in bad:
        print("round trip is not ==:", line)
    print(f"{len(value_classes())} value classes, {len(objs)} instances, "
          f"protocols 0-{pickle.HIGHEST_PROTOCOL}, Python {sys.version.split()[0]}: "
          + ("ok" if not bad else f"{len(bad)} failed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
