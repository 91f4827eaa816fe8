"""splitrad: exact local heights and non-archimedean disk dynamics for
polynomials with superattracting periodic points.

The library computes, with certificates: splitting radii and bad-place
verdicts, exact non-archimedean escape rates, certified archimedean escape
rates, local/global critical heights, canonical heights, descending disk
chains with annulus moduli and radius denominators, wing clusters,
preperiodic point sets over Q, and abc/equidistribution statistics on
explicit point sets over Q and Q(t).
"""

from .exact import (DomainError, INFINITY, LogValue, Rational,
                    UndeterminedError, divisors, factorize, is_prime,
                    valuation)
from .intervals import CBox, Interval
from .qpoly import QPoly, RatFunc, irreducible_factors
from .places import (FIELD_Q, FIELD_QT, Place, ProjectivePoint, local_abs_log,
                     naive_height, places_below, product_formula_check,
                     radical, support)
from .dynamics import (NewtonPolygon, ParseError, Poly, PreperiodicPoint,
                       candidate_bad_primes, center, conjugate,
                       critical_points, escape_exponent,
                       in_superattracting_family, iterate, newton_polygon,
                       parse_ground, parse_poly, preperiodic_points,
                       print_poly, superattracting_cycles)
from .localheights import (LocalProfile, analyze,
                           canonical_height, critical_height_global,
                           critical_height_local, escape_rate_arch,
                           escape_rate_nonarch, splitting_exponent,
                           splitting_radius)

__version__ = "0.1.0"

# These names load their module on first use: most subcommands need neither
# berkovich nor stats, and plotting needs numpy.
_LAZY = {name: module for module, names in (
    ("berkovich", "AnnulusPosition ChainLevel DiskChain WingCluster WingClusters annulus_mass "
                  "annulus_membership hsia_energy inner_disk_chain wing_clusters"),
    ("stats", "AbcQuality AbcTriple EquidistributionReport PairMomentResult abc_quality "
              "epsilon_good_fraction epsilon_good_sum equidistribution_report pair_moment "
              "theorem_experiment"),
    ("plotting", "contour_polylines equipotential_svg escape_rate_grid"),
) for name in (module, *names.split())}

# import * loads berkovich and stats, but not numpy
__all__ = [n for n in [*globals(), *_LAZY] if n[0] != "_" and _LAZY.get(n) != "plotting"]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
