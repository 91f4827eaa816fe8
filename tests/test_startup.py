"""Start-up contract: numpy loads only to plot, sympy only for a factor of degree >= 4,
berkovich and stats only for the subcommands that use them, and dataclasses never."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# one run of every subcommand but equipotential; a pool triple over Q(t), a
# quintic whose f' has an irreducible cubic factor, and a canonical height on a
# quintic whose f' is an irreducible quartic (its basin disks need only the
# rational roots of f') included
ARGVS = [
    ["analyze", "--poly", "z^3 + (1/5)*z^2"],
    ["hcrit", "--poly", "z^3 + (1/5)*z^2"],
    ["hcrit", "--poly", "z^5 + (1/7)*z^2"],
    ["canonical-height", "--poly", "z^3 + (1/5)*z^2", "--point", "1/2"],
    ["canonical-height", "--poly", "z^5 + z + 1", "--point", "1/2"],
    ["preperiodic", "--poly", "-(2/9)*z^3 - z^2"],
    ["disk-chain", "--poly", "z^3 + (1/5)*z^2", "--place", "5", "--depth", "4"],
    ["wings", "--poly", "z^7 + (1/11)*z^2", "--place", "11"],
    ["equidistribution", "--poly", "z^3 + (1/5)*z^2", "--points", "0,1,2,-1/5"],
    ["abc-quality", "--triple", "1,8,-9"],
    ["abc-quality", "--field", "Qt", "--triple=t^3-t^2-t-1,2*t^2-2*t+3,-t^3-t^2+3*t-2"],
    ["experiment", "--family", "z^3 + (1/a)*z^2", "--values", "5,7"],
]

BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["sympy"] = None  # any import of either raises
from splitrad.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except ImportError:
            codes.append("ImportError")
print(json.dumps(codes))
"""


def python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    p = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_import_loads_neither_numpy_nor_sympy():
    for module in ("splitrad", "splitrad.cli"):
        out = python(f"import sys, {module}; print('numpy' in sys.modules, 'sympy' in sys.modules)")
        assert out.split() == ["False", "False"], module


def test_subcommands_run_without_numpy_and_sympy():
    codes = json.loads(python(BLOCKED_RUN, json.dumps(ARGVS)))
    assert codes == [0] * len(ARGVS)


def test_equipotential_is_the_one_subcommand_that_needs_numpy():
    argv = [["equipotential", "--poly", "z^2 - 1", "--grid", "20"]]
    assert json.loads(python(BLOCKED_RUN, json.dumps(argv))) == ["ImportError"]


def test_plotting_names_still_import():
    out = python("""
import sys, splitrad
from splitrad import contour_polylines, equipotential_svg, escape_rate_grid
import splitrad.plotting
assert splitrad.plotting.equipotential_svg is equipotential_svg is splitrad.equipotential_svg
names = dir(splitrad)
assert {"plotting", "contour_polylines", "equipotential_svg", "escape_rate_grid"} <= set(names)
assert {"critical_points", "irreducible_factors", "__version__"} <= set(names)
try:
    splitrad.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("missing name did not raise")
print('numpy' in sys.modules)
""")
    assert out.split() == ["True"]


# the splitrad modules a fresh process loads for each subcommand in ARGVS
BASE = {"cli", "dynamics", "exact", "intervals", "localheights", "places", "qpoly"}
LOADS = {"analyze": BASE, "hcrit": BASE, "canonical-height": BASE, "preperiodic": BASE,
         "disk-chain": BASE | {"berkovich"}, "wings": BASE | {"berkovich"},
         "abc-quality": BASE | {"stats"},
         **dict.fromkeys(["equidistribution", "experiment"], BASE | {"berkovich", "stats"})}

LOADED_RUN = """
import contextlib, io, json, sys
from splitrad.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m[len("splitrad."):] for m in sys.modules
                               if m.startswith("splitrad.")),
                  "dataclasses" in sys.modules, "inspect" in sys.modules]))
"""


def test_each_subcommand_loads_only_the_layers_it_uses():
    for argv in ARGVS:
        code, modules, dataclasses, inspect = json.loads(python(LOADED_RUN, json.dumps(argv)))
        assert code == 0, argv
        assert set(modules) == LOADS[argv[0]], argv
        assert not dataclasses and not inspect, argv


# the public names of the package at the time every layer but plotting was
# imported eagerly; import * still gives exactly these
EAGER_NAMES = """AbcQuality AbcTriple AnnulusPosition CBox ChainLevel DiskChain DomainError
EquidistributionReport FIELD_Q FIELD_QT INFINITY Interval LocalProfile LogValue NewtonPolygon
PairMomentResult ParseError Place Poly PreperiodicPoint ProjectivePoint QPoly RatFunc Rational
UndeterminedError WingCluster WingClusters abc_quality analyze annulus_mass annulus_membership
berkovich candidate_bad_primes canonical_height center conjugate critical_height_global
critical_height_local critical_points divisors dynamics epsilon_good_fraction epsilon_good_sum
equidistribution_report escape_exponent escape_rate_arch escape_rate_nonarch exact factorize
hsia_energy in_superattracting_family inner_disk_chain intervals irreducible_factors is_prime
iterate local_abs_log localheights naive_height newton_polygon pair_moment parse_ground parse_poly
places places_below preperiodic_points print_poly product_formula_check qpoly radical
splitting_exponent splitting_radius stats superattracting_cycles support theorem_experiment
valuation wing_clusters""".split()


def test_berkovich_and_stats_load_on_first_use():
    out = python("""
import json, sys, splitrad
lazy_before = {"splitrad.berkovich", "splitrad.stats"} & set(sys.modules)
names = [n for n in dir(splitrad) if not n.startswith("_")]
from splitrad import wing_clusters, theorem_experiment
import splitrad.berkovich, splitrad.stats
assert splitrad.berkovich.wing_clusters is wing_clusters is splitrad.wing_clusters
assert splitrad.stats.theorem_experiment is theorem_experiment
assert splitrad.stats is sys.modules["splitrad.stats"]
star = {}
exec("from splitrad import *", star)
print(json.dumps([sorted(lazy_before), names, sorted(set(star) - {"__builtins__"}),
                  "numpy" in sys.modules]))
""")
    lazy_before, names, star, numpy = json.loads(out)
    assert lazy_before == []
    assert names == sorted(EAGER_NAMES + ["contour_polylines", "equipotential_svg",
                                          "escape_rate_grid", "plotting"])
    assert star == sorted(EAGER_NAMES)
    assert not numpy
